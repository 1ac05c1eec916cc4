/**
 * @file
 * relief_serve — the online serving driver CLI.
 *
 * Runs one open-loop serving experiment: stochastic request arrivals
 * against a configured platform and scheduling policy, with QoS
 * classes, admission control, and per-class SLO accounting
 * (docs/serving.md). Prints the per-class SLO table and optionally
 * writes a single-run relief-serve-v1 JSON document.
 *
 * Examples:
 *
 *   relief_serve --policy RELIEF --rate 400
 *   relief_serve --arrival bursty --rate 600 --admission queue-cap \
 *       --queue-cap 32 --horizon-ms 100 --seed 7 --out serve.json
 *   relief_serve --arrival trace --trace-file arrivals.txt
 *
 * Flags:
 *   --policy NAME        scheduling policy (default RELIEF)
 *   --rate X             mean offered rate, requests/s (default 200)
 *   --arrival KIND       poisson | bursty | trace (default poisson)
 *   --trace-file FILE    arrival trace for --arrival trace
 *   --burst-mult X       bursty: burst-state rate multiplier (default 4)
 *   --burst-frac X       bursty: fraction of time in burst (default .25)
 *   --admission KIND     admit-all | queue-cap | laxity (default
 *                        admit-all)
 *   --queue-cap N        queue-cap: in-system request cap (default 64)
 *   --horizon-ms X       measurement window (default 50, the paper's)
 *   --seed N             arrival-stream seed (default 1)
 *   --stats-json FILE    dump the full stat registry (incl. serve.*)
 *   --out FILE           write a relief-serve-v1 JSON document
 *
 * Telemetry (docs/serving.md "Request tracing"):
 *   --trace FILE         Perfetto trace: serve counter tracks + kept
 *                        request span trees (implies request tracing)
 *   --trace-json FILE    relief-trace-v1 document of kept traces
 *                        (implies request tracing)
 *   --sample-ok X        tail-sampling keep fraction for OK traces
 *                        (default 0; misses/shed/rejected always kept)
 *   --expo FILE          periodic Prometheus text exposition snapshots
 *   --expo-period-us N   exposition cadence (default 5000)
 *   --expo-series        also keep every snapshot as FILE.<n>
 *   --alerts             evaluate per-class SLO burn-rate alerts
 *   --slo-target X       alert SLO attainment target (default 0.9)
 *   --alert-fast-ms X    fast burn window (default 5)
 *   --alert-slow-ms X    slow burn window (default 25)
 *   --debug-flags LIST   debug categories, e.g. Serve,Sched
 */

#include <fstream>
#include <iostream>
#include <string>

#include "core/cli.hh"
#include "core/relief.hh"
#include "serve/server.hh"
#include "sim/build_info.hh"
#include "sim/debug.hh"
#include "stats/json.hh"

using namespace relief;

int
main(int argc, char **argv)
{
    ServeConfig config;
    std::string out_path;
    std::string stats_json_path;
    std::string trace_path;
    std::string trace_json_path;
    double horizon_ms = toMs(continuousWindow);

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto need_value = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("flag ", arg, " needs a value");
                return argv[++i];
            };
            if (arg == "--policy") {
                config.soc.policy = policyFromName(need_value());
            } else if (arg == "--rate") {
                config.arrival.ratePerSec =
                    std::atof(need_value().c_str());
                if (config.arrival.ratePerSec <= 0.0)
                    fatal("--rate needs a positive value");
            } else if (arg == "--arrival") {
                config.arrival.kind = arrivalFromName(need_value());
            } else if (arg == "--trace-file") {
                config.arrival.tracePath = need_value();
            } else if (arg == "--burst-mult") {
                config.arrival.burstRateMultiplier =
                    std::atof(need_value().c_str());
            } else if (arg == "--burst-frac") {
                config.arrival.burstFraction =
                    std::atof(need_value().c_str());
            } else if (arg == "--admission") {
                config.admission.kind = admissionFromName(need_value());
            } else if (arg == "--queue-cap") {
                config.admission.queueCap =
                    std::atoi(need_value().c_str());
            } else if (arg == "--horizon-ms") {
                horizon_ms = std::atof(need_value().c_str());
                if (horizon_ms <= 0.0)
                    fatal("--horizon-ms needs a positive value");
            } else if (arg == "--seed") {
                config.seed =
                    std::uint64_t(std::atoll(need_value().c_str()));
            } else if (arg == "--stats-json") {
                stats_json_path = need_value();
            } else if (arg == "--out") {
                out_path = need_value();
            } else if (arg == "--trace") {
                trace_path = need_value();
                config.telemetry.perfetto = true;
                config.telemetry.traceRequests = true;
            } else if (arg == "--trace-json") {
                trace_json_path = need_value();
                config.telemetry.traceRequests = true;
            } else if (arg == "--sample-ok") {
                config.telemetry.okFraction =
                    std::atof(need_value().c_str());
                if (config.telemetry.okFraction < 0.0 ||
                    config.telemetry.okFraction > 1.0) {
                    fatal("--sample-ok needs a fraction in [0, 1]");
                }
            } else if (arg == "--expo") {
                config.telemetry.exposition.path = need_value();
            } else if (arg == "--expo-period-us") {
                double us = std::atof(need_value().c_str());
                if (us <= 0.0)
                    fatal("--expo-period-us needs a positive value");
                config.telemetry.exposition.period = fromUs(us);
            } else if (arg == "--expo-series") {
                config.telemetry.exposition.series = true;
            } else if (arg == "--alerts") {
                config.telemetry.alerts = true;
            } else if (arg == "--slo-target") {
                double target = std::atof(need_value().c_str());
                if (target <= 0.0 || target >= 1.0)
                    fatal("--slo-target needs a value in (0, 1)");
                config.telemetry.burnRate.sloTarget = target;
            } else if (arg == "--alert-fast-ms") {
                double ms = std::atof(need_value().c_str());
                if (ms <= 0.0)
                    fatal("--alert-fast-ms needs a positive value");
                config.telemetry.burnRate.fastWindow = fromMs(ms);
            } else if (arg == "--alert-slow-ms") {
                double ms = std::atof(need_value().c_str());
                if (ms <= 0.0)
                    fatal("--alert-slow-ms needs a positive value");
                config.telemetry.burnRate.slowWindow = fromMs(ms);
            } else if (arg == "--debug-flags") {
                setDebugFlags(need_value());
            } else if (arg == "--help" || arg == "-h") {
                std::cout
                    << "usage: relief_serve [--policy NAME] [--rate X] "
                       "[--arrival poisson|bursty|trace] "
                       "[--trace-file FILE] [--burst-mult X] "
                       "[--burst-frac X] "
                       "[--admission admit-all|queue-cap|laxity] "
                       "[--queue-cap N] [--horizon-ms X] [--seed N] "
                       "[--stats-json FILE] [--out FILE] "
                       "[--trace FILE] [--trace-json FILE] "
                       "[--sample-ok X] [--expo FILE] "
                       "[--expo-period-us N] [--expo-series] "
                       "[--alerts] [--slo-target X] "
                       "[--alert-fast-ms X] [--alert-slow-ms X] "
                       "[--debug-flags LIST]\n";
                return 0;
            } else {
                fatal("unknown flag '", arg, "'");
            }
        }
        config.horizon = fromMs(horizon_ms);

        ServeDriver driver(config);
        ServeReport report = driver.run();

        std::cout << "serve: " << policyName(config.soc.policy) << " / "
                  << admissionKindName(config.admission.kind) << " / "
                  << arrivalKindName(config.arrival.kind) << " @ "
                  << Table::num(config.arrival.ratePerSec, 1)
                  << " rps for " << Table::num(horizon_ms, 1)
                  << " ms (seed " << config.seed << ")\n\n";
        printSloTable(std::cout, report, "Per-class SLO report");

        if (config.telemetry.traceRequests) {
            const TailSampleSummary &s = driver.tailSampler()->summary();
            std::cout << "\ntraces: kept " << s.kept() << " of "
                      << s.offered << " requests (ok " << s.keptOk
                      << ", miss/in-flight " << s.keptMiss << ", shed "
                      << s.keptShed << ", rejected " << s.keptRejected
                      << ", dropped " << s.dropped << ")\n";
        }

        if (!stats_json_path.empty()) {
            std::ofstream out(stats_json_path);
            if (!out)
                fatal("cannot write ", stats_json_path);
            driver.soc().writeStatsJson(out);
        }
        if (!trace_path.empty()) {
            std::ofstream out(trace_path);
            if (!out)
                fatal("cannot write ", trace_path);
            driver.soc().trace()->writeChromeJson(out);
            std::cout << "Perfetto trace written to " << trace_path
                      << "\n";
        }
        if (!trace_json_path.empty()) {
            std::ofstream out(trace_json_path);
            if (!out)
                fatal("cannot write ", trace_json_path);
            writeTraceDocJson(out, driver.keptTraces(),
                              driver.tailSampler()->summary(),
                              config.telemetry.okFraction, config.seed,
                              horizon_ms);
            std::cout << "trace JSON written to " << trace_json_path
                      << "\n";
        }
        if (!out_path.empty()) {
            std::ofstream out(out_path);
            if (!out)
                fatal("cannot write ", out_path);
            out << "{\n  \"schema\": \"relief-serve-v1\",\n"
                << "  \"build_info\": ";
            writeBuildInfoJson(out, 2);
            out << ",\n"
                << "  \"seed\": " << config.seed << ",\n"
                << "  \"horizon_ms\": " << jsonNumber(horizon_ms)
                << ",\n  \"smoke\": false,\n"
                << "  \"capacity_rps\": null,\n"
                << "  \"runs\": [\n    ";
            writeServeRunJson(out, report,
                              policyName(config.soc.policy),
                              admissionKindName(config.admission.kind),
                              arrivalKindName(config.arrival.kind),
                              0.0, config.arrival.ratePerSec, 4);
            out << "\n  ],\n  \"saturation\": []\n}\n";
            std::cout << "\nserve JSON written to " << out_path << "\n";
        }
    } catch (const FatalError &) {
        return 1; // fatal() already printed the message
    }
    return 0;
}
