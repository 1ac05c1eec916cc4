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
 * `relief_serve --help` lists every flag; docs/serving.md explains the
 * telemetry ones ("Request tracing").
 */

#include <iostream>
#include <string>

#include "core/cli.hh"
#include "core/relief.hh"
#include "serve/server.hh"

using namespace relief;

namespace
{

int
run(int argc, char **argv)
{
    ServeConfig config;
    std::string out_path;
    std::string stats_json_path;
    std::string trace_path;
    std::string trace_json_path;
    double horizon_ms = toMs(continuousWindow);

    FlagTable flags("relief_serve");
    ServeTelemetryConfig &tele = config.telemetry;
    flags
        .add("--policy", "NAME", "scheduling policy (default RELIEF)",
             [&](FlagValues v) { config.soc.policy = policyFromName(v[0]); })
        .number("--rate", "X", "mean offered rate, requests/s (default 200)",
                config.arrival.ratePerSec, positive)
        .add("--arrival", "KIND", "poisson | bursty | trace (default poisson)",
             [&](FlagValues v) {
                 config.arrival.kind = arrivalFromName(v[0]);
             })
        .text("--trace-file", "FILE", "arrival trace for --arrival trace",
              config.arrival.tracePath)
        .number("--burst-mult", "X",
                "bursty: burst-state rate multiplier (default 4)",
                config.arrival.burstRateMultiplier)
        .number("--burst-frac", "X",
                "bursty: fraction of time in burst (default 0.25)",
                config.arrival.burstFraction)
        .add("--admission", "KIND",
             "admit-all | queue-cap | laxity (default admit-all)",
             [&](FlagValues v) {
                 config.admission.kind = admissionFromName(v[0]);
             })
        .number("--queue-cap", "N",
                "queue-cap: in-system request cap (default 64)",
                config.admission.queueCap)
        .number("--horizon-ms", "X",
                "measurement window (default 50, the paper's)", horizon_ms,
                positive)
        .number("--seed", "N", "arrival-stream seed (default 1)", config.seed)
        .text("--stats-json", "FILE",
              "dump the full stat registry (incl. serve.*)", stats_json_path)
        .text("--out", "FILE", "write a relief-serve-v1 JSON document",
              out_path)
        .add("--trace", "FILE",
             "Perfetto trace: serve counter tracks + kept request span "
             "trees (implies request tracing)",
             [&](FlagValues v) {
                 trace_path = v[0];
                 tele.perfetto = tele.traceRequests = true;
             })
        .add("--trace-json", "FILE",
             "relief-trace-v1 document of kept traces (implies request "
             "tracing)",
             [&](FlagValues v) {
                 trace_json_path = v[0];
                 tele.traceRequests = true;
             })
        .number("--sample-ok", "X",
                "tail-sampling keep fraction for OK traces (default 0; "
                "misses/shed/rejected are always kept)",
                tele.okFraction, Range{0.0, 1.0})
        .text("--expo", "FILE", "periodic Prometheus text exposition "
              "snapshots", tele.exposition.path)
        .number("--expo-period-us", "N", "exposition cadence (default 5000)",
                tele.exposition.period, positive, fromUs)
        .toggle("--expo-series", "also keep every snapshot as FILE.<n>",
                tele.exposition.series)
        .toggle("--alerts", "evaluate per-class SLO burn-rate alerts",
                tele.alerts)
        .number("--slo-target", "X",
                "alert SLO attainment target (default 0.9)",
                tele.burnRate.sloTarget, Range{0.0, 1.0, true, true})
        .number("--alert-fast-ms", "X", "fast burn window (default 5)",
                tele.burnRate.fastWindow, positive, fromMs)
        .number("--alert-slow-ms", "X", "slow burn window (default 25)",
                tele.burnRate.slowWindow, positive, fromMs);
    addDebugFlags(flags);
    if (!flags.parse({argv + 1, argv + argc}))
        return 0;
    config.horizon = fromMs(horizon_ms);

    ServeDriver driver(config);
    ServeReport report = driver.run();

    std::cout << "serve: " << policyName(config.soc.policy) << " / "
              << admissionKindName(config.admission.kind) << " / "
              << arrivalKindName(config.arrival.kind) << " @ "
              << Table::num(config.arrival.ratePerSec, 1) << " rps for "
              << Table::num(horizon_ms, 1) << " ms (seed " << config.seed
              << ")\n\n";
    printSloTable(std::cout, report, "Per-class SLO report");

    if (tele.traceRequests) {
        const TailSampleSummary &s = driver.tailSampler()->summary();
        std::cout << "\ntraces: kept " << s.kept() << " of " << s.offered
                  << " requests (ok " << s.keptOk << ", miss/in-flight "
                  << s.keptMiss << ", shed " << s.keptShed << ", rejected "
                  << s.keptRejected << ", dropped " << s.dropped << ")\n";
    }

    writeFile(stats_json_path, "", [&](std::ostream &out) {
        driver.soc().writeStatsJson(out);
    });
    writeFile(trace_path, "Perfetto trace", [&](std::ostream &out) {
        driver.soc().trace()->writeChromeJson(out);
    });
    writeFile(trace_json_path, "trace JSON", [&](std::ostream &out) {
        writeTraceDocJson(out, driver.keptTraces(),
                          driver.tailSampler()->summary(), tele.okFraction,
                          config.seed, horizon_ms);
    });
    if (!out_path.empty()) {
        std::cout << "\n";
        writeFile(out_path, "serve JSON", [&](std::ostream &out) {
            ServeDocument doc;
            doc.seed = config.seed;
            doc.horizonMs = horizon_ms;
            doc.runs.push_back({&report, policyName(config.soc.policy),
                                admissionKindName(config.admission.kind),
                                arrivalKindName(config.arrival.kind), 0.0,
                                config.arrival.ratePerSec});
            writeServeDocument(out, doc);
        });
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 1; // fatal() already printed the message
    }
}
