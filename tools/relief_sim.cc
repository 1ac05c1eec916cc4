/**
 * @file
 * relief_sim — the command-line simulation driver.
 *
 * Configure the platform and workload entirely from flags, run one
 * simulation, and print the full metrics report (plus an optional
 * schedule trace). Examples:
 *
 *   relief_sim --mix GHL --policy LAX
 *   relief_sim --mix CDG --policy RELIEF --continuous --limit-ms 50
 *   relief_sim --mix CG --instances EM=2 --fabric xbar --trace out.json
 *   relief_sim --mix CDL --stats-json stats.json --debug-flags Sched
 *
 * `relief_sim --help` lists every flag.
 */

#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/relief.hh"
#include "sim/hostprof.hh"

using namespace relief;

namespace
{

int
run(int argc, char **argv)
{
    ExperimentConfig config;
    std::string workload_path, trace_path, stats_path, stats_json_path,
        dot_dir, pressure_path, hostprof_path;
    bool latency_breakdown = false;

    FlagTable flags("relief_sim");
    addExperimentFlags(flags, config, workload_path);
    flags
        .toggle("--pressure-tracks",
                "per-bank/per-link pressure counter tracks in the trace",
                config.soc.pressureTracks)
        .text("--trace", "FILE",
              "write a Chrome trace: spans, counter tracks and "
              "dependency-edge flow arrows (load in Perfetto)",
              trace_path)
        .text("--stats", "FILE", "write the gem5-style text stats dump",
              stats_path)
        .text("--stats-json", "FILE",
              "write the stat registry as relief-stats-v1 JSON",
              stats_json_path)
        .toggle("--latency-breakdown",
                "print the per-DAG critical-path attribution table",
                latency_breakdown)
        .text("--dot", "DIR", "write each DAG as DIR/NAME.dot", dot_dir)
        .text("--pressure-report", "FILE",
              "write the relief-pressure-v1 report and print the top "
              "contenders per resource",
              pressure_path)
        .text("--host-profile", "FILE",
              "write the relief-hostprof-v1 host-time profile",
              hostprof_path);
    if (!flags.parse({argv + 1, argv + argc}))
        return 0;

    // Start the host-time meter before the platform exists so model
    // construction and workload building are inside the measured
    // window (attributed to "other" via the scope below).
    if (!hostprof_path.empty())
        setHostProfEnabled(true);
    HostProfScope buildProf(HostCat::Other);

    Soc soc(config.soc);
    if (!trace_path.empty())
        soc.enableTracing();

    for (DagPtr &dag : buildWorkload(config, workload_path)) {
        if (!dot_dir.empty()) {
            std::string path = dot_dir + "/" + dag->name() + ".dot";
            writeFile(path, "DAG",
                      [&](std::ostream &out) { dag->writeDot(out); });
        }
        soc.submit(dag, 0, config.continuous);
    }
    soc.run(config.timeLimit);
    MetricsReport report = soc.report();

    std::string workload_label = workload_path.empty()
                                     ? "mix " + config.mix
                                     : "workload " + workload_path;
    Table summary("relief_sim — " + workload_label + " under " +
                  policyName(config.soc.policy));
    summary.setHeader({"metric", "value"});
    const RunMetrics &run = report.run;
    for (const auto &[metric, value] :
         std::vector<std::pair<const char *, std::string>>{
             {"execution time (ms)", Table::num(toMs(report.execTime), 3)},
             {"edges consumed", std::to_string(run.edgesConsumed)},
             {"forwards", std::to_string(run.forwards)},
             {"colocations", std::to_string(run.colocations)},
             {"forward+coloc share (%)", Table::pct(report.forwardFraction())},
             {"DRAM traffic (KiB)", std::to_string(report.dramBytes / 1024)},
             {"DRAM traffic vs all-DRAM (%)",
              Table::pct(report.dramTrafficFraction())},
             {"SPM-to-SPM traffic (KiB)",
              std::to_string(report.spmForwardBytes / 1024)},
             {"DRAM energy (uJ)", Table::num(report.dramEnergyPJ / 1e6, 2)},
             {"SPM energy (uJ)", Table::num(report.spmEnergyPJ / 1e6, 2)},
             {"node deadlines met (%)",
              Table::pct(run.nodeDeadlineFraction())},
             {"DAG deadlines met", std::to_string(run.dagDeadlinesMet) + "/" +
                                       std::to_string(run.dagsFinished)},
             {"accelerator occupancy", Table::num(report.accOccupancy, 3)},
             {"interconnect occupancy (%)",
              Table::pct(report.fabricOccupancy)},
             {"manager busy (us)", Table::num(toUs(run.managerBusyTime), 1)}})
        summary.addRow({metric, value});
    summary.print(std::cout);

    Table apps("per application");
    apps.setHeader({"app", "iterations", "deadlines met", "gmean slowdown",
                    "max slowdown"});
    for (const AppOutcome &app : report.apps) {
        apps.addRow({app.name, std::to_string(app.iterations),
                     std::to_string(app.deadlinesMet),
                     app.starved() ? "inf" : Table::num(app.meanSlowdown(), 2),
                     app.starved() ? "inf" : Table::num(app.maxSlowdown(), 2)});
    }
    std::cout << "\n";
    apps.print(std::cout);

    if (latency_breakdown) {
        std::cout << "\n";
        soc.printLatencyBreakdown(std::cout);
    }

    if (!trace_path.empty())
        std::cout << "\n";
    writeFile(trace_path, "trace", [&](std::ostream &out) {
        soc.trace()->writeChromeJson(out);
    });
    writeFile(stats_path, "stats",
              [&](std::ostream &out) { soc.dumpStats(out); });
    writeFile(stats_json_path, "JSON stats",
              [&](std::ostream &out) { soc.writeStatsJson(out); });
    if (!pressure_path.empty()) {
        writeFile(pressure_path, "pressure report",
                  [&](std::ostream &out) { soc.writePressureJson(out); });

        // Console digest: the busiest resources and who pressures them.
        const PressureLedger &ledger = soc.pressureLedger();
        Table pressure("memory pressure — top contenders per resource");
        pressure.setHeader({"resource", "source", "qos", "traffic",
                            "KiB", "wait (us)", "caused (us)"});
        for (int res = 0; res < ledger.numResources(); ++res) {
            for (const auto &row : ledger.topContenders(res, 3)) {
                int src = ledger.keySource(row.key);
                pressure.addRow(
                    {ledger.resource(res).name(),
                     src < 0 ? "untagged" : ledger.sourceName(src),
                     ledger.qosClassName(ledger.keyQos(row.key)),
                     row.key == 0
                         ? "untagged"
                         : pressureTrafficName(ledger.keyTraffic(row.key)),
                     std::to_string(row.slot.bytes / 1024),
                     Table::num(toUs(row.slot.waitSuffered), 1),
                     Table::num(toUs(row.slot.waitCaused), 1)});
            }
        }
        std::cout << "\n";
        pressure.print(std::cout);
    }
    if (!hostprof_path.empty()) {
        // Freeze the meter (charging the open root scope up to now),
        // then export the relief-hostprof-v1 document.
        setHostProfEnabled(false);
        HostProfSnapshot snap = hostProfSnapshot();
        writeFile(hostprof_path, "", [&](std::ostream &out) {
            snap.writeJson(out);
            out << "\n";
        });
        std::cout << "host profile written to " << hostprof_path
                  << " (coverage " << Table::pct(snap.coverage()) << "%)\n";
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
