/**
 * @file
 * Figure 12 — scheduler execution time per policy: average and tail
 * latency of pushing one task into a ready queue.
 *
 * Two views, matching the paper's methodology:
 *  1. the host cost of this repository's actual policy code: one
 *     ready-queue insertion at queue depths 4, 16 and 64, timed by the
 *     benchmark's probe (perfbench/layer_probes.hh, fastest of several
 *     batches) — the relative ordering FCFS < GEDF < LL/LAX <
 *     HetSched < RELIEF is the reproduced result;
 *  2. the modeled Cortex-A7 push costs observed during a
 *     high-contention simulation (average and tail), which is what the
 *     simulated manager charges.
 * Paper result: RELIEF costs the most but is easily overlapped with
 * accelerator execution.
 */

#include <iostream>

#include "core/relief.hh"
#include "layer_probes.hh"

using namespace relief;

namespace
{

void
printModeledLatencies()
{
    Table table("Fig 12 — modeled Cortex-A7 push latency during "
                "high-contention mixes (us)");
    table.setHeader({"policy", "average", "tail (max)"});
    for (PolicyKind kind : allPolicies) {
        Accum means, tails;
        for (const char *mix : {"CDG", "CGL", "GHL", "DHL"}) {
            ExperimentConfig config;
            config.soc.policy = kind;
            config.mix = mix;
            MetricsReport r = runExperiment(config);
            means.sample(r.run.pushLatency.mean());
            tails.sample(r.run.pushLatency.max());
        }
        table.addRow({policyName(kind),
                      Table::num(toUs(Tick(means.mean())), 3),
                      Table::num(toUs(Tick(tails.max())), 3)});
    }
    table.emit(std::cout);
    std::cout << "\n";
}

void
printHostPushLatencies()
{
    const int depths[] = {4, 16, 64};
    Table table("Fig 12 — host ns per ready-queue push, by queue depth");
    table.setHeader({"policy", "q4", "q16", "q64"});
    for (PolicyKind kind : allPolicies) {
        std::vector<std::string> row = {policyName(kind)};
        for (int depth : depths)
            row.push_back(
                Table::num(probes::pushNs(kind, depth, {}), 1));
        table.addRow(row);
    }
    table.emit(std::cout);
}

} // namespace

int
main()
{
    setInformEnabled(false);
    printModeledLatencies();
    printHostPushLatencies();
    return 0;
}
