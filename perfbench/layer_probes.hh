/**
 * @file
 * Layer probes: the host cost of one call into a single layer of the
 * simulator, measured by calling that layer's public functions directly
 * on synthetic inputs.
 *
 * Every probe times batches of calls long enough to read the clock
 * reliably and reports the fastest batch's time per call. On a shared
 * host the slow batches measure neighbouring load rather than the code,
 * so the minimum is the steadiest estimator of what one call costs.
 *
 * pushNs() is the ready-queue insertion measurement bench/fig12 makes
 * with google-benchmark (a root node pushed into a queue that already
 * holds `depth` laxity-sorted nodes). fig12 still carries its own copy;
 * moving it onto pushNs() would leave one implementation.
 */

#ifndef RELIEF_PERFBENCH_LAYER_PROBES_HH
#define RELIEF_PERFBENCH_LAYER_PROBES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sched/policy.hh"

namespace relief::probes
{

/** How long each probe measures. */
struct ProbeBudget
{
    int reps = 15;                     ///< Timed batches per probe.
    std::uint64_t minBatchNs = 200000; ///< Shortest batch worth timing.
};

/** One probe reading, named as the benchmark's per-layer metric. */
struct ProbeResult
{
    std::string name;
    double value = 0.0;
    const char *unit = "";
};

/**
 * Host ns for Policy::onNodesReady to insert one root node into a ready
 * queue holding @p depth nodes, plus unlinking it again so every call
 * sees the same depth.
 */
double pushNs(PolicyKind kind, int depth, const ProbeBudget &budget);

/** Run every probe, in the order the benchmark reports them. */
std::vector<ProbeResult> runLayerProbes(const ProbeBudget &budget);

} // namespace relief::probes

#endif // RELIEF_PERFBENCH_LAYER_PROBES_HH
