/**
 * @file
 * Host-parallel experiment execution.
 *
 * Independent simulations — the (mix, policy, seed) points of a bench
 * matrix — share no model state: every Soc owns its Simulator, stats
 * registry, and DAGs, and the few process-wide knobs (log sink, inform
 * toggle, debug flags) are thread-local. parallelFor() exploits that:
 * it fans a loop body out over a small pool of std::threads, seeding
 * each worker with the launching thread's debug-flag mask and inform
 * toggle so behavior matches a serial run. Workers log through the
 * default stderr sink; a custom sink installed on the launching thread
 * is deliberately not shared (it would race).
 *
 * Determinism contract: the body is called exactly once per index and
 * must write its result only to index-owned storage (results[i]).
 * Aggregation done after parallelFor() returns, in index order, is
 * then bit-identical regardless of the job count — the property the
 * determinism tests and `serve_load_sweep --jobs` rely on.
 */

#ifndef RELIEF_CORE_PARALLEL_HH
#define RELIEF_CORE_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace relief
{

/** Worker count used when jobs == 0 (hardware concurrency, >= 1). */
int defaultParallelJobs();

/**
 * Invoke @p body(i) for every i in [0, count), spread across up to
 * @p jobs worker threads (0 = auto, 1 = serial in the calling thread).
 * Indices are claimed atomically, so scheduling is work-stealing-ish
 * but each index runs exactly once. Rethrows the first exception a
 * body raised after all workers have stopped.
 */
void parallelFor(std::size_t count, int jobs,
                 const std::function<void(std::size_t)> &body);

} // namespace relief

#endif // RELIEF_CORE_PARALLEL_HH
