/**
 * @file
 * Request-scoped span trees for the serving layer.
 *
 * Each admitted request owns one span tree: a root `request` span
 * covering [arrival, finish], an `admission` child covering host-side
 * submission processing, one `node` child per critical-path DAG node
 * (the nodes CriticalPath::analyze walked), and under each node span
 * the four phase children `queue_wait` / `dispatch` / `dma_in` /
 * `compute` that partition it exactly. Asynchronous write-backs appear
 * as `dma_out` children of the root, clamped to the request window —
 * they overlap successor node spans by design (the paper's
 * asynchronous write-back rule made visible).
 *
 * Span trees are assembled once, at request completion, from the
 * NodeLifecycle stamps the hardware manager already records — nothing
 * is allocated on the per-event hot path. The serving driver threads
 * the request identity through HardwareManager as a span-context id
 * on the DAG (dag/dag.hh spanContext()), which becomes the Perfetto
 * async-track id when kept traces are exported.
 *
 * Invariants (tested in tests/trace/span_test.cc and validated by
 * scripts/check_bench_schema.py on relief-trace-v1 documents):
 *  - every span nests within its parent's [start, end] window,
 *  - a node span's four phase children sum to the node span exactly,
 *  - the root's synchronous children (admission + node spans) are
 *    disjoint, so their durations sum to at most the root duration
 *    (within one tick).
 */

#ifndef RELIEF_TRACE_SPAN_HH
#define RELIEF_TRACE_SPAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dag/node.hh"
#include "sim/ticks.hh"

namespace relief
{

class TraceRecorder;

/** What one span in a request's tree represents. */
enum class SpanKind : std::uint8_t
{
    Request,   ///< Root: the whole request, [arrival, finish].
    Admission, ///< Host-side submission processing.
    Node,      ///< One critical-path DAG node, [queued, computeEnd].
    QueueWait, ///< Ready-queue residency (queued -> dispatched).
    Dispatch,  ///< Launch + SPM stall (dispatched -> loadStart).
    DmaIn,     ///< Operand loading (loadStart -> loadEnd).
    Compute,   ///< Functional-unit execution (loadEnd -> computeEnd).
    DmaOut,    ///< Asynchronous write-back (wbStart -> wbEnd).
};

/** Stable lower-case name ("request", "queue_wait", ...). */
const char *spanKindName(SpanKind kind);

/** How one request left the system (the tail sampler keeps 100% of
 *  everything that is not Ok). */
enum class RequestOutcome : std::uint8_t
{
    Ok,       ///< Completed within its deadline.
    Miss,     ///< Completed past its deadline.
    Shed,     ///< Dropped by load shedding.
    Rejected, ///< Dropped as predicted infeasible.
    InFlight, ///< Still executing at the horizon.
};

/** Stable lower-case name ("ok", "miss", ...). */
const char *requestOutcomeName(RequestOutcome outcome);

/** Everything except Ok is anomalous and always kept. */
bool requestOutcomeAnomalous(RequestOutcome outcome);

/** One span in a request's tree. */
struct RequestSpan
{
    SpanKind kind = SpanKind::Request;
    int parent = -1;   ///< Index into RequestTrace::spans; root: -1.
    std::string label; ///< Node label for Node spans, else empty.
    Tick start = 0;
    Tick end = 0;

    Tick duration() const { return end - start; }
};

/** Label + lifecycle stamps of one critical-path node, root-first. */
struct SpanSource
{
    std::string label;
    NodeLifecycle lifecycle;
};

/** Six-bucket latency attribution copied from the critical-path
 *  analyzer (mirrors manager/critical_path.hh LatencyBreakdown, kept
 *  value-only here so the trace layer stays below the manager). */
struct SpanBuckets
{
    Tick queueWait = 0;
    Tick managerOverhead = 0;
    Tick dmaIn = 0;
    Tick compute = 0;
    Tick dmaOut = 0;
    Tick depStall = 0;

    Tick
    total() const
    {
        return queueWait + managerOverhead + dmaIn + compute + dmaOut +
               depStall;
    }
};

/** One kept request: identity, outcome, and its span tree. Parents
 *  always precede children in `spans`; spans[0] is the root. */
struct RequestTrace
{
    std::uint64_t id = 0;      ///< Request id (arrival order).
    std::uint64_t context = 0; ///< Span-context id (async-track id).
    std::string qosClass;
    std::string app;
    RequestOutcome outcome = RequestOutcome::Ok;
    Tick arrival = 0;
    Tick finish = 0;   ///< Completion; horizon for in-flight;
                       ///< arrival for shed/rejected.
    Tick deadline = 0; ///< Absolute deadline.
    SpanBuckets buckets;
    std::vector<RequestSpan> spans;

    Tick latency() const { return finish - arrival; }
};

/**
 * Start a request trace with just the root span [arrival, finish].
 * Shed / rejected / in-flight requests stay root-only; completed
 * requests get their tree from addCriticalPathSpans().
 */
RequestTrace beginRequestTrace(std::uint64_t id, std::uint64_t context,
                               std::string qos_class, std::string app,
                               RequestOutcome outcome, Tick arrival,
                               Tick finish, Tick deadline);

/**
 * Append the admission span, one node span (with its four phase
 * children) per critical-path node in @p path (root-first), and one
 * clamped dma_out root child per write-back. Requires a root span.
 */
void addCriticalPathSpans(RequestTrace &trace,
                          const std::vector<SpanSource> &path);

/**
 * Emit @p trace as Perfetto async ("b"/"e") events on the recorder:
 * the synchronous tree on async id 2*context, write-backs on
 * 2*context+1, both under category "request". Events are appended in
 * properly nested order, which writeChromeJson preserves at equal
 * timestamps.
 */
void emitAsyncSlices(TraceRecorder &trace, const RequestTrace &request);

} // namespace relief

#endif // RELIEF_TRACE_SPAN_HH
