#include "trace/span.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace relief
{

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Request:
        return "request";
      case SpanKind::Admission:
        return "admission";
      case SpanKind::Node:
        return "node";
      case SpanKind::QueueWait:
        return "queue_wait";
      case SpanKind::Dispatch:
        return "dispatch";
      case SpanKind::DmaIn:
        return "dma_in";
      case SpanKind::Compute:
        return "compute";
      case SpanKind::DmaOut:
        return "dma_out";
    }
    return "?";
}

const char *
requestOutcomeName(RequestOutcome outcome)
{
    switch (outcome) {
      case RequestOutcome::Ok:
        return "ok";
      case RequestOutcome::Miss:
        return "miss";
      case RequestOutcome::Shed:
        return "shed";
      case RequestOutcome::Rejected:
        return "rejected";
      case RequestOutcome::InFlight:
        return "in_flight";
    }
    return "?";
}

bool
requestOutcomeAnomalous(RequestOutcome outcome)
{
    return outcome != RequestOutcome::Ok;
}

RequestTrace
beginRequestTrace(std::uint64_t id, std::uint64_t context,
                  std::string qos_class, std::string app,
                  RequestOutcome outcome, Tick arrival, Tick finish,
                  Tick deadline)
{
    RELIEF_ASSERT(finish >= arrival, "request trace ends before it starts");
    RequestTrace trace;
    trace.id = id;
    trace.context = context;
    trace.qosClass = std::move(qos_class);
    trace.app = std::move(app);
    trace.outcome = outcome;
    trace.arrival = arrival;
    trace.finish = finish;
    trace.deadline = deadline;

    RequestSpan root;
    root.kind = SpanKind::Request;
    root.parent = -1;
    root.start = arrival;
    root.end = finish;
    trace.spans.push_back(std::move(root));
    return trace;
}

namespace
{

void
addSpan(RequestTrace &trace, SpanKind kind, int parent,
        std::string label, Tick start, Tick end)
{
    RequestSpan span;
    span.kind = kind;
    span.parent = parent;
    span.label = std::move(label);
    span.start = start;
    span.end = end;
    trace.spans.push_back(std::move(span));
}

} // namespace

void
addCriticalPathSpans(RequestTrace &trace,
                     const std::vector<SpanSource> &path)
{
    RELIEF_ASSERT(!trace.spans.empty(),
                  "critical-path spans need a root span first");
    if (path.empty())
        return;

    const Tick arrival = trace.arrival;
    const Tick finish = trace.finish;

    // Host-side admission: request arrival until the first
    // critical-path node (a DAG root) entered its ready queue — the
    // submission ISR plus the policy's sorted insert.
    addSpan(trace, SpanKind::Admission, 0, "", arrival,
            path.front().lifecycle.queued);

    for (const SpanSource &source : path) {
        const NodeLifecycle &lc = source.lifecycle;
        int node_index = int(trace.spans.size());
        addSpan(trace, SpanKind::Node, 0, source.label, lc.queued,
                lc.computeEnd);
        // The four phases are contiguous, so they partition the node
        // span exactly: queued -> dispatched -> loadStart -> loadEnd
        // -> computeEnd.
        addSpan(trace, SpanKind::QueueWait, node_index, "", lc.queued,
                lc.dispatched);
        addSpan(trace, SpanKind::Dispatch, node_index, "",
                lc.dispatched, lc.loadStart);
        addSpan(trace, SpanKind::DmaIn, node_index, "", lc.loadStart,
                lc.loadEnd);
        addSpan(trace, SpanKind::Compute, node_index, "", lc.loadEnd,
                lc.computeEnd);
    }

    // Asynchronous write-backs run concurrently with successor nodes;
    // attach them to the root (not the node span, which ends at
    // computeEnd) and clamp to the request window so every span still
    // nests within its parent.
    for (const SpanSource &source : path) {
        const NodeLifecycle &lc = source.lifecycle;
        if (lc.wbStart == 0 && lc.wbEnd == 0)
            continue; // Write-back elided (forwarded in SPM).
        Tick start = std::max(lc.wbStart, arrival);
        Tick end = std::min(lc.wbEnd, finish);
        if (end <= start)
            continue; // Entirely outside the request window.
        addSpan(trace, SpanKind::DmaOut, 0, source.label, start, end);
    }
}

namespace
{

/** Emit @p index and its children as a properly nested b/e sequence
 *  (children are stored after their parent and in start order, so the
 *  produced timestamps are non-decreasing). */
void
emitSubtree(TraceRecorder &trace, const RequestTrace &request,
            const std::vector<std::vector<int>> &children,
            std::uint64_t async_id, int index, const std::string &name)
{
    const RequestSpan &span = request.spans[std::size_t(index)];
    trace.asyncEvent(async_id, name, "request", span.start, true);
    for (int child : children[std::size_t(index)]) {
        const RequestSpan &c = request.spans[std::size_t(child)];
        std::string child_name =
            c.label.empty() ? spanKindName(c.kind) : c.label;
        emitSubtree(trace, request, children, async_id, child,
                    child_name);
    }
    trace.asyncEvent(async_id, name, "request", span.end, false);
}

} // namespace

void
emitAsyncSlices(TraceRecorder &trace, const RequestTrace &request)
{
    if (request.spans.empty())
        return;

    // Child lists per span, synchronous tree only; write-backs overlap
    // their successor node spans by design, so they get their own
    // async track (2*context + 1) instead of breaking the b/e nesting
    // stack of the main tree (2*context).
    std::vector<std::vector<int>> children(request.spans.size());
    std::vector<int> writebacks;
    for (std::size_t i = 1; i < request.spans.size(); ++i) {
        const RequestSpan &span = request.spans[i];
        if (span.kind == SpanKind::DmaOut)
            writebacks.push_back(int(i));
        else
            children[std::size_t(span.parent)].push_back(int(i));
    }

    std::string root_name = "request #" + std::to_string(request.id) +
                            " " + request.qosClass + "/" + request.app +
                            " [" + requestOutcomeName(request.outcome) +
                            "]";
    emitSubtree(trace, request, children, 2 * request.context, 0,
                root_name);

    for (int index : writebacks) {
        const RequestSpan &span = request.spans[std::size_t(index)];
        std::string name = "wb " + span.label;
        trace.asyncEvent(2 * request.context + 1, name, "request",
                         span.start, true);
        trace.asyncEvent(2 * request.context + 1, name, "request",
                         span.end, false);
    }
}

} // namespace relief
