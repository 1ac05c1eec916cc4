#include "manager/critical_path.hh"

#include "sim/logging.hh"

namespace relief
{

const char *
latencyBucketName(int index)
{
    switch (index) {
      case 0:
        return "queue_wait";
      case 1:
        return "manager";
      case 2:
        return "dma_in";
      case 3:
        return "compute";
      case 4:
        return "dma_out";
      case 5:
        return "dep_stall";
    }
    panic("unknown latency bucket ", index);
}

Tick
latencyBucket(const LatencyBreakdown &b, int index)
{
    switch (index) {
      case 0:
        return b.queueWait;
      case 1:
        return b.managerOverhead;
      case 2:
        return b.dmaIn;
      case 3:
        return b.compute;
      case 4:
        return b.dmaOut;
      case 5:
        return b.depStall;
    }
    panic("unknown latency bucket ", index);
}

namespace
{

/** Ordered interval length; ticks are unsigned, so a stamp that ran
 *  backwards would otherwise wrap into an enormous bucket. */
Tick
segment(const Node &node, const char *what, Tick from, Tick to)
{
    RELIEF_ASSERT(to >= from, node.label, ": lifecycle ", what,
                  " runs backwards (", from, " -> ", to, ")");
    return to - from;
}

} // namespace

DagLatencyRecord
CriticalPath::analyze(const Dag &dag, std::vector<const Node *> &path)
{
    RELIEF_ASSERT(dag.complete(), dag.name(),
                  ": critical-path analysis before completion");
    DagLatencyRecord record;
    record.dag = dag.name();
    record.arrival = dag.arrivalTick();
    record.finish = dag.finishTick();
    path.clear();

    // The walk starts at the node that finished last and ends at a
    // root: each step covers [depsReady, computeEnd] of the current
    // node, and the jump to the gating parent is seamless because
    // depsReady is stamped at that parent's completion. The segments
    // therefore partition [arrival, finish] exactly — the analyzer's
    // core invariant (bucket sums == end-to-end latency).
    const Node *cur = nullptr;
    for (int i = 0; i < dag.numNodes(); ++i) {
        const Node *n = dag.node(i);
        RELIEF_ASSERT(n->status == NodeStatus::Finished, n->label,
                      ": unfinished node in a complete DAG");
        if (!cur || n->finishedAt > cur->finishedAt)
            cur = n;
    }

    LatencyBreakdown &b = record.buckets;
    while (cur) {
        const NodeLifecycle &lc = cur->lifecycle;
        b.compute += segment(*cur, "compute", lc.loadEnd, lc.computeEnd);
        b.dmaIn += segment(*cur, "load", lc.loadStart, lc.loadEnd);
        b.depStall +=
            segment(*cur, "spm-stall", lc.dispatched, lc.loadStart);
        b.queueWait +=
            segment(*cur, "queue-wait", lc.queued, lc.dispatched);
        b.managerOverhead +=
            segment(*cur, "manager", lc.depsReady, lc.queued);
        path.push_back(cur);

        if (cur->parents.empty()) {
            // Roots become dependency-ready the instant the submission
            // is processed; any residual (none today) is a stall on
            // the host side of the command queue.
            b.depStall += segment(*cur, "submit", record.arrival,
                                  lc.depsReady);
            cur = nullptr;
            continue;
        }
        const Node *gate = cur->parents.front();
        for (const Node *parent : cur->parents) {
            if (parent->finishedAt > gate->finishedAt)
                gate = parent;
        }
        // Write-backs are asynchronous (paper's write-back rule), so
        // the gating parent hands off at its compute completion; were
        // a model ever to serialize the write-back before releasing
        // children, the extra wait would surface here as dmaOut.
        Tick handoff = gate->finishedAt;
        if (gate->lifecycle.wbEnd > handoff &&
            lc.depsReady >= gate->lifecycle.wbEnd) {
            b.dmaOut += segment(*gate, "write-back", handoff,
                                gate->lifecycle.wbEnd);
            handoff = gate->lifecycle.wbEnd;
        }
        b.depStall += segment(*cur, "dep-wait", handoff, lc.depsReady);
        cur = gate;
    }
    record.pathLength = int(path.size());
    return record;
}

} // namespace relief
