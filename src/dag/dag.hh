/**
 * @file
 * Task DAG: owns its nodes, validates structure, and computes the
 * per-scheme relative node deadlines every scheduling policy consumes.
 *
 * Deadline schemes (paper Section II-C):
 *  - DAG deadline (GEDF-D): every node inherits the DAG's deadline.
 *  - Critical-path / ALAP (GEDF-N, LL, LAX, RELIEF): a node's deadline
 *    is the DAG deadline minus the longest runtime chain strictly after
 *    it (its latest finish time).
 *  - SDR (HetSched): deadline_task = SDR x deadline_DAG, where the
 *    sub-deadline ratio is the node's cumulative share of the execution
 *    time of the longest path through it.
 */

#ifndef RELIEF_DAG_DAG_HH
#define RELIEF_DAG_DAG_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "dag/node.hh"
#include "sim/ticks.hh"

namespace relief
{

/** Deadline-assignment scheme a policy uses. */
enum class DeadlineScheme : std::uint8_t
{
    DagDeadline,  ///< GEDF-D.
    CriticalPath, ///< GEDF-N, LL, LAX, RELIEF.
    Sdr,          ///< HetSched.
};

/**
 * Nominal runtime of a node under the Max predictors: profiled compute
 * time plus all input/output bytes over the peak DRAM bandwidth. Used
 * for critical-path analysis and as the default runtime prediction.
 */
Tick nominalNodeRuntime(const Node &node, double dram_peak_gbs = 12.8);

/**
 * Rewind this thread's node-id allocator. Ids seed DRAM stream hints,
 * so experiment entry points (runExperiment, the benchmark) reset them
 * before building DAGs to make each simulation's ids — and therefore
 * its results — independent of what ran earlier on the thread. Never
 * call mid-simulation: DAGs whose ids would collide must not meet in
 * one HardwareManager.
 *
 * Three calls advance the allocator: Dag::addNode takes one id per
 * node built, Dag::restampIds gives a reused DAG a fresh run of ids,
 * and skipNodeIds consumes ids no DAG carries. The serving layer uses
 * the last two so every arrival takes the ids a fresh build would
 * have, whether it reuses a pooled DAG or is refused.
 */
void resetNodeIds(NodeId base = 1);

/** Consume @p count ids without assigning them. */
void skipNodeIds(int count);

class Dag
{
  public:
    /**
     * @param name   Human-readable name, e.g. "canny".
     * @param symbol One-letter symbol used in mix labels (Table V).
     */
    Dag(std::string name, char symbol);

    Dag(const Dag &) = delete;
    Dag &operator=(const Dag &) = delete;

    /** Append a node; the DAG owns it. */
    Node *addNode(const TaskParams &params, std::string label);

    /**
     * Give every node a fresh id from the allocator, in insertion
     * order, as a new build would. For reusing a finished DAG: its old
     * ids may still name scratchpad residue, which the new ids must
     * not match.
     */
    void restampIds();

    /** Declare @p parent -> @p child (parent order defines operand
     *  order for functional payloads). */
    void addEdge(Node *parent, Node *child);

    /** Set the relative deadline (from submission). */
    void setRelativeDeadline(Tick deadline) { relDeadline_ = deadline; }

    /**
     * Validate (acyclic, ids set) and compute per-node relative
     * deadlines for every scheme using @p dram_peak_gbs for nominal
     * runtimes. Must be called before submission.
     */
    void finalize(double dram_peak_gbs = 12.8);

    const std::string &name() const { return name_; }
    char symbol() const { return symbol_; }
    Tick relativeDeadline() const { return relDeadline_; }
    bool finalized() const { return finalized_; }

    int numNodes() const { return int(nodes_.size()); }
    int numEdges() const { return numEdges_; }
    Node *node(int index) { return nodes_[std::size_t(index)].get(); }
    const Node *node(int index) const
    {
        return nodes_[std::size_t(index)].get();
    }

    /** Nodes in insertion order (a valid topological order is enforced
     *  by finalize()). */
    std::vector<Node *> allNodes();
    std::vector<Node *> roots();
    std::vector<Node *> leaves();

    /** Sum of nominal runtimes along the longest path (critical path). */
    Tick criticalPathRuntime() const { return criticalPath_; }

    /** Sum of all nodes' nominal compute times. */
    Tick totalComputeTime() const;

    /** Relative deadline of @p node under @p scheme. */
    Tick nodeRelativeDeadline(const Node &node, DeadlineScheme scheme) const;

    /**
     * Graphviz export: one box per node (label, accelerator type,
     * nominal runtime), colored by accelerator type, with the DAG's
     * deadline in the graph label. Render with `dot -Tpdf`.
     */
    void writeDot(std::ostream &os) const;

    // --- Submission bookkeeping (managed by the hardware manager) ---

    /** Mark submission at @p tick; resets node runtime state. */
    void submit(Tick tick);

    Tick arrivalTick() const { return arrival_; }
    Tick absoluteDeadline() const { return arrival_ + relDeadline_; }

    /** Nodes finished so far in the current submission. */
    int numFinished() const { return numFinished_; }
    void noteNodeFinished() { ++numFinished_; }
    bool complete() const { return numFinished_ == numNodes(); }

    /** Completion time of the last node (valid once complete). */
    Tick finishTick() const { return finish_; }
    void setFinishTick(Tick tick) { finish_ = tick; }

    /**
     * Span-context id threaded through the hardware manager by the
     * serving layer (trace/span.hh): identifies which request this
     * DAG executes, so DagObserver::dagAttributed can finalize the
     * request's span tree at completion. 0 = no tracing context.
     */
    std::uint64_t spanContext() const { return spanContext_; }
    void setSpanContext(std::uint64_t context) { spanContext_ = context; }

    /**
     * QoS class this DAG's traffic is attributed to in the pressure
     * ledger (mem/pressure_ledger.hh). Index into the ledger's class
     * table; the serving layer sets it from the request's class,
     * batch workloads leave the default class 0.
     */
    int qosClass() const { return qosClass_; }
    void setQosClass(int qos_class) { qosClass_ = qos_class; }

  private:
    std::string name_;
    char symbol_;
    Tick relDeadline_ = 0;
    std::vector<std::unique_ptr<Node>> nodes_;
    int numEdges_ = 0;
    bool finalized_ = false;
    Tick criticalPath_ = 0;

    Tick arrival_ = 0;
    Tick finish_ = 0;
    int numFinished_ = 0;
    std::uint64_t spanContext_ = 0;
    int qosClass_ = 0;
};

/** Shared ownership alias used by workloads (mixes reuse app DAGs). */
using DagPtr = std::shared_ptr<Dag>;

} // namespace relief

#endif // RELIEF_DAG_DAG_HH
