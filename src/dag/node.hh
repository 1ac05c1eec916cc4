/**
 * @file
 * Task-DAG node (the paper's Table III structure).
 *
 * A node is one accelerator task. It records graph structure (parents/
 * children), the operation parameters driving the timing model, the
 * per-scheme relative deadlines computed at finalize time, and the
 * runtime bookkeeping the manager and scheduler maintain (status,
 * predicted runtime, laxity key, forwarding metadata, timestamps).
 */

#ifndef RELIEF_DAG_NODE_HH
#define RELIEF_DAG_NODE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "acc/compute_model.hh"
#include "sim/ticks.hh"

namespace relief
{

class Dag;

/** Node lifecycle. */
enum class NodeStatus : std::uint8_t
{
    Waiting,  ///< Some parent has not finished.
    Ready,    ///< In a ready queue.
    Running,  ///< Launched on an accelerator.
    Finished, ///< Completed; output produced.
};

/** How a node's input operand was satisfied (Fig. 5's categories). */
enum class InputSource : std::uint8_t
{
    Dram,      ///< Loaded from main memory.
    Forwarded, ///< Pulled from the producer's scratchpad.
    Colocated, ///< Produced in place on the same accelerator.
};

/**
 * Where a node's output was produced (paper Table III: producer_acc /
 * producer_spm): the accelerator's index in its hardware manager and
 * the scratchpad partition. The data is still there while that
 * partition's owner is the node and its data is valid.
 */
struct OutputLocation
{
    std::int16_t acc = -1; ///< -1 until the output is produced.
    std::int16_t partition = -1;
};

/**
 * Tick-stamped phase transitions of one node execution, recorded by
 * the hardware manager:
 *
 *   submitted -> depsReady -> queued -> dispatched -> loadStart
 *             -> loadEnd (compute begins) -> computeEnd -> complete,
 *
 * plus the asynchronous write-back window [wbStart, wbEnd) when the
 * output went to DRAM. The CriticalPath analyzer consumes these
 * timelines to attribute end-to-end DAG latency to buckets
 * (src/manager/critical_path.hh).
 */
struct NodeLifecycle
{
    Tick submitted = 0;  ///< Owning DAG's submission was processed.
    Tick depsReady = 0;  ///< Last parent finished (roots: submitted).
    Tick queued = 0;     ///< Entered its ready queue (ISR+push done).
    Tick dispatched = 0; ///< Launch began on an accelerator.
    Tick loadStart = 0;  ///< Output partition allocated, inputs issued.
    Tick loadEnd = 0;    ///< All operands resident; compute begins.
    Tick computeEnd = 0; ///< Functional unit done; completion raised.
    Tick wbStart = 0;    ///< Write-back issued (0 when elided).
    Tick wbEnd = 0;      ///< Write-back delivered (0 when elided).
};

/** A payload's operands: its parents' output buffers, in parent
 *  order. */
using NodeInputs = std::vector<const std::vector<float> *>;

/**
 * Optional functional payload: fills the node's output buffer from its
 * parents' output buffers. External operands are captured inside the
 * closure by the DAG builders.
 *
 * The hardware manager hands the payload a recycled buffer of
 * unspecified size and contents (kernels/scratch.hh); the payload sizes
 * it and writes every element. A closure that returns its output
 * instead, `std::vector<float>(const NodeInputs &)`, is accepted too:
 * its result is moved into the buffer. Calling a NodeFn with the inputs
 * alone returns a fresh vector (perfbench's kernel-timing wrapper
 * composes payloads that way).
 */
class NodeFn
{
  public:
    NodeFn() = default;

    /** A payload writing into the buffer it is handed. */
    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, NodeFn> &&
                 std::is_invocable_v<F &, const NodeInputs &,
                                     std::vector<float> &>)
    NodeFn(F fill) : fill_(std::move(fill))
    {
    }

    /** A payload returning its output. */
    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, NodeFn> &&
                 std::is_invocable_r_v<std::vector<float>, F &,
                                       const NodeInputs &>)
    NodeFn(F make)
        : fill_([make = std::move(make)](const NodeInputs &in,
                                         std::vector<float> &out) {
              out = make(in);
          })
    {
    }

    void
    operator()(const NodeInputs &in, std::vector<float> &out) const
    {
        fill_(in, out);
    }

    std::vector<float>
    operator()(const NodeInputs &in) const
    {
        std::vector<float> out;
        fill_(in, out);
        return out;
    }

    explicit operator bool() const { return bool(fill_); }

  private:
    std::function<void(const NodeInputs &, std::vector<float> &)> fill_;
};

struct Node
{
    // --- Static structure (set by the builder) ---
    NodeId id = 0;            ///< Globally unique, > 0.
    Dag *dag = nullptr;       ///< Owning DAG.
    int indexInDag = -1;      ///< Position in the DAG's node list.
    std::string label;        ///< Debug label, e.g. "canny.sobel_x".
    std::size_t labelHash = 0; ///< std::hash of label, set with it.
    TaskParams params;        ///< Operation for the timing model.
    std::vector<Node *> parents;
    std::vector<Node *> children;
    NodeFn fn;                ///< Optional functional payload.

    /** Runtime override for synthetic/example DAGs (0 = use model). */
    Tick fixedRuntime = 0;

    // --- Deadlines (relative to DAG arrival; set by Dag::finalize) ---
    Tick relDeadlineCp = 0;  ///< Critical-path (ALAP) sub-deadline.
    Tick relDeadlineSdr = 0; ///< HetSched SDR sub-deadline.

    // --- Scheduler/manager state ---
    NodeStatus status = NodeStatus::Waiting;
    std::uint32_t completedParents = 0;
    Tick deadline = 0;          ///< Absolute deadline (scheme applied).
    /** Policy-independent absolute deadline (critical-path scheme) the
     *  deadline-met statistics are scored against, so policies with
     *  different internal deadline assignments stay comparable. */
    Tick scoreDeadline = 0;
    Tick predictedRuntime = 0;  ///< Estimated at ready-queue insert.
    STick laxityKey = 0;        ///< deadline - predictedRuntime.
    bool isFwd = false;         ///< Promoted as a forwarding node.
    OutputLocation outputAt;    ///< Set when the output is produced.
    /** Children whose payloads have run; once all have, the manager
     *  hands outputData back to the payload buffer pool. */
    std::uint32_t finishedChildren = 0;
    std::vector<InputSource> inputSources; ///< Parallel to parents.

    // --- Outcome timestamps ---
    Tick readyAt = 0;
    Tick launchedAt = 0;
    Tick finishedAt = 0;
    Tick actualMemTime = 0; ///< Measured input-load + write-back time.
    NodeLifecycle lifecycle; ///< Full phase-transition timeline.

    /** Functional result (filled when fn is set and the node runs).
     *  Only leaves keep it: an inner node's buffer goes back to the
     *  pool once its last child's payload has run, leaving this
     *  empty. */
    std::vector<float> outputData;

    /** Bytes this node's output occupies. */
    std::uint64_t outputSize() const { return outputBytes(params); }

    /** Bytes of one input operand. */
    std::uint64_t inputOperandSize() const
    {
        return inputBytesPerOperand(params);
    }

    /** Operands loaded from DRAM regardless of scheduling (weights,
     *  primary inputs): total declared inputs minus parent edges. */
    int
    externalInputs() const
    {
        int ext = params.numInputs - int(parents.size());
        return ext > 0 ? ext : 0;
    }

    /** True once finished before its (policy-independent) deadline. */
    bool
    deadlineMet() const
    {
        return status == NodeStatus::Finished &&
               finishedAt <= scoreDeadline;
    }

    bool isRoot() const { return parents.empty(); }
    bool isLeaf() const { return children.empty(); }

    /** Reset scheduler/outcome state so the DAG can be resubmitted. */
    void resetRuntimeState();
};

} // namespace relief

#endif // RELIEF_DAG_NODE_HH
