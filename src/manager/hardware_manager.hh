/**
 * @file
 * The centralized hardware manager (paper Sections II-B and III-C2).
 *
 * A microcontroller-class manager, coherent with the CPUs, that:
 *  - accepts DAG submissions through the host interface,
 *  - services accelerator completion interrupts (ISR),
 *  - runs the pluggable scheduling policy over per-type ready queues,
 *  - launches tasks through driver functions that decide, per input
 *    operand, between colocation (data already in the local
 *    scratchpad), forwarding (SPM-to-SPM DMA from the producer), and a
 *    main-memory read,
 *  - applies the write-back rule: a finished node's output goes to
 *    DRAM immediately unless every child is next in line on its
 *    accelerator, and
 *  - enforces write-after-read ordering on producer scratchpad
 *    partitions via ongoing-read counts.
 *
 * Scheduling work is serialized through a modeled manager timeline
 * (ISR latency plus per-insert policy cost), reproducing Fig. 12's
 * property that scheduling overhead overlaps accelerator execution.
 */

#ifndef RELIEF_MANAGER_HARDWARE_MANAGER_HH
#define RELIEF_MANAGER_HARDWARE_MANAGER_HH

#include <array>
#include <memory>
#include <vector>

#include "acc/accelerator.hh"
#include "dag/dag.hh"
#include "manager/run_metrics.hh"
#include "predict/runtime_predictor.hh"
#include "sched/policy.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace relief
{

/** How forwarded data physically moves between accelerators. */
enum class ForwardMechanism
{
    SpmDma,       ///< Consumer DMA reads the producer scratchpad.
    StreamBuffer, ///< AXI-stream-style producer/consumer FIFO.
};

/** Configuration for HardwareManager. */
struct ManagerConfig
{
    /** Forwarding hardware flavour (Section II background). */
    ForwardMechanism forwardMechanism = ForwardMechanism::SpmDma;
    Tick isrLatency = fromNs(400.0);  ///< Interrupt entry + driver call.
    /** Host interface cost (paper Section II-B): the CPU writes root
     *  nodes into the shared command queue and rings the manager;
     *  charged once per DAG submission. Default 0 keeps the deadline
     *  clock aligned with the requested submission tick. */
    Tick submitLatency = 0;
    bool modelSchedulingLatency = true; ///< Charge policy push costs.
    /** When false, the forwarding hardware is ignored: every operand
     *  moves through DRAM and every output is written back (the
     *  Table II "no forwarding" configuration). */
    bool forwardingEnabled = true;
    /** Deterministic compute-time jitter amplitude (fraction). Models
     *  the sub-0.1% run-to-run variation the paper measures
     *  (Observation 7); 0 disables. */
    double computeJitter = 0.0005;
};

/**
 * Receives each finished DAG from the ISR of the node that completed
 * it, in three calls in this order. The defaults do nothing.
 */
class DagObserver
{
  public:
    virtual ~DagObserver() = default;

    /**
     * The critical-path analyzer has just attributed @p dag's execution
     * to @p record; @p path is the walked path (sink first), in a
     * buffer the manager reuses for the next DAG. The lifecycle stamps
     * are still live: the serving layer assembles request span trees
     * here (trace/span.hh).
     */
    virtual void dagAttributed(Dag *, const DagLatencyRecord &,
                               const std::vector<const Node *> &)
    {
    }

    /** @p dag's last node has completed; its finish tick is set. */
    virtual void dagCompleted(Dag *) {}

    /**
     * The end of that node's ISR: the DAG's last event, after its
     * write-back decision and memory-time outcome. No pending event
     * refers to the DAG after this, so its owner may restamp or
     * resubmit it.
     */
    virtual void dagRetired(Dag *) {}
};

class HardwareManager : public SimObject
{
  public:
    /**
     * @param sim          Simulation context.
     * @param name         Debug name.
     * @param policy       Scheduling policy (owned).
     * @param predictor    Runtime predictor (owned).
     * @param accelerators All accelerator instances (not owned).
     */
    HardwareManager(Simulator &sim, std::string name,
                    std::unique_ptr<Policy> policy,
                    std::unique_ptr<RuntimePredictor> predictor,
                    std::vector<Accelerator *> accelerators,
                    const ManagerConfig &config = {});

    /** Host interface: submit @p dag at tick @p when. */
    void submitDag(Dag *dag, Tick when);

    /** Send every finished DAG to @p observer (not owned) instead of
     *  the current one. The default observer does nothing. */
    void setDagObserver(DagObserver &observer) { observer_ = &observer; }

    Policy &policy() { return *policy_; }
    RuntimePredictor &predictor() { return *predictor_; }

    /** Attach a trace recorder; the manager emits load / compute /
     *  write-back / scheduler spans plus one flow event (arrow) per
     *  satisfied DAG edge (nullptr disables). */
    void setTrace(TraceRecorder *trace) { trace_ = trace; }
    const RunMetrics &metrics() const { return metrics_; }
    const ReadyQueues &readyQueues() const { return queues_; }

    /** Critical-path attribution of every finished DAG execution, in
     *  completion order (see manager/critical_path.hh). */
    const std::vector<DagLatencyRecord> &latencyRecords() const
    {
        return latencyRecords_;
    }

    /** Idle instance count of @p type (RELIEF's max_forwards input). */
    int idleCount(AccType type) const;

    /** Total accelerator instances of @p type. */
    int instanceCount(AccType type) const;

  private:
    /** Per-instance execution state. */
    struct AccState
    {
        Accelerator *acc = nullptr;
        Node *current = nullptr;    ///< Task occupying the unit.
        bool waitingForSpm = false; ///< Launch stalled on a partition.
        int outputPartition = -1;   ///< Where current's output lands.
        unsigned colocMask = 0;     ///< Partitions read in place.
        int pendingInputs = 0;      ///< Outstanding input transfers.
        Tick inputStart = 0;        ///< When input loading began.
        /** current's compute time before and after jitter, fixed when
         *  its compute starts. */
        Tick computeBase = 0;
        Tick computeDuration = 0;
        /** Node that most recently executed here. The scheduler
         *  performs colocations by tracking the previously executed
         *  node on an accelerator (paper Section III-B), so only the
         *  immediately-following consumer reads in place. */
        const Node *lastExecuted = nullptr;
    };

    /** Start-of-submission bookkeeping for one DAG. */
    void beginDag(Dag *dag);

    /** Make nodes ready: predict runtimes, charge scheduling cost, and
     *  hand them to the policy, then try to launch. Takes back the
     *  pooled list @p ready. */
    void scheduleReadyNodes(std::vector<Node *> *ready);

    /** Manager time to take in @p ready: the ISR plus one policy push
     *  per node, sampling each target queue's depth once. @p parent is
     *  the node whose completion readied them (null at submit). */
    Tick readyBatchCost(const std::vector<Node *> &ready,
                        const Node *parent);

    /** Stamp @p ready's nodes, hand them to the policy and take back
     *  the pooled list. */
    void enqueueReady(std::vector<Node *> *ready);

    /**
     * Ready lists are pooled like DmaEngine's chunk states: the ISR
     * closure that hands a list to the policy captures a raw pointer
     * and returns the list, which keeps its capacity, to the free list.
     */
    std::vector<Node *> *acquireReadyList();
    void releaseReadyList(std::vector<Node *> *list);

    /** Pull work onto every idle accelerator. */
    void tryLaunchAll();

    /** Attempt to start the launch sequence of @p node on @p state. */
    void beginLaunch(AccState &state, Node *node);

    /** The accelerator @p node's output was produced on (its
     *  outputAt), or null before it is produced. */
    Accelerator *producerOf(const Node *node) const;

    /** Can @p parent's output be read in place by @p state's task? */
    bool canColocate(const AccState &state, const Node *parent) const;

    /** Allocate the output partition (evicting if needed) and issue
     *  inputs; stalls if every partition has active readers. */
    void tryAllocateAndIssue(AccState &state);

    /** Resume launches stalled on output-partition availability. */
    void resumeStalledLaunches();

    /** Issue input transfers and chain into compute. */
    void issueInputs(AccState &state);

    /** One input transfer landed; compute starts after the last. */
    void inputLanded(AccState &state);

    /** Emit the Perfetto flow arrow for one satisfied edge. */
    void traceEdgeFlow(const AccState &state, const Node *node,
                       std::size_t input_index, InputSource source);

    /** All inputs have landed: run the functional unit. */
    void startCompute(AccState &state);

    /** Compute finished: produce output, run functional payload,
     *  raise the completion interrupt. */
    void onComputeDone(AccState &state);

    /** ISR + scheduler (paper Algorithm 1 entry point). */
    void handleNodeCompletion(AccState &state, Node *node, int partition);

    /** Apply the write-back rule to @p node's fresh output. */
    void handleWriteBack(AccState &state, Node *node, int partition);

    /** Force a partition's data to DRAM so it can be reclaimed. */
    void evictPartition(Accelerator &acc, int partition);

    /** Release scratchpad residue a resubmitted DAG left behind. */
    void invalidateDagResidue(Dag *dag);

    /** Serialize @p cost on the manager timeline; returns completion
     *  tick (identity when latency modeling is off). */
    Tick occupyManager(Tick cost);

    /** Deterministic compute duration of @p node: @p base (its
     *  modelled compute time) with per-node jitter. */
    Tick actualComputeTime(const Node &node, Tick base) const;

    std::unique_ptr<Policy> policy_;
    std::unique_ptr<RuntimePredictor> predictor_;
    std::vector<AccState> accs_;
    std::array<std::vector<int>, std::size_t(numAccTypes)> byType_;
    ManagerConfig config_;
    ReadyQueues queues_;
    RunMetrics metrics_;
    std::vector<DagLatencyRecord> latencyRecords_;
    /** The critical-path analyzer's output, reused for every DAG. */
    std::vector<const Node *> criticalPath_;
    std::vector<std::unique_ptr<std::vector<Node *>>> readyPool_;
    std::vector<std::vector<Node *> *> readyFree_;
    Tick managerFreeAt_ = 0;
    DagObserver noObserver_;
    DagObserver *observer_ = &noObserver_; ///< Never null.
    TraceRecorder *trace_ = nullptr;
    NodeInputs payloadInputs_; ///< Reused operand list of a payload.
};

} // namespace relief

#endif // RELIEF_MANAGER_HARDWARE_MANAGER_HH
