#include "manager/hardware_manager.hh"

#include <algorithm>
#include <utility>

#include "kernels/scratch.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace relief
{

namespace
{

/**
 * Pressure-ledger attribution context of @p node's transfers: QoS
 * class from the owning DAG, request id from the serving span context
 * when present (batch runs fall back to the node id, debug only).
 */
TransferCtx
transferCtx(const Node *node)
{
    TransferCtx ctx;
    ctx.qosClass = std::uint8_t(node->dag->qosClass());
    ctx.requestId = node->dag->spanContext()
                        ? node->dag->spanContext()
                        : std::uint64_t(node->id);
    return ctx;
}

} // namespace

HardwareManager::HardwareManager(Simulator &sim, std::string name,
                                 std::unique_ptr<Policy> policy,
                                 std::unique_ptr<RuntimePredictor> predictor,
                                 std::vector<Accelerator *> accelerators,
                                 const ManagerConfig &config)
    : SimObject(sim, std::move(name)), policy_(std::move(policy)),
      predictor_(std::move(predictor)), config_(config)
{
    RELIEF_ASSERT(policy_ != nullptr, "manager needs a policy");
    RELIEF_ASSERT(predictor_ != nullptr, "manager needs a predictor");
    RELIEF_ASSERT(!accelerators.empty(), "manager needs accelerators");
    for (Accelerator *acc : accelerators) {
        AccState state;
        state.acc = acc;
        byType_[accIndex(acc->type())].push_back(int(accs_.size()));
        accs_.push_back(state);
    }
}

int
HardwareManager::idleCount(AccType type) const
{
    int count = 0;
    for (int idx : byType_[accIndex(type)]) {
        const AccState &state = accs_[std::size_t(idx)];
        if (state.current == nullptr)
            ++count;
    }
    return count;
}

int
HardwareManager::instanceCount(AccType type) const
{
    return int(byType_[accIndex(type)].size());
}

Tick
HardwareManager::occupyManager(Tick cost)
{
    if (!config_.modelSchedulingLatency)
        return now();
    Tick start = std::max(now(), managerFreeAt_);
    Tick end = start + cost;
    managerFreeAt_ = end;
    metrics_.managerBusyTime += cost;
    if (trace_)
        trace_->span(trace_->lane("manager"), "sched", start, end, "mgr");
    return end;
}

namespace
{

/** Modelled compute time of @p node, before jitter. */
Tick
baseComputeTime(const Node &node)
{
    return node.fixedRuntime ? node.fixedRuntime
                             : computeTime(node.params);
}

} // namespace

Tick
HardwareManager::actualComputeTime(const Node &node, Tick base) const
{
    if (config_.computeJitter <= 0.0)
        return base;
    // Deterministic per-node jitter in [-amplitude, +amplitude]: models
    // the tiny pipeline-level variation real accelerators exhibit. The
    // hash uses the stable node label so identical experiments replay
    // identically across processes.
    std::uint64_t h = node.labelHash * 2654435761ull;
    double unit = double((h >> 16) % 2001) / 1000.0 - 1.0;
    double scaled = double(base) * (1.0 + config_.computeJitter * unit);
    return scaled > 1.0 ? Tick(scaled) : Tick(1);
}

void
HardwareManager::submitDag(Dag *dag, Tick when)
{
    RELIEF_ASSERT(dag != nullptr, "submitting null DAG");
    RELIEF_ASSERT(dag->finalized(), "submitting unfinalized DAG ",
                  dag->name());
    Tick submit_cost =
        config_.modelSchedulingLatency ? config_.submitLatency : 0;
    sim().at(std::max(when, now()) + submit_cost, HostCat::Sched,
             [this, dag]() { beginDag(dag); },
             [this, dag] { return name() + ".submit." + dag->name(); });
}

void
HardwareManager::beginDag(Dag *dag)
{
    invalidateDagResidue(dag);
    // The last run's leaves kept their payload buffers; pool them for
    // this run's payloads.
    ScratchPool &pool = ScratchPool::forThread();
    for (int i = 0; i < dag->numNodes(); ++i) {
        Node *node = dag->node(i);
        if (node->outputData.capacity() != 0)
            pool.release(std::move(node->outputData));
    }
    dag->submit(now());

    DeadlineScheme scheme = policy_->deadlineScheme();
    std::vector<Node *> *ready = acquireReadyList();
    for (int i = 0; i < dag->numNodes(); ++i) {
        Node *node = dag->node(i);
        node->deadline = now() + dag->nodeRelativeDeadline(*node, scheme);
        node->scoreDeadline = now() + node->relDeadlineCp;
        node->lifecycle.submitted = now();
        if (node->isRoot()) {
            node->lifecycle.depsReady = now();
            ready->push_back(node);
        }
    }
    scheduleReadyNodes(ready);
}

std::vector<Node *> *
HardwareManager::acquireReadyList()
{
    if (readyFree_.empty()) {
        readyPool_.push_back(std::make_unique<std::vector<Node *>>());
        return readyPool_.back().get();
    }
    std::vector<Node *> *list = readyFree_.back();
    readyFree_.pop_back();
    return list;
}

void
HardwareManager::releaseReadyList(std::vector<Node *> *list)
{
    list->clear(); // keeps capacity for the next completion
    readyFree_.push_back(list);
}

Accelerator *
HardwareManager::producerOf(const Node *node) const
{
    const OutputLocation &at = node->outputAt;
    if (at.acc < 0 || std::size_t(at.acc) >= accs_.size())
        return nullptr;
    return accs_[std::size_t(at.acc)].acc;
}

void
HardwareManager::invalidateDagResidue(Dag *dag)
{
    // Each output was produced into one partition, and a finished run
    // has no reads left in flight, so a node's residue is at most the
    // partition its location names. A pooled serve instance restamped
    // with fresh ids owns none.
    for (int i = 0; i < dag->numNodes(); ++i) {
        const Node *node = dag->node(i);
        Accelerator *acc = producerOf(node);
        if (!acc)
            continue;
        Scratchpad &spm = acc->spm();
        int part = node->outputAt.partition;
        if (spm.holdsOutput(part, node->id) &&
            spm.partition(part).ongoingReads == 0)
            spm.release(part);
    }
}

void
HardwareManager::scheduleReadyNodes(std::vector<Node *> *ready)
{
    if (ready->empty()) {
        releaseReadyList(ready);
        tryLaunchAll();
        return;
    }

    Tick done = occupyManager(readyBatchCost(*ready, nullptr));
    sim().at(done, HostCat::Sched,
             [this, ready]() {
                 enqueueReady(ready);
                 tryLaunchAll();
             },
             [this] { return name() + ".sched"; });
}

Tick
HardwareManager::readyBatchCost(const std::vector<Node *> &ready,
                                const Node *parent)
{
    Tick cost = config_.isrLatency;
    for (Node *node : ready) {
        std::size_t depth = queues_[accIndex(node->params.type)].size();
        Tick push = policy_->pushCost(depth);
        metrics_.pushLatency.sample(double(push));
        metrics_.queueDepth.sample(double(depth));
        metrics_.queueDepthHist.sample(double(depth));
        if (parent)
            DPRINTF(Sched, "node ", node->label, " ready for ",
                    accTypeName(node->params.type), " (parent ",
                    parent->label, " finished)");
        else
            DPRINTF(Sched, "node ", node->label, " ready for ",
                    accTypeName(node->params.type));
        cost += push;
    }
    return cost;
}

void
HardwareManager::enqueueReady(std::vector<Node *> *ready)
{
    SchedContext ctx;
    ctx.now = now();
    for (AccType type : allAccTypes)
        ctx.idleCount[accIndex(type)] = idleCount(type);
    for (Node *node : *ready) {
        node->status = NodeStatus::Ready;
        node->readyAt = now();
        node->lifecycle.queued = now();
        node->predictedRuntime = predictor_->predict(*node);
        node->laxityKey =
            STick(node->deadline) - STick(node->predictedRuntime);
    }
    policy_->onNodesReady(*ready, ctx, queues_);
    releaseReadyList(ready);
}

void
HardwareManager::tryLaunchAll()
{
    for (AccState &state : accs_) {
        if (state.current != nullptr)
            continue;
        auto &q = queues_[accIndex(state.acc->type())];
        if (q.empty())
            continue;
        Node *node =
            policy_->selectNext(state.acc->type(), queues_, now());
        if (node)
            beginLaunch(state, node);
    }
}

void
HardwareManager::beginLaunch(AccState &state, Node *node)
{
    RELIEF_ASSERT(state.current == nullptr,
                  state.acc->name(), ": launch while occupied");
    RELIEF_ASSERT(node->status == NodeStatus::Ready,
                  node->label, ": launching non-ready node");
    state.acc->acquire();
    state.current = node;
    node->status = NodeStatus::Running;
    node->launchedAt = now();
    node->lifecycle.dispatched = now();
    metrics_.queueWait.sample(double(now() - node->readyAt));
    metrics_.queueWaitUs.sample(toUs(now() - node->readyAt));
    DPRINTF(Sched, "launch ", node->label, " on ", state.acc->name(),
            node->isFwd ? " (forwarding)" : "");

    // Which local partitions hold parent outputs (colocation)?
    state.colocMask = 0;
    for (const Node *parent : node->parents) {
        if (canColocate(state, parent))
            state.colocMask |= 1u << unsigned(parent->outputAt.partition);
    }
    tryAllocateAndIssue(state);
}

bool
HardwareManager::canColocate(const AccState &state,
                             const Node *parent) const
{
    if (!config_.forwardingEnabled || producerOf(parent) != state.acc)
        return false;
    const Scratchpad &spm = state.acc->spm();
    int part = parent->outputAt.partition;
    if (!spm.holdsOutput(part, parent->id))
        return false;
    // Paper rule: the scheduler colocates only with the previously
    // executed node. Data that was never written back is also read in
    // place — it exists nowhere else.
    return state.lastExecuted == parent ||
           !spm.partition(part).writtenBack;
}

void
HardwareManager::tryAllocateAndIssue(AccState &state)
{
    Node *node = state.current;
    Scratchpad &spm = state.acc->spm();
    int out = spm.findFreeOutputPartition(state.colocMask);
    if (out < 0) {
        unsigned all_mask = (1u << unsigned(spm.numPartitions())) - 1;
        if ((state.colocMask & all_mask) != all_mask) {
            // Some non-colocated partition has active readers; retry
            // when a consumer's read completes (write-after-read
            // protection).
            state.waitingForSpm = true;
            return;
        }
        // Every partition holds a colocated operand of this very task:
        // waiting would deadlock. Demote one colocation to a main
        // memory read, freeing its partition for the output.
        int victim = 0;
        while (!(state.colocMask & (1u << unsigned(victim))))
            ++victim;
        state.colocMask &= ~(1u << unsigned(victim));
        if (spm.partition(victim).ongoingReads > 0) {
            state.waitingForSpm = true;
            return;
        }
        out = victim;
    }
    state.waitingForSpm = false;

    const SpmPartition &victim = spm.partition(out);
    if (victim.owner != 0) {
        if (victim.dataValid && !victim.writtenBack)
            evictPartition(*state.acc, out);
        spm.release(out);
    }
    spm.allocateOutput(out, node->id, node->outputSize());
    state.outputPartition = out;
    issueInputs(state);
}

void
HardwareManager::evictPartition(Accelerator &acc, int partition)
{
    // Reclaiming a partition whose data never reached DRAM: push it
    // back first so bypassed consumers can still load it from main
    // memory. (The paper's write-back rule makes this rare: outputs
    // are written back immediately unless every child is next in
    // line.)
    const SpmPartition &p = acc.spm().partition(partition);
    // Forced spill: the owning node is long retired, so the transfer
    // carries the spill traffic type and the default QoS class.
    TransferCtx ctx;
    ctx.requestId = std::uint64_t(p.owner);
    ctx.spill = true;
    acc.dma().writeToDram(p.bytes, nullptr, p.owner, ctx);
    acc.spm().markWrittenBack(partition);
}

void
HardwareManager::issueInputs(AccState &state)
{
    Node *node = state.current;
    state.inputStart = now();
    node->lifecycle.loadStart = now();
    state.pendingInputs = 0;

    const std::uint64_t operand = node->inputOperandSize();
    metrics_.baselineBytes +=
        std::uint64_t(node->params.numInputs) * operand +
        node->outputSize();

    auto on_input_done = [this, &state]() { inputLanded(state); };

    for (std::size_t i = 0; i < node->parents.size(); ++i) {
        Node *parent = node->parents[i];
        const int part = parent->outputAt.partition;
        ++metrics_.edgesConsumed;

        if (canColocate(state, parent) &&
            (state.colocMask & (1u << unsigned(part)))) {
            // Colocation: the operand is already in the local SPM.
            node->inputSources[i] = InputSource::Colocated;
            ++metrics_.colocations;
            metrics_.colocatedBytes += operand;
            traceEdgeFlow(state, node, i, InputSource::Colocated);
            continue;
        }
        Accelerator *producer = producerOf(parent);
        bool live = config_.forwardingEnabled && producer != nullptr &&
                    producer != state.acc &&
                    producer->spm().holdsOutput(part, parent->id);
        if (live) {
            // Forward: pull straight from the producer's scratchpad.
            node->inputSources[i] = InputSource::Forwarded;
            ++metrics_.forwards;
            traceEdgeFlow(state, node, i, InputSource::Forwarded);
            Scratchpad &producer_spm = producer->spm();
            producer_spm.beginRead(part);
            ++state.pendingInputs;
            auto done = [this, &state, spm = &producer_spm, part]() {
                spm->endRead(part);
                resumeStalledLaunches();
                inputLanded(state);
            };
            static_assert(sizeof(done) <= Completion::capacity,
                          "a forward's completion must not allocate");
            if (config_.forwardMechanism ==
                ForwardMechanism::StreamBuffer) {
                state.acc->dma().streamFrom(
                    producer_spm, producer->dma().port(), operand,
                    std::move(done), transferCtx(node));
            } else {
                state.acc->dma().forwardFrom(
                    producer_spm, producer->dma().port(), operand,
                    std::move(done), transferCtx(node));
            }
            continue;
        }
        // The producer's data is gone (or was written back): DRAM read.
        node->inputSources[i] = InputSource::Dram;
        ++metrics_.dramEdges;
        traceEdgeFlow(state, node, i, InputSource::Dram);
        ++state.pendingInputs;
        Tick end = state.acc->dma().readFromDram(operand, on_input_done,
                                                 parent->id,
                                                 transferCtx(node));
        if (end > now())
            predictor_->observeBandwidth(double(operand) /
                                         double(toNs(end - now())));
    }

    for (int e = 0; e < node->externalInputs(); ++e) {
        ++state.pendingInputs;
        // External buffers (weights, raw frames) get their own stream
        // identity so the banked model spreads them across banks.
        std::uint64_t stream = node->id * 16 + std::uint64_t(e) + 1;
        Tick end = state.acc->dma().readFromDram(operand, on_input_done,
                                                 stream,
                                                 transferCtx(node));
        if (end > now())
            predictor_->observeBandwidth(double(operand) /
                                         double(toNs(end - now())));
    }

    if (state.pendingInputs == 0)
        startCompute(state);
}

void
HardwareManager::inputLanded(AccState &state)
{
    if (--state.pendingInputs == 0)
        startCompute(state);
}

void
HardwareManager::traceEdgeFlow(const AccState &state, const Node *node,
                               std::size_t input_index,
                               InputSource source)
{
    if (!trace_)
        return;
    const Node *parent = node->parents[input_index];
    const Accelerator *producer = producerOf(parent);
    if (producer == nullptr)
        return; // Producer identity lost (resubmission residue).

    const char *category = source == InputSource::Forwarded
                               ? "forward"
                               : source == InputSource::Colocated
                                     ? "colocation"
                                     : "dram";
    // Arrow tail: the producer's completion — or, for an operand that
    // bounced through main memory, the write-back span on the
    // producer's ".wb" lane, which makes the DRAM round trip visually
    // explicit next to the direct forward/colocation arrows.
    int src_lane = trace_->lane(producer->name());
    Tick src_time = parent->lifecycle.computeEnd;
    if (source == InputSource::Dram &&
        parent->lifecycle.wbStart != 0 &&
        parent->lifecycle.wbStart <= now()) {
        src_lane = trace_->lane(producer->name() + ".wb");
        src_time = parent->lifecycle.wbStart;
    }
    trace_->flow(parent->label + " -> " + node->label, category,
                 src_lane, src_time, trace_->lane(state.acc->name()),
                 now());
}

void
HardwareManager::startCompute(AccState &state)
{
    Node *node = state.current;
    node->actualMemTime += now() - state.inputStart;
    node->lifecycle.loadEnd = now();
    state.computeBase = baseComputeTime(*node);
    state.computeDuration = actualComputeTime(*node, state.computeBase);
    Tick duration = state.computeDuration;
    if (trace_) {
        int lane_id = trace_->lane(state.acc->name());
        trace_->span(lane_id, "~load " + node->label, state.inputStart,
                     now(), "dma");
        trace_->span(lane_id, node->label, now(), now() + duration,
                     "compute");
    }
    state.acc->startCompute(duration,
                            [this, &state]() { onComputeDone(state); });
}

void
HardwareManager::onComputeDone(AccState &state)
{
    Node *node = state.current;
    int partition = state.outputPartition;
    node->lifecycle.computeEnd = now();
    state.acc->spm().produceOutput(partition);
    // Where the output lives, for the children's drivers and the next
    // submission's residue check (Table III: producer_acc /
    // producer_spm).
    node->outputAt = OutputLocation{std::int16_t(&state - accs_.data()),
                                    std::int16_t(partition)};

    if (node->fn) {
        // Functional payloads are real host compute (kernel math),
        // not scheduler bookkeeping — attribute them separately.
        HostProfScope prof(HostCat::Kernels);
        payloadInputs_.clear();
        for (Node *parent : node->parents)
            payloadInputs_.push_back(&parent->outputData);
        ScratchPool &pool = ScratchPool::forThread();
        node->outputData = pool.acquire();
        node->fn(payloadInputs_, node->outputData);
        // A parent's buffer has no reader left once its last child has
        // run: recycle it for the payloads still to come.
        for (Node *parent : node->parents) {
            if (++parent->finishedChildren ==
                std::uint32_t(parent->children.size()))
                pool.release(std::move(parent->outputData));
        }
    }

    state.current = nullptr;
    state.colocMask = 0;
    state.outputPartition = -1;
    state.lastExecuted = node;
    handleNodeCompletion(state, node, partition);
}

void
HardwareManager::handleNodeCompletion(AccState &state, Node *node,
                                      int partition)
{
    node->status = NodeStatus::Finished;
    node->finishedAt = now();
    ++metrics_.nodesFinished;
    if (node->deadlineMet())
        ++metrics_.nodeDeadlinesMet;

    // Compute-time prediction outcome (Table VIII). state still holds
    // node's compute times: nothing has launched on it since.
    Tick base = state.computeBase;
    predictor_->recordComputeOutcome(base, state.computeDuration);

    Dag *dag = node->dag;
    dag->noteNodeFinished();
    const bool retires = dag->complete();
    if (retires) {
        dag->setFinishTick(now());
        ++metrics_.dagsFinished;
        if (now() <= dag->absoluteDeadline())
            ++metrics_.dagDeadlinesMet;
        // Attribute the finished execution before the observer can
        // resubmit the DAG (which resets the lifecycles).
        DagLatencyRecord attributed =
            CriticalPath::analyze(*dag, criticalPath_);
        metrics_.sampleCriticalPath(attributed.buckets);
        DPRINTF(Sched, "dag ", dag->name(), " complete: latency ",
                attributed.latency(), " = queue ",
                attributed.buckets.queueWait, " + mgr ",
                attributed.buckets.managerOverhead, " + dma-in ",
                attributed.buckets.dmaIn, " + compute ",
                attributed.buckets.compute, " + dma-out ",
                attributed.buckets.dmaOut, " + stall ",
                attributed.buckets.depStall);
        observer_->dagAttributed(dag, attributed, criticalPath_);
        latencyRecords_.push_back(std::move(attributed));
        observer_->dagCompleted(dag);
    }

    std::vector<Node *> *ready = acquireReadyList();
    for (Node *child : node->children) {
        if (++child->completedParents ==
            std::uint32_t(child->parents.size())) {
            child->lifecycle.depsReady = now();
            ready->push_back(child);
        }
    }

    // ISR + scheduler run, serialized on the manager.
    Tick done = occupyManager(readyBatchCost(*ready, node));
    AccState *state_ptr = &state;
    sim().at(done, HostCat::Sched,
             [this, state_ptr, node, partition, retires, ready, base]() {
                 enqueueReady(ready);
                 handleWriteBack(*state_ptr, node, partition);

                 // Memory-time prediction outcome (Table VIII), now
                 // that the write-back decision is in. Without a fixed
                 // runtime, base is computeTime(node->params).
                 if (!node->fixedRuntime) {
                     Tick predicted_mem =
                         node->predictedRuntime >= base
                             ? node->predictedRuntime - base
                             : 0;
                     predictor_->recordMemoryOutcome(predicted_mem,
                                                     node->actualMemTime);
                 }
                 tryLaunchAll();
                 // The completed DAG's last event: hand it back.
                 if (retires)
                     observer_->dagRetired(node->dag);
             },
             [this] { return name() + ".isr"; });
}

void
HardwareManager::handleWriteBack(AccState &state, Node *node,
                                 int partition)
{
    Scratchpad &spm = state.acc->spm();
    // The partition may already have been reclaimed (and written back)
    // by a subsequent launch on this accelerator.
    if (!spm.holdsOutput(partition, node->id))
        return;

    bool write_back = node->children.empty() ||
                      !config_.forwardingEnabled;
    for (Node *child : node->children) {
        if (write_back)
            break;
        if (child->status == NodeStatus::Running ||
            child->status == NodeStatus::Finished) {
            continue; // Already launched: it resolved its input.
        }
        const auto &q = queues_[accIndex(child->params.type)];
        int window = instanceCount(child->params.type);
        bool next_in_line = false;
        for (int slot = 0; slot < window && slot < int(q.size());
             ++slot) {
            if (q.at(std::size_t(slot)) == child) {
                next_in_line = true;
                break;
            }
        }
        if (!next_in_line) {
            write_back = true;
            break;
        }
    }

    if (!write_back) {
        ++metrics_.writebacksAvoided;
        return;
    }

    std::uint64_t bytes = node->outputSize();
    Tick issue = now();
    Tick end = state.acc->dma().writeToDram(bytes, nullptr, node->id,
                                            transferCtx(node));
    node->actualMemTime += end - issue;
    node->lifecycle.wbStart = issue;
    node->lifecycle.wbEnd = end;
    if (trace_) {
        trace_->span(trace_->lane(state.acc->name() + ".wb"),
                     "wb " + node->label, issue, end, "dma");
    }
    spm.markWrittenBack(partition);
    if (end > issue)
        predictor_->observeBandwidth(double(bytes) /
                                     double(toNs(end - issue)));
}

void
HardwareManager::resumeStalledLaunches()
{
    for (AccState &state : accs_) {
        if (state.waitingForSpm)
            tryAllocateAndIssue(state);
    }
}

} // namespace relief
