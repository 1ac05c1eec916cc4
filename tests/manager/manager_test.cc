/** @file Behavioural tests for the hardware manager runtime. */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/soc.hh"
#include "dag/apps/apps.hh"
#include "dag/dag.hh"
#include "workload/scenario.hh"

namespace relief
{
namespace
{

/** Small deterministic tasks: 1 KiB operands, fixed 100 us runtime. */
TaskParams
tiny(AccType type, int inputs = 1)
{
    TaskParams p;
    p.type = type;
    p.numInputs = inputs;
    p.elems = 256;
    return p;
}

DagPtr
chainDag(std::vector<AccType> types, Tick deadline = fromMs(10.0))
{
    auto dag = std::make_shared<Dag>("chain", 'X');
    Node *prev = nullptr;
    int i = 0;
    for (AccType type : types) {
        Node *n = dag->addNode(tiny(type, prev ? 1 : 1),
                               "chain." + std::to_string(i++));
        n->fixedRuntime = fromUs(100.0);
        if (prev)
            dag->addEdge(prev, n);
        prev = n;
    }
    dag->setRelativeDeadline(deadline);
    dag->finalize();
    return dag;
}

SocConfig
quietConfig(PolicyKind policy = PolicyKind::Relief)
{
    SocConfig config;
    config.policy = policy;
    config.manager.computeJitter = 0.0;
    return config;
}

TEST(ManagerTest, SingleNodeDagRunsToCompletion)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    EXPECT_TRUE(dag->complete());
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.nodesFinished, 1u);
    EXPECT_EQ(report.run.dagsFinished, 1u);
    EXPECT_EQ(report.run.dagDeadlinesMet, 1u);
}

TEST(ManagerTest, NodesRespectDependencies)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution,
                           AccType::Grayscale});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    for (Node *node : dag->allNodes()) {
        for (Node *parent : node->parents) {
            EXPECT_GE(node->launchedAt, parent->finishedAt)
                << node->label;
        }
        EXPECT_GT(node->finishedAt, node->launchedAt);
    }
}

TEST(ManagerTest, CrossAcceleratorEdgeForwardsWhenNextInLine)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    // The child was the only queued work: it launched right after its
    // parent and pulled from the parent's scratchpad.
    EXPECT_EQ(dag->node(1)->inputSources[0], InputSource::Forwarded);
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.forwards, 1u);
    EXPECT_EQ(report.run.colocations, 0u);
    EXPECT_GT(report.spmForwardBytes, 0u);
}

TEST(ManagerTest, SameAcceleratorEdgeColocates)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::ElemMatrix});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    EXPECT_EQ(dag->node(1)->inputSources[0], InputSource::Colocated);
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.colocations, 1u);
    EXPECT_EQ(report.run.forwards, 0u);
}

TEST(ManagerTest, ForwardingDisabledGoesThroughDram)
{
    SocConfig config = quietConfig();
    config.manager.forwardingEnabled = false;
    Soc soc(config);
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::ElemMatrix,
                           AccType::Convolution});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.forwards, 0u);
    EXPECT_EQ(report.run.colocations, 0u);
    EXPECT_EQ(report.run.dramEdges, 2u);
    // Every operand and output moved through DRAM.
    EXPECT_EQ(report.dramBytes, report.run.baselineBytes);
}

TEST(ManagerTest, WriteBackSkippedWhenChildForwards)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    EXPECT_GE(report.run.writebacksAvoided, 1u);
}

TEST(ManagerTest, LeafOutputIsAlwaysWrittenBack)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    // 1 external input read + 1 output write.
    EXPECT_EQ(report.dramBytes, 2u * 1024u);
    EXPECT_EQ(report.run.writebacksAvoided, 0u);
}

TEST(ManagerTest, DeadlineMissIsRecorded)
{
    Soc soc(quietConfig());
    // Two sequential 100 us tasks cannot meet a 50 us deadline.
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution},
                          fromUs(50.0));
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.dagsFinished, 1u);
    EXPECT_EQ(report.run.dagDeadlinesMet, 0u);
    EXPECT_LT(report.run.nodeDeadlinesMet, report.run.nodesFinished);
    EXPECT_GT(report.apps[0].meanSlowdown(), 1.0);
}

TEST(ManagerTest, TwoDagsShareTheAccelerator)
{
    Soc soc(quietConfig());
    DagPtr d1 = chainDag({AccType::ElemMatrix, AccType::ElemMatrix});
    DagPtr d2 = chainDag({AccType::ElemMatrix, AccType::ElemMatrix});
    soc.submit(d1);
    soc.submit(d2);
    soc.run(fromMs(50.0));
    EXPECT_TRUE(d1->complete());
    EXPECT_TRUE(d2->complete());
    // Serialized on the single elem-matrix instance: total busy time
    // equals four tasks.
    auto accs = soc.accelerators();
    Tick em_busy = 0;
    for (Accelerator *acc : accs)
        if (acc->type() == AccType::ElemMatrix)
            em_busy = acc->computeBusyTime();
    EXPECT_EQ(em_busy, fromUs(400.0));
}

TEST(ManagerTest, ContinuousModeResubmits)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix});
    soc.submit(dag, 0, /* continuous */ true);
    soc.run(fromMs(5.0));
    MetricsReport report = soc.report();
    EXPECT_GT(report.apps[0].iterations, 5);
    EXPECT_EQ(report.run.dagsFinished,
              std::uint64_t(report.apps[0].iterations));
}

TEST(ManagerTest, ManagerLatencyDelaysChildLaunch)
{
    SocConfig with_latency = quietConfig();
    with_latency.manager.isrLatency = fromUs(5.0);
    SocConfig no_latency = quietConfig();
    no_latency.manager.modelSchedulingLatency = false;

    auto run_one = [](const SocConfig &config) {
        Soc soc(config);
        DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution});
        soc.submit(dag);
        soc.run(fromMs(50.0));
        return dag->finishTick();
    };
    EXPECT_GT(run_one(with_latency), run_one(no_latency));
}

TEST(ManagerTest, ManagerBusyTimeAccumulates)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    EXPECT_GT(report.run.managerBusyTime, 0u);
    EXPECT_GT(report.run.pushLatency.count(), 0u);
}

TEST(ManagerTest, FanOutToDistinctTypesRunsInParallel)
{
    Soc soc(quietConfig());
    auto dag = std::make_shared<Dag>("fan", 'X');
    Node *a = dag->addNode(tiny(AccType::ElemMatrix), "a");
    Node *b = dag->addNode(tiny(AccType::Convolution), "b");
    Node *c = dag->addNode(tiny(AccType::Grayscale), "c");
    a->fixedRuntime = fromUs(100.0);
    b->fixedRuntime = fromUs(100.0);
    c->fixedRuntime = fromUs(100.0);
    dag->addEdge(a, b);
    dag->addEdge(a, c);
    dag->setRelativeDeadline(fromMs(10.0));
    dag->finalize();
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    // b and c overlap: they launch within each other's execution.
    EXPECT_LT(std::max(b->launchedAt, c->launchedAt),
              std::min(b->finishedAt, c->finishedAt));
}

TEST(ManagerTest, EdgeAccountingIsConserved)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution,
                           AccType::ElemMatrix, AccType::ElemMatrix});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.edgesConsumed, std::uint64_t(dag->numEdges()));
    EXPECT_EQ(report.run.forwards + report.run.colocations +
                  report.run.dramEdges,
              report.run.edgesConsumed);
}

TEST(ManagerTest, SinglePartitionForcesEvictionButStaysCorrect)
{
    // With one output partition, a same-accelerator consumer's
    // colocation input occupies the only partition its own output
    // needs: the manager must demote the colocation (evicting the
    // producer's data to DRAM first) rather than deadlock.
    SocConfig config = quietConfig();
    config.spmPartitions = 1;
    Soc soc(config);
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::ElemMatrix,
                           AccType::ElemMatrix});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    MetricsReport report = soc.report();
    // All edges fall back to DRAM, and the data is never lost.
    EXPECT_EQ(report.run.colocations, 0u);
    EXPECT_EQ(report.run.dramEdges, 2u);
}

TEST(ManagerTest, SinglePartitionCrossTypeChainStillRuns)
{
    SocConfig config = quietConfig();
    config.spmPartitions = 1;
    Soc soc(config);
    DagPtr dag = chainDag({AccType::ISP, AccType::Grayscale,
                           AccType::Convolution, AccType::ElemMatrix,
                           AccType::CannyNonMax});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    EXPECT_TRUE(dag->complete());
}

TEST(ManagerTest, FullBenchmarksRunWithTwoPartitions)
{
    SocConfig config = quietConfig();
    config.spmPartitions = 2;
    Soc soc(config);
    for (AppId app : {AppId::Canny, AppId::Gru}) {
        soc.submit(buildApp(app));
    }
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.dagsFinished, 2u);
}

TEST(ManagerTest, EvictedDataIsReadableFromDram)
{
    // Fan-out where the second consumer is delayed past the producer's
    // partition reuse: it must read the evicted/written-back copy.
    SocConfig config = quietConfig();
    config.spmPartitions = 2;
    Soc soc(config);
    auto dag = std::make_shared<Dag>("fan", 'X');
    Node *a = dag->addNode(tiny(AccType::ElemMatrix), "a");
    // A long chain keeps the EM accelerator busy, delaying 'late'.
    Node *prev = a;
    for (int i = 0; i < 4; ++i) {
        Node *n = dag->addNode(tiny(AccType::ElemMatrix),
                               "chain" + std::to_string(i));
        n->fixedRuntime = fromUs(100.0);
        dag->addEdge(prev, n);
        prev = n;
    }
    Node *late = dag->addNode(tiny(AccType::ElemMatrix, 2), "late");
    late->fixedRuntime = fromUs(100.0);
    dag->addEdge(a, late);
    dag->addEdge(prev, late);
    a->fixedRuntime = fromUs(100.0);
    dag->setRelativeDeadline(fromMs(10.0));
    dag->finalize();
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    // 'late' consumed a's output one way or another.
    EXPECT_EQ(late->status, NodeStatus::Finished);
}

TEST(ManagerTest, StreamForwardingMechanismWorksEndToEnd)
{
    SocConfig config = quietConfig();
    config.manager.forwardMechanism = ForwardMechanism::StreamBuffer;
    Soc soc(config);
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution,
                           AccType::Grayscale});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.forwards, 2u);
    EXPECT_GT(report.spmForwardBytes, 0u);
}

TEST(ManagerTest, StreamForwardingIsAtLeastAsFast)
{
    auto run_with = [](ForwardMechanism mechanism) {
        SocConfig config = quietConfig();
        config.manager.forwardMechanism = mechanism;
        Soc soc(config);
        DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution,
                               AccType::Grayscale, AccType::ISP});
        soc.submit(dag);
        soc.run(fromMs(50.0));
        return dag->finishTick();
    };
    EXPECT_LE(run_with(ForwardMechanism::StreamBuffer),
              run_with(ForwardMechanism::SpmDma));
}

TEST(ManagerTest, SubmitLatencyDelaysArrival)
{
    SocConfig config = quietConfig();
    config.manager.submitLatency = fromUs(2.0);
    Soc soc(config);
    DagPtr dag = chainDag({AccType::ElemMatrix});
    soc.submit(dag, fromMs(1.0));
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    EXPECT_EQ(dag->arrivalTick(), fromMs(1.0) + fromUs(2.0));
}

TEST(ManagerTest, SubmitLatencyDefaultsToZero)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix});
    soc.submit(dag, fromMs(1.0));
    soc.run(fromMs(50.0));
    EXPECT_EQ(dag->arrivalTick(), fromMs(1.0));
}

TEST(ManagerTest, IdleCountTracksOccupancy)
{
    Soc soc(quietConfig());
    EXPECT_EQ(soc.manager().idleCount(AccType::ElemMatrix), 1);
    EXPECT_EQ(soc.manager().instanceCount(AccType::ElemMatrix), 1);
}

TEST(ManagerTest, MultiInstanceTypeRunsConcurrently)
{
    SocConfig config = quietConfig();
    config.instances[accIndex(AccType::ElemMatrix)] = 2;
    Soc soc(config);
    EXPECT_EQ(soc.manager().instanceCount(AccType::ElemMatrix), 2);

    auto dag = std::make_shared<Dag>("par", 'X');
    Node *a = dag->addNode(tiny(AccType::ElemMatrix), "a");
    Node *b = dag->addNode(tiny(AccType::ElemMatrix), "b");
    a->fixedRuntime = fromUs(100.0);
    b->fixedRuntime = fromUs(100.0);
    dag->setRelativeDeadline(fromMs(10.0));
    dag->finalize();
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    EXPECT_LT(std::max(a->launchedAt, b->launchedAt),
              std::min(a->finishedAt, b->finishedAt));
}

/** Runs @c completed and @c retired, where set, on the manager's
 *  calls. */
struct CallbackObserver : DagObserver
{
    std::function<void(Dag *)> completed;
    std::function<void(Dag *)> retired;

    void dagCompleted(Dag *dag) override
    {
        if (completed)
            completed(dag);
    }
    void dagRetired(Dag *dag) override
    {
        if (retired)
            retired(dag);
    }
};

/** Sinks of @p dag whose output has not gone to DRAM in this run. */
int
unwrittenSinks(const Dag &dag)
{
    int unwritten = 0;
    for (int i = 0; i < dag.numNodes(); ++i) {
        const Node *node = dag.node(i);
        unwritten += node->children.empty() && node->lifecycle.wbEnd == 0;
    }
    return unwritten;
}

TEST(DagObserverTest, AttributedThenCompletedThenRetired)
{
    // A continuous CDL run that resubmits each DAG when it retires.
    // Every finished DAG sees the three calls in order. A sink's output
    // always goes to DRAM, decided in its ISR; the ISRs run in
    // completion order, so the completing sink is still unwritten at
    // dagCompleted and every sink is written at dagRetired.
    struct Recorder : DagObserver
    {
        Soc *soc = nullptr;
        std::map<const Dag *, std::string> calls; ///< This execution's.
        int retired = 0;

        void dagAttributed(Dag *dag, const DagLatencyRecord &record,
                           const std::vector<const Node *> &path) override
        {
            EXPECT_EQ(calls[dag], "");
            calls[dag] += 'A';
            EXPECT_EQ(record.finish, dag->finishTick());
            ASSERT_FALSE(path.empty());
            EXPECT_EQ(path.front()->finishedAt, soc->sim().now());
        }
        void dagCompleted(Dag *dag) override
        {
            EXPECT_EQ(calls[dag], "A");
            calls[dag] += 'C';
            EXPECT_GE(unwrittenSinks(*dag), 1);
        }
        void dagRetired(Dag *dag) override
        {
            EXPECT_EQ(calls[dag], "AC");
            calls[dag].clear();
            EXPECT_EQ(unwrittenSinks(*dag), 0);
            ++retired;
            if (soc->sim().now() < fromMs(50.0))
                soc->manager().submitDag(dag, soc->sim().now());
        }
    };

    resetNodeIds();
    Soc soc{SocConfig{}};
    Recorder recorder;
    recorder.soc = &soc;
    soc.manager().setDagObserver(recorder);
    std::vector<DagPtr> dags;
    for (AppId app : parseMix("CDL")) {
        dags.push_back(buildApp(app));
        soc.manager().submitDag(dags.back().get(), 0);
    }
    soc.run(fromMs(50.0));
    EXPECT_GT(recorder.retired, 10);
    // A DAG completed just before the limit may await its retirement.
    int unretired = 0;
    for (const auto &[dag, calls] : recorder.calls) {
        EXPECT_TRUE(calls.empty() || calls == "AC") << dag->name();
        unretired += calls == "AC";
    }
    EXPECT_EQ(std::uint64_t(recorder.retired + unretired),
              soc.manager().metrics().dagsFinished);
}

/** One valid scratchpad partition, found by a full scan. */
struct HeldOutput
{
    const Scratchpad *spm;
    int partition;
    NodeId owner;
};

/** Every valid partition of @p soc's scratchpads owned by a node of
 *  @p dag: the scan the manager's one-partition checks stand for. */
std::vector<HeldOutput>
heldOutputs(Soc &soc, const Dag &dag)
{
    std::vector<HeldOutput> held;
    for (Accelerator *acc : soc.accelerators()) {
        const Scratchpad &spm = acc->spm();
        for (int p = 0; p < spm.numPartitions(); ++p) {
            const SpmPartition &part = spm.partition(p);
            for (int i = 0; part.dataValid && i < dag.numNodes(); ++i) {
                if (part.owner == dag.node(i)->id)
                    held.push_back(HeldOutput{&spm, p, part.owner});
            }
        }
    }
    return held;
}

TEST(ManagerResidueTest, ResubmissionLeavesNoValidPartitionOfTheDag)
{
    // The manager looks for a node's output only in the partition it
    // was produced in. A scan of every scratchpad agrees as long as a
    // resubmitted DAG leaves nothing valid behind: every read of the
    // finished run has ended, so its residue is released whole.
    for (const std::string mix : {"C", "CDL", "GHL", "CDGHL"}) {
        for (PolicyKind policy : {PolicyKind::Relief, PolicyKind::Fcfs,
                                  PolicyKind::Lax}) {
            SCOPED_TRACE(mix + " " + policyName(policy));
            resetNodeIds();
            SocConfig config;
            config.policy = policy;
            Soc soc(config);
            std::vector<DagPtr> dags;
            int resubmissions = 0;
            std::size_t released = 0;
            std::size_t residue = 0;
            CallbackObserver observer;
            observer.completed = [&](Dag *dag) {
                if (soc.sim().now() >= fromMs(20.0))
                    return;
                released += heldOutputs(soc, *dag).size();
                soc.manager().submitDag(dag, soc.sim().now());
                // Runs right after the resubmission took effect.
                soc.sim().at(soc.sim().now(), [&, dag] {
                    EXPECT_EQ(dag->arrivalTick(), soc.sim().now());
                    residue += heldOutputs(soc, *dag).size();
                    ++resubmissions;
                });
            };
            soc.manager().setDagObserver(observer);
            for (AppId app : parseMix(mix)) {
                dags.push_back(buildApp(app));
                soc.manager().submitDag(dags.back().get(), 0);
            }
            soc.run(fromMs(20.0));
            EXPECT_GT(resubmissions, 3);
            EXPECT_GT(released, 0u); // the finished runs held outputs
            EXPECT_EQ(residue, 0u);
        }
    }
}

TEST(ManagerResidueTest, ReusedPoolInstanceReleasesNothingAtReuse)
{
    // The serve driver's reuse step: at retirement, restamp the
    // instance with fresh ids and submit it again. The previous
    // incarnation's outputs stay where they are, left to LRU eviction.
    resetNodeIds();
    Soc soc{SocConfig{}};
    std::vector<DagPtr> pool;
    int reuses = 0;
    std::size_t kept = 0;
    CallbackObserver observer;
    observer.retired = [&](Dag *dag) {
        if (soc.sim().now() >= fromMs(20.0))
            return;
        std::vector<HeldOutput> held = heldOutputs(soc, *dag);
        dag->restampIds();
        soc.manager().submitDag(dag, soc.sim().now());
        soc.sim().at(soc.sim().now(), [&, dag, held] {
            EXPECT_EQ(dag->arrivalTick(), soc.sim().now());
            for (const HeldOutput &h : held)
                EXPECT_TRUE(h.spm->holdsOutput(h.partition, h.owner))
                    << "node " << h.owner << " released at reuse";
            kept += held.size();
            ++reuses;
        });
    };
    soc.manager().setDagObserver(observer);
    for (AppId app : parseMix("CDL")) {
        pool.push_back(buildApp(app));
        soc.manager().submitDag(pool.back().get(), 0);
    }
    soc.run(fromMs(20.0));
    EXPECT_GT(reuses, 3);
    EXPECT_GT(kept, 0u);
}

} // namespace
} // namespace relief
