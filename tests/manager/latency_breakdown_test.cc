/**
 * @file
 * Tests for per-node lifecycle stamps and critical-path latency
 * attribution (manager/critical_path.hh). The core invariant under
 * test: the six buckets partition the end-to-end DAG latency exactly —
 * on a hand-computed diamond and on every tier-1 workload mix.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/soc.hh"
#include "dag/dag.hh"
#include "manager/critical_path.hh"
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

constexpr Tick kFixed = fromUs(100.0);

/** a -> {b, c} -> d with fixed 100 us nodes on four distinct types. */
DagPtr
diamondDag()
{
    auto dag = std::make_shared<Dag>("diamond", 'X');
    Node *a = dag->addNode(tiny(AccType::ElemMatrix), "diamond.a");
    Node *b = dag->addNode(tiny(AccType::Convolution), "diamond.b");
    Node *c = dag->addNode(tiny(AccType::Grayscale), "diamond.c");
    Node *d = dag->addNode(tiny(AccType::ElemMatrix, 2), "diamond.d");
    for (Node *n : {a, b, c, d})
        n->fixedRuntime = kFixed;
    dag->addEdge(a, b);
    dag->addEdge(a, c);
    dag->addEdge(b, d);
    dag->addEdge(c, d);
    dag->setRelativeDeadline(fromMs(10.0));
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

Tick
absDiff(Tick a, Tick b)
{
    return a > b ? a - b : b - a;
}

TEST(LatencyBreakdownTest, DiamondBucketsSumToLatency)
{
    Soc soc(quietConfig());
    DagPtr dag = diamondDag();
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());

    std::vector<const Node *> path;
    DagLatencyRecord rec = CriticalPath::analyze(*dag, path);
    EXPECT_EQ(rec.dag, "diamond");
    EXPECT_EQ(rec.arrival, dag->arrivalTick());
    EXPECT_EQ(rec.finish, dag->finishTick());
    // The partition invariant: every tick of latency lands in exactly
    // one bucket (acceptance criterion: within one tick).
    EXPECT_LE(absDiff(rec.buckets.total(), rec.latency()), 1u);

    // The walked path is sink -> gating middle node -> root.
    ASSERT_EQ(rec.pathLength, 3);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_EQ(path.front()->label, "diamond.d");
    EXPECT_TRUE(path.back()->parents.empty());
    EXPECT_EQ(path.back()->label, "diamond.a");

    // Three fixed-runtime nodes on the path, no jitter: the compute
    // bucket is exactly 300 us.
    EXPECT_EQ(rec.buckets.compute, 3 * kFixed);
    // Write-backs are asynchronous in this model, so they never gate
    // the path (the bucket exists as a regression detector).
    EXPECT_EQ(rec.buckets.dmaOut, 0u);
}

TEST(LatencyBreakdownTest, ManagerStoresOneRecordPerFinishedDag)
{
    Soc soc(quietConfig());
    DagPtr dag = diamondDag();
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());

    const auto &records = soc.manager().latencyRecords();
    ASSERT_EQ(records.size(), 1u);
    const DagLatencyRecord &rec = records.front();
    EXPECT_EQ(rec.dag, "diamond");
    EXPECT_LE(absDiff(rec.buckets.total(), rec.latency()), 1u);
    EXPECT_EQ(rec.pathLength, 3);

    // The attribution also lands in the RunMetrics histograms.
    const RunMetrics &m = soc.manager().metrics();
    EXPECT_EQ(m.cpTotalUs.count(), 1u);
    EXPECT_DOUBLE_EQ(m.cpComputeUs.mean(), toUs(rec.buckets.compute));
}

TEST(LatencyBreakdownTest, LifecycleStampsAreMonotonic)
{
    Soc soc(quietConfig());
    DagPtr dag = diamondDag();
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());

    for (Node *node : dag->allNodes()) {
        const NodeLifecycle &lc = node->lifecycle;
        EXPECT_LE(lc.submitted, lc.depsReady) << node->label;
        EXPECT_LE(lc.depsReady, lc.queued) << node->label;
        EXPECT_LE(lc.queued, lc.dispatched) << node->label;
        EXPECT_LE(lc.dispatched, lc.loadStart) << node->label;
        EXPECT_LE(lc.loadStart, lc.loadEnd) << node->label;
        EXPECT_LT(lc.loadEnd, lc.computeEnd) << node->label;
        EXPECT_EQ(lc.computeEnd, node->finishedAt) << node->label;
        EXPECT_LE(lc.wbStart, lc.wbEnd) << node->label;
    }
}

TEST(LatencyBreakdownTest, SingleNodeDagAttribution)
{
    Soc soc(quietConfig());
    auto dag = std::make_shared<Dag>("solo", 'S');
    Node *n = dag->addNode(tiny(AccType::Convolution), "solo.n");
    n->fixedRuntime = kFixed;
    dag->setRelativeDeadline(fromMs(10.0));
    dag->finalize();
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());

    std::vector<const Node *> path;
    DagLatencyRecord rec = CriticalPath::analyze(*dag, path);
    EXPECT_EQ(rec.pathLength, 1);
    EXPECT_EQ(path.size(), 1u);
    EXPECT_EQ(rec.buckets.compute, kFixed);
    EXPECT_LE(absDiff(rec.buckets.total(), rec.latency()), 1u);
}

/**
 * Acceptance criterion: on every tier-1 workload (each application
 * alone and the paper's three-app mixes, under both the baseline and
 * RELIEF schedulers, with the default compute jitter), every finished
 * DAG's bucket sums equal its measured end-to-end latency within one
 * tick.
 */
TEST(LatencyBreakdownTest, BucketsSumToLatencyOnTier1Workloads)
{
    std::vector<std::string> mixes = {"C", "D", "G", "H", "L"};
    for (const std::string &mix : mixesFor(Contention::High))
        mixes.push_back(mix);
    for (PolicyKind policy : {PolicyKind::Fcfs, PolicyKind::Relief}) {
        for (const std::string &mix : mixes) {
            SocConfig config;
            config.policy = policy;
            Soc soc(config);
            std::vector<DagPtr> dags;
            for (AppId app : parseMix(mix))
                dags.push_back(buildApp(app));
            for (DagPtr &dag : dags)
                soc.submit(dag);
            soc.run(fromMs(50.0));

            const auto &records = soc.manager().latencyRecords();
            ASSERT_EQ(records.size(), dags.size())
                << mix << " under " << policyName(policy);
            for (const DagLatencyRecord &rec : records) {
                EXPECT_LE(absDiff(rec.buckets.total(), rec.latency()), 1u)
                    << rec.dag << " in " << mix << " under "
                    << policyName(policy);
                EXPECT_GT(rec.buckets.compute, 0u) << rec.dag;
                EXPECT_EQ(rec.buckets.dmaOut, 0u) << rec.dag;
            }
        }
    }
}

/** Continuous resubmission: one record per execution, not per DAG. */
TEST(LatencyBreakdownTest, ContinuousRunsAccumulateRecords)
{
    Soc soc(quietConfig());
    DagPtr dag = diamondDag();
    soc.submit(dag, 0, true);
    soc.run(fromMs(5.0));

    const auto &records = soc.manager().latencyRecords();
    const RunMetrics &m = soc.manager().metrics();
    EXPECT_EQ(records.size(), m.dagsFinished);
    ASSERT_GT(records.size(), 1u);
    for (const DagLatencyRecord &rec : records)
        EXPECT_LE(absDiff(rec.buckets.total(), rec.latency()), 1u);
}

} // namespace
} // namespace relief
