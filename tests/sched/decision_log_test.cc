/** @file Unit tests for the RELIEF promotion decision log. */

#include <gtest/gtest.h>

#include <sstream>

#include "sched/relief.hh"
#include "sim/logging.hh"
#include "stats/json_reader.hh"

namespace relief
{
namespace
{

/** Same scaffolding as ReliefTest: hand-built nodes and queues. */
class DecisionLogTest : public ::testing::Test
{
  protected:
    Node *
    makeNode(Tick deadline, Tick runtime,
             AccType type = AccType::ElemMatrix)
    {
        TaskParams p;
        p.type = type;
        Node *n = dag.addNode(p, "n" + std::to_string(dag.numNodes()));
        n->deadline = deadline;
        n->predictedRuntime = runtime;
        n->laxityKey = STick(deadline) - STick(runtime);
        return n;
    }

    SchedContext
    ctxWithIdle(int em_idle, Tick now = 0)
    {
        SchedContext ctx;
        ctx.now = now;
        ctx.idleCount[accIndex(AccType::ElemMatrix)] = em_idle;
        return ctx;
    }

    ReadyQueue &
    emQueue()
    {
        return queues[accIndex(AccType::ElemMatrix)];
    }

    Dag dag{"t", 'T'};
    ReadyQueues queues;
    ReliefPolicy policy;
};

TEST_F(DecisionLogTest, GrantedPromotionRecorded)
{
    Node *producer = makeNode(50, 10);
    Node *child = makeNode(100, 10); // laxity 90
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(1), queues);

    const DecisionLog &log = policy.decisionLog();
    ASSERT_EQ(log.size(), 1u);
    const PromotionDecision &d = log.at(0);
    EXPECT_TRUE(d.granted);
    EXPECT_EQ(d.reason, PromotionReason::Feasible);
    EXPECT_EQ(d.node, child->id);
    EXPECT_EQ(d.label, "n1");
    EXPECT_EQ(d.type, AccType::ElemMatrix);
    EXPECT_EQ(d.laxity, STick(90));
    EXPECT_EQ(d.queueDepth, 0u);
    EXPECT_TRUE(d.victim.empty()); // empty queue: nobody bypassed
    EXPECT_EQ(log.numGranted(), 1u);
    EXPECT_EQ(log.numDenied(), 0u);
}

TEST_F(DecisionLogTest, GrantedDecisionNamesBypassedNode)
{
    Node *waiting = makeNode(110, 10); // "n0", laxity 100
    emQueue().pushBack(waiting);
    Node *producer = makeNode(50, 10);
    Node *child = makeNode(600, 50); // laxity 550, runtime 50 < 100
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(1), queues);

    const PromotionDecision &d = policy.decisionLog().at(0);
    EXPECT_TRUE(d.granted);
    EXPECT_EQ(d.victim, "n0");
    EXPECT_EQ(d.victimSlack, STick(50)); // 100 laxity - 50 runtime
    // The bypassed node really was charged.
    EXPECT_EQ(waiting->laxityKey, STick(50));
}

TEST_F(DecisionLogTest, DeniedPromotionRecordsBlockingVictim)
{
    Node *a = makeNode(50, 10);  // "n0", laxity 40
    Node *b = makeNode(500, 10); // "n1", laxity 490
    emQueue().pushBack(a);
    emQueue().pushBack(b);
    Node *producer = makeNode(10, 5);
    Node *child = makeNode(300, 200); // laxity 100, runtime 200 > 40
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(1), queues);

    const DecisionLog &log = policy.decisionLog();
    ASSERT_EQ(log.size(), 1u);
    const PromotionDecision &d = log.at(0);
    EXPECT_FALSE(d.granted);
    EXPECT_EQ(d.reason, PromotionReason::VictimWouldMiss);
    EXPECT_EQ(d.victim, "n0");
    EXPECT_EQ(d.victimSlack, STick(-160)); // 40 laxity - 200 runtime
    EXPECT_EQ(d.laxity, STick(100));
    EXPECT_EQ(d.queueDepth, 2u);
    EXPECT_EQ(log.numDenied(), 1u);
}

TEST_F(DecisionLogTest, NoIdleInstanceDenialHasNoVictim)
{
    Node *producer = makeNode(50, 10);
    Node *child = makeNode(100, 10);
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(0), queues);

    const PromotionDecision &d = policy.decisionLog().at(0);
    EXPECT_FALSE(d.granted);
    EXPECT_EQ(d.reason, PromotionReason::NoIdleInstance);
    EXPECT_TRUE(d.victim.empty());
}

TEST_F(DecisionLogTest, DisabledFeasibilityCheckRecordsGreedyGrant)
{
    ReliefOptions options;
    options.feasibilityCheck = false;
    ReliefPolicy greedy(options);

    Node *a = makeNode(50, 10); // would veto under the check
    emQueue().pushBack(a);
    Node *producer = makeNode(10, 5);
    Node *child = makeNode(300, 200);
    dag.addEdge(producer, child);
    greedy.onNodesReady({child}, ctxWithIdle(1), queues);

    const PromotionDecision &d = greedy.decisionLog().at(0);
    EXPECT_TRUE(d.granted);
    EXPECT_EQ(d.reason, PromotionReason::CheckDisabled);
    EXPECT_TRUE(child->isFwd);
}

TEST_F(DecisionLogTest, RootNodesProduceNoDecisions)
{
    Node *root = makeNode(100, 10);
    policy.onNodesReady({root}, ctxWithIdle(5), queues);
    EXPECT_EQ(policy.decisionLog().size(), 0u);
}

TEST_F(DecisionLogTest, SummaryMentionsVictimOnDenial)
{
    Node *a = makeNode(50, 10);
    emQueue().pushBack(a);
    Node *producer = makeNode(10, 5);
    Node *child = makeNode(300, 200);
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(1), queues);

    std::string line = policy.decisionLog().at(0).summary();
    EXPECT_NE(line.find("deny "), std::string::npos);
    EXPECT_NE(line.find("reason=victim-would-miss"), std::string::npos);
    EXPECT_NE(line.find("victim=n0"), std::string::npos);
    EXPECT_NE(line.find("victim_slack=-160"), std::string::npos);
}

TEST_F(DecisionLogTest, PromotionReasonHelpers)
{
    EXPECT_TRUE(promotionGranted(PromotionReason::Feasible));
    EXPECT_TRUE(promotionGranted(PromotionReason::CheckDisabled));
    EXPECT_FALSE(promotionGranted(PromotionReason::NoIdleInstance));
    EXPECT_FALSE(promotionGranted(PromotionReason::VictimWouldMiss));
    EXPECT_STREQ(promotionReasonName(PromotionReason::Feasible),
                 "feasible");
    EXPECT_STREQ(promotionReasonName(PromotionReason::VictimWouldMiss),
                 "victim-would-miss");
}

TEST_F(DecisionLogTest, JsonExportIsValidAndComplete)
{
    // One granted decision (empty queue) and one denied (victim "n0"
    // still waiting after the charge-free denial).
    Node *producer = makeNode(10, 5);
    Node *fast = makeNode(600, 10);
    dag.addEdge(producer, fast);
    policy.onNodesReady({fast}, ctxWithIdle(1), queues);

    Node *a = makeNode(50, 10); // "n2", laxity 40
    emQueue().pushBack(a);
    Node *slow = makeNode(300, 200);
    dag.addEdge(producer, slow);
    policy.onNodesReady({slow}, ctxWithIdle(1), queues);

    ASSERT_EQ(policy.decisionLog().size(), 2u);
    std::ostringstream os;
    policy.decisionLog().writeJson(os);
    std::string json = os.str();
    EXPECT_NO_THROW(JsonValue::parse(json)) << json;
    EXPECT_NE(json.find("\"granted\": true"), std::string::npos);
    EXPECT_NE(json.find("\"granted\": false"), std::string::npos);
    EXPECT_NE(json.find("\"reason\": \"victim-would-miss\""),
              std::string::npos);
    EXPECT_NE(json.find("\"victim\": \"n2\""), std::string::npos);
}

TEST_F(DecisionLogTest, EmptyLogExportsEmptyJsonArray)
{
    std::ostringstream os;
    policy.decisionLog().writeJson(os);
    EXPECT_NO_THROW(JsonValue::parse(os.str())) << os.str();
}

TEST_F(DecisionLogTest, ClearEmptiesTheLog)
{
    Node *producer = makeNode(50, 10);
    Node *child = makeNode(100, 10);
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(1), queues);
    ASSERT_EQ(policy.decisionLog().size(), 1u);

    policy.decisionLog().clear();
    EXPECT_EQ(policy.decisionLog().size(), 0u);
    EXPECT_EQ(policy.decisionLog().numGranted(), 0u);
}

TEST_F(DecisionLogTest, OutOfRangeAccessPanics)
{
    EXPECT_THROW(policy.decisionLog().at(0), PanicError);
}

} // namespace
} // namespace relief
