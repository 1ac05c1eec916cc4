/** @file Unit tests for DAG construction and bookkeeping. */

#include <gtest/gtest.h>

#include <sstream>

#include "dag/apps/apps.hh"
#include "dag/dag.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

TaskParams
em(int inputs = 1)
{
    TaskParams p;
    p.type = AccType::ElemMatrix;
    p.numInputs = inputs;
    return p;
}

TEST(DagTest, NodesGetUniqueIdsAndIndices)
{
    Dag dag("t", 'T');
    Node *a = dag.addNode(em(), "a");
    Node *b = dag.addNode(em(), "b");
    EXPECT_NE(a->id, 0u);
    EXPECT_NE(a->id, b->id);
    EXPECT_EQ(a->indexInDag, 0);
    EXPECT_EQ(b->indexInDag, 1);
    EXPECT_EQ(a->dag, &dag);
}

TEST(DagTest, EdgesLinkBothDirections)
{
    Dag dag("t", 'T');
    Node *a = dag.addNode(em(), "a");
    Node *b = dag.addNode(em(2), "b");
    dag.addEdge(a, b);
    ASSERT_EQ(a->children.size(), 1u);
    ASSERT_EQ(b->parents.size(), 1u);
    EXPECT_EQ(a->children[0], b);
    EXPECT_EQ(b->parents[0], a);
    EXPECT_EQ(dag.numEdges(), 1);
}

TEST(DagTest, BackwardEdgePanics)
{
    Dag dag("t", 'T');
    Node *a = dag.addNode(em(), "a");
    Node *b = dag.addNode(em(), "b");
    EXPECT_THROW(dag.addEdge(b, a), PanicError);
    EXPECT_THROW(dag.addEdge(a, a), PanicError);
}

TEST(DagTest, RootsAndLeaves)
{
    Dag dag("t", 'T');
    Node *a = dag.addNode(em(), "a");
    Node *b = dag.addNode(em(), "b");
    Node *c = dag.addNode(em(2), "c");
    dag.addEdge(a, c);
    dag.addEdge(b, c);
    EXPECT_EQ(dag.roots(), (std::vector<Node *>{a, b}));
    EXPECT_EQ(dag.leaves(), (std::vector<Node *>{c}));
}

TEST(DagTest, FinalizeRequiresDeadline)
{
    Dag dag("t", 'T');
    dag.addNode(em(), "a");
    EXPECT_THROW(dag.finalize(), PanicError);
}

TEST(DagTest, MutationAfterFinalizePanics)
{
    Dag dag("t", 'T');
    Node *a = dag.addNode(em(), "a");
    Node *b = dag.addNode(em(), "b");
    dag.addEdge(a, b);
    dag.setRelativeDeadline(fromMs(1.0));
    dag.finalize();
    EXPECT_THROW(dag.addNode(em(), "c"), PanicError);
    EXPECT_THROW(dag.addEdge(a, b), PanicError);
    EXPECT_THROW(dag.finalize(), PanicError);
}

TEST(DagTest, ExternalInputCounting)
{
    Dag dag("t", 'T');
    Node *a = dag.addNode(em(1), "a"); // root: 1 external input
    Node *b = dag.addNode(em(2), "b"); // 1 parent + 1 external
    dag.addEdge(a, b);
    EXPECT_EQ(a->externalInputs(), 1);
    EXPECT_EQ(b->externalInputs(), 1);
}

TEST(DagTest, SubmitResetsRuntimeState)
{
    Dag dag("t", 'T');
    Node *a = dag.addNode(em(), "a");
    Node *b = dag.addNode(em(2), "b");
    dag.addEdge(a, b);
    dag.setRelativeDeadline(fromMs(1.0));
    dag.finalize();

    dag.submit(1000);
    a->status = NodeStatus::Finished;
    a->outputAt = OutputLocation{2, 1};
    b->completedParents = 1;
    dag.noteNodeFinished();
    EXPECT_EQ(dag.numFinished(), 1);

    dag.submit(5000);
    EXPECT_EQ(dag.arrivalTick(), 5000u);
    EXPECT_EQ(dag.numFinished(), 0);
    EXPECT_EQ(a->status, NodeStatus::Waiting);
    EXPECT_EQ(a->outputAt.acc, -1);
    EXPECT_EQ(a->outputAt.partition, -1);
    EXPECT_EQ(b->completedParents, 0u);
    EXPECT_EQ(b->inputSources.size(), b->parents.size());
}

TEST(DagTest, AbsoluteDeadlineFollowsArrival)
{
    Dag dag("t", 'T');
    dag.addNode(em(), "a");
    dag.setRelativeDeadline(fromMs(2.0));
    dag.finalize();
    dag.submit(fromMs(1.0));
    EXPECT_EQ(dag.absoluteDeadline(), fromMs(3.0));
}

TEST(DagTest, NominalRuntimeUsesFixedOverride)
{
    Dag dag("t", 'T');
    Node *a = dag.addNode(em(), "a");
    a->fixedRuntime = fromUs(3.0);
    EXPECT_EQ(nominalNodeRuntime(*a), fromUs(3.0));
}

TEST(DagTest, NominalRuntimeAddsMemoryTime)
{
    Dag dag("t", 'T');
    Node *a = dag.addNode(em(2), "a");
    Tick compute = computeTime(a->params);
    Tick runtime = nominalNodeRuntime(*a, 12.8);
    // 3 x 64 KiB at 12.8 GB/s ~ 15.36 us on top of compute.
    EXPECT_GT(runtime, compute);
    EXPECT_NEAR(toUs(runtime - compute), 15.36, 0.1);
}

TEST(DagTest, DotExportContainsNodesAndEdges)
{
    Dag dag("demo", 'D');
    Node *a = dag.addNode(em(), "demo.first");
    Node *b = dag.addNode(em(2), "demo.second");
    dag.addEdge(a, b);
    dag.setRelativeDeadline(fromMs(1.0));
    dag.finalize();

    std::ostringstream os;
    dag.writeDot(os);
    std::string dot = os.str();
    EXPECT_NE(dot.find("digraph \"demo\""), std::string::npos);
    EXPECT_NE(dot.find("demo.first"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
    EXPECT_NE(dot.find("deadline 1 ms"), std::string::npos);
    EXPECT_NE(dot.find("fillcolor"), std::string::npos);
    EXPECT_EQ(dot.back(), '\n');
}

TEST(DagTest, DotExportOfEveryBenchmarkIsWellFormed)
{
    for (AppId app : allApps) {
        DagPtr dag = buildApp(app);
        std::ostringstream os;
        dag->writeDot(os);
        std::string dot = os.str();
        // Node and edge counts match the graph.
        std::size_t arrows = 0, pos = 0;
        while ((pos = dot.find(" -> ", pos)) != std::string::npos) {
            ++arrows;
            pos += 4;
        }
        EXPECT_EQ(arrows, std::size_t(dag->numEdges())) << appName(app);
    }
}

TEST(DagTest, CompleteLifecycle)
{
    Dag dag("t", 'T');
    dag.addNode(em(), "a");
    dag.setRelativeDeadline(fromMs(1.0));
    dag.finalize();
    dag.submit(0);
    EXPECT_FALSE(dag.complete());
    dag.noteNodeFinished();
    EXPECT_TRUE(dag.complete());
}

} // namespace
} // namespace relief
