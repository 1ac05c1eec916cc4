/**
 * @file
 * Payload output buffers: the hardware manager draws every node's
 * output from the thread's ScratchPool and hands it back once the
 * node's last child has run, so only leaves keep their outputs. These
 * tests pin the recycling counts, the buffer lifetimes, and that a
 * recycled buffer's stale contents never reach a result.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/soc.hh"
#include "dag/apps/apps.hh"
#include "kernels/scratch.hh"
#include "kernels/vision.hh"

namespace relief
{
namespace
{

AppConfig
functionalApps()
{
    AppConfig config;
    config.functional = true;
    return config;
}

/** Build @p mix, optionally turn every payload into one that computes
 *  into a fresh vector, and run it single-shot on one SoC. */
std::vector<DagPtr>
runMix(const std::string &mix, Soc &soc, bool fresh_buffers = false)
{
    std::vector<DagPtr> dags;
    for (AppId app : parseMix(mix)) {
        dags.push_back(buildApp(app, functionalApps()));
        if (fresh_buffers) {
            for (Node *node : dags.back()->allNodes()) {
                node->fn = [inner = node->fn](const NodeInputs &in) {
                    return inner(in);
                };
            }
        }
        soc.submit(dags.back());
    }
    soc.run(fromMs(50.0));
    for (const DagPtr &dag : dags)
        EXPECT_TRUE(dag->complete()) << dag->name();
    return dags;
}

std::vector<std::vector<float>>
leafOutputs(const std::vector<DagPtr> &dags)
{
    std::vector<std::vector<float>> out;
    for (const DagPtr &dag : dags)
        out.push_back(dag->leaves().front()->outputData);
    return out;
}

TEST(PayloadBufferTest, RnnRunsRecycleOutputBuffers)
{
    // Every RNN node's 64 KiB output comes from the pool; a handful of
    // buffers serve the whole sequence.
    for (const char *mix : {"G", "L"}) {
        resetNodeIds();
        resetKernelScratch();
        Soc soc(SocConfig{});
        runMix(mix, soc);
        EXPECT_LE(soc.stats().value("kernels.scratch_allocs"), 8.0)
            << mix;
        EXPECT_GE(soc.stats().value("kernels.scratch_reuses"), 100.0)
            << mix;
    }
}

TEST(PayloadBufferTest, OnlyLeavesKeepTheirOutputs)
{
    resetNodeIds();
    resetKernelScratch();
    Soc soc(SocConfig{});
    std::vector<DagPtr> dags = runMix("CDGHL", soc);
    ASSERT_EQ(dags.size(), 5u);

    for (const DagPtr &dag : dags) {
        for (const Node *node : dag->allNodes()) {
            if (node->isLeaf())
                EXPECT_FALSE(node->outputData.empty()) << node->label;
            else
                EXPECT_EQ(node->outputData.capacity(), 0u)
                    << node->label;
        }
    }

    AppConfig config = functionalApps();
    BayerImage raw = makeSyntheticScene(config.width, config.height,
                                        config.seed);
    Plane observed = grayscale(isp(raw));
    EXPECT_EQ(dags[0]->leaves().front()->outputData,
              cannyReference(raw).data());
    EXPECT_EQ(dags[1]->leaves().front()->outputData,
              richardsonLucy(observed, gaussianFilter(5, 1.2f),
                             config.deblurIters)
                  .data());
    EXPECT_EQ(dags[3]->leaves().front()->outputData,
              harrisReference(raw).data());
    // The RNN cells associate the pre-activation sum differently from
    // the DAG's three-task gate chain: equal to rounding only.
    const std::vector<float> gru = gruReferenceOutput(config);
    const std::vector<float> lstm = lstmReferenceOutput(config);
    const std::vector<float> &got_gru =
        dags[2]->leaves().front()->outputData;
    const std::vector<float> &got_lstm =
        dags[4]->leaves().front()->outputData;
    ASSERT_EQ(got_gru.size(), gru.size());
    ASSERT_EQ(got_lstm.size(), lstm.size());
    for (std::size_t i = 0; i < gru.size(); ++i) {
        ASSERT_NEAR(got_gru[i], gru[i], 1e-5) << "gru element " << i;
        ASSERT_NEAR(got_lstm[i], lstm[i], 1e-5) << "lstm element " << i;
    }
}

TEST(PayloadBufferTest, StaleBufferContentsNeverReachResults)
{
    // Reference: every payload computes into a fresh, zeroed vector.
    resetNodeIds();
    resetKernelScratch();
    std::vector<std::vector<float>> fresh;
    {
        Soc soc(SocConfig{});
        fresh = leafOutputs(runMix("CDGHL", soc, true));
    }

    // Two runs on recycled buffers, the second on a pool the first
    // left dirty (no resetKernelScratch() in between).
    resetNodeIds();
    resetKernelScratch();
    std::vector<std::vector<float>> first, second;
    {
        Soc soc(SocConfig{});
        first = leafOutputs(runMix("CDGHL", soc));
    }
    const std::uint64_t first_allocs = ScratchPool::forThread().allocs();
    resetNodeIds();
    {
        Soc soc(SocConfig{});
        second = leafOutputs(runMix("CDGHL", soc));
    }
    EXPECT_EQ(first, fresh);
    EXPECT_EQ(second, fresh);
    // The first run's buffers served most of the second run (only the
    // leaves' buffers left with their DAGs).
    EXPECT_LT(ScratchPool::forThread().allocs() - first_allocs,
              first_allocs);
}

TEST(PayloadBufferTest, ResubmittedDagsRecycleTheirLeafBuffers)
{
    // A continuous DAG hands its leaf's buffer back at each
    // resubmission, so the pool stops growing after the first pass.
    resetNodeIds();
    resetKernelScratch();
    std::uint64_t single_shot = 0;
    {
        Soc soc(SocConfig{});
        runMix("C", soc);
        single_shot = ScratchPool::forThread().allocs();
    }

    resetNodeIds();
    resetKernelScratch();
    Soc soc(SocConfig{});
    DagPtr dag = buildApp(AppId::Canny, functionalApps());
    soc.submit(dag, 0, true);
    soc.run(fromMs(50.0));
    EXPECT_GE(soc.manager().metrics().dagsFinished, 3u);
    EXPECT_LE(ScratchPool::forThread().allocs(), single_shot);
}

} // namespace
} // namespace relief
