/**
 * @file
 * Scratch-pool (kernels/scratch.hh) tests: the pool recycles buffers
 * deterministically under reset, hands them out zero-filled, and the
 * reference kernels that draw from it reuse its storage across calls.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "kernels/image.hh"
#include "kernels/scratch.hh"
#include "kernels/vision.hh"

using namespace relief;

TEST(ScratchPoolTest, RecyclesBuffersAndCounts)
{
    resetKernelScratch();
    ScratchPool &pool = ScratchPool::forThread();
    EXPECT_EQ(pool.reuses(), 0u);
    EXPECT_EQ(pool.allocs(), 0u);
    {
        ScratchPlane p(8, 8);
        EXPECT_EQ(p->size(), 64u);
    }
    EXPECT_EQ(pool.allocs(), 1u);
    EXPECT_EQ(pool.reuses(), 0u);
    {
        // Released storage is served back out, zero-filled.
        ScratchPlane p(4, 8);
        for (float v : p->data())
            EXPECT_EQ(v, 0.0f);
    }
    EXPECT_EQ(pool.reuses(), 1u);
    EXPECT_EQ(pool.allocs(), 1u);
    resetKernelScratch();
    EXPECT_EQ(pool.reuses(), 0u);
    EXPECT_EQ(pool.allocs(), 0u);
}

TEST(ScratchPoolTest, ScratchPlaneIsZeroFilledLikeAFreshPlane)
{
    resetKernelScratch();
    {
        // Dirty a pooled buffer first...
        ScratchPlane dirty(10, 10);
        for (float &v : dirty->data())
            v = 7.0f;
    }
    ScratchPlane p(10, 10);
    for (int y = 0; y < 10; ++y)
        for (int x = 0; x < 10; ++x)
            EXPECT_EQ(p->at(x, y), 0.0f);
}

TEST(ScratchPoolTest, PipelinesReuseAcrossCalls)
{
    resetKernelScratch();
    ScratchPool &pool = ScratchPool::forThread();
    BayerImage raw = makeSyntheticScene(24, 18, 38);
    Plane first = harrisReference(raw);
    std::uint64_t allocs_first = pool.allocs();
    EXPECT_GT(allocs_first, 0u);
    Plane second = harrisReference(raw);
    // The second run draws its intermediate planes from the pool:
    // reuses grew, fresh allocations did not, and the result is the
    // same bit for bit.
    EXPECT_EQ(pool.allocs(), allocs_first);
    EXPECT_GT(pool.reuses(), 0u);
    EXPECT_EQ(first.data(), second.data());
}
