/** @file Unit tests for the bank-aware DRAM model. */

#include <gtest/gtest.h>

#include <set>

#include "mem/banked_memory.hh"

namespace relief
{
namespace
{

BankedMemoryConfig
simpleConfig()
{
    BankedMemoryConfig config;
    config.peakGBs = 10.0;
    config.accessLatency = 0;
    config.numBanks = 4;
    config.bankEfficiency = 0.5;
    config.bankLatency = 0;
    return config;
}

TEST(BankedMemoryTest, ChannelRunsAtPeak)
{
    Simulator sim;
    BankedMemory mem(sim, "dram", simpleConfig());
    EXPECT_DOUBLE_EQ(mem.channel().bandwidth(), 10.0);
    EXPECT_EQ(mem.numBanks(), 4);
    EXPECT_DOUBLE_EQ(mem.bank(0).bandwidth(), 5.0);
}

TEST(BankedMemoryTest, PathContainsBankThenChannel)
{
    Simulator sim;
    BankedMemory mem(sim, "dram", simpleConfig());
    auto path = mem.path(1);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[1], &mem.channel());
}

TEST(BankedMemoryTest, SameStreamHitsSameBank)
{
    Simulator sim;
    BankedMemory mem(sim, "dram", simpleConfig());
    EXPECT_EQ(mem.path(42)[0], mem.path(42)[0]);
}

TEST(BankedMemoryTest, StreamsSpreadAcrossBanks)
{
    Simulator sim;
    BankedMemory mem(sim, "dram", simpleConfig());
    std::set<BandwidthResource *> banks;
    for (std::uint64_t hint = 1; hint <= 32; ++hint)
        banks.insert(mem.path(hint)[0]);
    EXPECT_GT(banks.size(), 1u);
}

TEST(BankedMemoryTest, SingleStreamIsBankLimited)
{
    Simulator sim;
    BankedMemory mem(sim, "dram", simpleConfig());
    auto t = reserveTransfer(mem.path(7), 0, 1000);
    // 1000 B at the 5 GB/s bank rate = 200 ns.
    EXPECT_EQ(t.end, fromNs(200.0));
}

TEST(BankedMemoryTest, IndependentStreamsOverlapUntilChannelSaturates)
{
    Simulator sim;
    BankedMemoryConfig config = simpleConfig();
    BankedMemory mem(sim, "dram", config);

    // Find two hints mapping to different banks.
    std::uint64_t a = 1, b = 2;
    while (mem.path(a)[0] == mem.path(b)[0])
        ++b;
    auto t1 = reserveTransfer(mem.path(a), 0, 1000);
    auto t2 = reserveTransfer(mem.path(b), 0, 1000);
    // Different banks: the second transfer only waits on the shared
    // channel (100 ns of channel time claimed by the first).
    EXPECT_EQ(t1.end, fromNs(200.0));
    EXPECT_LT(t2.end, fromNs(400.0)); // would be 400 if serialized
}

TEST(BankedMemoryTest, SameBankStreamsSerialize)
{
    Simulator sim;
    BankedMemory mem(sim, "dram", simpleConfig());
    auto t1 = reserveTransfer(mem.path(7), 0, 1000);
    auto t2 = reserveTransfer(mem.path(7), 0, 1000);
    EXPECT_EQ(t1.end, fromNs(200.0));
    EXPECT_EQ(t2.end, fromNs(400.0));
}

TEST(BankedMemoryTest, WorksAsSocBackend)
{
    // Compile/behaviour check through the polymorphic interface.
    Simulator sim;
    auto config = simpleConfig();
    std::unique_ptr<MainMemory> mem =
        std::make_unique<BankedMemory>(sim, "dram", config);
    EXPECT_EQ(mem->path(5).size(), 2u);
    mem->recordRead(128);
    EXPECT_EQ(mem->readBytes(), 128u);
}

} // namespace
} // namespace relief
