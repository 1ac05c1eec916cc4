/** @file Unit tests for the LPDDR5-like main-memory model. */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"

namespace relief
{
namespace
{

TEST(MainMemoryTest, EffectiveBandwidthIsPeakTimesEfficiency)
{
    Simulator sim;
    MainMemoryConfig config;
    config.peakGBs = 12.8;
    config.efficiency = 0.5;
    MainMemory mem(sim, "dram", config);
    EXPECT_DOUBLE_EQ(mem.channel().bandwidth(), 6.4);
}

TEST(MainMemoryTest, DefaultsMatchTableVI)
{
    Simulator sim;
    MainMemory mem(sim, "dram");
    EXPECT_DOUBLE_EQ(mem.config().peakGBs, 12.8);
    EXPECT_GT(mem.channel().bandwidth(), 6.0);
    EXPECT_LT(mem.channel().bandwidth(), 8.0);
}

TEST(MainMemoryTest, TrafficAccounting)
{
    Simulator sim;
    MainMemory mem(sim, "dram");
    mem.recordRead(1000);
    mem.recordWrite(500);
    mem.recordRead(1000);
    EXPECT_EQ(mem.readBytes(), 2000u);
    EXPECT_EQ(mem.writeBytes(), 500u);
    EXPECT_EQ(mem.totalBytes(), 2500u);
}

TEST(MainMemoryTest, EnergyScalesWithBytes)
{
    Simulator sim;
    MainMemoryConfig config;
    config.readEnergyPJPerByte = 10.0;
    config.writeEnergyPJPerByte = 20.0;
    MainMemory mem(sim, "dram", config);
    mem.recordRead(100);
    mem.recordWrite(100);
    EXPECT_DOUBLE_EQ(mem.energyPJ(), 3000.0);
}

TEST(MainMemoryTest, StreamingTimeMatchesTableICalibration)
{
    // A 192 KiB elem-matrix working set (two inputs + one output)
    // should take roughly Table I's 30.44 us at the default effective
    // bandwidth.
    Simulator sim;
    MainMemory mem(sim, "dram");
    Tick t = transferTime(3 * 65536, mem.channel().bandwidth());
    EXPECT_NEAR(toUs(t), 30.44, 4.0);
}

} // namespace
} // namespace relief
