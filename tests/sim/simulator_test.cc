/** @file Unit tests for the simulation driver and SimObject. */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace relief
{
namespace
{

TEST(TicksTest, UnitConversionsRoundTrip)
{
    EXPECT_EQ(fromNs(1.0), tickPerNs);
    EXPECT_EQ(fromUs(1.0), tickPerUs);
    EXPECT_EQ(fromMs(1.0), tickPerMs);
    EXPECT_DOUBLE_EQ(toUs(fromUs(123.5)), 123.5);
    EXPECT_DOUBLE_EQ(toMs(fromMs(16.6)), 16.6);
}

TEST(TicksTest, TransferTimeMatchesBandwidth)
{
    // 1 GB/s == 1 byte per ns.
    EXPECT_EQ(transferTime(1000, 1.0), fromNs(1000.0));
    // 12.8 GB/s moves 128 bytes in 10 ns.
    EXPECT_EQ(transferTime(128, 12.8), fromNs(10.0));
}

TEST(SimulatorTest, RunDrainsAllEvents)
{
    Simulator sim;
    int count = 0;
    sim.at(10, [&] { ++count; });
    sim.at(20, [&] { ++count; });
    Tick end = sim.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(end, 20u);
}

TEST(SimulatorTest, RunHonorsLimit)
{
    Simulator sim;
    int count = 0;
    sim.at(10, [&] { ++count; });
    sim.at(100, [&] { ++count; });
    sim.run(50);
    EXPECT_EQ(count, 1);
    // The remaining event is still pending and runs on resume.
    sim.run();
    EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, RunLimitIsInclusive)
{
    Simulator sim;
    int count = 0;
    sim.at(50, [&] { ++count; });
    sim.at(51, [&] { ++count; });
    // The event at the limit runs, and the one past it waits without
    // advancing the clock.
    EXPECT_EQ(sim.run(50), 50u);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(sim.run(), 51u);
    EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, AfterSchedulesRelativeToNow)
{
    Simulator sim;
    Tick observed = 0;
    sim.at(10, [&] { sim.after(5, [&] { observed = sim.now(); }); });
    sim.run();
    EXPECT_EQ(observed, 15u);
}

TEST(SimObjectTest, ExposesNameAndTime)
{
    Simulator sim;
    SimObject obj(sim, "soc.test");
    EXPECT_EQ(obj.name(), "soc.test");
    EXPECT_EQ(&obj.sim(), &sim);
    sim.at(33, [] {});
    sim.run();
    EXPECT_EQ(obj.now(), 33u);
}

} // namespace
} // namespace relief
