/** @file Unit tests for the simulation driver and SimObject. */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/periodic_service.hh"
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

/** Counts its ticks and keeps the last one's time. */
struct TickCounter : PeriodicService
{
    TickCounter(Simulator &sim, Tick period)
        : PeriodicService(sim, "counter", period, HostCat::Other,
                          "test.tick")
    {
    }

    void onTick() override
    {
        ++ticks;
        last = now();
    }

    int ticks = 0;
    Tick last = 0;
};

TEST(PeriodicServiceTest, ServicesSharingALivenessStopTogether)
{
    // Under the default rule ("events pending"), two services see each
    // other's wakeup pending and keep ticking long after the workload's
    // one event: only the run limit stops them.
    {
        Simulator sim;
        TickCounter a(sim, fromUs(10.0));
        TickCounter b(sim, fromUs(15.0));
        sim.at(fromUs(95.0), [] {}, "workload");
        a.start();
        b.start();
        sim.run(fromMs(1.0));
        EXPECT_GE(std::min(a.last, b.last), fromMs(1.0) - fromUs(15.0));
        EXPECT_FALSE(sim.events().empty());
    }

    // A driver's liveness, set once, stops both within one period of
    // its turning false at 95 us.
    struct Driver : Liveness
    {
        bool alive() const override { return working; }
        bool working = true;
    } driver;
    Simulator sim;
    sim.setLiveness(&driver);
    TickCounter a(sim, fromUs(10.0));
    TickCounter b(sim, fromUs(15.0));
    sim.at(fromUs(95.0), [&driver] { driver.working = false; }, "done");
    a.start();
    b.start();
    Tick end = sim.run(fromMs(1.0));
    EXPECT_EQ(a.last, fromUs(100.0)); // 0, 10, ..., 100 us
    EXPECT_EQ(a.ticks, 11);
    EXPECT_EQ(b.last, fromUs(105.0)); // 0, 15, ..., 105 us
    EXPECT_EQ(b.ticks, 8);
    EXPECT_EQ(end, fromUs(105.0));
    EXPECT_TRUE(sim.events().empty());
}

} // namespace
} // namespace relief
