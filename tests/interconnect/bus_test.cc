/** @file Unit tests for the shared-bus interconnect. */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "interconnect/bus.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

class BusTest : public ::testing::Test
{
  protected:
    Simulator sim;
    BusConfig config;
    Bus makeBus()
    {
        return Bus(sim, "bus", config);
    }
};

TEST_F(BusTest, RegistersPortsSequentially)
{
    Bus bus = makeBus();
    EXPECT_EQ(bus.registerPort("a"), 0);
    EXPECT_EQ(bus.registerPort("b"), 1);
    EXPECT_EQ(bus.numPorts(), 2);
}

TEST_F(BusTest, AllPathsShareOneChannel)
{
    Bus bus = makeBus();
    PortId a = bus.registerPort("a");
    PortId b = bus.registerPort("b");
    PortId c = bus.registerPort("c");
    auto p1 = bus.path(a, b);
    auto p2 = bus.path(c, a);
    ASSERT_EQ(p1.size(), 1u);
    ASSERT_EQ(p2.size(), 1u);
    EXPECT_EQ(p1[0], p2[0]); // same resource: transfers serialize
}

TEST_F(BusTest, ConcurrentTransfersSerialize)
{
    config.arbitrationLatency = 0;
    config.bandwidthGBs = 1.0;
    Bus bus(sim, "bus", config);
    PortId a = bus.registerPort("a");
    PortId b = bus.registerPort("b");
    PortId c = bus.registerPort("c");
    auto t1 = reserveTransfer(bus.path(a, b), 0, 100);
    auto t2 = reserveTransfer(bus.path(c, b), 0, 100);
    EXPECT_EQ(t1.end, fromNs(100.0));
    EXPECT_EQ(t2.start, fromNs(100.0));
    EXPECT_EQ(t2.end, fromNs(200.0));
}

TEST_F(BusTest, SelfTransferPanics)
{
    Bus bus = makeBus();
    PortId a = bus.registerPort("a");
    bus.registerPort("b");
    EXPECT_THROW(bus.path(a, a), PanicError);
}

TEST_F(BusTest, BadPortPanics)
{
    Bus bus = makeBus();
    PortId a = bus.registerPort("a");
    EXPECT_THROW(bus.path(a, 7), PanicError);
    EXPECT_THROW(bus.path(-1, a), PanicError);
}

TEST_F(BusTest, OccupancyTracksRecordedTransfers)
{
    Bus bus = makeBus();
    bus.recordTransfer(0, fromNs(50.0), 1000);
    bus.recordTransfer(fromNs(25.0), fromNs(75.0), 500);
    EXPECT_EQ(bus.busyTime(), fromNs(75.0));
    EXPECT_DOUBLE_EQ(bus.occupancy(fromNs(150.0)), 0.5);
    EXPECT_EQ(bus.totalBytes(), 1500u);
    EXPECT_EQ(bus.numTransfers(), 2u);
}

/** Time covered by the union of @p spans clipped to [0, upTo), by
 *  sorting and merging. */
Tick
unionUpTo(std::vector<std::pair<Tick, Tick>> spans, Tick up_to)
{
    std::sort(spans.begin(), spans.end());
    Tick total = 0, reach = 0;
    for (auto [s, e] : spans) {
        s = std::max(s, reach);
        e = std::min(e, up_to);
        if (e > s) {
            total += e - s;
            reach = e;
        }
    }
    return total;
}

TEST_F(BusTest, OverlappingTransfersMatchUnionAsClockAdvances)
{
    Bus bus = makeBus();
    std::mt19937_64 rng(11);
    auto pick = [&rng](int lo, int hi) {
        return fromNs(double(std::uniform_int_distribution<int>(lo, hi)(rng)));
    };
    std::vector<std::pair<Tick, Tick>> spans;
    Tick when = 0;
    for (int i = 0; i < 300; ++i) {
        when += pick(0, 40);
        Tick start = when + pick(0, 30);
        Tick end = start + pick(10, 100);
        sim.at(when, [&bus, &spans, start, end] {
            bus.recordTransfer(start, end, 64);
            spans.emplace_back(start, end);
        });
    }
    // Stop halfway: transfers recorded so far reach past the clock.
    sim.run(when / 2);
    Tick mid = sim.now();
    ASSERT_GT(spans.size(), 0u);
    for (Tick up_to : {mid, mid + fromNs(15.0), mid + fromNs(120.0), maxTick})
        EXPECT_EQ(bus.busyTime(up_to), unionUpTo(spans, up_to))
            << "upTo " << up_to;
    EXPECT_THROW(bus.busyTime(mid - 1), PanicError);

    sim.run();
    EXPECT_EQ(spans.size(), 300u);
    for (Tick up_to : {sim.now(), sim.now() + fromNs(50.0), maxTick})
        EXPECT_EQ(bus.busyTime(up_to), unionUpTo(spans, up_to))
            << "upTo " << up_to;
}

TEST_F(BusTest, DefaultBandwidthMatchesTableVI)
{
    Bus bus = makeBus();
    EXPECT_DOUBLE_EQ(bus.channel().bandwidth(), 14.9);
}

} // namespace
} // namespace relief
