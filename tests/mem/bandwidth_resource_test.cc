/** @file Unit tests for the pipelined bandwidth-server model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "mem/bandwidth_resource.hh"
#include "mem/pressure_ledger.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

TEST(BandwidthResourceTest, HoldTimeIsLatencyPlusBytesOverBandwidth)
{
    BandwidthResource res("r", 1.0, fromNs(10.0)); // 1 B/ns
    EXPECT_EQ(res.holdTime(100), fromNs(110.0));
}

TEST(BandwidthResourceTest, BackToBackClaimsQueueFifo)
{
    BandwidthResource res("r", 1.0, 0);
    Tick s1 = res.claim(0, 100);
    Tick s2 = res.claim(0, 50);
    EXPECT_EQ(s1, 0u);
    EXPECT_EQ(s2, fromNs(100.0)); // waits for the first transfer
    EXPECT_EQ(res.nextFree(), fromNs(150.0));
}

TEST(BandwidthResourceTest, IdleGapsAreRespected)
{
    BandwidthResource res("r", 1.0, 0);
    res.claim(0, 100);
    Tick s = res.claim(fromNs(500.0), 100);
    EXPECT_EQ(s, fromNs(500.0));
}

TEST(BandwidthResourceTest, TracksBytesAndTransfers)
{
    BandwidthResource res("r", 2.0, 0);
    res.claim(0, 100);
    res.claim(0, 200);
    EXPECT_EQ(res.totalBytes(), 300u);
    EXPECT_EQ(res.numTransfers(), 2u);
}

TEST(BandwidthResourceTest, OccupancyCountsBusyFraction)
{
    BandwidthResource res("r", 1.0, 0); // 1 B/ns
    res.claim(0, 100); // busy [0, 100ns)
    EXPECT_DOUBLE_EQ(res.occupancy(fromNs(200.0)), 0.5);
    EXPECT_DOUBLE_EQ(res.occupancy(fromNs(100.0)), 1.0);
}

TEST(BandwidthResourceTest, BusyTimeOfGappedStreamMatchesClippedHolds)
{
    // Bursts of claims at one request time queue FIFO; the next burst
    // comes after an idle gap, or before the backlog drains.
    BandwidthResource res("r", 1.0, fromNs(5.0)); // 1 B/ns
    std::mt19937_64 rng(3);
    auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    };
    std::vector<std::pair<Tick, Tick>> holds;
    Tick now = 0;
    for (int burst = 0; burst < 200; ++burst) {
        now += fromNs(double(pick(0, 400)));
        for (std::uint64_t i = 0, n = pick(1, 4); i < n; ++i) {
            std::uint64_t bytes = pick(1, 100);
            Tick start = res.claim(now, bytes);
            holds.emplace_back(start, start + res.holdTime(bytes));
        }
    }
    ASSERT_GT(holds.back().second, now); // the last claims end later
    // FIFO holds never overlap: the union is the sum of clipped holds.
    for (Tick up_to : {now, now + fromNs(1.0), holds.back().first + 1,
                       holds.back().second, maxTick}) {
        Tick expected = 0;
        for (const auto &[s, e] : holds)
            expected += s < up_to ? std::min(e, up_to) - s : 0;
        EXPECT_EQ(res.busyTime(up_to), expected) << "upTo " << up_to;
    }
    EXPECT_THROW(res.busyTime(now - 1), PanicError);
}

TEST(BandwidthResourceTest, LedgerRowIsTheResourceCounters)
{
    // One claim sequence on a resource of its own and on one whose
    // counters are its row in a sealed ledger: bursts that queue, idle
    // gaps, several requestor keys.
    BandwidthResource alone("alone", 1.0, fromNs(3.0)); // 1 B/ns
    BandwidthResource tracked("tracked", 1.0, fromNs(3.0));
    PressureLedger ledger;
    ledger.addSource("a");
    ledger.addSource("b");
    int id = ledger.addResource(tracked);
    ledger.seal();

    std::mt19937_64 rng(5);
    auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    };
    Tick now = 0;
    for (int burst = 0; burst < 300; ++burst) {
        now += fromNs(double(pick(0, 300)));
        for (std::uint64_t i = 0, n = pick(1, 3); i < n; ++i) {
            std::uint64_t bytes = pick(1, 120);
            RequestorTag tag;
            tag.source = std::int16_t(int(pick(0, 2)) - 1); // -1: untagged
            ASSERT_EQ(alone.claim(now, bytes, now, tag),
                      tracked.claim(now, bytes, now, tag));
        }
    }
    EXPECT_GT(alone.waitTime(), 0u);           // claims queued
    EXPECT_LT(alone.busyTime(now), now);       // and the pipe idled

    PressureLedger::Slot row;
    for (int key = 0; key < ledger.numKeys(); ++key)
        row.accumulate(ledger.slot(id, key));
    EXPECT_GT(ledger.slot(id, 0).transfers, 0u);
    EXPECT_LT(ledger.slot(id, 0).transfers, row.transfers);
    for (const BandwidthResource *res : {&alone, &tracked}) {
        SCOPED_TRACE(res->name());
        EXPECT_EQ(res->totalBytes(), row.bytes);
        EXPECT_EQ(res->numTransfers(), row.transfers);
        EXPECT_EQ(res->waitTime(), row.waitSuffered);
        EXPECT_EQ(res->busyTime(maxTick), row.serviceTicks);
        EXPECT_EQ(res->total().waitCaused, row.waitSuffered);
    }
    for (Tick up_to : {now, now + fromNs(50.0), alone.nextFree(), maxTick})
        EXPECT_EQ(alone.busyTime(up_to), tracked.busyTime(up_to));

    // A zero-wait claim finds every reservation ended and drops them.
    Tick idle = alone.nextFree() + fromNs(10.0);
    alone.claim(idle, 64, idle, RequestorTag{});
    tracked.claim(idle, 64, idle, RequestorTag{});
    EXPECT_EQ(alone.queueDepth(idle), 1);
    EXPECT_EQ(tracked.queueDepth(idle), 1);
    EXPECT_EQ(ledger.queueDepth(id, idle), 1);
    EXPECT_EQ(alone.busyTime(idle + 1), tracked.busyTime(idle + 1));
}

TEST(BandwidthResourceTest, ZeroBandwidthIsRejected)
{
    EXPECT_THROW(BandwidthResource("bad", 0.0, 0), PanicError);
}

TEST(ReserveTransferTest, BottleneckSetsDuration)
{
    BandwidthResource fast("fast", 10.0, 0);
    BandwidthResource slow("slow", 1.0, 0);
    auto timing = reserveTransfer({&fast, &slow}, 0, 100);
    EXPECT_EQ(timing.start, 0u);
    EXPECT_EQ(timing.end, fromNs(100.0)); // limited by 1 GB/s
}

TEST(ReserveTransferTest, LatenciesAccumulate)
{
    BandwidthResource a("a", 1.0, fromNs(10.0));
    BandwidthResource b("b", 1.0, fromNs(30.0));
    auto timing = reserveTransfer({&a, &b}, 0, 100);
    EXPECT_EQ(timing.end, fromNs(140.0));
}

TEST(ReserveTransferTest, StartWaitsForBusiestResource)
{
    BandwidthResource a("a", 1.0, 0);
    BandwidthResource b("b", 1.0, 0);
    a.claim(0, 500); // a busy until 500 ns
    auto timing = reserveTransfer({&a, &b}, 0, 100);
    EXPECT_EQ(timing.start, fromNs(500.0));
    EXPECT_EQ(timing.end, fromNs(600.0));
}

TEST(ReserveTransferTest, EachResourceChargedItsOwnRate)
{
    BandwidthResource fast("fast", 10.0, 0);
    BandwidthResource slow("slow", 1.0, 0);
    reserveTransfer({&fast, &slow}, 0, 100);
    // The fast resource frees up earlier than the slow one.
    EXPECT_EQ(fast.nextFree(), fromNs(10.0));
    EXPECT_EQ(slow.nextFree(), fromNs(100.0));
}

TEST(ReserveTransferTest, EmptyPathPanics)
{
    EXPECT_THROW(reserveTransfer({}, 0, 10), PanicError);
}

} // namespace
} // namespace relief
