/**
 * @file
 * Unit tests for the HostProf host-time attribution layer: exclusive
 * stack accounting, gap charging, freeze semantics, event histograms,
 * heap-allocation counters, snapshot merging, and the EventQueue
 * category plumbing.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>

#include "sim/event_queue.hh"
#include "sim/hostprof.hh"

namespace relief
{
namespace
{

/** Burn wall time so attribution has something to measure. */
void
busyWaitNs(std::uint64_t ns)
{
    using clock = std::chrono::steady_clock;
    auto until = clock::now() + std::chrono::nanoseconds(ns);
    while (clock::now() < until) {
    }
}

/** RAII enable/disable so a failing test cannot leak enabled state. */
struct ProfSession
{
    ProfSession() { setHostProfEnabled(true); }
    ~ProfSession() { setHostProfEnabled(false); }
};

std::uint64_t
catWall(const HostProfSnapshot &snap, HostCat cat)
{
    return snap.cats[static_cast<std::size_t>(cat)].wallNs;
}

TEST(HostProfTest, DisabledByDefaultAndTogglable)
{
    EXPECT_FALSE(hostProfEnabled());
    setHostProfEnabled(true);
    EXPECT_TRUE(hostProfEnabled());
    setHostProfEnabled(false);
    EXPECT_FALSE(hostProfEnabled());
}

TEST(HostProfTest, CategoryNamesAreStable)
{
    // The JSON schema and docs/observability.md §10 both spell these
    // out; a rename is a schema break.
    EXPECT_STREQ(hostCatName(HostCat::Other), "other");
    EXPECT_STREQ(hostCatName(HostCat::Sched), "sched");
    EXPECT_STREQ(hostCatName(HostCat::Dma), "dma");
    EXPECT_STREQ(hostCatName(HostCat::Mem), "mem");
    EXPECT_STREQ(hostCatName(HostCat::Interconnect), "interconnect");
    EXPECT_STREQ(hostCatName(HostCat::Kernels), "kernels");
    EXPECT_STREQ(hostCatName(HostCat::Stats), "stats");
    EXPECT_STREQ(hostCatName(HostCat::Serve), "serve");
}

TEST(HostProfTest, ScopeAttributesWallTime)
{
    ProfSession session;
    {
        HostProfScope scope(HostCat::Sched);
        busyWaitNs(200000);
    }
    setHostProfEnabled(false);
    HostProfSnapshot snap = hostProfSnapshot();
    EXPECT_GE(catWall(snap, HostCat::Sched), 150000u);
    EXPECT_GT(snap.totalWallNs, 0u);
    EXPECT_LE(snap.attributedNs(), snap.totalWallNs);
    EXPECT_GE(snap.coverage(), 0.9);
    EXPECT_LE(snap.coverage(), 1.0);
}

TEST(HostProfTest, GapBeforeScopeChargesIncomingCategory)
{
    // Time between scopes (queue pops, loop glue) is charged to the
    // next category entered, so nothing leaks out of coverage.
    ProfSession session;
    busyWaitNs(200000); // outside any scope
    {
        HostProfScope scope(HostCat::Dma);
    }
    setHostProfEnabled(false);
    HostProfSnapshot snap = hostProfSnapshot();
    EXPECT_GE(catWall(snap, HostCat::Dma), 150000u);
    EXPECT_GE(snap.coverage(), 0.9);
}

TEST(HostProfTest, NestedScopesUseExclusiveTime)
{
    // The inner span's time belongs to the inner category only; the
    // outer category keeps just its own exclusive share.
    ProfSession session;
    {
        HostProfScope outer(HostCat::Sched);
        busyWaitNs(150000);
        {
            HostProfScope inner(HostCat::Mem);
            busyWaitNs(150000);
        }
        busyWaitNs(150000);
    }
    setHostProfEnabled(false);
    HostProfSnapshot snap = hostProfSnapshot();
    std::uint64_t sched = catWall(snap, HostCat::Sched);
    std::uint64_t mem = catWall(snap, HostCat::Mem);
    EXPECT_GE(sched, 2 * 100000u);
    EXPECT_GE(mem, 100000u);
    EXPECT_LT(mem, 2 * 150000u); // exclusive, not inclusive
    EXPECT_LE(snap.attributedNs(), snap.totalWallNs);
}

TEST(HostProfTest, EventExitRecordsCountAndHistogram)
{
    ProfSession session;
    std::uint64_t t0 = hostProfEnter(HostCat::Kernels);
    busyWaitNs(50000);
    hostProfExitEvent(HostCat::Kernels, t0);
    setHostProfEnabled(false);
    HostProfSnapshot snap = hostProfSnapshot();
    const auto &cat =
        snap.cats[static_cast<std::size_t>(HostCat::Kernels)];
    EXPECT_EQ(cat.events, 1u);
    std::uint64_t hist_sum = 0;
    for (std::uint64_t bucket : cat.nsHist)
        hist_sum += bucket;
    EXPECT_EQ(hist_sum, cat.events);
}

TEST(HostProfTest, FreezeStopsTheClock)
{
    setHostProfEnabled(true);
    busyWaitNs(50000);
    setHostProfEnabled(false);
    HostProfSnapshot first = hostProfSnapshot();
    busyWaitNs(200000); // after the freeze: must not count
    HostProfSnapshot second = hostProfSnapshot();
    EXPECT_EQ(first.totalWallNs, second.totalWallNs);
    EXPECT_EQ(first.attributedNs(), second.attributedNs());
}

TEST(HostProfTest, ScopeClosingAfterFreezeIsANoOp)
{
    setHostProfEnabled(true);
    {
        HostProfScope scope(HostCat::Serve);
        busyWaitNs(50000);
        setHostProfEnabled(false);
        // The freeze charged the open span; the destructor running
        // now must not touch (or crash on) the frozen state.
    }
    HostProfSnapshot snap = hostProfSnapshot();
    EXPECT_GE(catWall(snap, HostCat::Serve), 30000u);
}

TEST(HostProfTest, HeapAllocCounterPerCategory)
{
    ProfSession session;
    hostProfCountHeapAlloc(HostCat::Sched);
    hostProfCountHeapAlloc(HostCat::Sched);
    hostProfCountHeapAlloc(HostCat::Dma);
    setHostProfEnabled(false);
    HostProfSnapshot snap = hostProfSnapshot();
    EXPECT_EQ(
        snap.cats[static_cast<std::size_t>(HostCat::Sched)].heapAllocs,
        2u);
    EXPECT_EQ(
        snap.cats[static_cast<std::size_t>(HostCat::Dma)].heapAllocs,
        1u);
}

TEST(HostProfTest, MergeSumsEveryCounter)
{
    HostProfSnapshot a;
    a.totalWallNs = 100;
    a.cats[1].wallNs = 40;
    a.cats[1].events = 2;
    a.cats[1].heapAllocs = 1;
    a.cats[1].nsHist[3] = 2;
    HostProfSnapshot b;
    b.totalWallNs = 50;
    b.cats[1].wallNs = 10;
    b.cats[1].events = 1;
    b.cats[1].nsHist[3] = 1;
    b.cats[2].wallNs = 25;
    a.merge(b);
    EXPECT_EQ(a.totalWallNs, 150u);
    EXPECT_EQ(a.cats[1].wallNs, 50u);
    EXPECT_EQ(a.cats[1].events, 3u);
    EXPECT_EQ(a.cats[1].heapAllocs, 1u);
    EXPECT_EQ(a.cats[1].nsHist[3], 3u);
    EXPECT_EQ(a.cats[2].wallNs, 25u);
    EXPECT_EQ(a.attributedNs(), 75u);
    EXPECT_DOUBLE_EQ(a.coverage(), 0.5);
}

TEST(HostProfTest, CoverageClampsToOne)
{
    HostProfSnapshot snap;
    snap.totalWallNs = 100;
    snap.cats[0].wallNs = 120; // clock jitter can overshoot
    EXPECT_DOUBLE_EQ(snap.coverage(), 1.0);
    HostProfSnapshot empty;
    EXPECT_DOUBLE_EQ(empty.coverage(), 0.0);
}

TEST(HostProfTest, WriteJsonEmitsEveryCategory)
{
    HostProfSnapshot snap;
    snap.totalWallNs = 1000;
    snap.cats[0].wallNs = 1000;
    std::ostringstream os;
    snap.writeJson(os);
    std::string doc = os.str();
    for (std::size_t i = 0; i < numHostCats; ++i) {
        std::string key =
            std::string("\"") + hostCatName(static_cast<HostCat>(i)) +
            "\"";
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
    EXPECT_NE(doc.find("\"coverage\""), std::string::npos);
    EXPECT_NE(doc.find("\"schema\": \"relief-hostprof-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"build_info\""), std::string::npos);
}

TEST(HostProfTest, EventQueueChargesTaggedCategory)
{
    ProfSession session;
    EventQueue queue;
    bool ran = false;
    queue.schedule(5, HostCat::Dma, [&] {
        busyWaitNs(50000);
        ran = true;
    });
    queue.schedule(9, [] {}); // untagged events land in "other"
    while (queue.runOne()) {
    }
    setHostProfEnabled(false);
    HostProfSnapshot snap = hostProfSnapshot();
    EXPECT_TRUE(ran);
    EXPECT_EQ(snap.cats[static_cast<std::size_t>(HostCat::Dma)].events,
              1u);
    EXPECT_EQ(
        snap.cats[static_cast<std::size_t>(HostCat::Other)].events, 1u);
    EXPECT_GE(catWall(snap, HostCat::Dma), 30000u);
}

} // namespace
} // namespace relief
