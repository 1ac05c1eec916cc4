/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

TEST(EventQueueTest, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_EQ(q.nextTick(), maxTick);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueueTest, SameTickFiresInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (q.runOne()) {
    }
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueueTest, CurTickAdvancesToEventTime)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.curTick(), 42u);
}

TEST(EventQueueTest, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runOne();
    EXPECT_THROW(q.schedule(5, [] {}), PanicError);
}

TEST(EventQueueTest, SchedulingAtCurrentTickIsAllowed)
{
    EventQueue q;
    bool ran = false;
    q.schedule(10, [&] { q.schedule(10, [&] { ran = true; }); });
    while (q.runOne()) {
    }
    EXPECT_TRUE(ran);
}

TEST(EventQueueTest, EventsScheduledFromEventsRun)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&]() {
        if (++depth < 5)
            q.schedule(q.curTick() + 1, recurse);
    };
    q.schedule(0, recurse);
    while (q.runOne()) {
    }
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.curTick(), 4u);
}

TEST(EventQueueTest, CountsScheduledAndExecuted)
{
    EventQueue q;
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.numScheduled(), 2u);
    EXPECT_EQ(q.numExecuted(), 0u);
    while (q.runOne()) {
    }
    EXPECT_EQ(q.numScheduled(), 2u);
    EXPECT_EQ(q.numExecuted(), 2u);
}

TEST(EventQueueTest, MillionTrivialEventsNeverTouchTheHeap)
{
    // The microbenchmark pin for the zero-allocation claim: a million
    // model-style events (small captures) all live in the slot's
    // inline buffer, the slab stays at its first chunk (slots are
    // recycled through the free list), and nothing falls back to a
    // heap-allocated callable.
    EventQueue q;
    std::uint64_t fired = 0;
    constexpr int kBatch = 64;
    constexpr int kRounds = 1000000 / kBatch;
    Tick when = 0;
    for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kBatch; ++i)
            q.schedule(when + 1 + Tick(i), [&fired] { ++fired; });
        while (q.runOne()) {
        }
        when = q.curTick();
    }
    EXPECT_EQ(fired, std::uint64_t(kBatch) * kRounds);
    EXPECT_EQ(q.numHeapCallables(), 0u);
    // At most kBatch slots are ever live at once; one chunk suffices.
    EXPECT_EQ(q.slabCapacity(), 256u);
}

TEST(EventQueueTest, OversizedCaptureFallsBackToHeapAndIsCounted)
{
    EventQueue q;
    char big[InlineCallable::capacity + 1] = {};
    big[0] = 42;
    char result = 0;
    q.schedule(1, [big, &result] { result = big[0]; });
    EXPECT_EQ(q.numHeapCallables(), 1u);
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(result, 42);
}

TEST(EventQueueTest, DynamicLabelsAreLazyUnderTheEventFlag)
{
    clearDebugFlags();
    EventQueue q;
    int evaluations = 0;
    auto label = [&evaluations] {
        ++evaluations;
        return std::string("expensive.label");
    };
    q.schedule(10, [] {}, label);
    EXPECT_EQ(evaluations, 0); // flag off: never materialized

    setDebugFlag(DebugFlag::Event);
    q.schedule(20, [] {}, label);
    EXPECT_EQ(evaluations, 1);
    clearDebugFlags();
    while (q.runOne()) {
    }
}

TEST(EventQueueTest, EventFlagTracesFiringEvents)
{
    clearDebugFlags();
    setDebugFlag(DebugFlag::Event);
    std::vector<std::string> lines;
    LogSink previous = setLogSink(
        [&lines](LogLevel, const std::string &msg) {
            lines.push_back(msg);
        });
    EventQueue q;
    q.schedule(10, [] {}, "acc.tick");
    q.schedule(20, [] {}, [] { return std::string("dma.done"); });
    q.schedule(30, [] {});
    while (q.runOne()) {
    }
    setLogSink(std::move(previous));
    clearDebugFlags();
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("10: event: acc.tick"), std::string::npos);
    EXPECT_NE(lines[1].find("20: event: dma.done"), std::string::npos);
    EXPECT_NE(lines[2].find("30: event: (unlabeled)"),
              std::string::npos);
}

/**
 * Fires a chain of events at @p times with same-tick ties against
 * events scheduled before the chain, by its events and after it:
 * eagerly (all scheduled up front) or chained (each on a reserved
 * sequence number scheduling the next). @return the firing order.
 */
std::vector<int>
fireChain(const std::vector<Tick> &times, bool chained)
{
    EventQueue q;
    std::vector<int> order;
    auto mark = [&order](int id) {
        return [&order, id] { order.push_back(id); };
    };
    for (Tick when : {5, 10, 10, 30})
        q.schedule(when, mark(100 + int(when)));
    // Each link also schedules a tie at its own tick and one later.
    auto link = [&](std::size_t i) {
        order.push_back(int(i));
        q.schedule(times[i], mark(200 + int(i)));
        q.schedule(times[i] + 5, mark(300 + int(i)));
    };
    std::uint64_t first = 0;
    std::function<void(std::size_t)> chain = [&](std::size_t i) {
        q.scheduleReserved(times[i], first + i, HostCat::Other,
                           [&, i] {
                               if (i + 1 < times.size())
                                   chain(i + 1);
                               link(i);
                           },
                           "chain");
    };
    if (chained) {
        first = q.reserveSeqs(times.size());
        chain(0);
    } else {
        for (std::size_t i = 0; i < times.size(); ++i)
            q.schedule(times[i], [&link, i] { link(i); });
    }
    for (Tick when : {0, 5, 10, 20, 30})
        q.schedule(when, mark(400 + int(when)));
    while (q.runOne()) {
    }
    return order;
}

TEST(EventQueueTest, ReservedSeqChainFiresInEagerOrder)
{
    const std::vector<Tick> times = {0, 5, 5, 10, 10, 10, 15, 30, 30};
    std::vector<int> eager = fireChain(times, false);
    EXPECT_EQ(eager.size(), 4 + 3 * times.size() + 5);
    EXPECT_EQ(fireChain(times, true), eager);
}

TEST(EventQueueTest, ReservedSeqsGoThroughTheOneScheduleBody)
{
    EventQueue q;
    q.schedule(1, [] {}); // seq 0: taken before the block
    std::uint64_t first = q.reserveSeqs(2);
    EXPECT_EQ(first, 1u);
    EXPECT_THROW(q.scheduleReserved(1, 0, HostCat::Other, [] {}, "x"),
                 PanicError);
    EXPECT_THROW(q.scheduleReserved(1, first + 2, HostCat::Other, [] {},
                                    "x"),
                 PanicError);
    // The block is spent from the caller's view: the next ordinary
    // event comes after it, and a same-tick reserved one precedes it.
    std::vector<int> order;
    q.schedule(4, [&] { order.push_back(2); });
    struct Big
    {
        char payload[InlineCallable::capacity + 8];
    };
    q.scheduleReserved(4, first + 1, HostCat::Other,
                       [&order, big = Big{}] {
                           (void)big;
                           order.push_back(1);
                       },
                       "big");
    EXPECT_EQ(q.numHeapCallables(), 1u);
    while (q.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_THROW(q.scheduleReserved(3, first, HostCat::Other, [] {}, "x"),
                 PanicError); // in the past
}

TEST(EventQueueTest, ActionSeesTheQueueWithoutItsOwnEvent)
{
    EventQueue q;
    std::vector<std::pair<bool, Tick>> seen; // (empty(), nextTick())
    auto look = [&] { seen.emplace_back(q.empty(), q.nextTick()); };
    q.schedule(10, [&] {
        look();                  // 20 and 30 pending
        q.schedule(15, look);    // takes the running event's place
        look();
    });
    q.schedule(20, look);
    q.schedule(30, [&] {
        look();                  // the last event: nothing pending
        q.schedule(40, look);
        look();
    });
    while (q.runOne()) {
    }
    const std::vector<std::pair<bool, Tick>> expected = {
        {false, 20}, {false, 15}, // at 10
        {false, 20},              // at 15
        {false, 30},              // at 20
        {true, maxTick}, {false, 40}, // at 30
        {true, maxTick},          // at 40
    };
    EXPECT_EQ(seen, expected);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTick(), maxTick);
}

TEST(EventQueueTest, FollowUpsFireInTickThenSeqOrder)
{
    // Each action schedules 0, 1 or 3 follow-ups: at its own tick,
    // shortly after, or far ahead; an action that runs before every
    // pending event places some ahead of all of them. The firing order
    // must be the reference sort of every event by (tick, seq).
    using Fired = std::pair<Tick, std::uint64_t>; // (tick, seq)
    EventQueue q;
    std::mt19937_64 rng(21);
    auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    };
    std::vector<Fired> scheduled;
    std::vector<Fired> fired;
    std::uint64_t seq = 0;
    std::uint64_t ahead = 0; // follow-ups earlier than every pending one
    std::function<void(Tick)> add = [&](Tick when) {
        Fired me{when, seq++};
        scheduled.push_back(me);
        q.schedule(when, [&, me] {
            fired.push_back(me);
            if (scheduled.size() >= 20000)
                return;
            static constexpr int fanout[] = {0, 1, 1, 3};
            for (int i = fanout[pick(0, 3)]; i-- > 0;) {
                Tick next = q.nextTick();
                Tick at = me.first;
                switch (pick(0, 2)) {
                  case 0: break;                      // same tick
                  case 1: at += pick(1, 20); break;   // soon
                  default: at += pick(100, 5000);     // far
                }
                ahead += at < next;
                add(at);
            }
        });
    };
    for (int i = 0; i < 64; ++i)
        add(pick(0, 1000));
    while (q.runOne()) {
    }
    std::sort(scheduled.begin(), scheduled.end());
    EXPECT_EQ(fired, scheduled);
    EXPECT_GE(scheduled.size(), 20000u);
    EXPECT_GT(ahead, 1000u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ManyInterleavedEventsStaySorted)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    // Deterministic pseudo-random insertion order.
    std::uint32_t rng = 12345;
    for (int i = 0; i < 1000; ++i) {
        rng = rng * 1664525u + 1013904223u;
        Tick when = rng % 10000;
        q.schedule(when, [&, when] {
            monotonic = monotonic && when >= last;
            last = when;
        });
    }
    while (q.runOne()) {
    }
    EXPECT_TRUE(monotonic);
}

} // namespace
} // namespace relief
