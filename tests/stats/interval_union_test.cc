/** @file Unit tests for busy-interval union accounting. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "stats/interval_union.hh"

namespace relief
{
namespace
{

TEST(IntervalUnionTest, EmptyCoversNothing)
{
    IntervalUnion u;
    EXPECT_EQ(u.covered(), 0u);
    EXPECT_EQ(u.rawSum(), 0u);
}

TEST(IntervalUnionTest, DisjointIntervalsSum)
{
    IntervalUnion u;
    u.add(0, 0, 10);
    u.add(0, 20, 30);
    EXPECT_EQ(u.covered(), 20u);
    EXPECT_EQ(u.rawSum(), 20u);
}

TEST(IntervalUnionTest, OverlapCountedOnce)
{
    IntervalUnion u;
    u.add(0, 0, 10);
    u.add(0, 5, 15);
    EXPECT_EQ(u.covered(), 15u);
    EXPECT_EQ(u.rawSum(), 20u);
}

TEST(IntervalUnionTest, TouchingIntervalsMerge)
{
    IntervalUnion u;
    u.add(0, 0, 10);
    u.add(0, 10, 20);
    EXPECT_EQ(u.covered(), 20u);
}

TEST(IntervalUnionTest, OutOfOrderInsertion)
{
    IntervalUnion u;
    u.add(0, 50, 60);
    u.add(0, 0, 10);
    u.add(0, 5, 55);
    EXPECT_EQ(u.covered(), 60u);
}

TEST(IntervalUnionTest, NestedIntervals)
{
    IntervalUnion u;
    u.add(0, 0, 100);
    u.add(0, 10, 20);
    u.add(0, 30, 40);
    EXPECT_EQ(u.covered(), 100u);
}

TEST(IntervalUnionTest, EmptyIntervalIgnored)
{
    IntervalUnion u;
    u.add(0, 10, 10);
    u.add(0, 20, 15);
    EXPECT_EQ(u.covered(), 0u);
    EXPECT_EQ(u.numIntervals(), 0u);
}

TEST(IntervalUnionTest, ClipsToUpTo)
{
    IntervalUnion u;
    u.add(0, 0, 10);
    u.add(0, 20, 40);
    EXPECT_EQ(u.covered(30), 20u);
    EXPECT_EQ(u.covered(5), 5u);
    EXPECT_EQ(u.covered(0), 0u);
}

TEST(IntervalUnionTest, QueryThenAddThenQuery)
{
    IntervalUnion u;
    u.add(0, 0, 10);
    EXPECT_EQ(u.covered(), 10u);
    u.add(0, 5, 20); // insertion after a query must still work
    EXPECT_EQ(u.covered(), 20u);
}

TEST(IntervalUnionTest, ClearResets)
{
    IntervalUnion u;
    u.add(0, 0, 10);
    u.clear();
    EXPECT_EQ(u.covered(), 0u);
    EXPECT_EQ(u.rawSum(), 0u);
}

TEST(IntervalUnionTest, BackToBackIntervalsAreStoredOnce)
{
    IntervalUnion u;
    for (Tick t = 0; t < 100; t += 10)
        u.add(0, t, t + 10);
    EXPECT_EQ(u.numIntervals(), 1u);
    EXPECT_EQ(u.covered(), 100u);
    EXPECT_EQ(u.covered(55), 55u);
    EXPECT_EQ(u.rawSum(), 100u);
}

TEST(IntervalUnionTest, StorageIsBoundedByWorkInFlight)
{
    // A FIFO resource, as BandwidthResource::claim drives it: bursts of
    // claims a few ticks apart queue back to back, then the clock
    // jumps past them, leaving the resource idle until the next burst.
    std::mt19937_64 rng(7);
    auto pick = [&rng](Tick lo, Tick hi) {
        return std::uniform_int_distribution<Tick>(lo, hi)(rng);
    };
    // FIFO holds never overlap, so the union is the sum of clipped
    // holds.
    std::vector<std::pair<Tick, Tick>> holds;
    auto expected = [&holds](Tick up_to) {
        Tick total = 0;
        for (const auto &[s, e] : holds)
            total += s < up_to ? std::min(e, up_to) - s : 0;
        return total;
    };
    IntervalUnion u;
    Tick now = 0, next_free = 0;
    for (int i = 0; i < 10000; ++i) {
        if (i % 4 == 0)
            now = std::max(now, next_free) + pick(1, 50); // idle gap
        else
            now += pick(0, 3);
        Tick start = std::max(now, next_free);
        Tick end = start + pick(1, 40);
        next_free = end;
        holds.emplace_back(start, end);
        u.add(now, start, end);
        ASSERT_LE(u.numIntervals(), 2u) << "claim " << i;
        if (i % 100 == 0) {
            ASSERT_EQ(u.covered(now), expected(now)) << "claim " << i;
            ASSERT_EQ(u.covered(now + 1), expected(now + 1));
        }
    }
    for (Tick up_to : {now, now + 1, next_free - 1, next_free, maxTick})
        EXPECT_EQ(u.covered(up_to), expected(up_to)) << "upTo " << up_to;
    EXPECT_EQ(u.rawSum(), expected(maxTick));
}

TEST(IntervalUnionTest, AdditionsAndQueriesBeforeTheWatermarkPanic)
{
    IntervalUnion u;
    u.add(100, 100, 200);
    EXPECT_THROW(u.add(100, 90, 150), PanicError);  // starts before now
    EXPECT_THROW(u.add(50, 60, 70), PanicError);    // ... and the mark
    EXPECT_THROW(u.add(120, 110, 110), PanicError); // even when empty
    EXPECT_THROW(u.covered(99), PanicError);
    // A rejected addition changes nothing, its clock included.
    EXPECT_EQ(u.covered(100), 0u);
    EXPECT_EQ(u.covered(150), 50u);
    EXPECT_EQ(u.rawSum(), 100u);
    // A stale clock is harmless while the interval starts at or after
    // the watermark (a claim whose request time predates an earlier
    // claim's, queued behind it).
    u.add(50, 200, 210);
    EXPECT_EQ(u.covered(), 110u);

    // clear() forgets the intervals, not the clock.
    u.clear();
    EXPECT_EQ(u.covered(100), 0u);
    EXPECT_THROW(u.add(0, 50, 60), PanicError);
    EXPECT_THROW(u.covered(99), PanicError);
}

/** Ticks every interval of an equivalence stream lies within. */
constexpr Tick streamSpan = 2048;

using Interval = std::pair<Tick, Tick>;

/** covered(upTo) for every upTo in [0, streamSpan], counted one tick
 *  at a time: element t is the number of busy ticks below t. */
std::vector<Tick>
bruteCovered(const std::vector<Interval> &added)
{
    std::vector<bool> busy(std::size_t(streamSpan), false);
    for (const auto &[s, e] : added)
        for (Tick t = s; t < e; ++t)
            busy[std::size_t(t)] = true;
    std::vector<Tick> below(std::size_t(streamSpan) + 1, 0);
    for (Tick t = 0; t < streamSpan; ++t)
        below[std::size_t(t) + 1] =
            below[std::size_t(t)] + (busy[std::size_t(t)] ? 1 : 0);
    return below;
}

Tick
bruteRawSum(const std::vector<Interval> &added)
{
    Tick total = 0;
    for (const auto &[s, e] : added)
        total += e > s ? e - s : 0;
    return total;
}

enum class Stream
{
    Sorted,     ///< Increasing starts, random lengths (overlap or gap).
    BackToBack, ///< Each starts where the previous ended.
    Nested,     ///< Inside a long first interval, in start order.
    Overlapping, ///< Each starts inside the previous one.
    OutOfOrder, ///< Uniformly random.
    Jittered,   ///< Random starts within a window that drifts forward.
};

std::vector<Interval>
makeStream(Stream kind, std::mt19937_64 &rng, int count)
{
    auto pick = [&rng](Tick lo, Tick hi) {
        return std::uniform_int_distribution<Tick>(lo, hi)(rng);
    };
    std::vector<Interval> out;
    Tick cursor = 0;
    for (int i = 0; i < count; ++i) {
        Tick s = 0, e = 0;
        switch (kind) {
          case Stream::Sorted:
            s = cursor + pick(0, 20);
            e = s + pick(0, 30); // empty intervals included
            cursor = s;
            break;
          case Stream::BackToBack:
            s = cursor;
            e = s + pick(1, 20);
            cursor = e;
            break;
          case Stream::Nested:
            if (i == 0) {
                s = 10;
                e = 10 + 40 * Tick(count);
            } else {
                s = cursor + pick(0, 30);
                e = s + pick(1, 50);
            }
            cursor = s;
            break;
          case Stream::Overlapping:
            s = i == 0 ? 0 : pick(out.back().first, out.back().second);
            e = s + pick(1, 25);
            break;
          case Stream::OutOfOrder:
            s = pick(0, streamSpan - 64);
            e = s + pick(0, 60);
            break;
          case Stream::Jittered:
            s = cursor + pick(0, 100);
            e = s + pick(0, 40);
            cursor += pick(0, 20);
            break;
        }
        e = std::min(e, streamSpan);
        s = std::min(s, e);
        out.emplace_back(s, e);
    }
    return out;
}

/** Clocks for adding @p added in order: non-decreasing, and each at
 *  or before every later start (the suffix minimum), less a random lag
 *  so some additions land well after their clock. */
std::vector<Tick>
makeClocks(const std::vector<Interval> &added, std::mt19937_64 &rng)
{
    std::vector<Tick> out(added.size());
    Tick suffix_min = maxTick;
    for (std::size_t i = added.size(); i-- > 0;) {
        suffix_min = std::min(suffix_min, added[i].first);
        out[i] = suffix_min;
    }
    Tick clock = 0;
    for (Tick &t : out) {
        Tick lag = std::uniform_int_distribution<Tick>(0, 40)(rng);
        clock = std::max(clock, t > lag ? t - lag : 0);
        t = clock;
    }
    return out;
}

/** Query points at or after @p clock: the clock, the end, every
 *  interval edge and a tick either side of it (so some queries clip
 *  mid-interval), and random ticks. */
std::vector<Tick>
queryPoints(const std::vector<Interval> &added, std::mt19937_64 &rng,
            Tick clock)
{
    std::vector<Tick> out = {0, 1, clock, clock + 1, streamSpan, maxTick};
    for (const auto &[s, e] : added) {
        for (Tick t : {s, e, s + 1, e > 0 ? e - 1 : 0, (s + e) / 2})
            out.push_back(t);
    }
    for (int i = 0; i < 32; ++i)
        out.push_back(std::uniform_int_distribution<Tick>(
            clock, streamSpan)(rng));
    out.erase(std::remove_if(out.begin(), out.end(),
                             [clock](Tick t) { return t < clock; }),
              out.end());
    return out;
}

void
expectMatchesReference(const IntervalUnion &u,
                        const std::vector<Interval> &added,
                        std::mt19937_64 &rng, Tick clock = 0)
{
    EXPECT_EQ(u.rawSum(), bruteRawSum(added));
    EXPECT_LE(u.numIntervals(), added.size());
    std::vector<Tick> below = bruteCovered(added);
    for (Tick up_to : queryPoints(added, rng, clock))
        ASSERT_EQ(u.covered(up_to),
                  below[std::size_t(std::min(up_to, streamSpan))])
            << "upTo " << up_to;
}

const Stream allStreams[] = {Stream::Sorted, Stream::BackToBack,
                             Stream::Nested, Stream::Overlapping,
                             Stream::OutOfOrder, Stream::Jittered};

TEST(IntervalUnionTest, CoalescingMatchesBruteForceReference)
{
    for (Stream kind : allStreams) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "stream " << int(kind) << " seed " << seed);
            std::mt19937_64 rng(seed);
            std::vector<Interval> added = makeStream(kind, rng, 40);
            IntervalUnion u;
            for (const auto &[s, e] : added)
                u.add(0, s, e);
            expectMatchesReference(u, added, rng);

            // A query sorts the store; additions after it coalesce
            // again and must still agree.
            std::vector<Interval> more = makeStream(kind, rng, 20);
            for (const auto &[s, e] : more) {
                u.add(0, s, e);
                added.emplace_back(s, e);
            }
            expectMatchesReference(u, added, rng);

            // After clear() only the new stream counts.
            u.clear();
            EXPECT_EQ(u.numIntervals(), 0u);
            std::vector<Interval> fresh = makeStream(kind, rng, 30);
            for (const auto &[s, e] : fresh)
                u.add(0, s, e);
            expectMatchesReference(u, fresh, rng);
        }
    }

    // The clock advances: intervals ending by it fold into a total,
    // and every query (mid-stream too) clips at or after it.
    for (Stream kind : allStreams) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "clocked stream " << int(kind) << " seed "
                         << seed);
            std::mt19937_64 rng(seed);
            std::vector<Interval> stream = makeStream(kind, rng, 60);
            std::vector<Tick> clocks = makeClocks(stream, rng);
            IntervalUnion u;
            std::vector<Interval> added;
            for (std::size_t i = 0; i < stream.size(); ++i) {
                u.add(clocks[i], stream[i].first, stream[i].second);
                added.push_back(stream[i]);
                if (i % 10 == 9)
                    expectMatchesReference(u, added, rng, clocks[i]);
            }
        }
    }
}

} // namespace
} // namespace relief
