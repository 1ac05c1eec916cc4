/** @file Unit tests for counters, accumulators, and geomean. */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/stats.hh"

namespace relief
{
namespace
{

TEST(CounterTest, Adds)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(AccumTest, EmptyIsZero)
{
    Accum a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(AccumTest, MeanMinMax)
{
    Accum a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(AccumTest, VarianceAndStddev)
{
    Accum a;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.sample(v);
    EXPECT_NEAR(a.variance(), 4.0, 1e-9);
    EXPECT_NEAR(a.stddev(), 2.0, 1e-9);
}

TEST(AccumTest, NegativeSamples)
{
    Accum a;
    a.sample(-3.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(HistogramQuantileTest, EmptyIsZero)
{
    Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantileTest, InterpolatesWithinBucket)
{
    // 100 samples spread one per 0.1 across [0, 10): the quantile
    // curve is close to the identity q -> 10q.
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(double(i) / 10.0);
    EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
    EXPECT_NEAR(h.quantile(0.9), 9.0, 0.2);
    EXPECT_NEAR(h.quantile(0.25), 2.5, 0.2);
}

TEST(HistogramQuantileTest, ClampsToObservedRange)
{
    // One sample per edge bucket: no estimate may leave [min, max].
    Histogram h(0.0, 10.0, 10);
    h.sample(2.5);
    h.sample(7.5);
    EXPECT_GE(h.quantile(0.0), 2.5);
    EXPECT_LE(h.quantile(1.0), 7.5);
}

TEST(HistogramQuantileTest, UnderflowAndOverflowUseObservedExtremes)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-5.0); // underflow bin
    h.sample(5.0);
    h.sample(25.0); // overflow bin
    EXPECT_DOUBLE_EQ(h.quantile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 25.0);
}

TEST(HistogramQuantileTest, OutOfRangeQIsClamped)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(5.0);
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(HistogramQuantileTest, EmptyAtExtremeQ)
{
    Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(HistogramQuantileTest, SingleSampleIsEveryQuantile)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(3.7);
    for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(q), 3.7) << "q=" << q;
}

TEST(HistogramQuantileTest, AllEqualSamplesCollapseToThatValue)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 1000; ++i)
        h.sample(6.25);
    for (double q : {0.0, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(q), 6.25) << "q=" << q;
}

TEST(HistogramQuantileTest, SingleBucketInterpolatesLinearly)
{
    // Degenerate binning: every in-range sample lands in the one
    // bucket, so the estimate is a pure linear ramp across it,
    // clamped to the observed extremes.
    Histogram h(0.0, 10.0, 1);
    h.sample(2.0);
    h.sample(8.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
    EXPECT_NEAR(h.quantile(0.5), 5.0, 2.0 + 1e-9);
}

TEST(HistogramQuantileTest, ZeroBucketRequestClampsToOne)
{
    // The constructor guards num_buckets == 0 by allocating a single
    // bucket instead of dividing by zero.
    Histogram h(0.0, 10.0, 0);
    EXPECT_EQ(h.numBuckets(), 1u);
    h.sample(4.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);
}

TEST(HistogramQuantileTest, WeightedSamplesMatchRepeatedSamples)
{
    // sample(v, w) must merge into the books exactly like w separate
    // observations of v.
    Histogram weighted(0.0, 10.0, 10);
    Histogram repeated(0.0, 10.0, 10);
    weighted.sample(3.0, 7);
    weighted.sample(6.0, 3);
    for (int i = 0; i < 7; ++i)
        repeated.sample(3.0);
    for (int i = 0; i < 3; ++i)
        repeated.sample(6.0);
    EXPECT_EQ(weighted.count(), repeated.count());
    for (double q : {0.1, 0.5, 0.7, 0.9})
        EXPECT_DOUBLE_EQ(weighted.quantile(q), repeated.quantile(q))
            << "q=" << q;
}

TEST(GeomeanTest, MatchesHandComputedValue)
{
    EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
}

TEST(GeomeanTest, SingleValueIsItself)
{
    EXPECT_DOUBLE_EQ(geomean({7.5}), 7.5);
}

TEST(GeomeanTest, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(GeomeanTest, ZeroEntriesAreFloored)
{
    // A zero entry is clamped to the floor rather than collapsing the
    // mean to zero (mirrors how the paper's gmean bars handle zeros).
    double g = geomean({0.0, 1.0}, 1e-4);
    EXPECT_NEAR(g, std::sqrt(1e-4), 1e-9);
}

} // namespace
} // namespace relief
