/**
 * @file
 * Lightweight statistics primitives used by every model: counters,
 * scalar accumulators, and small math helpers (geometric mean).
 */

#ifndef RELIEF_STATS_STATS_HH
#define RELIEF_STATS_STATS_HH

#include <cstdint>
#include <limits>
#include <vector>

namespace relief
{

/** Monotonically increasing event/byte counter. */
class Counter
{
  public:
    void add(std::uint64_t amount = 1) { value_ += amount; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Streaming accumulator for scalar samples: count, sum, mean, variance
 * (population), min, and max.
 */
class Accum
{
  public:
    void sample(double value);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-range linear histogram of scalar samples. Values below the
 * range land in the underflow bin, values at or above the upper edge
 * in the overflow bin; [lo, hi) is split into @p num_buckets equal
 * buckets. The full Accum summary (count/mean/min/max) is tracked
 * alongside, so one histogram answers both "what's the distribution"
 * and "what's the mean".
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t num_buckets);

    void sample(double value, std::uint64_t weight = 1);

    std::size_t numBuckets() const { return buckets_.size(); }
    double bucketLo(std::size_t index) const;
    double bucketHi(std::size_t index) const;
    std::uint64_t bucketCount(std::size_t index) const;
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Estimated value at quantile @p q in [0, 1], linearly
     * interpolated within the containing bucket. Underflow samples
     * count at the low edge, overflow at the high edge (the estimate
     * clamps to the observed min/max so a heavy tail cannot report a
     * value never seen). Returns 0 with no samples.
     */
    double quantile(double q) const;

    /** Total samples, including under/overflow. */
    std::uint64_t count() const { return summary_.count(); }
    double mean() const { return summary_.mean(); }
    double min() const { return summary_.min(); }
    double max() const { return summary_.max(); }
    const Accum &summary() const { return summary_; }

    double rangeLo() const { return lo_; }
    double rangeHi() const { return hi_; }

  private:
    double lo_;
    double hi_;
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    Accum summary_;
};

/**
 * Geometric mean of strictly positive values. Values <= 0 are clamped to
 * @p floor first (the paper's gmean bars do the same for zero entries).
 */
double geomean(const std::vector<double> &values, double floor = 1e-9);

} // namespace relief

#endif // RELIEF_STATS_STATS_HH
