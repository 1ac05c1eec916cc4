#include "stats/stats.hh"

#include <algorithm>
#include <cmath>

namespace relief
{

void
Accum::sample(double value)
{
    ++count_;
    sum_ += value;
    sumSq_ += value * value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

double
Accum::variance() const
{
    if (count_ == 0)
        return 0.0;
    double m = mean();
    double var = sumSq_ / double(count_) - m * m;
    return var > 0.0 ? var : 0.0;
}

double
Accum::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, std::size_t num_buckets)
    : lo_(lo), hi_(hi),
      bucketWidth_((hi - lo) / double(num_buckets ? num_buckets : 1)),
      buckets_(num_buckets ? num_buckets : 1, 0)
{
}

void
Histogram::sample(double value, std::uint64_t weight)
{
    for (std::uint64_t i = 0; i < weight; ++i)
        summary_.sample(value);
    if (value < lo_) {
        underflow_ += weight;
        return;
    }
    if (value >= hi_) {
        overflow_ += weight;
        return;
    }
    auto index = std::size_t((value - lo_) / bucketWidth_);
    if (index >= buckets_.size()) // float round-up at the top edge
        index = buckets_.size() - 1;
    buckets_[index] += weight;
}

double
Histogram::bucketLo(std::size_t index) const
{
    return lo_ + double(index) * bucketWidth_;
}

double
Histogram::bucketHi(std::size_t index) const
{
    return lo_ + double(index + 1) * bucketWidth_;
}

std::uint64_t
Histogram::bucketCount(std::size_t index) const
{
    return buckets_[index];
}

double
Histogram::quantile(double q) const
{
    if (summary_.count() == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    double target = q * double(summary_.count());
    double seen = double(underflow_);
    if (target <= seen)
        return summary_.min();
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        double in_bucket = double(buckets_[i]);
        if (in_bucket > 0.0 && target <= seen + in_bucket) {
            double frac = (target - seen) / in_bucket;
            double v = bucketLo(i) + frac * bucketWidth_;
            return std::min(std::max(v, summary_.min()),
                            summary_.max());
        }
        seen += in_bucket;
    }
    // Target falls in the overflow bin: the best available bound is
    // the largest observed sample.
    return summary_.max();
}

double
geomean(const std::vector<double> &values, double floor)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(std::max(v, floor));
    return std::exp(logSum / double(values.size()));
}

} // namespace relief
