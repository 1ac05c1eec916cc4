#include "stats/interval_union.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace relief
{

void
IntervalUnion::add(Tick now, Tick start, Tick end)
{
    const Tick mark = std::max(watermark_, now);
    RELIEF_ASSERT(start >= mark, "busy interval [", start, ", ", end,
                  ") starts before the watermark ", mark);
    watermark_ = mark;

    // Nothing can start before the watermark any more, so intervals
    // ending by it are final: fold their lengths into the total.
    if (!intervals_.empty() && intervals_.front().second <= mark) {
        auto live = intervals_.begin();
        for (; live != intervals_.end() && live->second <= mark; ++live)
            folded_ += live->second - live->first;
        intervals_.erase(intervals_.begin(), live);
    }

    if (end <= start)
        return;
    rawSum_ += end - start;
    if (intervals_.empty() || start > intervals_.back().second) {
        intervals_.emplace_back(start, end);
        return;
    }
    auto &last = intervals_.back();
    if (start >= last.first) {
        // Starts inside (or touching) the last interval: back-to-back
        // FIFO claims take this path, so a backlogged resource keeps
        // one interval per busy period rather than one per claim.
        last.second = std::max(last.second, end);
        return;
    }
    // Out of order: merge into place. The first interval ending at or
    // after start exists, since the last one does.
    auto it = std::lower_bound(
        intervals_.begin(), intervals_.end(), start,
        [](const std::pair<Tick, Tick> &iv, Tick t) { return iv.second < t; });
    if (end < it->first) {
        intervals_.insert(it, {start, end});
        return;
    }
    it->first = std::min(it->first, start);
    it->second = std::max(it->second, end);
    auto next = it + 1;
    for (; next != intervals_.end() && next->first <= it->second; ++next)
        it->second = std::max(it->second, next->second);
    intervals_.erase(it + 1, next);
}

Tick
IntervalUnion::covered(Tick upTo) const
{
    RELIEF_ASSERT(upTo >= watermark_, "busy time queried up to ", upTo,
                  ", before the watermark ", watermark_);
    // Folded intervals end by the watermark, so upTo clips none.
    Tick total = folded_;
    for (const auto &[s, e] : intervals_) {
        if (s >= upTo)
            break;
        total += std::min(e, upTo) - s;
    }
    return total;
}

void
IntervalUnion::clear()
{
    intervals_.clear();
    folded_ = 0;
    rawSum_ = 0;
}

} // namespace relief
