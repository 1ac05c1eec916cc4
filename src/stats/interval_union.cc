#include "stats/interval_union.hh"

#include <algorithm>

namespace relief
{

void
IntervalUnion::add(Tick start, Tick end)
{
    if (end <= start)
        return;
    rawSum_ += end - start;
    if (!intervals_.empty()) {
        auto &last = intervals_.back();
        if (start < last.first) {
            sorted_ = false;
        } else if (sorted_ && start <= last.second) {
            // Starts inside (or touching) the last interval: extending
            // it leaves the union unchanged. Back-to-back FIFO claims
            // take this path, so a busy resource stores one interval
            // per busy period rather than one per claim.
            last.second = std::max(last.second, end);
            return;
        }
    }
    intervals_.emplace_back(start, end);
}

Tick
IntervalUnion::covered(Tick upTo) const
{
    if (intervals_.empty())
        return 0;
    if (!sorted_) {
        std::sort(intervals_.begin(), intervals_.end());
        sorted_ = true;
    }
    Tick total = 0;
    Tick curStart = 0, curEnd = 0;
    bool open = false;
    for (const auto &[s0, e0] : intervals_) {
        Tick s = std::min(s0, upTo);
        Tick e = std::min(e0, upTo);
        if (e <= s)
            continue;
        if (!open) {
            curStart = s;
            curEnd = e;
            open = true;
        } else if (s <= curEnd) {
            curEnd = std::max(curEnd, e);
        } else {
            total += curEnd - curStart;
            curStart = s;
            curEnd = e;
        }
    }
    if (open)
        total += curEnd - curStart;
    return total;
}

void
IntervalUnion::clear()
{
    intervals_.clear();
    sorted_ = true;
    rawSum_ = 0;
}

} // namespace relief
