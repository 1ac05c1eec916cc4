/**
 * @file
 * Union of time intervals, used for occupancy statistics ("fraction of
 * time at least one transaction was in flight").
 *
 * Every addition carries the caller's simulation clock, and no interval
 * may start before the latest clock seen (the watermark), so coverage
 * before the watermark can never change again. An addition first folds
 * the stored intervals that end by the watermark into a running total;
 * only a sorted, disjoint list of intervals reaching past it is kept.
 * Storage is therefore bounded by the work in flight, not by simulated
 * time. A new interval is appended, extends the last entry (the FIFO
 * case), or is merged into place. Queries must not clip before the
 * watermark.
 */

#ifndef RELIEF_STATS_INTERVAL_UNION_HH
#define RELIEF_STATS_INTERVAL_UNION_HH

#include <utility>
#include <vector>

#include "sim/ticks.hh"

namespace relief
{

class IntervalUnion
{
  public:
    /** Record the half-open busy interval [start, end), added at
     *  simulation time @p now. The watermark advances to @p now if that
     *  is later; @p start must not precede it (panics otherwise). */
    void add(Tick now, Tick start, Tick end);

    /** Total time covered by the union of all intervals, clipped to
     *  [0, upTo). Requires upTo >= the watermark (panics otherwise). */
    Tick covered(Tick upTo = maxTick) const;

    /** Sum of raw interval lengths (counts overlap multiple times). */
    Tick rawSum() const { return rawSum_; }

    /** Number of stored intervals: those reaching past the watermark
     *  at the last addition. */
    std::size_t numIntervals() const { return intervals_.size(); }

  private:
    /** Sorted, disjoint; only the front entries can end by the
     *  watermark, and the next add() folds them. */
    std::vector<std::pair<Tick, Tick>> intervals_;
    /** Coverage of the intervals already folded out of intervals_. */
    Tick folded_ = 0;
    Tick watermark_ = 0;
    Tick rawSum_ = 0;
};

} // namespace relief

#endif // RELIEF_STATS_INTERVAL_UNION_HH
