/**
 * @file
 * Union of time intervals, used for occupancy statistics ("fraction of
 * time at least one transaction was in flight"). Intervals may be added
 * out of order and may overlap; the covered time is computed by a merge
 * at query time. While additions arrive in start order, one that starts
 * inside or at the end of the last stored interval extends it instead
 * of being stored.
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
    /** Record the half-open busy interval [start, end). */
    void add(Tick start, Tick end);

    /** Total time covered by the union of all intervals, clipped to
     *  [0, upTo). */
    Tick covered(Tick upTo = maxTick) const;

    /** Sum of raw interval lengths (counts overlap multiple times). */
    Tick rawSum() const { return rawSum_; }

    /** Number of stored (coalesced) intervals. */
    std::size_t numIntervals() const { return intervals_.size(); }
    void clear();

  private:
    mutable std::vector<std::pair<Tick, Tick>> intervals_;
    mutable bool sorted_ = true;
    Tick rawSum_ = 0;
};

} // namespace relief

#endif // RELIEF_STATS_INTERVAL_UNION_HH
