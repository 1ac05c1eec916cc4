/**
 * @file
 * Periodic counter-track sampler.
 *
 * An IntervalSampler wakes up every @c period ticks and records the
 * current value of each registered probe on its counter track in the
 * attached TraceRecorder. The Soc facade wires the standard probes
 * (ready-queue depth, DRAM bandwidth utilization, outstanding DMA
 * bytes, per-accelerator occupancy) when tracing is enabled, so a
 * Chrome trace shows the memory pressure alongside the schedule.
 *
 * The sampler only re-arms itself while other events are pending, so
 * it never keeps the event queue alive on its own: a run ends at most
 * one period after the last real event.
 */

#ifndef RELIEF_TRACE_INTERVAL_SAMPLER_HH
#define RELIEF_TRACE_INTERVAL_SAMPLER_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace relief
{

class IntervalSampler : public SimObject
{
  public:
    /** Reads the current value of one sampled quantity. */
    using Probe = std::function<double()>;

    /**
     * @param sim    Owning simulation context.
     * @param trace  Recorder receiving the counter samples
     *               (must outlive the sampler).
     * @param period Sampling interval in ticks (must be positive).
     */
    IntervalSampler(Simulator &sim, TraceRecorder &trace, Tick period);

    /** Register @p probe under the counter track @p track_name. */
    void addProbe(const std::string &track_name, Probe probe);

    /**
     * Re-arm while @p alive returns true instead of the default
     * "events pending" check. The serving driver keys every periodic
     * service (sampler, exposition, alerts) on real work — arrivals
     * pending or requests in flight — because two periodic services
     * using the queue-occupancy default would keep each other alive
     * forever.
     */
    void setLiveness(std::function<bool()> alive);

    std::size_t numProbes() const { return probes_.size(); }
    Tick period() const { return period_; }

    /** Take the first sample now and begin periodic sampling; a
     *  no-op while a wakeup is already scheduled. */
    void start();

  private:
    void sampleOnce();

    TraceRecorder &trace_;
    Tick period_;
    std::vector<std::pair<int, Probe>> probes_;
    std::function<bool()> alive_;
    /** A tick is scheduled; start() then does nothing. */
    bool armed_ = false;
};

} // namespace relief

#endif // RELIEF_TRACE_INTERVAL_SAMPLER_HH
