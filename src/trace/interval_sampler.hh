/**
 * @file
 * Periodic counter-track sampler.
 *
 * An IntervalSampler wakes up every @c period ticks and records the
 * current value of each registered probe on its counter track in the
 * attached TraceRecorder. The Soc facade wires the standard probes
 * (ready-queue depth, DRAM bandwidth utilization, outstanding DMA
 * bytes, per-accelerator occupancy) when tracing is enabled, so a
 * Chrome trace shows the memory pressure alongside the schedule. It
 * re-arms like every PeriodicService (sim/periodic_service.hh).
 */

#ifndef RELIEF_TRACE_INTERVAL_SAMPLER_HH
#define RELIEF_TRACE_INTERVAL_SAMPLER_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/periodic_service.hh"
#include "trace/trace.hh"

namespace relief
{

class IntervalSampler : public PeriodicService
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

    std::size_t numProbes() const { return probes_.size(); }

  private:
    /** Record every probe's current value. */
    void onTick() override;

    TraceRecorder &trace_;
    std::vector<std::pair<int, Probe>> probes_;
};

} // namespace relief

#endif // RELIEF_TRACE_INTERVAL_SAMPLER_HH
