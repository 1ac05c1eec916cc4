#include "trace/interval_sampler.hh"

#include <utility>

#include "sim/logging.hh"

namespace relief
{

IntervalSampler::IntervalSampler(Simulator &sim, TraceRecorder &trace,
                                 Tick period)
    : PeriodicService(sim, "sampler", period, HostCat::Stats,
                      "sampler.tick"),
      trace_(trace)
{
}

void
IntervalSampler::addProbe(const std::string &track_name, Probe probe)
{
    RELIEF_ASSERT(probe != nullptr,
                  "probe '", track_name, "' needs a callable");
    probes_.emplace_back(trace_.counterTrack(track_name),
                         std::move(probe));
}

void
IntervalSampler::onTick()
{
    for (const auto &[track, probe] : probes_)
        trace_.counter(track, now(), probe());
}

} // namespace relief
