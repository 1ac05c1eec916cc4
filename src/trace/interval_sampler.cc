#include "trace/interval_sampler.hh"

#include <utility>

#include "sim/logging.hh"

namespace relief
{

IntervalSampler::IntervalSampler(Simulator &sim, TraceRecorder &trace,
                                 Tick period)
    : SimObject(sim, "sampler"), trace_(trace), period_(period)
{
    RELIEF_ASSERT(period_ > 0, "sampler period must be positive");
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
IntervalSampler::setLiveness(std::function<bool()> alive)
{
    alive_ = std::move(alive);
}

void
IntervalSampler::start()
{
    if (armed_)
        return;
    sampleOnce();
}

void
IntervalSampler::sampleOnce()
{
    for (const auto &[track, probe] : probes_)
        trace_.counter(track, now(), probe());
    // Re-arm only while the model still has work in flight; otherwise
    // the sampler would keep an idle event queue spinning forever.
    bool alive = alive_ ? alive_() : !sim().events().empty();
    armed_ = alive;
    if (alive)
        sim().after(period_, HostCat::Stats, [this] { sampleOnce(); },
                    "sampler.tick");
}

} // namespace relief
