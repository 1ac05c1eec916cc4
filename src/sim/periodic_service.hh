/**
 * @file
 * A model component that does its work once per period of sim time.
 *
 * start() ticks now; each tick runs onTick() and then re-arms one
 * period later only while Simulator::alive() holds, so a service never
 * keeps an idle event queue spinning on its own. Liveness is one rule
 * per simulator. The default, "events pending", ends a run at most one
 * period after its last real event, but only with one service: two
 * services would each see the other's wakeup pending and keep each
 * other alive forever. A driver that runs several installs its own
 * Liveness keyed on real work (the serving driver: arrivals pending
 * or requests in flight).
 */

#ifndef RELIEF_SIM_PERIODIC_SERVICE_HH
#define RELIEF_SIM_PERIODIC_SERVICE_HH

#include <string>
#include <utility>

#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace relief
{

class PeriodicService : public SimObject
{
  public:
    /**
     * @param period Ticks between ticks (must be positive).
     * @param cat    Host-time category of every tick.
     * @param label  Event label of every tick (a string literal).
     */
    PeriodicService(Simulator &sim, std::string name, Tick period,
                    HostCat cat, const char *label)
        : SimObject(sim, std::move(name)), period_(period), cat_(cat),
          label_(label)
    {
        RELIEF_ASSERT(period_ > 0, this->name(),
                      " period must be positive");
    }

    Tick period() const { return period_; }

    /** Tick now and begin ticking periodically; a no-op while a tick
     *  is already scheduled. */
    void start()
    {
        if (!armed_)
            tick();
    }

  protected:
    /** One period's work. */
    virtual void onTick() = 0;

  private:
    void tick()
    {
        onTick();
        armed_ = sim().alive();
        if (armed_)
            sim().after(period_, cat_, [this] { tick(); }, label_);
    }

    Tick period_;
    HostCat cat_;
    const char *label_;
    bool armed_ = false; ///< A tick is scheduled.
};

} // namespace relief

#endif // RELIEF_SIM_PERIODIC_SERVICE_HH
