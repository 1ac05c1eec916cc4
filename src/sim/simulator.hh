/**
 * @file
 * Simulation driver: owns the event queue and runs it to completion or
 * to a time limit.
 */

#ifndef RELIEF_SIM_SIMULATOR_HH
#define RELIEF_SIM_SIMULATOR_HH

#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/ticks.hh"

namespace relief
{

/** Decides whether the model still has work (Simulator::alive). */
class Liveness
{
  public:
    virtual ~Liveness() = default;
    virtual bool alive() const = 0;
};

/**
 * Top-level simulation context. SimObjects hold a reference to their
 * Simulator and schedule events through it.
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return events_.curTick(); }

    /**
     * Schedule @p action at absolute tick @p when. The optional label
     * may be a string literal (always kept, free) or a nullary
     * callable returning std::string (evaluated only under the Event
     * debug flag) — see EventQueue::schedule. A HostCat placed before
     * the action (`sim.at(when, HostCat::Dma, fn, "label")`) forwards
     * through and tags the event for host-time attribution.
     */
    template <typename F, typename... Label>
    void
    at(Tick when, F &&action, Label &&...label)
    {
        events_.schedule(when, std::forward<F>(action),
                         std::forward<Label>(label)...);
    }

    /** Schedule @p action @p delay ticks from now. */
    template <typename F, typename... Label>
    void
    after(Tick delay, F &&action, Label &&...label)
    {
        events_.schedule(now() + delay, std::forward<F>(action),
                         std::forward<Label>(label)...);
    }

    /** Reserve @p n event sequence numbers (EventQueue::reserveSeqs). */
    std::uint64_t reserveSeqs(std::uint64_t n)
    {
        return events_.reserveSeqs(n);
    }

    /** at() under a reserved sequence number
     *  (EventQueue::scheduleReserved). */
    template <typename F>
    void
    atReserved(Tick when, std::uint64_t seq, HostCat cat, F &&action,
               const char *label)
    {
        events_.scheduleReserved(when, seq, cat, std::forward<F>(action),
                                 label);
    }

    /**
     * Run until the event queue drains or @p limit is reached.
     * @return the tick at which the run stopped.
     */
    Tick run(Tick limit = maxTick);

    /** Direct access to the queue (tests, stats). */
    const EventQueue &events() const { return events_; }

    /** Let @p liveness (not owned; nullptr restores the default)
     *  decide alive(). */
    void setLiveness(const Liveness *liveness) { liveness_ = liveness; }

    /** Whether the model still has work: the installed Liveness, by
     *  default any pending event (see sim/periodic_service.hh). */
    bool alive() const
    {
        return liveness_ ? liveness_->alive() : !events_.empty();
    }

  private:
    EventQueue events_;
    const Liveness *liveness_ = nullptr;
};

/**
 * Base class for named model components.
 */
class SimObject
{
  public:
    /**
     * @param sim  Owning simulation context (must outlive the object).
     * @param name Hierarchical debug name, e.g. "soc.acc.convolution0".
     */
    SimObject(Simulator &sim, std::string name)
        : sim_(sim), name_(std::move(name))
    {
    }

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulator &sim() const { return sim_; }
    Tick now() const { return sim_.now(); }

  private:
    Simulator &sim_;
    std::string name_;
};

} // namespace relief

#endif // RELIEF_SIM_SIMULATOR_HH
