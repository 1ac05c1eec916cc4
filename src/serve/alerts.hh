/**
 * @file
 * SLO burn-rate alerts for the serving layer.
 *
 * Implements the SRE multiwindow burn-rate pattern per QoS class: the
 * SLO budget is the tolerated miss fraction (1 - target), and the
 * *burn rate* over a window is the windowed miss fraction divided by
 * that budget — burn 1 means the class is spending its error budget
 * exactly at the tolerated pace, burn 2 twice as fast.
 *
 * Two windows guard against both failure modes of a single window: the
 * *fast* window makes the alert react within milliseconds of a real
 * regression, while the *slow* window keeps one unlucky burst from
 * paging. An alert OPENS only when both windows burn at or above
 * `openBurn`, and CLOSES only when both fall below `closeBurn` — the
 * gap between the two thresholds is the hysteresis band that prevents
 * open/close churn while a class hovers near its budget.
 *
 * The evaluator samples the live per-class ClassSlo counters once per
 * period (a PeriodicService), records every open/close transition in
 * its alert log — mirrored onto the `Serve` debug flag like the
 * scheduler's decision log — and summarizes per class into the
 * relief-serve-v1 "alerts" block. Everything is a pure function of
 * the run, so alert event streams are bit-identical across platforms
 * and worker counts.
 */

#ifndef RELIEF_SERVE_ALERTS_HH
#define RELIEF_SERVE_ALERTS_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/slo.hh"
#include "sim/periodic_service.hh"
#include "stats/json.hh"

namespace relief
{

struct BurnRateConfig
{
    /** SLO attainment target in (0, 1): the tolerated miss fraction
     *  (error budget) is 1 - sloTarget. */
    double sloTarget = 0.9;
    Tick fastWindow = fromMs(5.0);  ///< Reacts to regressions.
    Tick slowWindow = fromMs(25.0); ///< Filters one-burst noise.
    Tick evalPeriod = fromMs(1.0);  ///< Evaluation cadence.
    double openBurn = 2.0;  ///< Open when both windows >= this.
    double closeBurn = 1.0; ///< Close when both windows < this.
};

/** One open/close transition of a class's alert. */
struct AlertEvent
{
    Tick when = 0;
    std::string qosClass;
    bool open = true; ///< true = opened, false = closed.
    double fastBurn = 0.0;
    double slowBurn = 0.0;
};

/** Per-class summary of a run's alert activity (relief-serve-v1
 *  "alerts" block). */
struct ClassAlertSummary
{
    std::string name;
    std::uint64_t opens = 0;
    std::uint64_t closes = 0;
    bool active = false;  ///< Still open at the end of the run.
    Tick activeTicks = 0; ///< Total time spent open.
    double finalFastBurn = 0.0;
    double finalSlowBurn = 0.0;
};

class BurnRateAlerts : public PeriodicService
{
  public:
    /**
     * @param sim     Owning simulation context.
     * @param config  Thresholds and windows.
     * @param classes Live per-class SLO counters (must outlive the
     *                evaluator; the serving driver owns both).
     */
    BurnRateAlerts(Simulator &sim, const BurnRateConfig &config,
                   const std::vector<ClassSlo> *classes);

    /** One evaluation pass at the current tick; every periodic tick
     *  runs one. */
    void evaluateNow();

    /**
     * End-of-run close-out at @p when: accumulates the open time of
     * still-active alerts and freezes the final burn rates, without
     * emitting synthetic close events.
     */
    void finish(Tick when);

    const BurnRateConfig &config() const { return config_; }

    /** Every open/close transition, in sim-time order (the serving
     *  decision log for alerts). */
    const std::vector<AlertEvent> &events() const { return events_; }

    /** Per-class summaries (valid after finish()). */
    std::vector<ClassAlertSummary> summary() const;

    /** One burn-window sample of a class's counters. */
    struct Sample
    {
        Tick when = 0;
        std::uint64_t completed = 0;
        std::uint64_t missed = 0;
    };

    /** One class's live alert state and burn-window samples. */
    struct ClassState
    {
        std::deque<Sample> samples;
        /** Samples pruned from the front so far: sample k (counted
         *  from the first ever taken) is samples[k - pruned]. */
        std::size_t pruned = 0;
        std::size_t fastBase = 0; ///< Fast window's baseline sample k.
        std::size_t slowBase = 0; ///< Slow window's baseline sample k.
        bool open = false;
        Tick openedAt = 0;
        std::uint64_t opens = 0;
        std::uint64_t closes = 0;
        Tick activeTicks = 0;
        double fastBurn = 0.0;
        double slowBurn = 0.0;
    };

    /** Class @p i's live state (the serve.*.alert_* stats read it). */
    const ClassState &classState(std::size_t i) const
    {
        return states_[i];
    }

  private:
    void onTick() override { evaluateNow(); }
    double windowBurn(const ClassState &state, Tick window,
                      std::size_t &base) const;

    BurnRateConfig config_;
    const std::vector<ClassSlo> *classes_;
    std::vector<ClassState> states_;
    std::vector<AlertEvent> events_;
    bool finished_ = false;
};

/** Write the relief-serve-v1 "alerts" array (one object per class,
 *  summary plus its open/close events). */
void writeAlertsJson(JsonWriter &w,
                     const std::vector<ClassAlertSummary> &summaries,
                     const std::vector<AlertEvent> &events);

} // namespace relief

#endif // RELIEF_SERVE_ALERTS_HH
