#include "serve/alerts.hh"

#include <algorithm>
#include <utility>

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "stats/json.hh"
#include "stats/table.hh"

namespace relief
{

BurnRateAlerts::BurnRateAlerts(Simulator &sim,
                               const BurnRateConfig &config,
                               const std::vector<ClassSlo> *classes)
    : SimObject(sim, "serve.alerts"), config_(config), classes_(classes)
{
    RELIEF_ASSERT(classes_ != nullptr && !classes_->empty(),
                  "burn-rate alerts need at least one QoS class");
    RELIEF_ASSERT(config_.sloTarget > 0.0 && config_.sloTarget < 1.0,
                  "SLO target must be in (0, 1), got ",
                  config_.sloTarget);
    RELIEF_ASSERT(config_.fastWindow > 0, "fast window must be positive");
    RELIEF_ASSERT(config_.slowWindow >= config_.fastWindow,
                  "slow window must cover the fast window");
    RELIEF_ASSERT(config_.evalPeriod > 0,
                  "evaluation period must be positive");
    RELIEF_ASSERT(config_.openBurn >= config_.closeBurn,
                  "open threshold below close threshold: the alert "
                  "would churn");
    states_.resize(classes_->size());
}

void
BurnRateAlerts::setLiveness(std::function<bool()> alive)
{
    alive_ = std::move(alive);
}

void
BurnRateAlerts::start()
{
    if (armed_)
        return;
    tick();
}

void
BurnRateAlerts::tick()
{
    evaluateNow();
    // Re-arm only while the model is alive (injectable, like the
    // IntervalSampler): two periodic services keyed on raw event-queue
    // occupancy would keep each other alive forever.
    bool alive = alive_ ? alive_() : !sim().events().empty();
    armed_ = alive;
    if (alive)
        sim().after(config_.evalPeriod, HostCat::Serve, [this] { tick(); },
                    "serve.alerts.tick");
}

double
BurnRateAlerts::windowBurn(const ClassState &state, Tick window,
                           std::size_t &base) const
{
    if (state.samples.size() < 2)
        return 0.0;
    const Sample &head = state.samples.back();
    // Baseline: the latest sample at or before the window start; a run
    // younger than the window measures from its earliest sample. The
    // window start never moves back, so neither does @p base: it only
    // steps over samples at or before some earlier window start, and
    // pruning never drops one the window still needs.
    Tick cutoff = head.when > window ? head.when - window : 0;
    std::size_t i = std::max(base, state.pruned) - state.pruned;
    while (i + 1 < state.samples.size() &&
           state.samples[i + 1].when <= cutoff) {
        ++i;
    }
    base = state.pruned + i;
    const Sample &baseline = state.samples[i];
    std::uint64_t dc = head.completed - baseline.completed;
    std::uint64_t dm = head.missed - baseline.missed;
    if (dc == 0)
        return 0.0;
    double budget = 1.0 - config_.sloTarget;
    return (double(dm) / double(dc)) / budget;
}

void
BurnRateAlerts::evaluateNow()
{
    for (std::size_t i = 0; i < states_.size(); ++i) {
        ClassState &state = states_[i];
        const ClassSlo &slo = (*classes_)[i];
        state.samples.push_back({now(), slo.completed, slo.missed});

        state.fastBurn =
            windowBurn(state, config_.fastWindow, state.fastBase);
        state.slowBurn =
            windowBurn(state, config_.slowWindow, state.slowBase);

        // Multiwindow hysteresis: open only when both windows burn
        // hot, close only when both have cooled below the (lower)
        // close threshold.
        if (!state.open && state.fastBurn >= config_.openBurn &&
            state.slowBurn >= config_.openBurn) {
            state.open = true;
            state.openedAt = now();
            state.opens += 1;
            events_.push_back({now(), slo.name, true, state.fastBurn,
                               state.slowBurn});
            DPRINTF(Serve, "alert OPEN class ", slo.name, " fast ",
                    Table::num(state.fastBurn, 2), " slow ",
                    Table::num(state.slowBurn, 2), " (open >= ",
                    Table::num(config_.openBurn, 2), ")");
        } else if (state.open && state.fastBurn < config_.closeBurn &&
                   state.slowBurn < config_.closeBurn) {
            state.open = false;
            state.activeTicks += now() - state.openedAt;
            state.closes += 1;
            events_.push_back({now(), slo.name, false, state.fastBurn,
                               state.slowBurn});
            DPRINTF(Serve, "alert CLOSE class ", slo.name, " fast ",
                    Table::num(state.fastBurn, 2), " slow ",
                    Table::num(state.slowBurn, 2), " (close < ",
                    Table::num(config_.closeBurn, 2), ")");
        }

        // Keep one sample at or before the slow-window start as the
        // baseline; everything older is unreachable by either window.
        Tick cutoff =
            now() > config_.slowWindow ? now() - config_.slowWindow : 0;
        while (state.samples.size() >= 2 &&
               state.samples[1].when <= cutoff) {
            state.samples.pop_front();
            state.pruned += 1;
        }
    }
}

void
BurnRateAlerts::finish(Tick when)
{
    if (finished_)
        return;
    finished_ = true;
    for (ClassState &state : states_) {
        if (state.open)
            state.activeTicks += when - state.openedAt;
    }
}

std::vector<ClassAlertSummary>
BurnRateAlerts::summary() const
{
    std::vector<ClassAlertSummary> out;
    out.reserve(states_.size());
    for (std::size_t i = 0; i < states_.size(); ++i) {
        const ClassState &state = states_[i];
        ClassAlertSummary s;
        s.name = (*classes_)[i].name;
        s.opens = state.opens;
        s.closes = state.closes;
        s.active = state.open;
        s.activeTicks = state.activeTicks;
        s.finalFastBurn = state.fastBurn;
        s.finalSlowBurn = state.slowBurn;
        out.push_back(std::move(s));
    }
    return out;
}

void
writeAlertsJson(JsonWriter &w,
                const std::vector<ClassAlertSummary> &summaries,
                const std::vector<AlertEvent> &events)
{
    w.beginArray();
    for (const ClassAlertSummary &s : summaries) {
        w.beginObject(JsonLayout::Inline)
            .field("class", s.name)
            .field("opens", s.opens)
            .field("closes", s.closes)
            .field("active", s.active)
            .field("active_ms", toMs(s.activeTicks))
            .field("final_fast_burn", s.finalFastBurn)
            .field("final_slow_burn", s.finalSlowBurn)
            .key("events").beginArray(JsonLayout::Inline);
        for (const AlertEvent &e : events) {
            if (e.qosClass != s.name)
                continue;
            w.beginObject(JsonLayout::Inline)
                .field("t_ms", toMs(e.when))
                .field("open", e.open)
                .field("fast_burn", e.fastBurn)
                .field("slow_burn", e.slowBurn)
                .end();
        }
        w.end().end();
    }
    w.end();
}

} // namespace relief
