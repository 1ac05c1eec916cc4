/**
 * @file
 * Tests for SLO burn-rate alerts (serve/alerts.hh): dual-window
 * open/close thresholds, hysteresis (no churn between the close and
 * open burns), end-of-run close-out, JSON export, and an integration
 * run where an overloaded ServeDriver opens an alert.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/alerts.hh"
#include "serve/server.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"

using namespace relief;

namespace
{

BurnRateConfig
testConfig()
{
    BurnRateConfig config;
    config.sloTarget = 0.9; // Budget 0.1: burn = miss fraction / 0.1.
    config.fastWindow = fromMs(5.0);
    config.slowWindow = fromMs(10.0);
    config.evalPeriod = fromMs(1.0);
    config.openBurn = 2.0;  // Opens at windowed miss fraction >= 0.2.
    config.closeBurn = 1.0; // Closes below 0.1.
    return config;
}

} // namespace

TEST(BurnRateAlertsTest, OpensClosesWithHysteresis)
{
    Simulator sim;
    std::vector<ClassSlo> classes(1);
    classes[0].name = "rt";
    BurnRateAlerts alerts(sim, testConfig(), &classes);

    auto evalAt = [&](double ms, std::uint64_t completed,
                      std::uint64_t missed) {
        sim.at(fromMs(ms),
               [&, completed, missed] {
                   classes[0].completed = completed;
                   classes[0].missed = missed;
                   alerts.evaluateNow();
               },
               "test.eval");
    };

    evalAt(1.0, 10, 0);  // First sample: burns undefined, 0.
    evalAt(2.0, 20, 0);  // Healthy.
    evalAt(3.0, 30, 5);  // Windowed miss fraction 0.25 -> burn 2.5:
                         // both windows above openBurn -> OPEN.
    evalAt(4.0, 40, 5);  // Fast burn ~1.67: inside the hysteresis band
                         // (close 1 <= burn < open 2) -> stays open.
    evalAt(8.0, 100, 5); // Fresh window all-hit: burns < 1 -> CLOSE.
    sim.run();
    alerts.finish(sim.now());

    ASSERT_EQ(alerts.events().size(), 2u);
    EXPECT_TRUE(alerts.events()[0].open);
    EXPECT_EQ(alerts.events()[0].when, fromMs(3.0));
    EXPECT_EQ(alerts.events()[0].qosClass, "rt");
    EXPECT_GE(alerts.events()[0].fastBurn, 2.0);
    EXPECT_FALSE(alerts.events()[1].open);
    EXPECT_EQ(alerts.events()[1].when, fromMs(8.0));

    auto summary = alerts.summary();
    ASSERT_EQ(summary.size(), 1u);
    EXPECT_EQ(summary[0].opens, 1u);
    EXPECT_EQ(summary[0].closes, 1u);
    EXPECT_FALSE(summary[0].active);
    EXPECT_EQ(summary[0].activeTicks, fromMs(5.0)); // Open 3 ms -> 8 ms.
}

TEST(BurnRateAlertsTest, StillOpenAlertAccumulatesAtFinish)
{
    Simulator sim;
    std::vector<ClassSlo> classes(1);
    classes[0].name = "rt";
    BurnRateAlerts alerts(sim, testConfig(), &classes);

    sim.at(fromMs(1.0),
           [&] {
               classes[0].completed = 10;
               alerts.evaluateNow();
           },
           "test.eval");
    sim.at(fromMs(2.0),
           [&] {
               classes[0].completed = 20;
               classes[0].missed = 8;
               alerts.evaluateNow();
           },
           "test.eval");
    sim.run();
    alerts.finish(fromMs(6.0));

    auto summary = alerts.summary();
    ASSERT_EQ(summary.size(), 1u);
    EXPECT_EQ(summary[0].opens, 1u);
    EXPECT_EQ(summary[0].closes, 0u);
    EXPECT_TRUE(summary[0].active);
    EXPECT_EQ(summary[0].activeTicks, fromMs(4.0)); // 2 ms -> 6 ms.
    EXPECT_GT(summary[0].finalFastBurn, 2.0);
}

TEST(BurnRateAlertsTest, NoAlertWhileHealthy)
{
    Simulator sim;
    std::vector<ClassSlo> classes(2);
    classes[0].name = "rt";
    classes[1].name = "batch";
    BurnRateAlerts alerts(sim, testConfig(), &classes);

    for (int ms = 1; ms <= 20; ++ms) {
        sim.at(fromMs(double(ms)),
               [&, ms] {
                   classes[0].completed = std::uint64_t(10 * ms);
                   // One early miss: fraction stays well below 0.2.
                   classes[0].missed = 1;
                   classes[1].completed = std::uint64_t(5 * ms);
                   alerts.evaluateNow();
               },
               "test.eval");
    }
    sim.run();
    alerts.finish(sim.now());

    EXPECT_TRUE(alerts.events().empty());
    for (const ClassAlertSummary &s : alerts.summary()) {
        EXPECT_EQ(s.opens, 0u);
        EXPECT_FALSE(s.active);
        EXPECT_EQ(s.activeTicks, 0u);
    }
}

TEST(BurnRateAlertsTest, JsonExport)
{
    std::vector<ClassAlertSummary> summaries(1);
    summaries[0].name = "rt";
    summaries[0].opens = 1;
    summaries[0].active = true;
    summaries[0].activeTicks = fromMs(2.0);
    summaries[0].finalFastBurn = 3.0;
    summaries[0].finalSlowBurn = 2.5;
    std::vector<AlertEvent> events = {
        {fromMs(1.0), "rt", true, 3.0, 2.5},
        {fromMs(1.5), "other", true, 9.0, 9.0}, // Filtered out.
    };

    std::ostringstream os;
    JsonWriter w(os);
    writeAlertsJson(w, summaries, events);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"class\": \"rt\""), std::string::npos);
    EXPECT_NE(json.find("\"opens\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"active\": true"), std::string::npos);
    EXPECT_NE(json.find("\"active_ms\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"t_ms\": 1,"), std::string::npos);
    EXPECT_EQ(json.find("other"), std::string::npos);

    std::ostringstream empty;
    JsonWriter empty_writer(empty);
    writeAlertsJson(empty_writer, {}, {});
    EXPECT_EQ(empty.str(), "[]");
}

TEST(BurnRateAlertsTest, CursorBurnsMatchAFullScan)
{
    // Reference: the burn over a window, scanned front to back over
    // every sample ever taken (nothing pruned).
    struct Taken
    {
        Tick when;
        std::uint64_t completed, missed;
    };
    auto scan = [](const std::vector<Taken> &all, Tick window,
                   double budget) {
        if (all.size() < 2)
            return 0.0;
        const Taken &head = all.back();
        Tick cutoff = head.when > window ? head.when - window : 0;
        const Taken *base = &all.front();
        for (const Taken &s : all) {
            if (s.when > cutoff)
                break;
            base = &s;
        }
        std::uint64_t dc = head.completed - base->completed;
        if (dc == 0)
            return 0.0;
        return (double(head.missed - base->missed) / double(dc)) / budget;
    };

    // Fast / slow windows in ms; the last pair outlasts the ~45 ms
    // runs, the others prune samples.
    const std::pair<double, double> windows[] = {
        {1.0, 4.0}, {3.0, 3.0}, {2.5, 17.0}, {100.0, 200.0}};
    for (auto [fast_ms, slow_ms] : windows) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(testing::Message() << "windows " << fast_ms
                                            << "/" << slow_ms << " ms, seed "
                                            << seed);
            BurnRateConfig config = testConfig();
            config.fastWindow = fromMs(fast_ms);
            config.slowWindow = fromMs(slow_ms);
            Simulator sim;
            std::vector<ClassSlo> classes(2);
            classes[0].name = "rt";
            classes[1].name = "batch";
            BurnRateAlerts alerts(sim, config, &classes);
            std::vector<std::vector<Taken>> taken(classes.size());
            std::mt19937_64 rng(seed);
            int mismatches = 0;

            // Evaluations at random gaps, some at the same tick, with
            // random completions and misses in between.
            Tick when = 0;
            for (int step = 0; step < 400; ++step) {
                when += rng() % 4 == 0 ? 0 : Tick(rng() % fromUs(300.0));
                sim.at(when, [&] {
                    for (std::size_t c = 0; c < classes.size(); ++c) {
                        std::uint64_t done = rng() % 6;
                        classes[c].completed += done;
                        classes[c].missed += done ? rng() % (done + 1) : 0;
                        taken[c].push_back({sim.now(), classes[c].completed,
                                            classes[c].missed});
                    }
                    alerts.evaluateNow();
                    std::vector<ClassAlertSummary> now = alerts.summary();
                    for (std::size_t c = 0; c < classes.size(); ++c) {
                        double budget = 1.0 - config.sloTarget;
                        mismatches +=
                            now[c].finalFastBurn !=
                                scan(taken[c], config.fastWindow, budget) ||
                            now[c].finalSlowBurn !=
                                scan(taken[c], config.slowWindow, budget);
                    }
                });
            }
            sim.run();
            EXPECT_EQ(mismatches, 0);
        }
    }
}

TEST(BurnRateAlertsTest, OverloadedDriverOpensAlert)
{
    // An impossible deadline scale forces every completion to miss, so
    // the burn rate saturates and the alert opens for some class.
    ServeConfig config;
    config.arrival.ratePerSec = 1500.0;
    config.horizon = fromMs(15.0);
    config.telemetry.alerts = true;
    config.telemetry.burnRate.fastWindow = fromMs(2.0);
    config.telemetry.burnRate.slowWindow = fromMs(6.0);
    config.telemetry.burnRate.evalPeriod = fromMs(0.5);
    for (QosClassConfig &cls : config.classes)
        cls.deadlineScale = 0.01;

    ServeDriver driver(config);
    ServeReport report = driver.run();

    ASSERT_EQ(report.alerts.size(), config.classes.size());
    std::uint64_t opens = 0;
    for (const ClassAlertSummary &s : report.alerts)
        opens += s.opens;
    EXPECT_GT(opens, 0u);
    EXPECT_FALSE(report.alertEvents.empty());
    EXPECT_TRUE(report.alertEvents[0].open);

    // The summary is consistent with the event log.
    for (const ClassAlertSummary &s : report.alerts) {
        std::uint64_t open_events = 0, close_events = 0;
        for (const AlertEvent &e : report.alertEvents) {
            if (e.qosClass != s.name)
                continue;
            (e.open ? open_events : close_events) += 1;
        }
        EXPECT_EQ(s.opens, open_events);
        EXPECT_EQ(s.closes, close_events);
        EXPECT_EQ(s.opens, s.closes + (s.active ? 1u : 0u));
    }
}
