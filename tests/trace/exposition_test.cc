/**
 * @file
 * Tests for the Prometheus text exposition publisher
 * (trace/exposition.hh): rendering, name sanitization, delta-window
 * rates, counter monotonicity across snapshots, atomic file
 * publication, and series retention.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "sim/simulator.hh"
#include "stats/registry.hh"
#include "stats/stats.hh"
#include "trace/exposition.hh"

using namespace relief;

namespace
{

/** A registry bound to mutable counters the test can advance. */
struct Fixture
{
    Simulator sim;
    StatRegistry stats;
    std::uint64_t events = 0;
    double occupancy = 0.0;
    Histogram latency{0.0, 10.0, 10};

    Fixture()
    {
        static constexpr StatDef rows[] = {
            StatDef::counter("sim.events", "events executed",
                             [](const Fixture &f) { return f.events; }),
            StatDef::scalar("acc.conv0.occupancy", "busy fraction",
                            [](const Fixture &f) { return f.occupancy; }),
            StatDef::histogram("serve.latency_ms", "latency",
                               [](const Fixture &f) { return &f.latency; }),
        };
        stats.bind(rows, this);
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(bool(in)) << path;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return text;
}

/** The sample value of @p metric in @p text — matched at line start
 *  so the `# TYPE` comment lines cannot shadow the sample. */
double
sampleValue(const std::string &text, const std::string &metric)
{
    const std::string needle = "\n" + metric + " ";
    auto pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << metric;
    if (pos == std::string::npos)
        return -1.0;
    return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

} // namespace

TEST(ExpositionTest, SanitizeName)
{
    EXPECT_EQ(StatExposition::sanitizeName("serve.realtime.miss_rate"),
              "serve_realtime_miss_rate");
    EXPECT_EQ(StatExposition::sanitizeName("a-b c:d"), "a_b_c:d");
}

TEST(ExpositionTest, RendersTypedMetrics)
{
    Fixture f;
    f.events = 42;
    f.occupancy = 0.5;
    f.latency.sample(2.0);
    f.latency.sample(4.0);

    ExpositionConfig config;
    config.period = fromMs(1.0);
    StatExposition expo(f.sim, f.stats, config);
    expo.snapshotNow();

    ASSERT_EQ(expo.numSnapshots(), 1u);
    const std::string &text = expo.snapshots()[0];
    EXPECT_NE(text.find("# TYPE relief_sim_events_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("relief_sim_events_total 42"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE relief_acc_conv0_occupancy gauge"),
              std::string::npos);
    EXPECT_NE(text.find("relief_acc_conv0_occupancy 0.5"),
              std::string::npos);
    // Histograms render as Prometheus summaries.
    EXPECT_NE(text.find("# TYPE relief_serve_latency_ms summary"),
              std::string::npos);
    EXPECT_NE(text.find(
                  "relief_serve_latency_ms{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("relief_serve_latency_ms_count 2"),
              std::string::npos);
    // Snapshot metadata.
    EXPECT_NE(text.find("relief_exposition_snapshots 1"),
              std::string::npos);
}

TEST(ExpositionTest, PeriodicSnapshotsAndDeltaRates)
{
    Fixture f;
    ExpositionConfig config;
    config.period = fromMs(1.0);
    StatExposition expo(f.sim, f.stats, config);

    // Advance the counter by 1000 per millisecond while keeping the
    // event queue alive for 3 ms of sim time.
    for (int ms = 1; ms <= 3; ++ms) {
        f.sim.at(fromMs(double(ms)) - 1,
                 [&f] { f.events += 1000; }, "test.bump");
    }
    expo.start();
    f.sim.run(fromMs(3.5));

    // t=0 plus one per period while events remained pending.
    ASSERT_GE(expo.numSnapshots(), 3u);

    // Counters are monotone across snapshots.
    double prev = 0.0;
    for (const std::string &snap : expo.snapshots()) {
        double value = sampleValue(snap, "relief_sim_events_total");
        EXPECT_GE(value, prev);
        prev = value;
    }

    // The second snapshot carries a finite positive delta rate:
    // 1000 events in 1 ms = 1e6 events/s.
    double rate =
        sampleValue(expo.snapshots()[1], "relief_sim_events_per_sec");
    EXPECT_NEAR(rate, 1.0e6, 1.0);
}

TEST(ExpositionTest, LivenessPredicateStopsRepublishing)
{
    Fixture f;
    ExpositionConfig config;
    config.period = fromMs(1.0);
    StatExposition expo(f.sim, f.stats, config);
    struct Flag : Liveness
    {
        bool alive() const override { return value; }
        bool value = true;
    } alive;
    f.sim.setLiveness(&alive);

    f.sim.at(fromMs(1.5), [&alive] { alive.value = false; }, "test.kill");
    expo.start();
    f.sim.run(fromMs(100.0));

    // t=0, t=1ms, t=2ms (evaluates the dead predicate, stops) — the
    // run never reaches 100 ms because nothing re-arms.
    EXPECT_EQ(expo.numSnapshots(), 3u);
    EXPECT_LT(f.sim.now(), fromMs(3.0));
}

TEST(ExpositionTest, AtomicFilePublicationAndSeries)
{
    Fixture f;
    ExpositionConfig config;
    config.path = ::testing::TempDir() + "relief_expo_test.prom";
    config.period = fromMs(1.0);
    config.series = true;
    std::remove(config.path.c_str());
    std::remove((config.path + ".tmp").c_str());
    std::remove((config.path + ".0").c_str());
    std::remove((config.path + ".1").c_str());

    StatExposition expo(f.sim, f.stats, config);
    f.events = 7;
    expo.snapshotNow();
    f.events = 9;
    expo.snapshotNow();

    // The scrape file holds the latest snapshot, no .tmp remains.
    const std::string latest = readFile(config.path);
    EXPECT_NE(latest.find("relief_sim_events_total 9"),
              std::string::npos);
    EXPECT_FALSE(bool(std::ifstream(config.path + ".tmp")));

    // Both snapshots were retained as series files.
    EXPECT_NE(readFile(config.path + ".0")
                  .find("relief_sim_events_total 7"),
              std::string::npos);
    EXPECT_NE(readFile(config.path + ".1")
                  .find("relief_sim_events_total 9"),
              std::string::npos);

    std::remove(config.path.c_str());
    std::remove((config.path + ".0").c_str());
    std::remove((config.path + ".1").c_str());
}

TEST(ExpositionTest, CounterBoundAfterASnapshotRatesFromZero)
{
    Fixture f;
    ExpositionConfig config;
    StatExposition expo(f.sim, f.stats, config);
    expo.snapshotNow();

    static constexpr StatDef late[] = {
        StatDef::counter("late.events", "bound after a snapshot",
                         [](const Fixture &g) { return g.events; }),
    };
    f.stats.bind(late, &f);
    f.events = 5;
    f.sim.at(fromMs(1.0), [&expo] { expo.snapshotNow(); }, "test.snap");
    f.sim.run();

    ASSERT_EQ(expo.numSnapshots(), 2u);
    const std::string &text = expo.snapshots()[1];
    // Both counters moved 0 -> 5 over 1 ms.
    EXPECT_NEAR(sampleValue(text, "relief_sim_events_per_sec"), 5000.0,
                1e-6);
    EXPECT_NEAR(sampleValue(text, "relief_late_events_per_sec"), 5000.0,
                1e-6);
}
