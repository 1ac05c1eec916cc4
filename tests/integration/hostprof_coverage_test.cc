/**
 * @file
 * End-to-end HostProf attribution over full mix runs: the acceptance
 * bar is that at least 90% of the measured host wall time is
 * attributed to a category on every tier-1 mix (the rest is clock
 * granularity and unscoped glue).
 */

#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hh"
#include "core/soc.hh"
#include "sim/hostprof.hh"

namespace relief
{
namespace
{

TEST(HostProfCoverageTest, TierOneMixesAttributeMostOfTheWall)
{
    for (const std::string mix : {"CDL", "GHL", "CG"}) {
        setHostProfEnabled(true);
        MetricsReport report =
            runMixPolicy(mix, PolicyKind::Relief, false);
        setHostProfEnabled(false);
        HostProfSnapshot snap = hostProfSnapshot();

        EXPECT_GT(report.run.dagsFinished, 0) << mix;
        EXPECT_GT(snap.totalWallNs, 0u) << mix;
        EXPECT_GE(snap.coverage(), 0.9) << mix;
        EXPECT_LE(snap.coverage(), 1.0) << mix;

        // The run went through the event loop, so the model
        // categories must all have been exercised.
        std::uint64_t tagged = 0;
        for (HostCat cat : {HostCat::Sched, HostCat::Dma, HostCat::Mem,
                            HostCat::Kernels})
            tagged +=
                snap.cats[static_cast<std::size_t>(cat)].wallNs;
        EXPECT_GT(tagged, 0u) << mix;
    }
}

TEST(HostProfCoverageTest, ReportIsChargedToStats)
{
    // The report runs after the last event; without its own span its
    // time would be attributed to nothing and dent coverage.
    setHostProfEnabled(true);
    Soc soc{SocConfig{}};
    for (AppId app : parseMix("CG"))
        soc.submit(buildApp(app), 0, false);
    soc.run();
    const auto stats = static_cast<std::size_t>(HostCat::Stats);
    std::uint64_t before = hostProfSnapshot().cats[stats].wallNs;
    soc.report();
    std::uint64_t after = hostProfSnapshot().cats[stats].wallNs;
    setHostProfEnabled(false);
    EXPECT_GT(after, before);
}

TEST(HostProfCoverageTest, ProfilingOffLeavesNoResidue)
{
    // A plain run with profiling off must not disturb a later
    // profiled run's books (thread-local state fully resets).
    runMixPolicy("CG", PolicyKind::Relief, false);
    setHostProfEnabled(true);
    runMixPolicy("CG", PolicyKind::Relief, false);
    setHostProfEnabled(false);
    HostProfSnapshot snap = hostProfSnapshot();
    EXPECT_GE(snap.coverage(), 0.9);
}

TEST(HostProfCoverageTest, TimingOnlyRunChargesNothingToKernels)
{
    // Compute-done events run the manager's completion handling, which
    // is scheduler work; with no functional payloads no kernel runs.
    setHostProfEnabled(true);
    MetricsReport report = runMixPolicy("CG", PolicyKind::Relief, false);
    setHostProfEnabled(false);
    HostProfSnapshot snap = hostProfSnapshot();
    const auto kernels = static_cast<std::size_t>(HostCat::Kernels);
    EXPECT_GT(report.run.nodesFinished, 0u);
    EXPECT_EQ(snap.cats[kernels].events, 0u);
    EXPECT_EQ(snap.cats[kernels].wallNs, 0u);
}

TEST(HostProfCoverageTest, FunctionalRunChargesKernels)
{
    ExperimentConfig config;
    config.mix = "CG";
    config.app.functional = true;
    setHostProfEnabled(true);
    runExperiment(config);
    setHostProfEnabled(false);
    HostProfSnapshot snap = hostProfSnapshot();
    const auto kernels = static_cast<std::size_t>(HostCat::Kernels);
    EXPECT_GT(snap.cats[kernels].wallNs, 0u);
}

} // namespace
} // namespace relief
