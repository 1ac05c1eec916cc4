/** @file Unit tests for the CLI option parser. */

#include <gtest/gtest.h>

#include <fstream>

#include "core/cli.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

TEST(CliTest, DefaultsWhenNoFlags)
{
    ExperimentConfig config = parseCliOptions({});
    EXPECT_EQ(config.mix, "C");
    EXPECT_EQ(config.soc.policy, PolicyKind::Relief);
    EXPECT_FALSE(config.continuous);
    EXPECT_EQ(config.timeLimit, fromMs(50.0));
}

TEST(CliTest, ParsesMixAndPolicy)
{
    auto config = parseCliOptions({"--mix", "GHL", "--policy", "LAX"});
    EXPECT_EQ(config.mix, "GHL");
    EXPECT_EQ(config.soc.policy, PolicyKind::Lax);
}

TEST(CliTest, ParsesEveryPolicyName)
{
    for (PolicyKind kind : allPolicies)
        EXPECT_EQ(policyFromName(policyName(kind)), kind);
    EXPECT_EQ(policyFromName("RELIEF-HS"), PolicyKind::ReliefHetSched);
    EXPECT_THROW(policyFromName("NOPE"), FatalError);
}

TEST(CliTest, ParsesContinuousAndLimit)
{
    auto config =
        parseCliOptions({"--continuous", "--limit-ms", "12.5"});
    EXPECT_TRUE(config.continuous);
    EXPECT_EQ(config.timeLimit, fromMs(12.5));
}

TEST(CliTest, ParsesFabric)
{
    EXPECT_EQ(parseCliOptions({"--fabric", "xbar"}).soc.fabric,
              FabricKind::Crossbar);
    EXPECT_EQ(parseCliOptions({"--fabric", "bus"}).soc.fabric,
              FabricKind::Bus);
    EXPECT_THROW(parseCliOptions({"--fabric", "mesh"}), FatalError);
}

TEST(CliTest, ParsesInstanceSpecs)
{
    auto config = parseCliOptions({"--instances", "EM=3,C=2"});
    EXPECT_EQ(config.soc.instances[accIndex(AccType::ElemMatrix)], 3);
    EXPECT_EQ(config.soc.instances[accIndex(AccType::Convolution)], 2);
    EXPECT_EQ(config.soc.instances[accIndex(AccType::ISP)], 1);
    EXPECT_THROW(parseCliOptions({"--instances", "EM"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--instances", "XX=2"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--instances", "EM=0"}), FatalError);
}

TEST(CliTest, ParsesMemoryKnobs)
{
    auto config = parseCliOptions(
        {"--banked-memory", "--mem-efficiency", "0.7"});
    EXPECT_TRUE(config.soc.bankedMemory);
    EXPECT_DOUBLE_EQ(config.soc.mem.efficiency, 0.7);
    EXPECT_THROW(parseCliOptions({"--mem-efficiency", "1.5"}),
                 FatalError);
}

TEST(CliTest, ParsesPredictors)
{
    auto config = parseCliOptions(
        {"--bw-predictor", "ewma", "--dm-predictor", "graph"});
    EXPECT_EQ(config.soc.bwPredictor, BwPredictorKind::Ewma);
    EXPECT_EQ(config.soc.dmPredictor, DmPredictorKind::Graph);
    EXPECT_THROW(parseCliOptions({"--bw-predictor", "oracle"}),
                 FatalError);
}

TEST(CliTest, ParsesToggles)
{
    auto config = parseCliOptions({"--no-feasibility", "--no-forwarding",
                                   "--functional", "--seed", "9",
                                   "--spm-partitions", "2"});
    EXPECT_FALSE(config.soc.reliefFeasibilityCheck);
    EXPECT_FALSE(config.soc.manager.forwardingEnabled);
    EXPECT_TRUE(config.app.functional);
    EXPECT_EQ(config.app.seed, 9u);
    EXPECT_EQ(config.soc.spmPartitions, 2);
}

TEST(CliTest, RejectsUnknownFlagsAndBadMixes)
{
    EXPECT_THROW(parseCliOptions({"--bogus"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--mix", "XYZ"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--mix"}), FatalError);
}

TEST(CliTest, RejectsRemovedKernelIsaFlag)
{
    // There is one kernel path; the old backend selector is an unknown flag.
    EXPECT_THROW(parseCliOptions({"--kernel-isa", "scalar"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--kernel-isa"}), FatalError);
}

TEST(CliTest, AccTypeSymbols)
{
    EXPECT_EQ(accTypeFromSymbol("EM"), AccType::ElemMatrix);
    EXPECT_EQ(accTypeFromSymbol("CNM"), AccType::CannyNonMax);
    EXPECT_THROW(accTypeFromSymbol("Q"), FatalError);
}

TEST(CliTest, ConfigFileSplicesFlags)
{
    std::string path = ::testing::TempDir() + "/relief_cli_test.cfg";
    {
        std::ofstream out(path);
        out << "# experiment setup\n";
        out << "--mix GHL   # the forwarding-heavy triple\n";
        out << "--policy LAX\n";
        out << "--spm-partitions 2 --continuous\n";
    }
    auto config = parseCliOptions({"--config", path});
    EXPECT_EQ(config.mix, "GHL");
    EXPECT_EQ(config.soc.policy, PolicyKind::Lax);
    EXPECT_EQ(config.soc.spmPartitions, 2);
    EXPECT_TRUE(config.continuous);
}

TEST(CliTest, CommandLineOverridesConfigFileWhenLater)
{
    std::string path = ::testing::TempDir() + "/relief_cli_test2.cfg";
    {
        std::ofstream out(path);
        out << "--policy LAX\n";
    }
    auto config =
        parseCliOptions({"--config", path, "--policy", "RELIEF"});
    EXPECT_EQ(config.soc.policy, PolicyKind::Relief);
}

TEST(CliTest, MissingOrNestedConfigRejected)
{
    EXPECT_THROW(parseCliOptions({"--config"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--config", "/no/such/file.cfg"}),
                 FatalError);
    std::string path = ::testing::TempDir() + "/relief_cli_nested.cfg";
    {
        std::ofstream out(path);
        out << "--config other.cfg\n";
    }
    EXPECT_THROW(parseCliOptions({"--config", path}), FatalError);
}

TEST(CliTest, ParsesDmaBurst)
{
    auto config = parseCliOptions({"--dma-burst", "4096"});
    EXPECT_EQ(config.soc.dma.burstBytes, 4096u);
    EXPECT_THROW(parseCliOptions({"--dma-burst", "-4"}), FatalError);
}

TEST(CliTest, ParsesStreamForwarding)
{
    auto config = parseCliOptions({"--stream-forwarding"});
    EXPECT_EQ(config.soc.manager.forwardMechanism,
              ForwardMechanism::StreamBuffer);
}

TEST(CliTest, ParsesStatsJsonPath)
{
    EXPECT_EQ(parseCliOptions({}).statsJsonPath, "");
    auto config = parseCliOptions({"--stats-json", "out.json"});
    EXPECT_EQ(config.statsJsonPath, "out.json");
    EXPECT_THROW(parseCliOptions({"--stats-json"}), FatalError);
}

TEST(CliTest, ParsesLatencyBreakdown)
{
    EXPECT_FALSE(parseCliOptions({}).latencyBreakdown);
    EXPECT_TRUE(
        parseCliOptions({"--latency-breakdown"}).latencyBreakdown);
}

TEST(CliTest, DebugFlagsAreAppliedImmediately)
{
    clearDebugFlags();
    auto config = parseCliOptions({"--debug-flags", "Sched,Dma"});
    EXPECT_EQ(config.debugFlags, "Sched,Dma");
    EXPECT_TRUE(debugFlagEnabled(DebugFlag::Sched));
    EXPECT_TRUE(debugFlagEnabled(DebugFlag::Dma));
    EXPECT_FALSE(debugFlagEnabled(DebugFlag::Mem));
    clearDebugFlags();
}

TEST(CliTest, UnknownDebugFlagIsFatal)
{
    clearDebugFlags();
    EXPECT_THROW(parseCliOptions({"--debug-flags", "Sched,Typo"}),
                 FatalError);
    clearDebugFlags();
}

TEST(CliTest, ParsedConfigActuallyRuns)
{
    auto config = parseCliOptions({"--mix", "G", "--policy", "RELIEF-HS",
                                   "--banked-memory", "--limit-ms",
                                   "50"});
    MetricsReport report = runExperiment(config);
    EXPECT_GT(report.run.nodesFinished, 0u);
}

} // namespace
} // namespace relief
