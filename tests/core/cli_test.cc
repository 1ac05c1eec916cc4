/** @file Unit tests for the flag table and the drivers' flags. */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>

#include "core/cli.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

/** @p args through the experiment rows relief_sim and relief_compare
 *  share. */
ExperimentConfig
parseCliOptions(const std::vector<std::string> &args)
{
    ExperimentConfig config;
    std::string workload_path;
    FlagTable flags("cli_test");
    addExperimentFlags(flags, config, workload_path);
    flags.parse(args);
    return config;
}

/** Exit status and combined stdout/stderr of one relief_sim run. */
struct DriverRun
{
    int status = -1;
    std::string output;
};

DriverRun
runReliefSim(const std::string &args)
{
    std::string command =
        std::string(RELIEF_SIM_BINARY) + " " + args + " 2>&1";
    FILE *pipe = popen(command.c_str(), "r");
    DriverRun run;
    if (!pipe)
        return run;
    char buffer[4096];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        run.output.append(buffer, n);
    int status = pclose(pipe);
    run.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

bool
contains(const std::string &text, const std::string &part)
{
    return text.find(part) != std::string::npos;
}

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
    // relief_sim's own row: no document unless asked, and a path is
    // required.
    EXPECT_FALSE(contains(runReliefSim("--mix C").output, "JSON stats"));
    std::string path = ::testing::TempDir() + "/relief_cli_stats.json";
    DriverRun run = runReliefSim("--mix C --stats-json " + path);
    EXPECT_EQ(run.status, 0);
    EXPECT_TRUE(contains(run.output, "JSON stats written to " + path));
    EXPECT_TRUE(std::ifstream(path).good());
    run = runReliefSim("--mix C --stats-json");
    EXPECT_EQ(run.status, 1);
    EXPECT_TRUE(contains(run.output, "flag --stats-json needs a value"));
}

TEST(CliTest, ParsesLatencyBreakdown)
{
    const std::string table = "Per-DAG critical-path latency attribution";
    EXPECT_FALSE(contains(runReliefSim("--mix C").output, table));
    DriverRun run = runReliefSim("--mix C --latency-breakdown");
    EXPECT_EQ(run.status, 0);
    EXPECT_TRUE(contains(run.output, table));
}

TEST(CliTest, DebugFlagsAreAppliedImmediately)
{
    clearDebugFlags();
    parseCliOptions({"--debug-flags", "Sched,Dma"});
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

TEST(CliTest, RejectsValuesThatAreNotWholeNumbers)
{
    // Each value is a number only in part, or out of range.
    EXPECT_THROW(parseCliOptions({"--seed", "abc"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--seed", "-1"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--seed", "4294967296"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--dma-burst", "1k"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--instances", "C=2x"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--limit-ms", "5ms"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--limit-ms", "inf"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--spm-partitions", "2.5"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--mem-efficiency", "nan"}), FatalError);
    EXPECT_THROW(parseCliOptions({"--submit-latency-us", ""}), FatalError);
    EXPECT_EQ(parseCliOptions({"--seed", "4294967295"}).app.seed,
              4294967295u);
}

TEST(CliTest, NumberErrorsNameTheInputAndTheValue)
{
    try {
        parseNumber<std::uint32_t>("flag --seed", "abc");
        FAIL() << "no FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "flag --seed needs an integer in "
                               "[0, 4294967295], got 'abc'");
    }
    try {
        parseNumber<double>("flag --rate", "10rps", positive);
        FAIL() << "no FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "flag --rate needs a number > 0, got '10rps'");
    }
    EXPECT_DOUBLE_EQ(parseNumber<double>("x", "0.5", Range{0.0, 1.0, true}),
                     0.5);
    EXPECT_THROW(parseNumber<double>("x", "0", Range{0.0, 1.0, true}),
                 FatalError);
    EXPECT_EQ(parseNumber<int>("x", "-7"), -7);
    EXPECT_THROW(parseNumber<int>("x", "99999999999"), FatalError);
}

TEST(CliTest, TableAppliesRowsInOrderAndPrintsHelp)
{
    std::vector<std::string> pair;
    bool on = false;
    int n = 0;
    FlagTable flags("tool");
    flags.add("--pair", "A B", "two values", [&](FlagValues v) {
            pair.assign(v.begin(), v.end());
        })
        .toggle("--on", "a switch", on)
        .number("--n", "N", "a count", n, atLeastOne);
    EXPECT_TRUE(flags.parse({"--n", "2", "--pair", "x", "y", "--on",
                             "--n", "3"}));
    EXPECT_EQ(pair, (std::vector<std::string>{"x", "y"}));
    EXPECT_TRUE(on);
    EXPECT_EQ(n, 3);
    EXPECT_THROW(flags.parse({"--pair", "x"}), FatalError);
    EXPECT_THROW(flags.parse({"--config", "x.cfg"}), FatalError);
    EXPECT_EQ(flags.usage(), "usage: tool [--pair A B] [--on] [--n N]");
    std::string help = flags.help();
    EXPECT_TRUE(contains(help, "\n  --pair A B  two values\n"));
    EXPECT_TRUE(contains(help, "\n  -h, --help  print this help"));
    testing::internal::CaptureStdout();
    EXPECT_FALSE(flags.parse({"--on", "--help", "--bogus"}));
    EXPECT_EQ(testing::internal::GetCapturedStdout(), help);
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
