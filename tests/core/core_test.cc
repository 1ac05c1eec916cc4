/** @file Tests for the Soc facade, configuration knobs, and the
 *  Section VII / ablation extensions. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/experiment.hh"
#include "core/periodic.hh"
#include "sched/relief.hh"
#include "stats/json_reader.hh"

namespace relief
{
namespace
{

TEST(SocConfigTest, DefaultsMatchTableVI)
{
    SocConfig config;
    EXPECT_EQ(config.policy, PolicyKind::Relief);
    EXPECT_EQ(config.fabric, FabricKind::Bus);
    for (int count : config.instances)
        EXPECT_EQ(count, 1);
    EXPECT_DOUBLE_EQ(config.mem.peakGBs, 12.8);
    EXPECT_DOUBLE_EQ(config.bus.bandwidthGBs, 14.9);
    EXPECT_EQ(config.spmPartitions, 3);
    EXPECT_TRUE(config.reliefFeasibilityCheck);
}

TEST(SocTest, BuildsSevenAcceleratorsByDefault)
{
    Soc soc;
    EXPECT_EQ(soc.accelerators().size(), 7u);
    for (AccType type : allAccTypes)
        EXPECT_EQ(soc.manager().instanceCount(type), 1);
}

TEST(SocTest, InstanceCountsAreHonored)
{
    SocConfig config;
    config.instances[accIndex(AccType::ElemMatrix)] = 3;
    Soc soc(config);
    EXPECT_EQ(soc.accelerators().size(), 9u);
    EXPECT_EQ(soc.manager().instanceCount(AccType::ElemMatrix), 3);
}

TEST(SocTest, SpmPartitionKnobApplies)
{
    SocConfig config;
    config.spmPartitions = 2;
    Soc soc(config);
    for (Accelerator *acc : soc.accelerators())
        EXPECT_EQ(acc->spm().numPartitions(), 2);
}

TEST(SocTest, SpmSizesFollowTableI)
{
    Soc soc;
    for (Accelerator *acc : soc.accelerators()) {
        EXPECT_EQ(acc->spm().config().sizeBytes,
                  defaultSpmBytes(acc->type()))
            << accTypeName(acc->type());
    }
}

TEST(SocTest, ReportBeforeRunIsEmpty)
{
    Soc soc;
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.nodesFinished, 0u);
    EXPECT_EQ(report.dramBytes, 0u);
    EXPECT_TRUE(report.apps.empty());
}

TEST(ReliefHetSchedTest, FactoryAndScheme)
{
    auto policy = makePolicy(PolicyKind::ReliefHetSched);
    EXPECT_EQ(policy->kind(), PolicyKind::ReliefHetSched);
    EXPECT_EQ(policy->name(), "RELIEF-HS");
    EXPECT_EQ(policy->deadlineScheme(), DeadlineScheme::Sdr);
}

TEST(ReliefHetSchedTest, RunsMixesAndKeepsForwardingAdvantage)
{
    // Section VII: RELIEF over SDR laxity should keep most of the data
    // movement advantage over plain HetSched.
    MetricsReport hs = runMixPolicy("GHL", PolicyKind::ReliefHetSched);
    MetricsReport hetsched = runMixPolicy("GHL", PolicyKind::HetSched);
    EXPECT_GT(hs.forwardFraction(), hetsched.forwardFraction() * 1.5);
    EXPECT_EQ(hs.run.forwards + hs.run.colocations + hs.run.dramEdges,
              hs.run.edgesConsumed);
}

TEST(ReliefGreedyTest, DisablingFeasibilityStillCompletes)
{
    ExperimentConfig config;
    config.soc.policy = PolicyKind::Relief;
    config.soc.reliefFeasibilityCheck = false;
    config.mix = "CGL";
    MetricsReport greedy = runExperiment(config);
    EXPECT_EQ(greedy.run.forwards + greedy.run.colocations +
                  greedy.run.dramEdges,
              greedy.run.edgesConsumed);
    // Greedy promotion never yields fewer forwards than throttled
    // RELIEF — the check only ever suppresses promotions.
    config.soc.reliefFeasibilityCheck = true;
    MetricsReport throttled = runExperiment(config);
    EXPECT_GE(greedy.run.forwards + greedy.run.colocations + 1,
              throttled.run.forwards + throttled.run.colocations);
}

TEST(ReliefGreedyTest, FeasibilityCheckProtectsDeadlinesUnderPressure)
{
    // The motivating scenario from the integration suite: an urgent
    // single-node DAG vs a loose chain of forwarding candidates. With
    // the check disabled the urgent deadline is at risk; with it
    // enabled it must hold.
    auto run_urgent = [](bool check) {
        SocConfig config;
        config.policy = PolicyKind::Relief;
        config.reliefFeasibilityCheck = check;
        config.manager.computeJitter = 0.0;
        Soc soc(config);

        auto chain = std::make_shared<Dag>("loose", 'X');
        Node *prev = nullptr;
        for (int i = 0; i < 8; ++i) {
            TaskParams p;
            p.type = AccType::ElemMatrix;
            p.elems = 256;
            Node *n = chain->addNode(p, "loose." + std::to_string(i));
            n->fixedRuntime = fromUs(100.0);
            if (prev)
                chain->addEdge(prev, n);
            prev = n;
        }
        chain->setRelativeDeadline(fromMs(20.0));
        chain->finalize();

        auto urgent = std::make_shared<Dag>("urgent", 'U');
        TaskParams p;
        p.type = AccType::ElemMatrix;
        p.elems = 256;
        Node *n = urgent->addNode(p, "urgent.0");
        n->fixedRuntime = fromUs(100.0);
        urgent->setRelativeDeadline(fromUs(450.0));
        urgent->finalize();

        soc.submit(chain);
        soc.submit(urgent);
        soc.run(fromMs(50.0));
        for (const AppOutcome &app : soc.report().apps)
            if (app.name == "urgent")
                return app.deadlinesMet == 1;
        return false;
    };
    EXPECT_TRUE(run_urgent(true));
    EXPECT_FALSE(run_urgent(false));
}

TEST(StatsDumpTest, ContainsEverySection)
{
    Soc soc;
    DagPtr dag = buildApp(AppId::Canny);
    soc.submit(dag);
    soc.run(fromMs(50.0));
    std::ostringstream os;
    soc.dumpStats(os);
    std::string stats = os.str();
    for (const char *key :
         {"sim.ticks", "dram.read_bytes", "fabric.occupancy",
          "soc.convolution0.tasks", "soc.elem-matrix0.spm.read_bytes",
          "manager.forwards", "manager.node_deadlines_met",
          "app.canny.iterations", "app.canny.gmean_slowdown"}) {
        EXPECT_NE(stats.find(key), std::string::npos) << key;
    }
    EXPECT_NE(stats.find("Begin Simulation Statistics"),
              std::string::npos);
}

TEST(StatsDumpTest, ValuesMatchReport)
{
    Soc soc;
    soc.submit(buildApp(AppId::Gru));
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    std::ostringstream os;
    soc.dumpStats(os);
    std::string stats = os.str();
    EXPECT_NE(stats.find("manager.colocations"), std::string::npos);
    // The colocation count printed matches the report.
    auto pos = stats.find("manager.colocations");
    auto value_str = stats.substr(pos + 44, 17);
    EXPECT_NE(value_str.find(std::to_string(report.run.colocations)),
              std::string::npos);
}

TEST(StatsDumpTest, RegistryMirrorsTheReport)
{
    Soc soc;
    soc.submit(buildApp(AppId::Gru));
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();

    const StatRegistry &stats = soc.stats();
    EXPECT_TRUE(stats.contains("sim.ticks"));
    EXPECT_EQ(stats.kind("dram.read_bytes"), StatKind::Counter);
    EXPECT_EQ(stats.kind("fabric.occupancy"), StatKind::Formula);
    EXPECT_EQ(stats.kind("manager.queue_wait_us"), StatKind::Histogram);
    EXPECT_EQ(stats.value("manager.colocations"),
              double(report.run.colocations));
    EXPECT_EQ(stats.value("dram.read_bytes") +
                  stats.value("dram.write_bytes"),
              double(report.dramBytes));
    // Every launch left one queue-wait sample.
    EXPECT_GE(stats.histogram("manager.queue_wait_us").count(),
              report.run.nodesFinished);
    EXPECT_GT(stats.histogram("manager.queue_wait_us").count(), 0u);
}

TEST(StatsDumpTest, JsonExportIsValid)
{
    Soc soc;
    soc.submit(buildApp(AppId::Canny));
    soc.run(fromMs(50.0));
    std::ostringstream os;
    soc.writeStatsJson(os);
    std::string json = os.str();
    EXPECT_NO_THROW(JsonValue::parse(json)) << json.substr(0, 400);
    EXPECT_NE(json.find("\"schema\": \"relief-stats-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"dram.read_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"apps\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"canny\""), std::string::npos);
}

TEST(ExperimentTest, RunMixPolicyIsAThinWrapper)
{
    MetricsReport a = runMixPolicy("C", PolicyKind::Fcfs);
    ExperimentConfig config;
    config.soc.policy = PolicyKind::Fcfs;
    config.mix = "C";
    MetricsReport b = runExperiment(config);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.execTime, b.execTime);
}

TEST(AppOutcomeTest, SlowdownStatistics)
{
    AppOutcome outcome;
    EXPECT_TRUE(outcome.starved());
    EXPECT_TRUE(std::isinf(outcome.meanSlowdown()));
    outcome.iterations = 2;
    outcome.slowdowns = {0.5, 2.0};
    EXPECT_FALSE(outcome.starved());
    EXPECT_NEAR(outcome.meanSlowdown(), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(outcome.maxSlowdown(), 2.0);
}

TEST(PeriodicTest, SubmitsOneInstancePerPeriod)
{
    Soc soc;
    PeriodicConfig config;
    config.app = AppId::Canny;
    config.period = fromMs(5.0);
    config.count = 3;
    auto dags = submitPeriodic(soc, config);
    ASSERT_EQ(dags.size(), 3u);
    soc.run(fromMs(60.0));
    for (std::size_t i = 0; i < dags.size(); ++i) {
        EXPECT_TRUE(dags[i]->complete());
        EXPECT_EQ(dags[i]->arrivalTick(), Tick(i) * fromMs(5.0));
    }
}

TEST(PeriodicTest, OffsetShiftsArrivals)
{
    Soc soc;
    PeriodicConfig config;
    config.app = AppId::Gru;
    config.count = 1;
    config.offset = fromMs(2.0);
    auto dags = submitPeriodic(soc, config);
    soc.run(fromMs(60.0));
    EXPECT_EQ(dags[0]->arrivalTick(), fromMs(2.0));
}

TEST(PeriodicTest, AggregateMergesInstancesByName)
{
    Soc soc;
    PeriodicConfig config;
    config.app = AppId::Canny;
    config.period = fromMs(17.0);
    config.count = 2;
    submitPeriodic(soc, config);
    soc.run(fromMs(60.0));
    auto apps = aggregateApps(soc.report());
    ASSERT_EQ(apps.size(), 1u);
    const AppOutcome &canny = apps.at("canny");
    EXPECT_EQ(canny.iterations, 2);
    EXPECT_EQ(canny.slowdowns.size(), 2u);
    EXPECT_EQ(canny.deadlinesMet, 2);
}

TEST(PeriodicTest, InstancesGetDistinctSeeds)
{
    Soc soc;
    PeriodicConfig config;
    config.app = AppId::Canny;
    config.count = 2;
    config.appConfig.functional = true;
    auto dags = submitPeriodic(soc, config);
    soc.run(fromMs(60.0));
    ASSERT_TRUE(dags[0]->complete() && dags[1]->complete());
    EXPECT_NE(dags[0]->leaves().front()->outputData,
              dags[1]->leaves().front()->outputData);
}

TEST(MetricsReportTest, TrafficFractionsGuardDivisionByZero)
{
    MetricsReport report;
    EXPECT_DOUBLE_EQ(report.dramTrafficFraction(), 0.0);
    EXPECT_DOUBLE_EQ(report.spmTrafficFraction(), 0.0);
    EXPECT_DOUBLE_EQ(report.forwardFraction(), 0.0);
}

} // namespace
} // namespace relief
