/**
 * @file
 * Tests for the serving driver: request-count conservation, the
 * determinism contract (a report is a pure function of config and
 * seed), deadline-miss and shedding accounting, stat registration,
 * and the relief-serve-v1 run serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "core/parallel.hh"
#include "dag/apps/apps.hh"
#include "serve/server.hh"
#include "sim/logging.hh"
#include "stats/json.hh"
#include "trace/sampler.hh"

namespace relief
{
namespace
{

ServeConfig
smallConfig()
{
    ServeConfig config;
    config.arrival.ratePerSec = 2000.0;
    config.horizon = fromMs(10.0);
    config.seed = 5;
    return config;
}

std::string
runJson(const ServeReport &report)
{
    std::ostringstream out;
    JsonWriter w(out);
    writeServeRunJson(w, report, "FCFS", "admit-all", "poisson", 1.0,
                      2000.0);
    return out.str();
}

TEST(ServeDriverTest, ConservesRequestCounts)
{
    ServeDriver driver(smallConfig());
    ServeReport report = driver.run();

    EXPECT_EQ(report.total.offered, driver.schedule().size());
    EXPECT_GT(report.total.offered, 0u);
    EXPECT_EQ(report.total.offered, report.total.admitted +
                                        report.total.shed +
                                        report.total.rejected);
    EXPECT_EQ(report.total.admitted,
              report.total.completed + report.total.inFlight);

    // Per-class counters must sum to the totals.
    std::uint64_t offered = 0, completed = 0, missed = 0;
    for (const ClassSlo &cls : report.classes) {
        offered += cls.offered;
        completed += cls.completed;
        missed += cls.missed;
    }
    EXPECT_EQ(offered, report.total.offered);
    EXPECT_EQ(completed, report.total.completed);
    EXPECT_EQ(missed, report.total.missed);

    // Request records agree with the aggregate counters.
    std::uint64_t finished = 0;
    for (const ServeRequest &request : driver.requests())
        if (request.finished) {
            ++finished;
            EXPECT_GE(request.finish, request.arrival);
        }
    EXPECT_EQ(finished, report.total.completed);
}

TEST(ServeDriverTest, ReportIsPureFunctionOfConfigAndSeed)
{
    ServeConfig config = smallConfig();
    ServeDriver first(config);
    ServeDriver second(config);
    std::string a = runJson(first.run());
    std::string b = runJson(second.run());
    EXPECT_EQ(a, b);

    config.seed = 6;
    ServeDriver third(config);
    EXPECT_NE(a, runJson(third.run()));
}

TEST(ServeDriverTest, ImpossibleDeadlinesAreAllMisses)
{
    ServeConfig config = smallConfig();
    // Deadlines ~100x tighter than the service time: every completion
    // must be a miss, and goodput must be zero.
    for (QosClassConfig &cls : config.classes)
        cls.deadlineScale = 0.01;
    ServeDriver driver(config);
    ServeReport report = driver.run();
    ASSERT_GT(report.total.completed, 0u);
    EXPECT_EQ(report.total.missed, report.total.completed);
    EXPECT_EQ(report.total.goodputRps(), 0.0);
    EXPECT_EQ(report.total.missRate(), 1.0);
}

TEST(ServeDriverTest, QueueCapSheds)
{
    ServeConfig config = smallConfig();
    config.admission.kind = AdmissionKind::QueueCap;
    config.admission.queueCap = 1;
    ServeDriver driver(config);
    ServeReport report = driver.run();
    EXPECT_GT(report.total.shed, 0u);
    EXPECT_EQ(report.total.rejected, 0u);
    EXPECT_GT(report.total.shedRate(), 0.0);
}

TEST(ServeDriverTest, LaxityRejects)
{
    ServeConfig config = smallConfig();
    config.arrival.ratePerSec = 20000.0; // deep overload
    config.admission.kind = AdmissionKind::Laxity;
    ServeDriver driver(config);
    ServeReport report = driver.run();
    EXPECT_GT(report.total.rejected, 0u);
    EXPECT_EQ(report.total.shed, 0u);
}

TEST(ServeDriverTest, RegistersServeStats)
{
    ServeDriver driver(smallConfig());
    driver.run();
    std::ostringstream out;
    driver.soc().writeStatsJson(out);
    std::string json = out.str();
    EXPECT_NE(json.find("serve.offered"), std::string::npos);
    EXPECT_NE(json.find("serve.goodput_rps"), std::string::npos);
    EXPECT_NE(json.find("serve.realtime.latency_ms"), std::string::npos);
}

TEST(ServeDriverTest, RunJsonHasSloFields)
{
    ServeDriver driver(smallConfig());
    std::string json = runJson(driver.run());
    for (const char *field :
         {"\"policy\"", "\"admission\"", "\"arrival\"", "\"offered_load\"",
          "\"rate_rps\"", "\"total\"", "\"classes\"", "\"goodput_rps\"",
          "\"miss_rate\"", "\"shed_rate\"", "\"latency_ms\"", "\"p50\"",
          "\"p95\"", "\"p99\"", "\"time_in_system_ms\"", "\"realtime\"",
          "\"interactive\"", "\"batch\""})
        EXPECT_NE(json.find(field), std::string::npos) << field;
}

TEST(ServeDriverTest, PressureRollupAttributesPerQosClass)
{
    ServeDriver driver(smallConfig());
    ServeReport report = driver.run();

    // One rollup per serving class plus the ledger's implicit
    // "default" bucket (spill evictions and untagged traffic).
    ASSERT_EQ(report.pressure.size(), report.classes.size() + 1);
    EXPECT_EQ(report.pressure[0].name, "default");
    std::uint64_t tagged = 0;
    for (std::size_t i = 0; i < report.classes.size(); ++i) {
        EXPECT_EQ(report.pressure[i + 1].name, report.classes[i].name);
        tagged += report.pressure[i + 1].slot.bytes;
        // A class that completed work must have moved bytes.
        if (report.classes[i].completed > 0) {
            EXPECT_GT(report.pressure[i + 1].slot.bytes, 0u) << i;
        }
    }
    EXPECT_GT(tagged, 0u);

    // The run JSON carries the block with a row per class.
    std::string json = runJson(report);
    EXPECT_NE(json.find("\"pressure\""), std::string::npos);
    EXPECT_NE(json.find("\"wait_suffered_us\""), std::string::npos);
    EXPECT_NE(json.find("\"wait_caused_us\""), std::string::npos);
}

TEST(ServeDriverTest, SloTablePrintsEveryClass)
{
    ServeDriver driver(smallConfig());
    ServeReport report = driver.run();
    std::ostringstream out;
    printSloTable(out, report, "test run");
    std::string table = out.str();
    EXPECT_NE(table.find("realtime"), std::string::npos);
    EXPECT_NE(table.find("interactive"), std::string::npos);
    EXPECT_NE(table.find("batch"), std::string::npos);
    EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(ServeDriverTest, RejectsInvalidConfig)
{
    ServeConfig config = smallConfig();
    config.horizon = 0;
    EXPECT_THROW(ServeDriver{config}, FatalError);

    config = smallConfig();
    config.classes.clear();
    EXPECT_THROW(ServeDriver{config}, FatalError);
}

TEST(ServeDriverTest, RunIsSingleShot)
{
    ServeDriver driver(smallConfig());
    driver.run();
    EXPECT_THROW(driver.run(), PanicError);
}

/** Overload under laxity admission: many rejections between
 *  admissions, so pooled instances are refused, reused and built. */
ServeConfig
laxityOverloadConfig()
{
    ServeConfig config = smallConfig();
    config.arrival.ratePerSec = 800.0;
    config.admission.kind = AdmissionKind::Laxity;
    config.horizon = fromMs(200.0);
    return config;
}

TEST(ServeDriverTest, InstanceIdsFollowArrivalOrder)
{
    std::map<AppId, NodeId> nodes_of;
    for (AppId app : allApps)
        nodes_of[app] = NodeId(buildApp(app)->numNodes());

    ServeDriver driver(laxityOverloadConfig());
    ServeReport report = driver.run();
    ASSERT_GT(report.total.rejected, 0u);
    ASSERT_GT(report.total.admitted, 0u);
    ASSERT_LT(driver.soc().stats().value("serve.dag_builds"),
              double(report.total.admitted));

    // Every arrival consumes its app's node count of ids, whatever its
    // verdict, so request i's DAG starts where a fresh build would.
    NodeId next = 1;
    for (const ServeRequest &request : driver.requests()) {
        if (request.verdict == AdmissionVerdict::Admitted)
            EXPECT_EQ(request.firstNode, next) << "request " << request.id;
        else
            EXPECT_EQ(request.firstNode, 0u) << "request " << request.id;
        next += nodes_of[request.app];
    }
}

TEST(ServeDriverTest, RefusedRequestsTakeNoInstance)
{
    ServeConfig config = laxityOverloadConfig();
    ServeDriver driver(config);
    ServeReport report = driver.run();
    ASSERT_GT(report.total.rejected, 0u);

    // An instance is held from admission until its DAG retires, just
    // after it finishes. Pools share no instances, so a pool never
    // builds more than its peak of requests in flight, plus one first
    // instance that a refused request may have built.
    std::map<std::pair<AppId, int>, std::vector<std::pair<Tick, int>>>
        edges; // per pool: (tick, +1 admit / -1 finish)
    for (const ServeRequest &request : driver.requests()) {
        auto &pool = edges[{request.app, request.qosClass}];
        if (request.verdict != AdmissionVerdict::Admitted)
            continue;
        pool.push_back({request.arrival, +1});
        if (request.finished)
            pool.push_back({request.finish, -1});
    }
    double bound = 0.0;
    for (auto &[key, pool] : edges) {
        // At equal ticks the admission counts first: the finishing
        // instance has not retired yet.
        std::sort(pool.begin(), pool.end(), [](auto a, auto b) {
            return a.first != b.first ? a.first < b.first
                                      : a.second > b.second;
        });
        int in_flight = 0, peak = 0;
        for (const auto &[tick, step] : pool)
            peak = std::max(peak, in_flight += step);
        bound += double(peak + 1);
    }
    double builds = driver.soc().stats().value("serve.dag_builds");
    EXPECT_GE(builds, double(edges.size()));
    EXPECT_LE(builds, bound);
    EXPECT_LT(builds, double(report.total.offered));
}

TEST(ServeDriverTest, PooledRunMatchesFreshBuilds)
{
    // At a queue cap, a completion frees the slot the next arrival is
    // admitted into, and a slow ISR leaves a wide gap between a DAG's
    // completion and its retirement: an instance handed out inside
    // that gap would lose its last node's write-back and change the
    // timing of what follows.
    ServeConfig config = smallConfig();
    config.arrival.ratePerSec = 5000.0;
    config.admission.kind = AdmissionKind::QueueCap;
    config.admission.queueCap = 3;
    config.horizon = fromMs(200.0);
    config.soc.manager.isrLatency = fromUs(100.0);
    ServeDriver driver(config);
    ServeReport report = driver.run();

    // Replay the same verdicts on a fresh DAG per admitted request,
    // built at its arrival as an unpooled driver would.
    resetNodeIds();
    SocConfig soc_config = config.soc;
    for (const QosClassConfig &cls : config.classes)
        soc_config.qosClassNames.push_back(cls.name);
    Soc soc(soc_config);
    DagObserver ignore;
    soc.manager().setDagObserver(ignore);
    std::vector<DagPtr> dags(driver.requests().size());
    for (const ServeRequest &request : driver.requests()) {
        soc.sim().at(request.arrival, HostCat::Serve, [&] {
            DagPtr dag = buildApp(
                request.app, config.app,
                config.classes[std::size_t(request.qosClass)].deadlineScale);
            if (request.verdict != AdmissionVerdict::Admitted)
                return;
            dag->setSpanContext(request.id + 1);
            dag->setQosClass(request.qosClass + 1);
            soc.manager().submitDag(dag.get(), soc.sim().now());
            dags[request.id] = dag;
        });
    }
    soc.run(config.horizon);

    std::size_t finished = 0;
    for (const ServeRequest &request : driver.requests()) {
        const DagPtr &dag = dags[request.id];
        ASSERT_EQ(bool(dag), request.verdict == AdmissionVerdict::Admitted);
        if (!dag)
            continue;
        ASSERT_EQ(dag->complete(), request.finished) << request.id;
        if (request.finished) {
            EXPECT_EQ(dag->finishTick(), request.finish) << request.id;
            ++finished;
        }
    }
    EXPECT_GT(finished, 10u);
    // The same traffic reached DRAM and the scratchpads.
    const RunMetrics &pooled = driver.soc().manager().metrics();
    const RunMetrics &fresh = soc.manager().metrics();
    EXPECT_EQ(driver.soc().dram().totalBytes(), soc.dram().totalBytes());
    EXPECT_EQ(pooled.forwards, fresh.forwards);
    EXPECT_EQ(pooled.colocations, fresh.colocations);
    EXPECT_EQ(pooled.writebacksAvoided, fresh.writebacksAvoided);
    // Some requests reused an instance.
    EXPECT_LT(driver.soc().stats().value("serve.dag_builds"),
              double(report.total.admitted));
}

/** Overloaded config that produces misses, sheds, and kept traces. */
ServeConfig
tracedConfig()
{
    ServeConfig config = smallConfig();
    config.admission.kind = AdmissionKind::QueueCap;
    config.admission.queueCap = 4;
    for (QosClassConfig &cls : config.classes)
        cls.deadlineScale = 0.05;
    config.telemetry.traceRequests = true;
    config.telemetry.okFraction = 0.25;
    return config;
}

std::string
traceJson(ServeDriver &driver, const ServeConfig &config)
{
    std::ostringstream out;
    writeTraceDocJson(out, driver.keptTraces(),
                      driver.tailSampler()->summary(),
                      config.telemetry.okFraction, config.seed,
                      toMs(config.horizon));
    return out.str();
}

TEST(ServeDriverTest, TailSamplingKeepsEveryAnomalousRequest)
{
    ServeConfig config = tracedConfig();
    ServeDriver driver(config);
    ServeReport report = driver.run();

    const TailSampleSummary &s = report.sampling;
    EXPECT_EQ(s.offered, report.total.offered);
    // Conservation: every request is counted exactly once.
    EXPECT_EQ(s.keptOk + s.keptMiss + s.dropped, s.admitted);
    EXPECT_EQ(s.admitted + s.keptShed + s.keptRejected, s.offered);
    EXPECT_EQ(driver.keptTraces().size(), s.kept());
    EXPECT_GT(s.keptMiss + s.keptShed, 0u);

    // 100% tail coverage: every deadline-missing completion has a
    // kept trace, whatever the OK sampling fraction.
    std::set<std::uint64_t> kept_ids;
    for (const RequestTrace &trace : driver.keptTraces()) {
        kept_ids.insert(trace.id);
        ASSERT_FALSE(trace.spans.empty());
        EXPECT_EQ(trace.spans[0].kind, SpanKind::Request);
        EXPECT_GE(trace.finish, trace.arrival);
    }
    for (const ServeRequest &request : driver.requests()) {
        if (!request.finished ||
            request.finish <= request.absoluteDeadline())
            continue;
        EXPECT_TRUE(kept_ids.count(request.id))
            << "missed request " << request.id << " was dropped";
    }
}

TEST(ServeDriverTest, TraceDocIsBitIdenticalAcrossWorkerCounts)
{
    // Four independent runs, serial vs. four workers: the exported
    // relief-trace-v1 strings must match byte-for-byte (the sampler
    // keep decision is a pure function of seed and request id).
    constexpr std::size_t kRuns = 4;
    std::vector<std::string> serial(kRuns), threaded(kRuns);
    auto runPoint = [](std::size_t i) {
        ServeConfig config = tracedConfig();
        config.seed = 10 + std::uint64_t(i);
        ServeDriver driver(config);
        driver.run();
        return traceJson(driver, config);
    };
    parallelFor(kRuns, 1, [&](std::size_t i) { serial[i] = runPoint(i); });
    parallelFor(kRuns, 4,
                [&](std::size_t i) { threaded[i] = runPoint(i); });
    for (std::size_t i = 0; i < kRuns; ++i) {
        EXPECT_EQ(serial[i], threaded[i]) << "run " << i;
        EXPECT_NE(serial[i].find("\"relief-trace-v1\""),
                  std::string::npos);
    }
}

TEST(ServeDriverTest, RegistersTraceAndAlertStats)
{
    ServeConfig config = tracedConfig();
    config.telemetry.alerts = true;
    ServeDriver driver(config);
    driver.run();
    std::ostringstream out;
    driver.soc().writeStatsJson(out);
    std::string json = out.str();
    for (const char *stat :
         {"serve.trace.kept_ok", "serve.trace.kept_miss",
          "serve.trace.kept_shed", "serve.trace.kept_rejected",
          "serve.trace.dropped", "serve.realtime.alert_opens",
          "serve.realtime.alert_active"})
        EXPECT_NE(json.find(stat), std::string::npos) << stat;
}

TEST(ServeDriverTest, ExpositionPublishesPeriodicSnapshots)
{
    ServeConfig config = smallConfig();
    config.telemetry.exposition.path =
        ::testing::TempDir() + "relief_serve_expo_test.prom";
    config.telemetry.exposition.period = fromMs(1.0);
    std::remove(config.telemetry.exposition.path.c_str());

    ServeDriver driver(config);
    driver.run();
    ASSERT_NE(driver.exposition(), nullptr);
    // t=0, one per elapsed millisecond, plus the end-of-run snapshot.
    EXPECT_GE(driver.exposition()->numSnapshots(), 2u);

    // The scrape file exists and carries serve counters.
    std::ifstream in(config.telemetry.exposition.path);
    ASSERT_TRUE(bool(in));
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("relief_serve_offered"), std::string::npos);
    std::remove(config.telemetry.exposition.path.c_str());
}

/** Sum of the sample lines in one exposition snapshot whose metric
 *  name ends with @p suffix; -1 when there are none. */
double
sampleSum(const std::string &snapshot, const std::string &suffix)
{
    std::istringstream in(snapshot);
    std::string line;
    double sum = -1.0;
    while (std::getline(in, line)) {
        std::size_t space = line.find(' ');
        if (line.empty() || line[0] == '#' || space < suffix.size() ||
            line.compare(space - suffix.size(), suffix.size(), suffix) != 0)
            continue;
        sum = std::max(sum, 0.0) + std::stod(line.substr(space + 1));
    }
    return sum;
}

TEST(ServeDriverTest, MidRunSnapshotsReportBusyTime)
{
    ServeConfig config = smallConfig();
    config.telemetry.exposition.path =
        ::testing::TempDir() + "relief_serve_busy_expo_test.prom";
    config.telemetry.exposition.period = fromMs(1.0);
    std::remove(config.telemetry.exposition.path.c_str());

    ServeDriver driver(config);
    driver.run();
    ASSERT_NE(driver.exposition(), nullptr);
    const std::vector<std::string> &snaps =
        driver.exposition()->snapshots();
    // t=0, at least one mid-run snapshot, and the end-of-run one.
    ASSERT_GE(snaps.size(), 3u);
    // Busy gauges clip at the snapshot's own tick: past t=0 the
    // system has moved data and computed, and the gauges only grow.
    double prev_dram = 0.0;
    for (std::size_t i = 1; i < snaps.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "snapshot " << i);
        double dram = sampleSum(snaps[i], "relief_dram_channel_busy_us");
        EXPECT_GT(dram, 0.0);
        EXPECT_GE(dram, prev_dram);
        prev_dram = dram;
        EXPECT_GT(sampleSum(snaps[i], "relief_fabric_occupancy"), 0.0);
        EXPECT_GT(sampleSum(snaps[i], "_compute_busy_us"), 0.0);
    }
    std::remove(config.telemetry.exposition.path.c_str());
}

TEST(ServeDriverTest, EventSlabDoesNotGrowWithHorizon)
{
    // Laxity admission bounds the work in flight; arrivals are chained,
    // so the pending events, and the slab that holds them, stay the
    // same when the horizon (and the arrival count) doubles.
    ServeConfig config = smallConfig();
    config.arrival.ratePerSec = 20000.0;
    config.admission.kind = AdmissionKind::Laxity;
    config.horizon = fromMs(15.0);
    ServeDriver shorter(config);
    shorter.run();
    config.horizon = fromMs(30.0);
    ServeDriver longer(config);
    longer.run();

    std::size_t slab = shorter.soc().sim().events().slabCapacity();
    // Enough arrivals that holding them all would take more slots.
    EXPECT_GT(longer.schedule().size(), slab);
    EXPECT_EQ(longer.soc().sim().events().slabCapacity(), slab);
}

} // namespace
} // namespace relief
