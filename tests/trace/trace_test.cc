/** @file Unit + integration tests for the schedule tracer. */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/soc.hh"
#include "sim/logging.hh"
#include "stats/json_reader.hh"
#include "trace/interval_sampler.hh"
#include "trace/trace.hh"

namespace relief
{
namespace
{

TEST(TraceRecorderTest, LanesAreDeduplicatedAndOrdered)
{
    TraceRecorder trace;
    int a = trace.lane("acc0");
    int b = trace.lane("acc1");
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    EXPECT_EQ(trace.lane("acc0"), 0);
    EXPECT_EQ(trace.numLanes(), 2);
    EXPECT_EQ(trace.laneName(1), "acc1");
}

TEST(TraceRecorderTest, SpansRecorded)
{
    TraceRecorder trace;
    int lane_id = trace.lane("acc");
    trace.span(lane_id, "task", 100, 200);
    ASSERT_EQ(trace.numSpans(), 1u);
    EXPECT_EQ(trace.spans()[0].name, "task");
    EXPECT_EQ(trace.horizon(), 200u);
}

TEST(TraceRecorderTest, EmptySpansDropped)
{
    TraceRecorder trace;
    int lane_id = trace.lane("acc");
    trace.span(lane_id, "zero", 100, 100);
    trace.span(lane_id, "backwards", 200, 100);
    EXPECT_EQ(trace.numSpans(), 0u);
}

TEST(TraceRecorderTest, UnknownLanePanics)
{
    TraceRecorder trace;
    EXPECT_THROW(trace.span(0, "x", 0, 1), PanicError);
}

TEST(TraceRecorderTest, ChromeJsonHasMetadataAndEvents)
{
    TraceRecorder trace;
    int lane_id = trace.lane("conv0");
    trace.span(lane_id, "canny.blur", fromUs(10.0), fromUs(25.0),
               "compute");
    std::ostringstream os;
    trace.writeChromeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"conv0\""), std::string::npos);
    EXPECT_NE(json.find("\"canny.blur\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":15"), std::string::npos);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(TraceRecorderTest, ChromeJsonTimestampsAreExactMicroseconds)
{
    // Past 10 s of simulated time, spans 1 ns apart keep distinct
    // timestamps: ts and dur are written from the integer tick, not
    // rounded to a fixed number of significant digits.
    TraceRecorder trace;
    int lane_id = trace.lane("acc");
    trace.span(lane_id, "a", fromMs(10000.0) + fromNs(1.0),
               fromMs(10000.0) + fromUs(2.5));
    trace.span(lane_id, "b", fromMs(10000.0) + fromNs(2.0),
               fromMs(10000.0) + fromNs(3.0));
    std::ostringstream os;
    trace.writeChromeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"ts\":10000000.001,\"dur\":2.499"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ts\":10000000.002,\"dur\":0.001"),
              std::string::npos)
        << json;

    JsonValue doc = JsonValue::parse(json);
    std::vector<double> ts;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        if (doc.at(i).at("ph").asString() == "X")
            ts.push_back(doc.at(i).at("ts").asNumber());
    }
    ASSERT_EQ(ts.size(), 2u);
    EXPECT_LT(ts[0], ts[1]);
}

TEST(TraceRecorderTest, JsonEscapesQuotes)
{
    TraceRecorder trace;
    int lane_id = trace.lane("acc");
    trace.span(lane_id, "weird\"name", 0, 10);
    std::ostringstream os;
    trace.writeChromeJson(os);
    EXPECT_NE(os.str().find("weird\\\"name"), std::string::npos);
}

TEST(TraceRecorderTest, GanttMarksBusyBuckets)
{
    TraceRecorder trace;
    int lane_id = trace.lane("acc");
    trace.span(lane_id, "task", 0, 50);
    std::ostringstream os;
    trace.writeGantt(os, 0, 100, 10);
    std::string out = os.str();
    // Lane row: first 5 buckets marked with 't', rest idle.
    EXPECT_NE(out.find("ttttt....."), std::string::npos);
}

TEST(TraceRecorderTest, GanttClipsToWindow)
{
    TraceRecorder trace;
    int lane_id = trace.lane("acc");
    trace.span(lane_id, "x", 0, 1000);
    std::ostringstream os;
    trace.writeGantt(os, 500, 600, 10);
    EXPECT_NE(os.str().find("xxxxxxxxxx"), std::string::npos);
}

TEST(TraceRecorderTest, CounterTracksAreDeduplicatedAndOrdered)
{
    TraceRecorder trace;
    int a = trace.counterTrack("dram.bw");
    int b = trace.counterTrack("queue.depth");
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    EXPECT_EQ(trace.counterTrack("dram.bw"), 0);
    EXPECT_EQ(trace.numCounterTracks(), 2);
    EXPECT_EQ(trace.counterTrackName(1), "queue.depth");
    // Track ids are independent of lane ids.
    EXPECT_EQ(trace.lane("acc0"), 0);
}

TEST(TraceRecorderTest, CounterSamplesRecorded)
{
    TraceRecorder trace;
    int track = trace.counterTrack("depth");
    trace.counter(track, 100, 3.0);
    trace.counter(track, 200, 5.5);
    ASSERT_EQ(trace.numCounterSamples(), 2u);
    EXPECT_EQ(trace.counterSamples()[0].track, track);
    EXPECT_EQ(trace.counterSamples()[0].when, 100u);
    EXPECT_DOUBLE_EQ(trace.counterSamples()[1].value, 5.5);
}

TEST(TraceRecorderTest, UnknownCounterTrackPanics)
{
    TraceRecorder trace;
    EXPECT_THROW(trace.counter(0, 0, 1.0), PanicError);
    EXPECT_THROW(trace.counterTrackName(0), PanicError);
}

TEST(TraceRecorderTest, ChromeJsonHasCounterEvents)
{
    TraceRecorder trace;
    int track = trace.counterTrack("dram.bandwidth_utilization");
    trace.counter(track, fromUs(10.0), 0.5);
    trace.counter(track, fromUs(20.0), 0.75);
    std::ostringstream os;
    trace.writeChromeJson(os);
    std::string json = os.str();
    EXPECT_NO_THROW(JsonValue::parse(json)) << json;
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"dram.bandwidth_utilization\""),
              std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"value\":0.5}"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":20"), std::string::npos);
}

TEST(TraceRecorderTest, JsonEscapesControlCharacters)
{
    TraceRecorder trace;
    int lane_id = trace.lane("acc");
    trace.span(lane_id, "line\nbreak\tand\x01" "ctl", 0, 10);
    std::ostringstream os;
    trace.writeChromeJson(os);
    std::string json = os.str();
    // Raw control bytes would break every JSON consumer.
    EXPECT_NO_THROW(JsonValue::parse(json)) << json;
    EXPECT_NE(json.find("line\\nbreak\\tand\\u0001ctl"),
              std::string::npos);
}

TEST(TraceRecorderTest, HorizonCoversCounterSamplesAndFlows)
{
    // Regression: horizon() used to look only at spans, so a
    // counter-only trace reported an empty window and writeGantt()
    // rendered nothing.
    TraceRecorder trace;
    int track = trace.counterTrack("depth");
    trace.counter(track, fromUs(40.0), 1.0);
    EXPECT_EQ(trace.horizon(), fromUs(40.0));

    int a = trace.lane("a");
    int b = trace.lane("b");
    trace.flow("edge", "dram", a, fromUs(50.0), b, fromUs(60.0));
    EXPECT_EQ(trace.horizon(), fromUs(60.0));

    trace.span(a, "late", fromUs(80.0), fromUs(90.0));
    EXPECT_EQ(trace.horizon(), fromUs(90.0));
}

TEST(TraceRecorderTest, FlowsRecordedAndBackwardsArrowsClamped)
{
    TraceRecorder trace;
    int a = trace.lane("a");
    int b = trace.lane("b");
    int id0 = trace.flow("x->y", "forward", a, 100, b, 200);
    int id1 = trace.flow("y->z", "dram", b, 300, a, 250);
    EXPECT_NE(id0, id1);
    ASSERT_EQ(trace.numFlows(), 2u);
    EXPECT_EQ(trace.flows()[0].srcTime, 100u);
    EXPECT_EQ(trace.flows()[0].dstTime, 200u);
    // A backwards arrow clamps to zero length at the destination.
    EXPECT_EQ(trace.flows()[1].dstTime, 300u);
}

TEST(TraceRecorderTest, UnknownFlowLanePanics)
{
    TraceRecorder trace;
    EXPECT_THROW(trace.flow("x", "dram", 0, 0, 0, 1), PanicError);
}

TEST(TraceRecorderTest, ChromeJsonPairsFlowHalves)
{
    TraceRecorder trace;
    int a = trace.lane("conv0");
    int b = trace.lane("em0");
    trace.span(a, "produce", fromUs(10.0), fromUs(20.0), "compute");
    trace.span(b, "consume", fromUs(30.0), fromUs(40.0), "load");
    int id = trace.flow("produce -> consume", "forward", a,
                        fromUs(20.0), b, fromUs(30.0));
    std::ostringstream os;
    trace.writeChromeJson(os);
    std::string json = os.str();
    EXPECT_NO_THROW(JsonValue::parse(json)) << json;

    // Both halves carry the same id and the edge category; the "f"
    // half binds to the enclosing slice ("bp":"e").
    std::string want_id = "\"id\":" + std::to_string(id);
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"forward\""), std::string::npos);
    auto first = json.find(want_id);
    ASSERT_NE(first, std::string::npos);
    EXPECT_NE(json.find(want_id, first + 1), std::string::npos);
    // "s" must precede "f" for chrome://tracing.
    EXPECT_LT(json.find("\"ph\":\"s\""), json.find("\"ph\":\"f\""));
}

TEST(TraceRecorderTest, ChromeJsonEventsSortedByTimestamp)
{
    TraceRecorder trace;
    int lane = trace.lane("acc");
    int track = trace.counterTrack("depth");
    // Record deliberately out of order across all three primitives.
    trace.span(lane, "late", fromUs(50.0), fromUs(60.0));
    trace.counter(track, fromUs(5.0), 1.0);
    trace.flow("e", "dram", lane, fromUs(30.0), lane, fromUs(40.0));
    trace.span(lane, "early", fromUs(10.0), fromUs(20.0));

    std::ostringstream os;
    trace.writeChromeJson(os);
    std::string json = os.str();
    EXPECT_NO_THROW(JsonValue::parse(json)) << json;

    // Walk the emitted "ts" fields: they must be non-decreasing.
    std::vector<long> stamps;
    std::size_t pos = 0;
    while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
        pos += 5;
        stamps.push_back(std::atol(json.c_str() + pos));
    }
    ASSERT_GE(stamps.size(), 5u);
    for (std::size_t i = 1; i < stamps.size(); ++i)
        EXPECT_LE(stamps[i - 1], stamps[i]) << "event " << i;
}

TEST(IntervalSamplerTest, SamplesEveryPeriodWhileEventsPend)
{
    Simulator sim;
    TraceRecorder trace;
    IntervalSampler sampler(sim, trace, fromUs(10.0));
    double depth = 2.0;
    sampler.addProbe("depth", [&depth] { return depth; });
    EXPECT_EQ(sampler.numProbes(), 1u);

    // One real event at 95 us; the sampler must not outlive it by more
    // than one period.
    sim.at(fromUs(95.0), [&depth] { depth = 7.0; }, "workload");
    sampler.start();
    sim.run();

    // Samples at 0, 10, ..., 100 us: the 90 us wakeup still saw the
    // pending event and re-armed once past it.
    ASSERT_EQ(trace.numCounterSamples(), 11u);
    EXPECT_EQ(trace.counterSamples().front().when, 0u);
    EXPECT_EQ(trace.counterSamples().back().when, fromUs(100.0));
    EXPECT_DOUBLE_EQ(trace.counterSamples()[9].value, 2.0);
    EXPECT_DOUBLE_EQ(trace.counterSamples().back().value, 7.0);
}

TEST(IntervalSamplerTest, StartWhileArmedIsANoOp)
{
    Simulator sim;
    TraceRecorder trace;
    IntervalSampler sampler(sim, trace, fromUs(10.0));
    sampler.addProbe("depth", [] { return 1.0; });
    sim.at(fromUs(15.0), [] {}, "workload");
    sampler.start();
    sampler.start(); // a wakeup is pending: no second chain
    // The limit only bounds a failure: two chains would keep each
    // other alive.
    EXPECT_EQ(sim.run(fromUs(100.0)), fromUs(20.0));
    // Samples at 0, 10 and 20 us, once each.
    ASSERT_EQ(trace.numCounterSamples(), 3u);
    EXPECT_EQ(trace.counterSamples()[1].when, fromUs(10.0));

    // The chain died with the workload, so start() samples again.
    sim.at(fromUs(25.0), [] {}, "workload");
    sampler.start();
    EXPECT_EQ(sim.run(fromUs(100.0)), fromUs(30.0));
    EXPECT_EQ(trace.numCounterSamples(), 5u);
}

TEST(TraceIntegrationTest, SocEmitsSpansForEveryNode)
{
    SocConfig config;
    config.policy = PolicyKind::Relief;
    Soc soc(config);
    TraceRecorder &trace = soc.enableTracing();
    DagPtr dag = buildApp(AppId::Canny);
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());

    // One compute span per node, named by its label.
    int compute_spans = 0;
    for (const TraceSpan &s : trace.spans())
        compute_spans += s.category == "compute";
    EXPECT_EQ(compute_spans, dag->numNodes());
    // Manager scheduling spans exist too.
    bool has_mgr = false;
    for (const TraceSpan &s : trace.spans())
        has_mgr = has_mgr || s.category == "mgr";
    EXPECT_TRUE(has_mgr);
}

TEST(TraceIntegrationTest, SpansNestWithinRun)
{
    Soc soc;
    TraceRecorder &trace = soc.enableTracing();
    DagPtr dag = buildApp(AppId::Gru);
    soc.submit(dag);
    Tick end = soc.run(fromMs(50.0));
    for (const TraceSpan &s : trace.spans()) {
        EXPECT_LT(s.start, s.end);
        EXPECT_LE(s.end, end + fromMs(1.0));
    }
}

TEST(TraceIntegrationTest, SocEmitsCounterTracks)
{
    Soc soc;
    TraceRecorder &trace = soc.enableTracing(fromUs(5.0));
    ASSERT_NE(soc.sampler(), nullptr);
    EXPECT_EQ(soc.sampler()->period(), fromUs(5.0));
    DagPtr dag = buildApp(AppId::Canny);
    soc.submit(dag);
    Tick end = soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());

    // Ready-queue depth, DRAM bandwidth, outstanding DMA bytes, and
    // per-accelerator occupancy (the paper's memory-pressure signals).
    EXPECT_GE(trace.numCounterTracks(), 4);
    auto has_track = [&trace](const std::string &name) {
        for (int t = 0; t < trace.numCounterTracks(); ++t)
            if (trace.counterTrackName(t) == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has_track("manager.ready_queue_depth"));
    EXPECT_TRUE(has_track("dram.bandwidth_utilization"));
    EXPECT_TRUE(has_track("dma.outstanding_bytes"));

    EXPECT_GT(trace.numCounterSamples(), 0u);
    for (const CounterSample &s : trace.counterSamples()) {
        EXPECT_GE(s.value, 0.0);
        EXPECT_LE(s.when, end + soc.sampler()->period());
    }
}

TEST(TraceIntegrationTest, RunToALimitThenOnSamplesLikeOneRun)
{
    // Soc::run starts the sampler every time. Stopping at a sampler
    // tick leaves its next wakeup pending; the second run must not
    // start another chain beside it, or every sample from the stop on
    // is recorded twice.
    auto samples = [](bool split) {
        Soc soc;
        TraceRecorder &trace = soc.enableTracing(fromUs(10.0));
        DagPtr dag = buildApp(AppId::Canny);
        soc.submit(dag);
        if (split) {
            EXPECT_EQ(soc.run(fromUs(30.0)), fromUs(30.0));
            EXPECT_FALSE(dag->complete());
        }
        soc.run(fromMs(50.0));
        EXPECT_TRUE(dag->complete());
        return trace.counterSamples();
    };
    const std::vector<CounterSample> split = samples(true);
    const std::vector<CounterSample> whole = samples(false);

    std::set<std::pair<int, Tick>> seen;
    std::size_t duplicates = 0;
    for (const CounterSample &s : split)
        duplicates += !seen.insert({s.track, s.when}).second;
    EXPECT_EQ(duplicates, 0u);
    ASSERT_EQ(split.size(), whole.size());
    for (std::size_t i = 0; i < split.size(); ++i) {
        EXPECT_EQ(split[i].track, whole[i].track) << i;
        EXPECT_EQ(split[i].when, whole[i].when) << i;
        EXPECT_EQ(split[i].value, whole[i].value) << i;
    }
}

TEST(TraceIntegrationTest, FlowsMatchEdgeOutcomes)
{
    // Every satisfied DAG edge must appear as exactly one flow arrow,
    // and the per-category arrow counts must equal the manager's edge
    // counters — the trace is a faithful picture of the data movement
    // the scheduler chose.
    SocConfig config;
    config.policy = PolicyKind::Relief;
    Soc soc(config);
    TraceRecorder &trace = soc.enableTracing(0);
    std::vector<DagPtr> dags;
    for (AppId app : parseMix("CDL"))
        dags.push_back(buildApp(app));
    for (DagPtr &dag : dags)
        soc.submit(dag);
    soc.run(fromMs(50.0));
    for (const DagPtr &dag : dags)
        ASSERT_TRUE(dag->complete());

    const RunMetrics &m = soc.manager().metrics();
    ASSERT_GT(m.edgesConsumed, 0u);
    EXPECT_EQ(trace.numFlows(), m.edgesConsumed);

    std::uint64_t forward = 0, colocation = 0, dram = 0;
    for (const TraceFlow &f : trace.flows()) {
        if (f.category == "forward")
            ++forward;
        else if (f.category == "colocation")
            ++colocation;
        else if (f.category == "dram")
            ++dram;
        else
            ADD_FAILURE() << "unknown flow category " << f.category;
        EXPECT_LE(f.srcTime, f.dstTime);
    }
    EXPECT_EQ(forward, m.forwards);
    EXPECT_EQ(colocation, m.colocations);
    EXPECT_EQ(dram, m.dramEdges);
    // RELIEF on CDL forwards at least one edge (acceptance criterion:
    // the trace carries "forward"-category arrows).
    EXPECT_GT(forward, 0u);
}

TEST(TraceIntegrationTest, ZeroSamplePeriodDisablesCounters)
{
    Soc soc;
    TraceRecorder &trace = soc.enableTracing(0);
    EXPECT_EQ(soc.sampler(), nullptr);
    DagPtr dag = buildApp(AppId::Gru);
    soc.submit(dag);
    soc.run(fromMs(50.0));
    EXPECT_EQ(trace.numCounterSamples(), 0u);
    EXPECT_GT(trace.numSpans(), 0u); // spans still work without sampling
}

} // namespace
} // namespace relief
