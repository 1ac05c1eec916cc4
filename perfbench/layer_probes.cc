#include "layer_probes.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <ostream>
#include <streambuf>
#include <vector>

#include "core/relief.hh"
#include "interconnect/bus.hh"
#include "interconnect/crossbar.hh"
#include "interconnect/ring.hh"
#include "mem/pressure_ledger.hh"

namespace relief::probes
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Results land here so the compiler cannot drop the probed work. */
volatile double sink = 0.0;

/**
 * Fastest batch of @p call, in ns per operation, where one call does
 * @p ops_per_call operations. The batch doubles until it lasts
 * budget.minBatchNs, then budget.reps batches are timed.
 */
template <typename Call>
double
fastestNsPerOp(Call &&call, double ops_per_call, const ProbeBudget &budget)
{
    auto time_batch = [&call](std::uint64_t n) {
        auto start = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i)
            call();
        return std::uint64_t(std::chrono::duration_cast<
                                 std::chrono::nanoseconds>(Clock::now() -
                                                           start)
                                 .count());
    };
    std::uint64_t batch = 1;
    while (time_batch(batch) < budget.minBatchNs &&
           batch < (std::uint64_t(1) << 24))
        batch *= 2;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (int r = 0; r < std::max(1, budget.reps); ++r)
        best = std::min(best, time_batch(batch));
    return double(best) / (double(batch) * ops_per_call);
}

/** EventQueue schedule + runOne with @p pending far-future events
 *  already in the heap, so both sift through its full depth. */
double
dispatchNs(std::size_t pending, const ProbeBudget &budget)
{
    EventQueue queue;
    const Tick far = Tick(1) << 62;
    for (std::size_t i = 0; i < pending; ++i)
        queue.schedule(far + i, [] {});
    std::uint64_t fired = 0;
    double ns = fastestNsPerOp(
        [&] {
            queue.schedule(queue.curTick() + 1, [&fired] { ++fired; });
            queue.runOne();
        },
        1.0, budget);
    sink = double(fired);
    return ns;
}

/** Tagged BandwidthResource::claim with a pressure ledger attached. */
double
claimNs(const ProbeBudget &budget)
{
    BandwidthResource res("probe.mem", 16.0, fromNs(20.0));
    PressureLedger ledger;
    RequestorTag tag;
    tag.source = std::int16_t(ledger.addSource("probe"));
    ledger.addResource(res);
    ledger.seal();
    const std::uint64_t bytes = 1024;
    const Tick hold = res.holdTime(bytes);
    Tick now = 0;
    // Two claims at one request time: the second queues behind the
    // first, so the ledger's caused-delay walk runs. The clock then
    // moves past both, keeping the reservation ring short.
    return fastestNsPerOp(
        [&] {
            res.claim(now, bytes, now, tag);
            res.claim(now, bytes, now, tag);
            now += 2 * hold;
        },
        2.0, budget);
}

/** Tagged reserveTransfer over a 3-hop DMA -> fabric -> DRAM path. */
double
reserveNs(const ProbeBudget &budget)
{
    BandwidthResource dma("probe.dma", 16.0, fromNs(500.0));
    BandwidthResource fabric("probe.fabric", 14.9, fromNs(10.0));
    BandwidthResource dram("probe.dram", 12.8, fromNs(50.0));
    PressureLedger ledger;
    RequestorTag tag;
    tag.source = std::int16_t(ledger.addSource("probe"));
    const std::vector<BandwidthResource *> path = {&dma, &fabric, &dram};
    for (BandwidthResource *res : path)
        ledger.addResource(*res);
    ledger.seal();
    const std::uint64_t bytes = 1024;
    Tick now = 0;
    return fastestNsPerOp(
        [&] {
            TransferTiming t = reserveTransfer(path, now, bytes, tag);
            now = t.end;
        },
        1.0, budget);
}

/** DmaEngine::readFromDram in 1 KiB bursts on a Table VI platform,
 *  including each burst's completion event; ns per burst. */
double
dmaChunkNs(const ProbeBudget &budget)
{
    SocConfig config;
    config.dma.burstBytes = 1024;
    Soc soc(config);
    std::vector<Accelerator *> accs = soc.accelerators();
    const std::uint64_t bytes = 16 * config.dma.burstBytes;
    std::uint64_t stream = 1;
    std::size_t next = 0;
    return fastestNsPerOp(
        [&] {
            accs[next++ % accs.size()]->dma().readFromDram(bytes, nullptr,
                                                           stream++);
            soc.sim().run();
        },
        double(bytes / config.dma.burstBytes), budget);
}

/** Interconnect::path from each accelerator port to DRAM in turn. */
double
pathNs(Interconnect &fabric, const ProbeBudget &budget)
{
    PortId dram = fabric.registerPort("dram");
    std::vector<PortId> ports;
    for (int i = 0; i < numAccTypes; ++i)
        ports.push_back(fabric.registerPort("acc" + std::to_string(i)));
    std::size_t next = 0;
    return fastestNsPerOp(
        [&] {
            sink = double(fabric.path(ports[next++ % ports.size()], dram)
                              .size());
        },
        1.0, budget);
}

/** Discards everything written to it (stats emission cost only). */
class NullBuffer : public std::streambuf
{
  protected:
    int overflow(int c) override { return traits_type::not_eof(c); }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

} // namespace

double
pushNs(PolicyKind kind, int depth, const ProbeBudget &budget)
{
    std::unique_ptr<Policy> policy = makePolicy(kind);
    Dag dag("probe", 'P');
    ReadyQueues queues;
    SchedContext ctx;
    TaskParams params;
    params.type = AccType::ElemMatrix;
    for (int i = 0; i < depth; ++i) {
        Node *n = dag.addNode(params, std::to_string(i));
        n->deadline = fromUs(double(100 + 37 * (i * 7 % 13)));
        n->predictedRuntime = fromUs(double(10 + i % 5));
        n->laxityKey = STick(n->deadline) - STick(n->predictedRuntime);
        policy->onNodesReady({n}, ctx, queues);
    }
    Node *incoming = dag.addNode(params, "incoming");
    incoming->deadline = fromUs(150.0);
    incoming->predictedRuntime = fromUs(12.0);
    incoming->laxityKey =
        STick(incoming->deadline) - STick(incoming->predictedRuntime);
    ctx.idleCount[accIndex(AccType::ElemMatrix)] = 1;

    const std::vector<Node *> ready = {incoming};
    ReadyQueue &queue = queues[accIndex(AccType::ElemMatrix)];
    return fastestNsPerOp(
        [&] {
            policy->onNodesReady(ready, ctx, queues);
            const std::vector<Node *> &nodes = queue.nodes();
            queue.popAt(std::size_t(
                std::find(nodes.begin(), nodes.end(), incoming) -
                nodes.begin()));
        },
        1.0, budget);
}

std::vector<ProbeResult>
runLayerProbes(const ProbeBudget &budget)
{
    std::vector<ProbeResult> out;
    auto add = [&out](std::string name, double value, const char *unit) {
        out.push_back({std::move(name), value, unit});
    };

    add("sim.dispatch_ns.pending64", dispatchNs(64, budget), "ns");
    add("sim.dispatch_ns.pending4096", dispatchNs(4096, budget), "ns");

    for (PolicyKind kind : allPolicies) {
        for (int depth : {4, 16, 64}) {
            add(std::string("sched.push_ns.") + policyName(kind) + ".q" +
                    std::to_string(depth),
                pushNs(kind, depth, budget), "ns");
        }
    }

    add("mem.claim_ns", claimNs(budget), "ns");
    add("mem.reserve_ns", reserveNs(budget), "ns");
    add("dma.chunk_ns", dmaChunkNs(budget), "ns");

    {
        Simulator sim;
        Bus bus(sim, "probe.bus");
        Crossbar xbar(sim, "probe.xbar");
        Ring ring(sim, "probe.ring");
        add("interconnect.path_ns.bus", pathNs(bus, budget), "ns");
        add("interconnect.path_ns.xbar", pathNs(xbar, budget), "ns");
        add("interconnect.path_ns.ring", pathNs(ring, budget), "ns");
    }

    // Functional kernels on the applications' 128x128 frames and
    // hidden-size-128 recurrent state.
    {
        const int w = 128, h = 128;
        const double px = double(w) * double(h);
        BayerImage raw = makeSyntheticScene(w, h, 1);
        RgbImage rgb = isp(raw);
        Plane gray = grayscale(rgb);
        Plane gx = convolve(gray, sobelX());
        Plane gy = convolve(gray, sobelY());
        Plane mag = gradientMagnitude(gx, gy);
        Plane dir = elemwise(ElemOp::Atan2, gy, &gx);
        Filter2D gauss5 = gaussianFilter(5);
        Filter2D sobel = sobelX();
        std::vector<float> tanh_out(gray.size());

        add("kernels.ns_per_px.isp",
            fastestNsPerOp([&] { sink = isp(raw).r.data()[0]; }, px,
                           budget),
            "ns/px");
        add("kernels.ns_per_px.gray",
            fastestNsPerOp([&] { sink = grayscale(rgb).data()[0]; }, px,
                           budget),
            "ns/px");
        add("kernels.ns_per_px.conv5x5",
            fastestNsPerOp([&] { sink = convolve(gray, gauss5).data()[0]; },
                           px, budget),
            "ns/px");
        add("kernels.ns_per_px.sobel3x3",
            fastestNsPerOp([&] { sink = convolve(gray, sobel).data()[0]; },
                           px, budget),
            "ns/px");
        add("kernels.ns_per_px.canny_nms",
            fastestNsPerOp(
                [&] { sink = cannyNonMax(mag, dir).data()[0]; }, px,
                budget),
            "ns/px");
        add("kernels.ns_per_px.harris_nms",
            fastestNsPerOp([&] { sink = harrisNonMax(mag).data()[0]; }, px,
                           budget),
            "ns/px");
        add("kernels.ns_per_px.elem_tanh",
            fastestNsPerOp(
                [&] {
                    elemwiseBuf(ElemOp::Tanh, gray.data().data(), nullptr,
                                1.0f, tanh_out.data(), tanh_out.size());
                    sink = tanh_out[0];
                },
                px, budget),
            "ns/px");

        const int hidden = 128;
        Vec x(hidden, 0.1f), state(hidden, 0.2f);
        GruWeights gru = makeGruWeights(hidden, 1);
        LstmWeights lstm = makeLstmWeights(hidden, 1);
        LstmState lstm_state{state, state};
        add("kernels.us_per_step.gru",
            fastestNsPerOp([&] { sink = gruStep(x, state, gru)[0]; }, 1.0,
                           budget) /
                1e3,
            "us/step");
        add("kernels.us_per_step.lstm",
            fastestNsPerOp(
                [&] { sink = lstmStep(x, lstm_state, lstm).h[0]; }, 1.0,
                budget) /
                1e3,
            "us/step");
    }

    for (AppId app : allApps) {
        add(std::string("dag.build_us.") + char(app),
            fastestNsPerOp([&] { sink = buildApp(app)->numNodes(); }, 1.0,
                           budget) /
                1e3,
            "us");
    }

    {
        Soc soc;
        for (AppId app : parseMix(mixesFor(Contention::Continuous).front()))
            soc.submit(buildApp(app), 0, true);
        soc.run(continuousWindow);
        NullBuffer discard;
        std::ostream null_stream(&discard);
        add("stats.json_dump_ms",
            fastestNsPerOp([&] { soc.writeStatsJson(null_stream); }, 1.0,
                           budget) /
                1e6,
            "ms");
    }
    return out;
}

} // namespace relief::probes
