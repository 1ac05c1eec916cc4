/**
 * @file
 * relief_benchmark — the benchmark's measuring program, driven by
 * perfbench/run_benchmark.py (see perfbench/README.md).
 *
 * Runs one workload for a fixed number of passes and prints one JSON
 * document on stdout: operations attempted and failed, the workload's
 * end-to-end metrics (or, with --trace, its per-layer metrics), and
 * diagnostics.
 *
 * A workload is a list of cells, each one independent simulation; a
 * pass runs every cell once. Pass 0 fixes each cell's deterministic
 * outcome, and every later pass must reproduce it exactly. A cell's
 * host time is its fastest pass: on a shared host, slow passes measure
 * neighbouring load rather than the simulator. The pass count is fixed
 * so that a faster build does not also get more samples; --max-seconds
 * only stops a run that a slow host has stretched far past its size.
 *
 * Usage:
 *   relief_benchmark --workload matrix|burst-banked|serve|functional
 *                    [--seed N] [--passes N] [--max-seconds S] [--trace]
 *                    [--smoke] [--trace-out FILE] [--corrupt-reference]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "alloc_count.hh"
#include "core/relief.hh"
#include "core/rng.hh"
#include "kernels/scratch.hh"
#include "layer_probes.hh"
#include "serve/server.hh"
#include "sim/build_info.hh"
#include "sim/hostprof.hh"
#include "stats/json.hh"

using namespace relief;

namespace
{

std::uint64_t
nowNs()
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now()
                                 .time_since_epoch())
                             .count());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** One span of a traced pass: [start, end) in host ns. */
struct Span
{
    std::string name;
    std::string detail; ///< Cell name or kernel node label.
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    int parent = -1;
};

/** The spans of one traced pass, kept in memory until exit. */
struct SpanLog
{
    std::vector<Span> spans;

    int
    add(std::string name, std::string detail, std::uint64_t start,
        std::uint64_t end, int parent)
    {
        spans.push_back({std::move(name), std::move(detail), start, end,
                         parent});
        return int(spans.size()) - 1;
    }
};

/** Sums over one simulation that the metrics pool across cells. */
struct Tally
{
    std::uint64_t simTicks = 0;
    std::uint64_t events = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t dagsFinished = 0;
    std::uint64_t dagsMet = 0;
    std::uint64_t offered = 0; ///< Serve requests; 0 for batch cells.
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t tracesKept = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t baselineBytes = 0;
    std::vector<Tick> latencies; ///< Per finished DAG.
    std::array<double, numLatencyBuckets> cpUs{};
    std::uint64_t cpDags = 0;
    double queueDepthSum = 0.0;
    std::uint64_t queueDepthSamples = 0;
    std::uint64_t promoteDecisions = 0;
    std::uint64_t promoteGranted = 0;
    Tick managerBusy = 0;
    std::uint64_t edges = 0;
    std::uint64_t edgesOnChip = 0; ///< Forwarded or colocated.
    std::uint64_t claims = 0;      ///< Every BandwidthResource claim.
    std::uint64_t dramClaims = 0;
    Tick dramWait = 0;
    std::uint64_t dmaTransfers = 0; ///< DMA channel claims.
    std::uint64_t dmaBytes = 0;
    std::uint64_t spillBytes = 0;
    std::uint64_t fabricTransfers = 0;
    Tick fabricBusy = 0;
    std::uint64_t outputDigest = 0; ///< Functional leaf outputs.

    void
    add(const Tally &o)
    {
        simTicks += o.simTicks;
        events += o.events;
        scheduled += o.scheduled;
        cancelled += o.cancelled;
        dagsFinished += o.dagsFinished;
        dagsMet += o.dagsMet;
        offered += o.offered;
        shed += o.shed;
        rejected += o.rejected;
        tracesKept += o.tracesKept;
        dramBytes += o.dramBytes;
        baselineBytes += o.baselineBytes;
        latencies.insert(latencies.end(), o.latencies.begin(),
                         o.latencies.end());
        for (int b = 0; b < numLatencyBuckets; ++b)
            cpUs[std::size_t(b)] += o.cpUs[std::size_t(b)];
        cpDags += o.cpDags;
        queueDepthSum += o.queueDepthSum;
        queueDepthSamples += o.queueDepthSamples;
        promoteDecisions += o.promoteDecisions;
        promoteGranted += o.promoteGranted;
        managerBusy += o.managerBusy;
        edges += o.edges;
        edgesOnChip += o.edgesOnChip;
        claims += o.claims;
        dramClaims += o.dramClaims;
        dramWait += o.dramWait;
        dmaTransfers += o.dmaTransfers;
        dmaBytes += o.dmaBytes;
        spillBytes += o.spillBytes;
        fabricTransfers += o.fabricTransfers;
        fabricBusy += o.fabricBusy;
        outputDigest = outputDigest * 1099511628211ull ^ o.outputDigest;
    }

    /** The outcome every repeat of a cell must reproduce exactly. */
    bool
    sameOutcome(const Tally &o) const
    {
        return simTicks == o.simTicks && events == o.events &&
               dagsFinished == o.dagsFinished && dramBytes == o.dramBytes;
    }
};

/** One run of one cell. */
struct CellRun
{
    std::uint64_t setupNs = 0; ///< Soc ctor + DAG build + submit.
    std::uint64_t runNs = 0;   ///< The simulation itself.
    Tally tally;
    HostProfSnapshot prof;  ///< Traced passes only.
    std::uint64_t fnNs = 0; ///< Functional payload time (traced).
    std::uint64_t allocs = 0;
    std::vector<std::string> failures;
};

/** Per-cell state while one cell runs. */
struct CellContext
{
    bool traced = false;
    SpanLog *spans = nullptr; ///< Set on the pass that records spans.
    int cellSpan = -1;
    int kernelsSpan = -1; ///< Parent of kernel-fn spans during run.
    std::uint64_t fnNs = 0;

    /** Run @p body as span @p name under the cell; returns its ns. */
    template <typename F>
    std::uint64_t
    phase(const char *name, F &&body)
    {
        std::uint64_t start = nowNs();
        body();
        std::uint64_t end = nowNs();
        if (spans)
            spans->add(name, "", start, end, cellSpan);
        return end - start;
    }
};

/**
 * Time the simulation @p simulate. On traced passes HostProf meters
 * exactly this window, and its category totals become the run span's
 * children.
 */
template <typename F>
void
runPhase(CellContext &ctx, CellRun &run, F &&simulate)
{
    std::array<int, numHostCats> cat_spans{};
    int run_span = -1;
    if (ctx.spans) {
        run_span = ctx.spans->add("run", "", 0, 0, ctx.cellSpan);
        for (std::size_t c = 0; c < numHostCats; ++c) {
            cat_spans[c] = ctx.spans->add(
                std::string("hostprof.") + hostCatName(HostCat(c)), "", 0,
                0, run_span);
        }
        ctx.kernelsSpan = cat_spans[std::size_t(HostCat::Kernels)];
    }
    if (ctx.traced)
        setHostProfEnabled(true);
    std::uint64_t allocs = allocationCount();
    std::uint64_t start = nowNs();
    try {
        simulate();
    } catch (...) {
        if (ctx.traced)
            setHostProfEnabled(false);
        throw;
    }
    std::uint64_t end = nowNs();
    run.runNs = end - start;
    if (ctx.traced) {
        run.allocs = allocationCount() - allocs;
        setHostProfEnabled(false);
        run.prof = hostProfSnapshot();
        run.fnNs = ctx.fnNs;
    }
    if (ctx.spans) {
        Span &span = ctx.spans->spans[std::size_t(run_span)];
        span.start = start;
        span.end = end;
        // HostProf keeps per-category totals, not intervals: lay them
        // end to end inside the run span.
        std::uint64_t at = start;
        for (std::size_t c = 0; c < numHostCats; ++c) {
            Span &cat = ctx.spans->spans[std::size_t(cat_spans[c])];
            cat.start = at;
            at += run.prof.cats[c].wallNs;
            cat.end = at;
        }
    }
}

/** Time every functional payload of @p dag, as kernel spans when the
 *  pass records spans. Traced passes only. */
void
wrapKernelFns(Dag &dag, CellContext &ctx)
{
    for (Node *node : dag.allNodes()) {
        if (!node->fn)
            continue;
        node->fn = [inner = std::move(node->fn), &ctx,
                    label = node->label](
                       const std::vector<const std::vector<float> *> &in) {
            std::uint64_t start = nowNs();
            std::vector<float> out = inner(in);
            std::uint64_t end = nowNs();
            ctx.fnNs += end - start;
            if (ctx.spans)
                ctx.spans->add("kernel", label, start, end,
                               ctx.kernelsSpan);
            return out;
        };
    }
}

/**
 * Pool @p soc's outcome into @p run, and check the invariants every
 * simulation must hold: the pressure ledger balances per resource and
 * agrees with the resource's own wait counter, and the critical-path
 * buckets partition each DAG's latency.
 */
void
collectSoc(Soc &soc, CellRun &run)
{
    Tally &t = run.tally;
    const EventQueue &queue = soc.sim().events();
    t.simTicks = queue.curTick();
    t.events = queue.numExecuted();
    t.scheduled = queue.numScheduled();
    t.cancelled = queue.numCancelled();

    const RunMetrics &m = soc.manager().metrics();
    t.dagsFinished = m.dagsFinished;
    t.dagsMet = m.dagDeadlinesMet;
    t.baselineBytes = m.baselineBytes;
    t.dramBytes = soc.dram().totalBytes();
    t.managerBusy = m.managerBusyTime;
    t.edges = m.edgesConsumed;
    t.edgesOnChip = m.forwards + m.colocations;
    t.queueDepthSum = m.queueDepth.sum();
    t.queueDepthSamples = m.queueDepth.count();

    for (const DagLatencyRecord &rec : soc.manager().latencyRecords()) {
        t.latencies.push_back(rec.latency());
        Tick sum = rec.buckets.total();
        if (std::max(sum, rec.latency()) - std::min(sum, rec.latency()) > 1)
            run.failures.push_back("critical-path buckets of " + rec.dag +
                                   " do not sum to its latency");
    }
    const Histogram *buckets[numLatencyBuckets] = {
        &m.cpQueueWaitUs, &m.cpManagerUs, &m.cpDmaInUs,
        &m.cpComputeUs,   &m.cpDmaOutUs,  &m.cpDepStallUs};
    double bucket_sum = 0.0;
    for (int b = 0; b < numLatencyBuckets; ++b) {
        t.cpUs[std::size_t(b)] = buckets[b]->summary().sum();
        bucket_sum += t.cpUs[std::size_t(b)];
    }
    t.cpDags = m.cpTotalUs.count();
    double total_sum = m.cpTotalUs.summary().sum();
    if (std::fabs(bucket_sum - total_sum) >
        1e-9 * std::max(1.0, std::fabs(total_sum)))
        run.failures.push_back("critical-path bucket sums differ from "
                               "cpTotalUs");

    if (const auto *relief =
            dynamic_cast<const ReliefPolicy *>(&soc.manager().policy())) {
        t.promoteDecisions = relief->decisionLog().size();
        t.promoteGranted = relief->decisionLog().numGranted();
    }

    const PressureLedger &ledger = soc.pressureLedger();
    for (int r = 0; r < ledger.numResources(); ++r) {
        const BandwidthResource &res = ledger.resource(r);
        PressureLedger::Slot total = ledger.resourceTotal(r);
        t.claims += res.numTransfers();
        if (total.waitCaused != total.waitSuffered)
            run.failures.push_back("ledger caused != suffered on " +
                                   res.name());
        if (total.waitSuffered != res.waitTime())
            run.failures.push_back("ledger wait != waitTime() on " +
                                   res.name());
    }
    for (BandwidthResource *res : soc.dram().pressureResources()) {
        t.dramClaims += res->numTransfers();
        t.dramWait += res->waitTime();
    }
    for (Accelerator *acc : soc.accelerators()) {
        for (BandwidthResource *ch :
             {&acc->dma().readChannel(), &acc->dma().writeChannel()}) {
            t.dmaTransfers += ch->numTransfers();
            t.dmaBytes += ch->totalBytes();
            for (int key = 1; key < ledger.numKeys(); ++key) {
                if (ledger.keyTraffic(key) == PressureTraffic::SpmSpill)
                    t.spillBytes += ledger.slot(ch->ledgerId(), key).bytes;
            }
        }
    }
    t.fabricTransfers = soc.fabric().numTransfers();
    t.fabricBusy = soc.fabric().busyTime(t.simTicks);
}

/** One simulation of a workload. */
struct Cell
{
    std::string name;
    std::function<CellRun(CellContext &)> run;
};

/** The cells of one workload, plus any per-pass set-up they share. */
struct Workload
{
    std::vector<Cell> cells;
    /** Set-up shared by the pass's cells (serve: capacity
     *  calibration); counts toward setup_s. Returns a failure message,
     *  or "" on success. */
    std::function<std::string()> setup;
    /** The modelled end-to-end metrics that describe this workload;
     *  the others print notApplicable. */
    std::vector<std::string> modelled;
};

/** A batch cell: apps submitted at tick 0 onto one platform. */
struct BatchSpec
{
    SocConfig soc;
    std::vector<AppId> apps;
    AppConfig app;
    bool continuous = true;
    Tick limit = continuousWindow;
    /** Output check for functional cells (may be empty). */
    std::function<void(const std::vector<DagPtr> &, CellRun &)> check;
};

CellRun
runBatchCell(CellContext &ctx, const BatchSpec &spec)
{
    resetNodeIds();       // ids seed DRAM stream hints
    resetKernelScratch(); // kernels.scratch_* stats likewise
    CellRun run;
    std::unique_ptr<Soc> soc;
    std::vector<DagPtr> dags;
    run.setupNs += ctx.phase(
        "setup.soc_ctor", [&] { soc = std::make_unique<Soc>(spec.soc); });
    run.setupNs += ctx.phase("setup.dag_build", [&] {
        for (AppId app : spec.apps) {
            dags.push_back(buildApp(app, spec.app));
            if (ctx.traced)
                wrapKernelFns(*dags.back(), ctx);
        }
    });
    run.setupNs += ctx.phase("setup.submit", [&] {
        for (const DagPtr &dag : dags)
            soc->submit(dag, 0, spec.continuous);
    });
    runPhase(ctx, run, [&] { soc->run(spec.limit); });
    ctx.phase("report", [&] {
        collectSoc(*soc, run);
        if (spec.check)
            spec.check(dags, run);
    });
    return run;
}

/** Every continuous-contention triple (Fig 10) under each of
 *  @p policies on @p platform, each looped for the 50 ms window. */
Workload
triplesWorkload(const SocConfig &platform,
                const std::vector<PolicyKind> &policies)
{
    Workload w;
    w.modelled = {"dag_deadline_frac", "dram_traffic_frac"};
    for (const std::string &mix : mixesFor(Contention::Continuous)) {
        for (PolicyKind policy : policies) {
            BatchSpec spec;
            spec.soc = platform;
            spec.soc.policy = policy;
            spec.apps = parseMix(mix);
            w.cells.push_back({mix + "/" + policyName(policy),
                               [spec](CellContext &ctx) {
                                   return runBatchCell(ctx, spec);
                               }});
        }
    }
    return w;
}

/** The triples on banked DRAM, the crossbar and 1 KiB DMA bursts: many
 *  small per-bank claims instead of whole-buffer transfers. */
Workload
burstWorkload()
{
    SocConfig platform;
    platform.bankedMemory = true;
    platform.fabric = FabricKind::Crossbar;
    platform.dma.burstBytes = 1024;
    return triplesWorkload(platform, {PolicyKind::Relief, PolicyKind::Fcfs});
}

/** Open-loop serving horizon per cell. */
constexpr Tick serveHorizon = fromMs(10000.0);

CellRun
runServeCell(CellContext &ctx, double rate_rps, std::uint64_t seed)
{
    ServeConfig config;
    config.soc.policy = PolicyKind::Relief;
    config.arrival.ratePerSec = rate_rps;
    config.admission.kind = AdmissionKind::Laxity;
    config.horizon = serveHorizon;
    config.seed = seed;
    config.telemetry.traceRequests = true;
    config.telemetry.okFraction = 0.1;
    config.telemetry.alerts = true;

    CellRun run;
    std::unique_ptr<ServeDriver> server;
    // ServeDriver's constructor builds the Soc and the arrival schedule;
    // request DAGs are built and submitted online, inside the run.
    run.setupNs += ctx.phase("setup.soc_ctor", [&] {
        server = std::make_unique<ServeDriver>(config);
    });
    ServeReport report;
    runPhase(ctx, run, [&] { report = server->run(); });
    ctx.phase("report", [&] {
        collectSoc(server->soc(), run);
        Tally &t = run.tally;
        const ClassSlo &total = report.total;
        t.offered = total.offered;
        t.shed = total.shed;
        t.rejected = total.rejected;
        t.tracesKept = report.sampling.kept();
        std::vector<const ClassSlo *> slos = {&total};
        for (const ClassSlo &cls : report.classes)
            slos.push_back(&cls);
        for (const ClassSlo *slo : slos) {
            if (slo->offered != slo->admitted + slo->shed + slo->rejected)
                run.failures.push_back("serve class " + slo->name +
                                       ": offered != admitted + shed + "
                                       "rejected");
        }
    });
    return run;
}

/** Independent arrival streams per offered load. Near saturation one
 *  stream's goodput swings by tens of percent with the seed; pooling
 *  8 brings the seed-to-seed spread to a few percent, and more streams
 *  buy little per host second. */
constexpr int serveStreams = 8;

/** RELIEF with laxity admission under open-loop Poisson load at fixed
 *  fractions of measured capacity. */
Workload
serveWorkload(std::uint64_t seed)
{
    Workload w;
    w.modelled = {"dram_traffic_frac", "goodput_frac", "req_p99_ms"};
    auto capacity = std::make_shared<double>(0.0);
    w.setup = [capacity]() -> std::string {
        double rps = measureCapacityRps(SocConfig{}, AppConfig{});
        if (*capacity != 0.0 && rps != *capacity)
            return "capacity calibration changed between passes";
        *capacity = rps;
        return "";
    };
    const double loads[] = {0.25, 0.5, 0.75};
    std::uint64_t stream_index = 0;
    for (int stream = 0; stream < serveStreams; ++stream) {
        for (double load : loads) {
            std::uint64_t cell_seed = deriveSeed(seed, stream_index++);
            std::ostringstream name;
            name << "RELIEF@" << load << "x/" << stream;
            w.cells.push_back(
                {name.str(), [capacity, load, cell_seed](CellContext &ctx) {
                     return runServeCell(ctx, load * *capacity, cell_seed);
                 }});
        }
    }
    return w;
}

/** Expected leaf output of one functional application. */
struct Reference
{
    AppId app;
    std::vector<float> expected;
    float tolerance = 0.0f; ///< 0 = bit-exact.
};

std::vector<Reference>
functionalReferences(const AppConfig &config)
{
    BayerImage raw =
        makeSyntheticScene(config.width, config.height, config.seed);
    Plane observed = grayscale(isp(raw));
    return {
        {AppId::Canny, cannyReference(raw).data(), 0.0f},
        {AppId::Deblur,
         richardsonLucy(observed, gaussianFilter(5, 1.2f), config.deblurIters)
             .data(),
         0.0f},
        {AppId::Gru, gruReferenceOutput(config), 1e-5f},
        {AppId::Harris, harrisReference(raw).data(), 0.0f},
        {AppId::Lstm, lstmReferenceOutput(config), 1e-5f},
    };
}

/** Each application alone, single-shot, computing real outputs. */
Workload
functionalWorkload(std::uint64_t seed, bool corrupt_reference)
{
    AppConfig app;
    app.functional = true;
    app.seed = std::uint32_t(seed ^ (seed >> 32));
    auto refs = std::make_shared<std::vector<Reference>>(
        functionalReferences(app));
    if (corrupt_reference)
        refs->front().expected.front() += 1.0f;

    Workload w;
    w.modelled = {"model_err_pct"};
    for (std::size_t i = 0; i < refs->size(); ++i) {
        BatchSpec spec;
        spec.apps = {(*refs)[i].app};
        spec.app = app;
        spec.continuous = false;
        spec.check = [refs, i](const std::vector<DagPtr> &dags,
                               CellRun &run) {
            const Reference &ref = (*refs)[i];
            Dag &dag = *dags.front();
            const std::vector<float> &got =
                dag.leaves().front()->outputData;
            std::uint64_t digest = 14695981039346656037ull;
            for (float v : got) {
                std::uint32_t bits = 0;
                std::memcpy(&bits, &v, sizeof bits);
                digest = (digest ^ bits) * 1099511628211ull;
            }
            run.tally.outputDigest = digest;
            bool ok = dag.complete() && got.size() == ref.expected.size();
            for (std::size_t k = 0; ok && k < got.size(); ++k) {
                ok = ref.tolerance == 0.0f
                         ? got[k] == ref.expected[k]
                         : std::fabs(got[k] - ref.expected[k]) <=
                               ref.tolerance;
            }
            if (!ok)
                run.failures.push_back(dag.name() +
                                       ": output differs from the "
                                       "reference kernels");
        };
        w.cells.push_back({appName((*refs)[i].app),
                           [spec](CellContext &ctx) {
                               return runBatchCell(ctx, spec);
                           }});
    }
    return w;
}

/** One pass over every cell of a workload. */
struct Pass
{
    bool traced = false;
    std::uint64_t wallNs = 0;
    std::uint64_t setupNs = 0; ///< Workload set-up + every cell's.
    std::vector<CellRun> cells;
    std::uint64_t ops = 0;
    std::vector<std::string> failures; ///< Workload set-up failures.
};

Pass
runPass(Workload &w, bool traced, SpanLog *spans)
{
    Pass pass;
    pass.traced = traced;
    std::uint64_t start = nowNs();
    if (w.setup) {
        std::string err;
        try {
            err = w.setup();
        } catch (const std::exception &e) {
            err = e.what();
        }
        std::uint64_t end = nowNs();
        pass.setupNs += end - start;
        ++pass.ops;
        if (!err.empty())
            pass.failures.push_back("set-up: " + err);
        if (spans)
            spans->add("setup.pass", "", start, end, -1);
    }
    for (Cell &cell : w.cells) {
        CellContext ctx;
        ctx.traced = traced;
        ctx.spans = spans;
        if (spans)
            ctx.cellSpan = spans->add("cell", cell.name, nowNs(), 0, -1);
        CellRun run;
        try {
            run = cell.run(ctx);
        } catch (const std::exception &e) {
            run.failures.push_back(e.what());
        }
        for (std::string &f : run.failures)
            f = cell.name + ": " + f;
        if (spans)
            spans->spans[std::size_t(ctx.cellSpan)].end = nowNs();
        pass.setupNs += run.setupNs;
        ++pass.ops;
        pass.cells.push_back(std::move(run));
    }
    pass.wallNs = nowNs() - start;
    return pass;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    std::size_t lo = std::size_t(pos);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

/** Nearest-rank p99 of @p ticks, in simulated ms. */
double
p99Ms(std::vector<Tick> ticks)
{
    if (ticks.empty())
        return 0.0;
    std::sort(ticks.begin(), ticks.end());
    std::size_t rank = std::size_t(std::ceil(0.99 * double(ticks.size())));
    return toMs(ticks[std::max<std::size_t>(rank, 1) - 1]);
}

/**
 * Mean absolute error of each application's modelled compute time
 * against the paper's Table II. It guards drift in the tuning data;
 * nothing else in the model is checked against held-back measurements.
 */
double
modelErrorPct()
{
    const std::pair<AppId, double> table2Us[] = {
        {AppId::Canny, 3539.37}, {AppId::Deblur, 15610.58},
        {AppId::Gru, 1249.31},   {AppId::Harris, 6157.30},
        {AppId::Lstm, 1470.02},
    };
    double sum = 0.0;
    for (const auto &[app, paper_us] : table2Us) {
        double model_us = toUs(buildApp(app)->totalComputeTime());
        sum += std::fabs(model_us - paper_us) / paper_us * 100.0;
    }
    return sum / double(std::size(table2Us));
}

/** What a modelled end-to-end metric prints on a workload it does not
 *  describe: a fixed non-zero marker, listed in the diagnostics. */
constexpr double notApplicable = 1.0;

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    bool applies = true; ///< False: value is notApplicable.
};

double
sumNs(const std::vector<std::uint64_t> &ns)
{
    double s = 0.0;
    for (std::uint64_t v : ns)
        s += double(v);
    return s;
}

/** What the benchmark keeps of one cell across passes. */
struct CellStats
{
    Tally reference; ///< Pass 0's outcome.
    std::uint64_t fastestNs = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t fastestTracedNs =
        std::numeric_limits<std::uint64_t>::max();
    HostProfSnapshot prof;  ///< Of the fastest traced pass.
    std::uint64_t fnNs = 0; ///< Likewise.
    /** Allocation counts repeat exactly; the minimum over traced passes
     *  leaves out the bookkeeping of the pass that records spans. */
    std::uint64_t fewestAllocs = std::numeric_limits<std::uint64_t>::max();
};

/**
 * Everything the metrics need, folded in pass by pass, so memory (and
 * peak_rss_mb) stays flat however many passes run.
 */
struct Measurements
{
    std::vector<CellStats> cells;
    std::vector<double> setupS; ///< Per untraced pass.
    std::vector<double> passMs; ///< Per untraced pass.
    std::size_t tracedPasses = 0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< The first few.

    void
    note(const std::vector<std::string> &f)
    {
        for (std::size_t i = 0; i < f.size() && failures.size() < 20; ++i)
            failures.push_back(f[i]);
    }

    void
    absorb(Pass &pass, const Workload &w)
    {
        bool first = cells.empty();
        if (first)
            cells.resize(pass.cells.size());
        ops += pass.ops;
        failed += pass.failures.size();
        note(pass.failures);
        if (pass.traced) {
            ++tracedPasses;
        } else {
            setupS.push_back(double(pass.setupNs) / 1e9);
            passMs.push_back(double(pass.wallNs) / 1e6);
        }
        for (std::size_t c = 0; c < pass.cells.size(); ++c) {
            CellRun &run = pass.cells[c];
            CellStats &s = cells[c];
            if (first)
                s.reference = run.tally;
            else if (!run.tally.sameOutcome(s.reference))
                run.failures.push_back(w.cells[c].name +
                                       ": outcome differs from pass 0");
            if (!run.failures.empty())
                ++failed;
            note(run.failures);
            if (!pass.traced) {
                s.fastestNs = std::min(s.fastestNs, run.runNs);
                continue;
            }
            if (run.runNs < s.fastestTracedNs) {
                s.fastestTracedNs = run.runNs;
                s.prof = run.prof;
                s.fnNs = run.fnNs;
            }
            s.fewestAllocs = std::min(s.fewestAllocs, run.allocs);
        }
    }

    Tally
    total() const
    {
        Tally t;
        for (const CellStats &s : cells)
            t.add(s.reference);
        return t;
    }

    /** HostProf totals over each cell's fastest traced pass. */
    HostProfSnapshot
    profile() const
    {
        HostProfSnapshot prof;
        for (const CellStats &s : cells)
            prof.merge(s.prof);
        return prof;
    }

    std::vector<std::uint64_t>
    fastest(bool traced) const
    {
        std::vector<std::uint64_t> ns;
        for (const CellStats &s : cells)
            ns.push_back(traced ? s.fastestTracedNs : s.fastestNs);
        return ns;
    }
};

/** Peak resident set of this process so far, in MiB. */
double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::vector<Metric>
endToEndMetrics(const Measurements &m, const Tally &total,
                double peak_rss_mb, const std::vector<std::string> &modelled)
{
    double host_s = sumNs(m.fastest(false)) / 1e9;
    std::vector<Metric> out = {
        {"sim_ms_per_s", ratio(toMs(total.simTicks), host_s), "sim_ms/s"},
        {"setup_s", quantile(m.setupS, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"dag_deadline_frac",
         ratio(double(total.dagsMet), double(total.dagsFinished)), "frac"},
        {"dram_traffic_frac",
         ratio(double(total.dramBytes), double(total.baselineBytes)),
         "frac"},
        {"goodput_frac", ratio(double(total.dagsMet), double(total.offered)),
         "frac"},
        {"req_p99_ms", p99Ms(total.latencies), "sim_ms"},
        {"model_err_pct", modelErrorPct(), "%"},
    };
    // The host metrics describe every workload; the modelled ones only
    // the workloads that name them.
    for (std::size_t i = 3; i < out.size(); ++i) {
        out[i].applies = std::find(modelled.begin(), modelled.end(),
                                   out[i].name) != modelled.end();
        if (!out[i].applies)
            out[i].value = notApplicable;
    }
    return out;
}

std::vector<Metric>
perLayerMetrics(const Measurements &m, const Tally &total,
                const std::vector<probes::ProbeResult> &probe_results)
{
    // Host time: each cell's fastest traced pass, with the HostProf
    // totals of that same pass.
    std::vector<std::uint64_t> traced = m.fastest(true);
    std::vector<std::uint64_t> untraced = m.fastest(false);
    HostProfSnapshot prof = m.profile();
    double wall = double(prof.totalWallNs);
    double fn = 0.0, allocs = 0.0;
    for (const CellStats &s : m.cells) {
        fn += double(s.fnNs);
        allocs += double(s.fewestAllocs);
    }
    auto cat = [&prof](HostCat c) {
        return double(prof.cats[std::size_t(c)].wallNs);
    };
    auto events = [&prof](HostCat c) {
        return double(prof.cats[std::size_t(c)].events);
    };
    // HostProf charges compute-done events, which run the manager's
    // completion handling, to "kernels" (acc/accelerator.cc); the real
    // kernel payloads are timed separately by wrapping each node's fn.
    double manager_ns =
        std::max(0.0, cat(HostCat::Sched) + cat(HostCat::Kernels) - fn);
    double sim_ms = toMs(total.simTicks);
    // Requests exist only in serve; its metrics read 0 elsewhere.
    double offered = double(total.offered);

    std::vector<Metric> out = {
        {"manager.ns_per_event",
         ratio(manager_ns,
               events(HostCat::Sched) + events(HostCat::Kernels)),
         "ns"},
        {"manager.share", ratio(manager_ns, wall), "frac"},
        {"dma.ns_per_event",
         ratio(cat(HostCat::Dma), events(HostCat::Dma)), "ns"},
        {"mem.ns_per_claim", ratio(cat(HostCat::Mem), double(total.claims)),
         "ns"},
        {"interconnect.ns_per_transfer",
         ratio(cat(HostCat::Interconnect), double(total.fabricTransfers)),
         "ns"},
        {"memdma.share", ratio(cat(HostCat::Mem) + cat(HostCat::Dma), wall),
         "frac"},
        {"kernels.share", ratio(fn, wall), "frac"},
        {"serve.us_per_request", ratio(sumNs(traced) / 1e3, offered),
         "us/req"},
        {"stats.share", ratio(cat(HostCat::Stats), wall), "frac"},
        {"sim.ns_per_event", ratio(wall, double(total.events)), "ns"},
        {"sim.allocs_per_event",
         ratio(allocs, double(total.events)), "allocs/event"},
        {"hostprof.coverage", prof.coverage(), "frac"},
        {"trace.overhead_frac",
         ratio(sumNs(traced), sumNs(untraced)) - 1.0, "frac"},

        {"sim.events_per_sim_ms", ratio(double(total.events), sim_ms),
         "events/ms"},
        {"sim.cancelled_frac",
         ratio(double(total.cancelled), double(total.scheduled)), "frac"},
        {"mem.claims_per_sim_ms", ratio(double(total.claims), sim_ms),
         "claims/ms"},
        {"dma.transfers_per_sim_ms",
         ratio(double(total.dmaTransfers), sim_ms), "xfers/ms"},
        {"serve.requests_per_sim_s", ratio(offered, sim_ms / 1e3), "req/s"},
        {"serve.reject_frac", ratio(double(total.rejected), offered),
         "frac"},
        {"serve.shed_frac", ratio(double(total.shed), offered), "frac"},
        {"trace.kept_frac", ratio(double(total.tracesKept), offered),
         "frac"},
    };
    for (int b = 0; b < numLatencyBuckets; ++b) {
        out.push_back({std::string("cp.") + latencyBucketName(b) + "_us",
                       ratio(total.cpUs[std::size_t(b)],
                             double(total.cpDags)),
                       "sim_us"});
    }
    std::vector<Metric> sim = {
        {"sched.queue_depth_mean",
         ratio(total.queueDepthSum, double(total.queueDepthSamples)),
         "nodes"},
        {"sched.promote_grant_frac",
         ratio(double(total.promoteGranted),
               double(total.promoteDecisions)),
         "frac"},
        {"manager.busy_frac",
         ratio(double(total.managerBusy), double(total.simTicks)), "frac"},
        {"manager.forward_frac",
         ratio(double(total.edgesOnChip), double(total.edges)), "frac"},
        {"mem.dram_wait_us_per_claim",
         ratio(toUs(total.dramWait), double(total.dramClaims)),
         "sim_us"},
        {"dma.spill_frac",
         ratio(double(total.spillBytes), double(total.dmaBytes)), "frac"},
        {"interconnect.occupancy",
         ratio(double(total.fabricBusy), double(total.simTicks)), "frac"},
    };
    out.insert(out.end(), sim.begin(), sim.end());
    for (const probes::ProbeResult &p : probe_results)
        out.push_back({p.name, p.value, p.unit});
    return out;
}

/**
 * Largest gap, over the recorded cells, between the sum of span self
 * times (duration minus the children's durations, floored at 0) and
 * the cell's wall time, as a fraction of that wall time.
 */
double
maxSelfTimeError(const SpanLog &log)
{
    const std::vector<Span> &spans = log.spans;
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = double(spans[i].end) - double(spans[i].start);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            self[std::size_t(s.parent)] -= double(s.end) - double(s.start);
    }
    std::vector<int> root(spans.size());
    std::vector<double> self_sum(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        // Parents precede their children in the log.
        root[i] = spans[i].parent < 0 ? int(i)
                                      : root[std::size_t(spans[i].parent)];
        self_sum[std::size_t(root[i])] += std::max(0.0, self[i]);
    }
    double worst = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != "cell")
            continue;
        double wall = double(spans[i].end) - double(spans[i].start);
        worst = std::max(worst, std::fabs(self_sum[i] - wall) / wall);
    }
    return worst;
}

void
writeSpans(const std::string &path, const std::string &workload,
           const SpanLog &log, std::uint64_t origin)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path);
    out << "{\"workload\": \"" << jsonEscape(workload)
        << "\", \"unit\": \"ns\", \"spans\": [";
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
        const Span &s = log.spans[i];
        out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
            << ", \"parent\": " << s.parent << ", \"name\": \""
            << jsonEscape(s.name) << "\", \"detail\": \""
            << jsonEscape(s.detail) << "\", \"start\": "
            << s.start - origin << ", \"end\": " << s.end - origin << "}";
    }
    out << "\n]}\n";
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "relief_benchmark: " << error
              << "\nusage: relief_benchmark --workload "
                 "matrix|burst-banked|serve|functional [--seed N] "
                 "[--passes N] [--max-seconds S] [--trace] [--smoke] "
                 "[--trace-out FILE] [--corrupt-reference]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 19)
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return std::stoull(text);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 1;
    std::uint64_t passes = 1;
    std::uint64_t max_seconds = 60;
    bool trace = false;
    bool smoke = false;
    bool corrupt_reference = false;
    std::string trace_out;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            workload_name = value();
        else if (arg == "--seed")
            seed = parseUnsigned(arg, value());
        else if (arg == "--passes")
            passes = parseUnsigned(arg, value());
        else if (arg == "--max-seconds")
            max_seconds = parseUnsigned(arg, value());
        else if (arg == "--trace")
            trace = true;
        else if (arg == "--smoke")
            smoke = true;
        else if (arg == "--trace-out")
            trace_out = value();
        else if (arg == "--corrupt-reference")
            corrupt_reference = true;
        else
            usage("unknown flag '" + arg + "'");
    }
    if (passes == 0 || passes > 100000)
        usage("--passes must be in [1, 100000]");
    if (max_seconds == 0 || max_seconds > 3600)
        usage("--max-seconds must be in [1, 3600]");
    if (smoke)
        passes = 1;

    setInformEnabled(false);
    std::uint64_t origin = nowNs();
    Workload workload;
    try {
        if (workload_name == "matrix")
            workload = triplesWorkload(SocConfig{}, allPolicies);
        else if (workload_name == "burst-banked")
            workload = burstWorkload();
        else if (workload_name == "serve")
            workload = serveWorkload(seed);
        else if (workload_name == "functional")
            workload = functionalWorkload(seed, corrupt_reference);
        else
            usage("unknown workload '" + workload_name + "'");
    } catch (const std::exception &e) {
        std::cerr << "relief_benchmark: " << e.what() << "\n";
        return 1;
    }
    if (smoke && workload.cells.size() > 2)
        workload.cells.resize(2);

    std::uint64_t deadline = nowNs() + max_seconds * 1000000000ull;
    std::vector<probes::ProbeResult> probe_results;
    if (trace) {
        probes::ProbeBudget budget;
        if (smoke)
            budget = {1, 20000};
        probe_results = probes::runLayerProbes(budget);
    }

    // Untraced runs make --passes passes. Traced runs make --passes
    // pairs of an untraced and a traced pass, so both see the same host
    // conditions and their difference is the tracing overhead.
    Measurements m;
    SpanLog spans;
    double peak_rss_mb = 0.0;
    bool stopped_early = false;
    for (std::uint64_t p = 0; p < passes; ++p) {
        if (p > 0 && nowNs() >= deadline) {
            stopped_early = true;
            break;
        }
        Pass pass = runPass(workload, false, nullptr);
        m.absorb(pass, workload);
        // Memory one pass of the workload needs; repeats only add
        // allocator reuse.
        if (peak_rss_mb == 0.0)
            peak_rss_mb = peakRssMb();
        if (trace) {
            bool record = spans.spans.empty();
            Pass traced = runPass(workload, true, record ? &spans : nullptr);
            m.absorb(traced, workload);
        }
    }

    double self_err = 0.0;
    if (trace) {
        self_err = maxSelfTimeError(spans);
        if (self_err > 0.05) {
            ++m.failed;
            m.note({"span self times miss cell wall time by " +
                    num(self_err * 100.0) + "%"});
        }
    }

    Tally total = m.total();
    std::vector<Metric> metrics =
        trace ? perLayerMetrics(m, total, probe_results)
              : endToEndMetrics(m, total, peak_rss_mb, workload.modelled);

    std::ostringstream os;
    os << "{\n  \"schema\": \"relief-perfbench-run-v1\",\n"
       << "  \"workload\": \"" << jsonEscape(workload_name) << "\",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"trace\": " << (trace ? 1 : 0) << ",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"ops\": " << m.ops << ",\n"
       << "  \"ops_failed\": " << m.failed << ",\n"
       << "  \"failures\": [";
    for (std::size_t i = 0; i < m.failures.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(m.failures[i]) << "\"";
    os << "],\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ",\n    " : "\n    ") << "\"" << metrics[i].name
           << "\": {\"value\": " << num(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(total.outputDigest));
    os << "\n  },\n  \"diagnostics\": {\n"
       << "    \"not_applicable\": [";
    const char *sep = "";
    for (const Metric &metric : metrics) {
        if (!metric.applies) {
            os << sep << "\"" << metric.name << "\"";
            sep = ", ";
        }
    }
    os << "],\n"
       << "    \"cells\": " << m.cells.size() << ",\n"
       << "    \"passes_planned\": " << passes << ",\n"
       << "    \"stopped_early\": " << (stopped_early ? "true" : "false")
       << ",\n"
       << "    \"passes\": " << m.passMs.size() << ",\n"
       << "    \"traced_passes\": " << m.tracedPasses << ",\n"
       << "    \"pass_wall_ms_median\": " << num(quantile(m.passMs, 0.5))
       << ",\n"
       << "    \"pass_wall_ms_p90\": " << num(quantile(m.passMs, 0.9))
       << ",\n"
       << "    \"sim_events_per_pass\": " << total.events << ",\n"
       << "    \"dags_finished_per_pass\": " << total.dagsFinished << ",\n"
       << "    \"output_digest\": \"" << digest << "\",\n"
       << "    \"span_self_time_err\": " << num(self_err);
    if (trace) {
        os << ",\n    \"hostprof_share\": {";
        HostProfSnapshot prof = m.profile();
        for (std::size_t c = 0; c < numHostCats; ++c) {
            os << (c ? ", " : "") << "\"" << hostCatName(HostCat(c))
               << "\": "
               << num(ratio(double(prof.cats[c].wallNs),
                            double(prof.totalWallNs)));
        }
        os << "}";
    }
    os << "\n  },\n  \"build_info\": ";
    writeBuildInfoJson(os, 2);
    os << "\n}\n";
    std::cout << os.str();

    if (trace && !trace_out.empty()) {
        try {
            writeSpans(trace_out, workload_name, spans, origin);
        } catch (const std::exception &e) {
            std::cerr << "relief_benchmark: " << e.what() << "\n";
            return 1;
        }
    }
    return 0;
}
