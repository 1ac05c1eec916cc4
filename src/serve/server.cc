#include "serve/server.hh"

#include <algorithm>
#include <utility>

#include "core/experiment.hh"
#include "core/rng.hh"
#include "dag/apps/apps.hh"
#include "kernels/scratch.hh"
#include "sim/build_info.hh"
#include "sim/logging.hh"
#include "stats/json.hh"
#include "stats/table.hh"

namespace relief
{

ServeDriver::ServeDriver(const ServeConfig &config) : config_(config)
{
    if (config_.horizon == 0)
        fatal("serving horizon must be positive");
    if (config_.classes.empty())
        fatal("serving needs at least one QoS class");

    // Fresh ids per run: reports become a pure function of the config
    // and seed, identical on any parallelFor worker (see dag.hh).
    resetNodeIds();
    resetKernelScratch(); // likewise for the kernels.scratch_* stats
    // Serve classes register with the pressure ledger as QoS ids 1..N,
    // after its implicit "default" class 0 (untagged traffic, spills).
    config_.soc.qosClassNames.clear();
    for (const QosClassConfig &cls : config_.classes)
        config_.soc.qosClassNames.push_back(cls.name);
    soc_ = std::make_unique<Soc>(config_.soc);
    admission_ = makeAdmissionPolicy(config_.admission);
    schedule_ = generateArrivals(config_.arrival, config_.classes,
                                 config_.horizon,
                                 deriveSeed(config_.seed, 0));
    requests_.resize(schedule_.size());
    // Pools fill on first use: building here would move DAG builds
    // into set-up, and into runs that never see the app.
    pools_.resize(config_.classes.size() * allApps.size());

    parallelism_ = 0;
    for (int n : config_.soc.instances)
        parallelism_ += n;
    if (parallelism_ < 1)
        parallelism_ = 1;

    slo_.resize(config_.classes.size());
    for (std::size_t i = 0; i < config_.classes.size(); ++i) {
        slo_[i].name = config_.classes[i].name;
        slo_[i].horizon = config_.horizon;
    }
    total_.name = "total";
    total_.horizon = config_.horizon;

    perClassInSystem_.assign(config_.classes.size(), 0);

    // The driver takes the Soc's place as the DAG observer, and keys
    // the periodic services on real serving work.
    soc_->manager().setDagObserver(*this);
    soc_->sim().setLiveness(this);

    const ServeTelemetryConfig &telemetry = config_.telemetry;
    if (telemetry.perfetto) {
        soc_->enableTracing(telemetry.samplePeriod);
        if (IntervalSampler *sampler = soc_->sampler()) {
            sampler->addProbe("serve.in_flight",
                              [this] { return double(inSystem_); });
            for (std::size_t i = 0; i < config_.classes.size(); ++i) {
                const std::string &name = config_.classes[i].name;
                sampler->addProbe("serve." + name + ".in_system",
                                  [this, i] {
                                      return double(perClassInSystem_[i]);
                                  });
                sampler->addProbe("serve." + name + ".shed",
                                  [this, i] {
                                      return double(slo_[i].shed +
                                                    slo_[i].rejected);
                                  });
            }
        }
    }
    if (telemetry.traceRequests) {
        TailSamplerConfig sc;
        sc.okFraction = telemetry.okFraction;
        sc.seed = deriveSeed(config_.seed, 1);
        sampler_ = std::make_unique<TailSampler>(sc);
    }
    if (!telemetry.exposition.path.empty()) {
        exposition_ = std::make_unique<StatExposition>(
            soc_->sim(), soc_->stats(), telemetry.exposition);
    }
    if (telemetry.alerts) {
        alerts_ = std::make_unique<BurnRateAlerts>(
            soc_->sim(), telemetry.burnRate, &slo_);
    }

    // After the telemetry objects exist, so their stats register too.
    registerStats();
}

ServeDriver::~ServeDriver() = default;

void
ServeDriver::registerStats()
{
    StatRegistry &stats = soc_->stats();
    static constexpr StatDef perClass[] = {
        StatDef::counter(".offered", "requests generated",
                         [](const ClassSlo &c) { return c.offered; }),
        StatDef::counter(".admitted", "requests admitted",
                         [](const ClassSlo &c) { return c.admitted; }),
        StatDef::counter(".shed", "requests dropped by load shedding",
                         [](const ClassSlo &c) { return c.shed; }),
        StatDef::counter(".rejected",
                         "requests dropped as predicted infeasible",
                         [](const ClassSlo &c) { return c.rejected; }),
        StatDef::counter(".completed",
                         "requests finished within the horizon",
                         [](const ClassSlo &c) { return c.completed; }),
        StatDef::counter(".missed", "completions past their deadline",
                         [](const ClassSlo &c) { return c.missed; }),
        StatDef::counter(".in_flight",
                         "requests still executing at the horizon",
                         [](const ClassSlo &c) { return c.inFlight; }),
        StatDef::formula(".goodput_rps",
                         "deadline-meeting completions per second",
                         [](const ClassSlo &c) { return c.goodputRps(); }),
        StatDef::formula(".miss_rate", "missed / completed",
                         [](const ClassSlo &c) { return c.missRate(); }),
        StatDef::formula(".shed_rate", "(shed + rejected) / offered",
                         [](const ClassSlo &c) { return c.shedRate(); }),
        StatDef::histogram(".latency_ms", "end-to-end request latency (ms)",
                           [](const ClassSlo &c) { return &c.latencyMs; }),
        StatDef::histogram(".time_in_system_ms",
                           "request time in system (ms)",
                           [](const ClassSlo &c) {
                               return &c.timeInSystemMs;
                           }),
    };
    stats.bind(perClass, &total_, "serve");
    for (const ClassSlo &slo : slo_)
        stats.bind(perClass, &slo, "serve." + slo.name);

    static constexpr StatDef pools[] = {
        StatDef::counter("serve.dag_builds",
                         "request DAG instances built (the rest are reused)",
                         [](const ServeDriver &d) {
                             std::size_t builds = 0;
                             for (const DagPool &pool : d.pools_)
                                 builds += pool.instances.size();
                             return builds;
                         }),
    };
    stats.bind(pools, this);

    if (sampler_) {
        using Summary = TailSampleSummary;
        static constexpr StatDef sampling[] = {
            StatDef::counter("serve.trace.kept_ok",
                             "sampled-in OK request traces",
                             [](const Summary &s) { return s.keptOk; }),
            StatDef::counter("serve.trace.kept_miss",
                             "kept SLO-miss / in-flight traces",
                             [](const Summary &s) { return s.keptMiss; }),
            StatDef::counter("serve.trace.kept_shed", "kept shed traces",
                             [](const Summary &s) { return s.keptShed; }),
            StatDef::counter("serve.trace.kept_rejected",
                             "kept rejected traces",
                             [](const Summary &s) {
                                 return s.keptRejected;
                             }),
            StatDef::counter("serve.trace.dropped",
                             "sampled-out OK request traces",
                             [](const Summary &s) { return s.dropped; }),
        };
        stats.bind(sampling, &sampler_->summary());
    }
    if (alerts_) {
        using State = BurnRateAlerts::ClassState;
        static constexpr StatDef alerting[] = {
            StatDef::counter(".alert_opens", "burn-rate alert openings",
                             [](const State &a) { return a.opens; }),
            StatDef::counter(".alert_closes", "burn-rate alert closings",
                             [](const State &a) { return a.closes; }),
            StatDef::scalar(".alert_active",
                            "burn-rate alert currently open",
                            [](const State &a) {
                                return a.open ? 1.0 : 0.0;
                            }),
        };
        for (std::size_t i = 0; i < slo_.size(); ++i)
            stats.bind(alerting, &alerts_->classState(i),
                       "serve." + slo_[i].name);
    }
    if (exposition_) {
        static constexpr StatDef telemetry[] = {
            StatDef::counter("serve.telemetry.snapshots",
                             "exposition snapshots published",
                             [](const StatExposition &e) {
                                 return e.numSnapshots();
                             }),
        };
        stats.bind(telemetry, exposition_.get());
    }
}

ServeDriver::DagPool &
ServeDriver::poolFor(AppId app, int qos_class)
{
    auto app_index = std::size_t(
        std::find(allApps.begin(), allApps.end(), app) - allApps.begin());
    return pools_[std::size_t(qos_class) * allApps.size() + app_index];
}

Dag *
ServeDriver::buildInstance(DagPool &pool, const ArrivalEvent &event)
{
    const QosClassConfig &cls =
        config_.classes[std::size_t(event.qosClass)];
    pool.instances.push_back(
        buildApp(event.app, config_.app, cls.deadlineScale));
    return pool.instances.back().get();
}

ServeRequest &
ServeDriver::requestOf(const Dag &dag)
{
    // Span-context id 0 means "untraced"; request ids start at 0, so
    // the context is the id shifted up by one.
    std::uint64_t context = dag.spanContext();
    RELIEF_ASSERT(context != 0 && context <= requests_.size(),
                  "no request owns DAG ", dag.name());
    return requests_[std::size_t(context - 1)];
}

void
ServeDriver::onArrival(std::size_t index)
{
    ++arrivalsSeen_;
    const ArrivalEvent &event = schedule_[index];

    ServeRequest &request = requests_[index];
    request.id = index;
    request.qosClass = event.qosClass;
    request.app = event.app;
    request.arrival = event.time;

    // Every arrival consumes the node ids a fresh build would, as ids
    // seed DRAM stream hints: a new instance takes them in addNode, a
    // reused one restamps, a refused request skips them.
    DagPool &pool = poolFor(event.app, event.qosClass);
    const bool built = pool.instances.empty();
    if (built)
        pool.free.push_back(buildInstance(pool, event));
    const Dag &model = *pool.instances.front();
    request.relDeadline = model.relativeDeadline();

    AdmissionContext ctx;
    ctx.now = soc_->sim().now();
    ctx.inSystem = inSystem_;
    ctx.backlog = backlog_;
    ctx.parallelism = parallelism_;
    request.verdict = admission_->decide(request, model, ctx);

    ClassSlo &slo = slo_[std::size_t(event.qosClass)];
    slo.offered += 1;
    total_.offered += 1;
    if (request.verdict != AdmissionVerdict::Admitted && !built)
        skipNodeIds(model.numNodes());
    switch (request.verdict) {
      case AdmissionVerdict::Shed:
        slo.shed += 1;
        total_.shed += 1;
        recordDropTrace(request, RequestOutcome::Shed);
        return; // takes no instance
      case AdmissionVerdict::Rejected:
        slo.rejected += 1;
        total_.rejected += 1;
        recordDropTrace(request, RequestOutcome::Rejected);
        return;
      case AdmissionVerdict::Admitted:
        break;
    }

    Dag *dag = nullptr;
    if (pool.free.empty()) {
        dag = buildInstance(pool, event);
    } else {
        dag = pool.free.back();
        pool.free.pop_back();
        if (!built)
            dag->restampIds();
    }
    request.firstNode = dag->node(0)->id;

    slo.admitted += 1;
    total_.admitted += 1;
    inSystem_ += 1;
    perClassInSystem_[std::size_t(event.qosClass)] += 1;
    backlog_ += dag->criticalPathRuntime();
    // The ledger QoS id is the class index shifted past the implicit
    // "default"; the span context is the request id plus one.
    dag->setSpanContext(std::uint64_t(index) + 1);
    dag->setQosClass(int(event.qosClass) + 1);
    soc_->manager().submitDag(dag, soc_->sim().now());
}

/** Shed / rejected requests never execute: keep a root-only trace
 *  (finish == arrival) when the sampler says so. */
void
ServeDriver::recordDropTrace(const ServeRequest &request,
                             RequestOutcome outcome)
{
    if (!sampler_ || !sampler_->keep(request.id, outcome))
        return;
    // Context id + 1 even though no DAG ever carried it: every kept
    // trace gets its own async track in the Perfetto export.
    kept_.push_back(beginRequestTrace(
        request.id, request.id + 1,
        config_.classes[std::size_t(request.qosClass)].name,
        appName(request.app), outcome, request.arrival, request.arrival,
        request.absoluteDeadline()));
}

/**
 * The path's nodes still hold this execution's lifecycle stamps, so
 * this is the one moment the request's span tree can be assembled.
 * Runs before dagCompleted.
 */
void
ServeDriver::dagAttributed(Dag *dag, const DagLatencyRecord &record,
                           const std::vector<const Node *> &path)
{
    if (!sampler_)
        return; // request tracing is off
    const ServeRequest &request = requestOf(*dag);
    RequestOutcome outcome =
        record.finish > request.absoluteDeadline() ? RequestOutcome::Miss
                                                   : RequestOutcome::Ok;
    if (!sampler_->keep(request.id, outcome))
        return;

    RequestTrace trace = beginRequestTrace(
        request.id, dag->spanContext(),
        config_.classes[std::size_t(request.qosClass)].name,
        appName(request.app), outcome, request.arrival, record.finish,
        request.absoluteDeadline());
    trace.buckets.queueWait = record.buckets.queueWait;
    trace.buckets.managerOverhead = record.buckets.managerOverhead;
    trace.buckets.dmaIn = record.buckets.dmaIn;
    trace.buckets.compute = record.buckets.compute;
    trace.buckets.dmaOut = record.buckets.dmaOut;
    trace.buckets.depStall = record.buckets.depStall;

    // The analyzer's path is sink-first; span sources are root-first.
    std::vector<SpanSource> sources;
    sources.reserve(path.size());
    for (auto it = path.rbegin(); it != path.rend(); ++it)
        sources.push_back({(*it)->label, (*it)->lifecycle});
    addCriticalPathSpans(trace, sources);
    kept_.push_back(std::move(trace));
}

void
ServeDriver::dagCompleted(Dag *dag)
{
    ServeRequest &request = requestOf(*dag);
    RELIEF_ASSERT(!request.finished, "request ", request.id,
                  " completed twice");
    request.finished = true;
    request.finish = dag->finishTick();

    inSystem_ -= 1;
    perClassInSystem_[std::size_t(request.qosClass)] -= 1;
    backlog_ -= dag->criticalPathRuntime();

    double latency_ms = toMs(request.finish - request.arrival);
    ClassSlo &slo = slo_[std::size_t(request.qosClass)];
    for (ClassSlo *s : {&slo, &total_}) {
        s->completed += 1;
        if (request.finish > request.absoluteDeadline())
            s->missed += 1;
        s->latencyMs.sample(latency_ms);
        s->timeInSystemMs.sample(latency_ms);
    }
}

/** The manager is done with @p dag: back to its pool for reuse. */
void
ServeDriver::dagRetired(Dag *dag)
{
    const ServeRequest &request = requestOf(*dag);
    poolFor(request.app, request.qosClass).free.push_back(dag);
}

bool
ServeDriver::alive() const
{
    return arrivalsSeen_ < schedule_.size() || inSystem_ > 0;
}

void
ServeDriver::scheduleArrival(std::size_t index)
{
    soc_->sim().atReserved(schedule_[index].time, arrivalSeqs_ + index,
                           HostCat::Serve,
                           [this, index] {
                               if (index + 1 < schedule_.size())
                                   scheduleArrival(index + 1);
                               onArrival(index);
                           },
                           "serve.arrival");
}

ServeReport
ServeDriver::run()
{
    RELIEF_ASSERT(!ran_, "ServeDriver::run is single-shot");
    ran_ = true;

    // Arrivals are chained: each schedules the next under the sequence
    // number it would have had were all scheduled here, so the heap
    // holds one pending arrival, not the horizon's, and every same-tick
    // tie fires as before.
    arrivalSeqs_ = soc_->sim().reserveSeqs(schedule_.size());
    if (!schedule_.empty())
        scheduleArrival(0);
    if (exposition_)
        exposition_->start();
    if (alerts_)
        alerts_->start();
    soc_->run(config_.horizon);

    // Requests still executing at the horizon: counted as in-flight
    // (neither completed nor missed) and sampled into time-in-system
    // at their observed residence so saturation shows up in the tail.
    for (const ServeRequest &request : requests_) {
        if (request.verdict != AdmissionVerdict::Admitted ||
            request.finished) {
            continue;
        }
        double resident_ms = toMs(config_.horizon - request.arrival);
        ClassSlo &slo = slo_[std::size_t(request.qosClass)];
        for (ClassSlo *s : {&slo, &total_}) {
            s->inFlight += 1;
            s->timeInSystemMs.sample(resident_ms);
        }
        // In-flight requests never reach dagAttributed; keep a
        // root-only trace truncated at the horizon (always kept:
        // in-flight is anomalous).
        if (sampler_ &&
            sampler_->keep(request.id, RequestOutcome::InFlight)) {
            kept_.push_back(beginRequestTrace(
                request.id, request.id + 1,
                config_.classes[std::size_t(request.qosClass)].name,
                appName(request.app), RequestOutcome::InFlight,
                request.arrival, config_.horizon,
                request.absoluteDeadline()));
        }
    }

    if (alerts_)
        alerts_->finish(soc_->sim().now());
    if (exposition_)
        exposition_->snapshotNow();

    if (sampler_) {
        // Completion order already is deterministic, but id order makes
        // the exported documents easy to diff and to validate.
        std::sort(kept_.begin(), kept_.end(),
                  [](const RequestTrace &a, const RequestTrace &b) {
                      return a.id < b.id;
                  });
        if (TraceRecorder *trace = soc_->trace()) {
            for (const RequestTrace &kept : kept_)
                emitAsyncSlices(*trace, kept);
        }
    }

    ServeReport report;
    report.horizon = config_.horizon;
    report.classes = slo_;
    report.total = total_;
    report.soc = soc_->report();
    if (sampler_)
        report.sampling = sampler_->summary();
    if (alerts_) {
        report.alerts = alerts_->summary();
        report.alertEvents = alerts_->events();
    }
    const PressureLedger &ledger = soc_->pressureLedger();
    report.pressure.reserve(std::size_t(ledger.numQosClasses()));
    for (int qos = 0; qos < ledger.numQosClasses(); ++qos)
        report.pressure.push_back(
            {ledger.qosClassName(qos), ledger.qosTotal(qos)});
    return report;
}

void
printSloTable(std::ostream &os, const ServeReport &report,
              const std::string &title)
{
    Table table(title);
    table.setHeader({"class", "offered", "admit", "shed", "reject",
                     "done", "miss", "inflight", "goodput_rps",
                     "miss%", "shed%", "p50_ms", "p95_ms", "p99_ms"});
    auto row = [&](const ClassSlo &slo) {
        table.addRow({slo.name, std::to_string(slo.offered),
                      std::to_string(slo.admitted),
                      std::to_string(slo.shed),
                      std::to_string(slo.rejected),
                      std::to_string(slo.completed),
                      std::to_string(slo.missed),
                      std::to_string(slo.inFlight),
                      Table::num(slo.goodputRps(), 1),
                      Table::num(slo.missRate() * 100.0, 1),
                      Table::num(slo.shedRate() * 100.0, 1),
                      Table::num(slo.latencyMs.quantile(0.50), 2),
                      Table::num(slo.latencyMs.quantile(0.95), 2),
                      Table::num(slo.latencyMs.quantile(0.99), 2)});
    };
    for (const ClassSlo &slo : report.classes)
        row(slo);
    row(report.total);
    table.emit(os);
}

namespace
{

void
writeQuantiles(JsonWriter &w, const char *name, const Histogram &hist)
{
    w.key(name).beginObject(JsonLayout::Inline)
        .field("mean", hist.mean())
        .field("p50", hist.quantile(0.50))
        .field("p95", hist.quantile(0.95))
        .field("p99", hist.quantile(0.99))
        .field("max", hist.max())
        .end();
}

/** One ClassSlo: counters, rates, latency and time-in-system quantiles. */
void
writeClassSloJson(JsonWriter &w, const ClassSlo &slo)
{
    w.beginObject()
        .field("name", slo.name)
        .field("offered", slo.offered)
        .field("admitted", slo.admitted)
        .field("shed", slo.shed)
        .field("rejected", slo.rejected)
        .field("completed", slo.completed)
        .field("missed", slo.missed)
        .field("in_flight", slo.inFlight)
        .field("goodput_rps", slo.goodputRps())
        .field("miss_rate", slo.missRate())
        .field("shed_rate", slo.shedRate());
    writeQuantiles(w, "latency_ms", slo.latencyMs);
    writeQuantiles(w, "time_in_system_ms", slo.timeInSystemMs);
    w.end();
}

} // namespace

void
writeServeRunJson(JsonWriter &w, const ServeReport &report,
                  const std::string &policy, const std::string &admission,
                  const std::string &arrival, double offered_load,
                  double rate_rps)
{
    w.beginObject()
        .field("policy", policy)
        .field("admission", admission)
        .field("arrival", arrival)
        .field("offered_load", offered_load)
        .field("rate_rps", rate_rps)
        .key("total");
    writeClassSloJson(w, report.total);
    w.key("classes").beginArray();
    for (const ClassSlo &slo : report.classes)
        writeClassSloJson(w, slo);
    w.end().key("pressure").beginArray();
    for (const ServeReport::QosPressure &qos : report.pressure) {
        w.beginObject(JsonLayout::Inline)
            .field("class", qos.name)
            .field("bytes", qos.slot.bytes)
            .field("transfers", qos.slot.transfers)
            .field("service_us", toUs(qos.slot.serviceTicks))
            .field("wait_suffered_us", toUs(qos.slot.waitSuffered))
            .field("wait_caused_us", toUs(qos.slot.waitCaused))
            .end();
    }
    w.end().key("alerts");
    writeAlertsJson(w, report.alerts, report.alertEvents);
    w.end();
}

void
writeServeDocument(std::ostream &os, const ServeDocument &doc)
{
    JsonWriter w(os);
    w.beginObject().field("schema", "relief-serve-v1").key("build_info");
    writeBuildInfoJson(w);
    w.field("seed", doc.seed)
        .field("horizon_ms", doc.horizonMs)
        .field("smoke", doc.smoke)
        .field("capacity_rps", doc.capacityRps)
        .key("runs").beginArray();
    for (const ServeDocument::Run &run : doc.runs) {
        writeServeRunJson(w, *run.report, run.policy, run.admission,
                          run.arrival, run.offeredLoad, run.rateRps);
    }
    w.end().key("saturation").beginArray();
    for (const ServeDocument::Knee &knee : doc.saturation) {
        w.beginObject(JsonLayout::Inline)
            .field("policy", knee.policy)
            .field("knee_load", knee.load)
            .end();
    }
    w.end().end();
    os << "\n";
}

double
measureCapacityRps(const SocConfig &soc, const AppConfig &app)
{
    ExperimentConfig config;
    config.soc = soc;
    config.soc.policy = PolicyKind::Fcfs;
    config.mix = "CDGHL";
    config.continuous = true;
    config.timeLimit = continuousWindow;
    config.app = app;
    MetricsReport report = runExperiment(config);
    double seconds = double(config.timeLimit) / double(tickPerSec);
    double capacity = double(report.run.dagsFinished) / seconds;
    RELIEF_ASSERT(capacity > 0.0, "capacity calibration finished no DAGs");
    return capacity;
}

} // namespace relief
