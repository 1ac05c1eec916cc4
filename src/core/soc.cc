#include "core/soc.hh"
#include "sim/build_info.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <utility>

#include "kernels/scratch.hh"
#include "sched/relief.hh"
#include "sim/logging.hh"
#include "stats/json.hh"
#include "stats/table.hh"

namespace relief
{

double
AppOutcome::meanSlowdown() const
{
    if (slowdowns.empty())
        return std::numeric_limits<double>::infinity();
    return geomean(slowdowns);
}

double
AppOutcome::maxSlowdown() const
{
    if (slowdowns.empty())
        return std::numeric_limits<double>::infinity();
    return *std::max_element(slowdowns.begin(), slowdowns.end());
}

double
MetricsReport::dramTrafficFraction() const
{
    return run.baselineBytes ? double(dramBytes) / double(run.baselineBytes)
                             : 0.0;
}

double
MetricsReport::spmTrafficFraction() const
{
    return run.baselineBytes
               ? double(spmForwardBytes) / double(run.baselineBytes)
               : 0.0;
}

Soc::Soc(const SocConfig &config) : config_(config)
{
    if (config.bankedMemory) {
        // Bank knobs come from config.banked; the channel-level knobs
        // (peak bandwidth, latency, energy) follow config.mem.
        BankedMemoryConfig banked = config.banked;
        static_cast<MainMemoryConfig &>(banked) = config.mem;
        dram_ = std::make_unique<BankedMemory>(sim_, "soc.dram", banked);
    } else {
        dram_ = std::make_unique<MainMemory>(sim_, "soc.dram",
                                             config.mem);
    }
    switch (config.fabric) {
      case FabricKind::Bus:
        fabric_ = std::make_unique<Bus>(sim_, "soc.bus", config.bus);
        break;
      case FabricKind::Crossbar:
        fabric_ = std::make_unique<Crossbar>(sim_, "soc.xbar",
                                             config.crossbar);
        break;
      case FabricKind::Ring:
        fabric_ = std::make_unique<Ring>(sim_, "soc.ring", config.ring);
        break;
    }
    dramPort_ = fabric_->registerPort("dram");

    std::vector<Accelerator *> acc_ptrs;
    for (AccType type : allAccTypes) {
        for (int i = 0; i < config.instances[accIndex(type)]; ++i) {
            ScratchpadConfig spm;
            spm.sizeBytes = defaultSpmBytes(type);
            spm.numOutputPartitions = config.spmPartitions;
            std::string acc_name = std::string("soc.") +
                                   accTypeName(type) + std::to_string(i);
            accs_.push_back(std::make_unique<Accelerator>(
                sim_, acc_name, type, i, *fabric_, dramPort_, *dram_, spm,
                config.dma));
            acc_ptrs.push_back(accs_.back().get());
        }
    }

    auto predictor = std::make_unique<RuntimePredictor>(
        config.bwPredictor, config.dmPredictor, config.mem.peakGBs,
        config.instances);

    std::unique_ptr<Policy> policy;
    bool relief_family = config.policy == PolicyKind::Relief ||
                         config.policy == PolicyKind::ReliefLax ||
                         config.policy == PolicyKind::ReliefHetSched;
    if (relief_family && !config.reliefFeasibilityCheck) {
        ReliefOptions options;
        options.laxDispatch = config.policy == PolicyKind::ReliefLax;
        options.scheme = config.policy == PolicyKind::ReliefHetSched
                             ? DeadlineScheme::Sdr
                             : DeadlineScheme::CriticalPath;
        options.feasibilityCheck = false;
        policy = std::make_unique<ReliefPolicy>(options);
    } else {
        policy = makePolicy(config.policy);
    }

    manager_ = std::make_unique<HardwareManager>(
        sim_, "soc.manager", std::move(policy), std::move(predictor),
        acc_ptrs, config.manager);
    manager_->setDagObserver(*this);

    // Pressure ledger: register every requestor and every bandwidth
    // resource on the DMA/DRAM plane, then freeze the key space so the
    // event hot path only bumps pre-sized slots.
    ledger_ = std::make_unique<PressureLedger>();
    for (const std::string &qos_name : config.qosClassNames)
        ledger_->addQosClass(qos_name);
    for (auto &acc : accs_)
        acc->dma().setPressureSource(ledger_->addSource(acc->name()));
    for (BandwidthResource *res : dram_->pressureResources())
        ledger_->addResource(*res);
    for (BandwidthResource *res : fabric_->resources())
        ledger_->addResource(*res);
    for (auto &acc : accs_) {
        ledger_->addResource(acc->dma().readChannel());
        ledger_->addResource(acc->dma().writeChannel());
        ledger_->addResource(acc->spm().port());
    }
    ledger_->seal();

    registerStats();
}

void
Soc::registerStats()
{
    // Binding order is the text-dump order; keep it aligned with the
    // historical dumpStats() layout so diffs stay line-stable.
    static constexpr StatDef platform[] = {
        StatDef::counter("sim.ticks", "final tick (ps)",
                         [](const Soc &s) { return s.sim_.now(); }),
        StatDef::scalar("sim.time_ms", "simulated milliseconds",
                        [](const Soc &s) { return toMs(s.sim_.now()); }),
        StatDef::counter("sim.events", "events executed", [](const Soc &s) {
            return s.sim_.events().numExecuted();
        }),
        StatDef::counter("sim.event_heap_callables",
                         "event captures too large for the inline buffer",
                         [](const Soc &s) {
                             return s.sim_.events().numHeapCallables();
                         }),
        StatDef::counter("dram.read_bytes", "bytes read from DRAM",
                         [](const Soc &s) { return s.dram_->readBytes(); }),
        StatDef::counter("dram.write_bytes", "bytes written to DRAM",
                         [](const Soc &s) { return s.dram_->writeBytes(); }),
        StatDef::scalar("dram.energy_pj", "dynamic DRAM energy",
                        [](const Soc &s) { return s.dram_->energyPJ(); }),
        StatDef::scalar("dram.channel.busy_us", "channel busy time",
                        [](const Soc &s) {
                            return toUs(
                                s.dram_->channel().busyTime(s.sim_.now()));
                        }),
        StatDef::counter("dram.channel.transfers", "channel reservations",
                         [](const Soc &s) {
                             return s.dram_->channel().numTransfers();
                         }),
        StatDef::counter("fabric.bytes", "fabric payload bytes",
                         [](const Soc &s) {
                             return s.fabric_->totalBytes();
                         }),
        StatDef::counter("fabric.transfers", "fabric transactions",
                         [](const Soc &s) {
                             return s.fabric_->numTransfers();
                         }),
        StatDef::formula("fabric.occupancy", "fraction of time busy",
                         [](const Soc &s) {
                             return s.fabric_->occupancy(s.sim_.now());
                         }),
    };
    stats_.bind(platform, this);

    using A = Accelerator;
    static constexpr StatDef accelerator[] = {
        StatDef::counter(".tasks", "tasks completed",
                         [](const A &a) { return a.tasksExecuted(); }),
        StatDef::scalar(".compute_busy_us", "compute busy time",
                        [](const A &a) {
                            return toUs(a.computeBusyTime(a.now()));
                        }),
        StatDef::counter(".spm.read_bytes", "scratchpad bytes read",
                         [](const A &a) { return a.spm().readBytes(); }),
        StatDef::counter(".spm.write_bytes", "scratchpad bytes written",
                         [](const A &a) { return a.spm().writeBytes(); }),
        StatDef::scalar(".spm.energy_pj", "scratchpad energy",
                        [](const A &a) { return a.spm().energyPJ(); }),
        StatDef::counter(".dma.dram_read_bytes", "DRAM loads issued",
                         [](const A &a) {
                             return a.dma().bytesMoved(
                                 TrafficClass::DramRead);
                         }),
        StatDef::counter(".dma.dram_write_bytes", "DRAM write-backs issued",
                         [](const A &a) {
                             return a.dma().bytesMoved(
                                 TrafficClass::DramWrite);
                         }),
        StatDef::counter(".dma.forward_bytes", "forwarded bytes pulled",
                         [](const A &a) {
                             return a.dma().bytesMoved(
                                 TrafficClass::SpmForward);
                         }),
    };
    for (const auto &acc : accs_)
        stats_.bind(accelerator, acc.get(), acc->name());

    using R = RunMetrics;
    static constexpr StatDef manager[] = {
        StatDef::counter("manager.edges", "parent edges satisfied",
                         [](const R &r) { return r.edgesConsumed; }),
        StatDef::counter("manager.forwards", "edges forwarded SPM-to-SPM",
                         [](const R &r) { return r.forwards; }),
        StatDef::counter("manager.colocations", "edges colocated",
                         [](const R &r) { return r.colocations; }),
        StatDef::counter("manager.dram_edges", "edges served from DRAM",
                         [](const R &r) { return r.dramEdges; }),
        StatDef::counter("manager.writebacks_avoided",
                         "outputs never sent to DRAM",
                         [](const R &r) { return r.writebacksAvoided; }),
        StatDef::counter("manager.nodes_finished", "tasks completed",
                         [](const R &r) { return r.nodesFinished; }),
        StatDef::counter("manager.node_deadlines_met",
                         "tasks within deadline",
                         [](const R &r) { return r.nodeDeadlinesMet; }),
        StatDef::counter("manager.dags_finished", "DAGs completed",
                         [](const R &r) { return r.dagsFinished; }),
        StatDef::counter("manager.dag_deadlines_met",
                         "DAGs within deadline",
                         [](const R &r) { return r.dagDeadlinesMet; }),
        StatDef::scalar("manager.busy_us", "modeled scheduling time",
                        [](const R &r) { return toUs(r.managerBusyTime); }),
        StatDef::formula("manager.push_mean_us",
                         "mean ready-queue insert cost", [](const R &r) {
                             return toUs(Tick(r.pushLatency.mean()));
                         }),
        StatDef::formula("manager.queue_wait_mean_us",
                         "mean ready-to-launch wait", [](const R &r) {
                             return toUs(Tick(r.queueWait.mean()));
                         }),
        StatDef::formula("manager.queue_wait_max_us",
                         "max ready-to-launch wait", [](const R &r) {
                             return toUs(Tick(r.queueWait.max()));
                         }),
        StatDef::formula("manager.queue_depth_mean",
                         "mean queue length at insert",
                         [](const R &r) { return r.queueDepth.mean(); }),
        StatDef::formula("manager.forward_fraction",
                         "forwarded+colocated edges / consumed (Fig. 4)",
                         [](const R &r) {
                             return r.forwardFraction(r.edgesConsumed);
                         }),
        StatDef::formula("manager.node_deadline_fraction",
                         "tasks within deadline / finished (Fig. 8)",
                         [](const R &r) { return r.nodeDeadlineFraction(); }),
        StatDef::formula("manager.dag_deadline_fraction",
                         "DAGs within deadline / finished",
                         [](const R &r) { return r.dagDeadlineFraction(); }),
        StatDef::histogram("manager.queue_wait_us",
                           "ready-to-launch wait distribution (us)",
                           [](const R &r) { return &r.queueWaitUs; }),
        StatDef::histogram("manager.queue_depth",
                           "queue length at insert distribution",
                           [](const R &r) { return &r.queueDepthHist; }),
    };
    stats_.bind(manager, &manager_->metrics());

    static constexpr StatDef queues[] = {
        StatDef::counter("manager.queue_peak_depth",
                         "largest ready-queue length reached",
                         [](const HardwareManager &m) {
                             std::size_t peak = 0;
                             for (const ReadyQueue &q : m.readyQueues())
                                 peak = std::max(peak, q.peakSize());
                             return peak;
                         }),
    };
    stats_.bind(queues, manager_.get());

    // Critical-path attribution (manager/critical_path.hh): one sample
    // per finished DAG execution, per bucket. Bucket means sum to the
    // mean end-to-end DAG latency.
    static constexpr StatDef criticalPath[] = {
        StatDef::histogram("manager.cp_queue_wait_us",
                           "critical-path queue wait per DAG (us)",
                           [](const R &r) { return &r.cpQueueWaitUs; }),
        StatDef::histogram("manager.cp_manager_us",
                           "critical-path manager overhead per DAG (us)",
                           [](const R &r) { return &r.cpManagerUs; }),
        StatDef::histogram("manager.cp_dma_in_us",
                           "critical-path input-DMA time per DAG (us)",
                           [](const R &r) { return &r.cpDmaInUs; }),
        StatDef::histogram("manager.cp_compute_us",
                           "critical-path compute time per DAG (us)",
                           [](const R &r) { return &r.cpComputeUs; }),
        StatDef::histogram("manager.cp_dma_out_us",
                           "critical-path write-back time per DAG (us)",
                           [](const R &r) { return &r.cpDmaOutUs; }),
        StatDef::histogram("manager.cp_dep_stall_us",
                           "critical-path dependency stall per DAG (us)",
                           [](const R &r) { return &r.cpDepStallUs; }),
        StatDef::histogram("manager.cp_total_us",
                           "end-to-end DAG latency (us)",
                           [](const R &r) { return &r.cpTotalUs; }),

        // Functional-kernel scratch pooling (kernels/scratch.hh). The
        // pool is thread-local and reset at every experiment entry
        // point, so these read the run's own counts on the thread that
        // dumps, not the metrics they are bound with.
        StatDef::counter("kernels.scratch_reuses",
                         "kernel scratch buffers served from the pool",
                         [](const R &) {
                             return ScratchPool::forThread().reuses();
                         }),
        StatDef::counter("kernels.scratch_allocs",
                         "kernel scratch buffers freshly allocated",
                         [](const R &) {
                             return ScratchPool::forThread().allocs();
                         }),
    };
    stats_.bind(criticalPath, &manager_->metrics());
}

Soc::~Soc() = default;

std::vector<Accelerator *>
Soc::accelerators()
{
    std::vector<Accelerator *> out;
    out.reserve(accs_.size());
    for (auto &acc : accs_)
        out.push_back(acc.get());
    return out;
}

void
Soc::submit(DagPtr dag, Tick when, bool continuous)
{
    RELIEF_ASSERT(dag != nullptr, "submitting null DAG");
    Submission sub;
    sub.dag = dag;
    sub.continuous = continuous;
    sub.outcome.name = dag->name();
    sub.outcome.symbol = dag->symbol();
    sub.outcome.relDeadline = dag->relativeDeadline();
    submissions_.push_back(std::move(sub));
    manager_->submitDag(dag.get(), when);
}

void
Soc::dagCompleted(Dag *dag)
{
    for (Submission &sub : submissions_) {
        if (sub.dag.get() != dag)
            continue;
        Tick runtime = dag->finishTick() - dag->arrivalTick();
        sub.outcome.iterations += 1;
        if (dag->finishTick() <= dag->absoluteDeadline())
            sub.outcome.deadlinesMet += 1;
        sub.outcome.slowdowns.push_back(
            double(runtime) / double(dag->relativeDeadline()));
        if (sub.continuous && sim_.now() < runLimit_)
            manager_->submitDag(dag, sim_.now());
        return;
    }
    panic("completion callback for unknown DAG ", dag->name());
}

void
Soc::dumpStats(std::ostream &os) const
{
    os << "---------- Begin Simulation Statistics ----------\n";
    stats_.dumpText(os);

    // Per-application outcomes stay outside the registry: app names
    // repeat across submissions, while registry names are unique.
    auto line = [&os](const std::string &name, auto value,
                      const char *comment) {
        os << std::left << std::setw(44) << name << " " << std::setw(16)
           << value << " # " << comment << "\n";
    };
    for (const Submission &sub : submissions_) {
        const AppOutcome &app = sub.outcome;
        line("app." + app.name + ".iterations", app.iterations,
             "completed executions");
        line("app." + app.name + ".deadlines_met", app.deadlinesMet,
             "executions within deadline");
        if (!app.slowdowns.empty()) {
            line("app." + app.name + ".gmean_slowdown",
                 app.meanSlowdown(), "runtime / deadline");
        }
    }
    os << "---------- End Simulation Statistics ----------\n";
}

void
Soc::printLatencyBreakdown(std::ostream &os) const
{
    Table table("Per-DAG critical-path latency attribution");
    std::vector<std::string> header = {"dag", "nodes", "latency_ms"};
    for (int b = 0; b < numLatencyBuckets; ++b)
        header.push_back(std::string(latencyBucketName(b)) + "_us");
    table.setHeader(header);

    LatencyBreakdown mean;
    const auto &records = manager_->latencyRecords();
    for (const DagLatencyRecord &rec : records) {
        std::vector<std::string> row = {
            rec.dag, std::to_string(rec.pathLength),
            Table::num(toMs(rec.latency()), 3)};
        for (int b = 0; b < numLatencyBuckets; ++b)
            row.push_back(Table::num(toUs(latencyBucket(rec.buckets, b)), 1));
        table.addRow(row);

        mean.queueWait += rec.buckets.queueWait;
        mean.managerOverhead += rec.buckets.managerOverhead;
        mean.dmaIn += rec.buckets.dmaIn;
        mean.compute += rec.buckets.compute;
        mean.dmaOut += rec.buckets.dmaOut;
        mean.depStall += rec.buckets.depStall;
    }
    if (!records.empty()) {
        Tick n = Tick(records.size());
        std::vector<std::string> row = {
            "mean", "-", Table::num(toMs(mean.total() / n), 3)};
        for (int b = 0; b < numLatencyBuckets; ++b)
            row.push_back(Table::num(toUs(latencyBucket(mean, b) / n), 1));
        table.addRow(row);
    }
    table.emit(os);
}

void
Soc::writeStatsJson(std::ostream &os) const
{
    HostProfScope prof(HostCat::Stats);
    JsonWriter w(os);
    w.beginObject().field("schema", "relief-stats-v1").key("build_info");
    writeBuildInfoJson(w);
    w.key("stats");
    stats_.dumpJsonStats(w);
    w.key("apps").beginArray();
    for (const Submission &sub : submissions_) {
        const AppOutcome &app = sub.outcome;
        w.beginObject(JsonLayout::Inline)
            .field("name", app.name)
            .field("rel_deadline", app.relDeadline)
            .field("iterations", app.iterations)
            .field("deadlines_met", app.deadlinesMet)
            .field("gmean_slowdown", app.meanSlowdown())
            .field("max_slowdown", app.maxSlowdown())
            .end();
    }
    w.end().key("pressure");
    ledger_->writeJson(w, sim_.now(), pressureSummary(), nullptr);
    w.end();
    os << "\n";
}

PressureLedger::Summary
Soc::pressureSummary() const
{
    PressureLedger::Summary summary;
    summary.dramBytes = dram_->totalBytes();
    summary.fabricBytes = fabric_->totalBytes();
    // Colocated bytes never moved at all; forwarded bytes crossed the
    // fabric instead of making a DRAM round trip.
    summary.sparedColocationBytes = manager_->metrics().colocatedBytes;
    for (const auto &acc : accs_) {
        summary.sparedForwardBytes +=
            acc->dma().bytesMoved(TrafficClass::SpmForward);
    }
    return summary;
}

void
Soc::writePressureJson(std::ostream &os) const
{
    HostProfScope prof(HostCat::Stats);
    JsonWriter w(os);
    ledger_->writeJson(w, sim_.now(), pressureSummary(),
                       "relief-pressure-v1");
    os << "\n";
}

TraceRecorder &
Soc::enableTracing(Tick sample_period)
{
    if (!trace_) {
        trace_ = std::make_unique<TraceRecorder>();
        manager_->setTrace(trace_.get());
    }
    if (sample_period > 0 && !sampler_) {
        sampler_ = std::make_unique<IntervalSampler>(sim_, *trace_,
                                                     sample_period);
        addSamplerProbes();
    }
    return *trace_;
}

void
Soc::addSamplerProbes()
{
    sampler_->addProbe("manager.ready_queue_depth", [this] {
        double depth = 0.0;
        for (const ReadyQueue &q : manager_->readyQueues())
            depth += double(q.size());
        return depth;
    });

    // Utilization over the last sampling interval: bytes moved since
    // the previous probe call against the channel's peak rate.
    auto last = std::make_shared<std::pair<Tick, std::uint64_t>>(0, 0);
    sampler_->addProbe("dram.bandwidth_utilization", [this, last] {
        Tick t = sim_.now();
        std::uint64_t bytes = dram_->totalBytes();
        Tick dt = t - last->first;
        std::uint64_t db = bytes - last->second;
        *last = {t, bytes};
        if (dt == 0)
            return 0.0;
        double gbs = double(db) / (double(dt) * 1e-12) / 1e9;
        return std::min(1.0, gbs / config_.mem.peakGBs);
    });

    sampler_->addProbe("dma.outstanding_bytes", [this] {
        std::uint64_t bytes = 0;
        for (const auto &acc : accs_)
            bytes += acc->dma().outstandingBytes();
        return double(bytes);
    });

    for (const auto &acc_ptr : accs_) {
        Accelerator *acc = acc_ptr.get();
        sampler_->addProbe(acc->name() + ".occupancy",
                           [acc] { return acc->busy() ? 1.0 : 0.0; });
    }

    // Per-bank/per-channel pressure tracks, opt-in: when the gate is
    // off no probe is registered, so disabled tracks cost nothing.
    if (config_.pressureTracks) {
        for (BandwidthResource *res : dram_->pressureResources()) {
            // Same delta-bytes scheme as the aggregate DRAM probe:
            // O(1) per sample regardless of run length.
            auto last =
                std::make_shared<std::pair<Tick, std::uint64_t>>(0, 0);
            sampler_->addProbe(
                res->name() + ".utilization", [this, res, last] {
                    Tick t = sim_.now();
                    std::uint64_t bytes = res->totalBytes();
                    Tick dt = t - last->first;
                    std::uint64_t db = bytes - last->second;
                    *last = {t, bytes};
                    if (dt == 0)
                        return 0.0;
                    double gbs = double(db) / (double(dt) * 1e-12) / 1e9;
                    return std::min(1.0, gbs / res->bandwidth());
                });
            int id = res->ledgerId();
            sampler_->addProbe(res->name() + ".queue_depth",
                               [this, id] {
                                   return double(ledger_->queueDepth(
                                       id, sim_.now()));
                               });
        }
    }

    // Host-time tracks, opt-in via HostProf: lay the simulator's own
    // wall clock alongside sim time so a Perfetto view shows where a
    // run's host cost grows. Gated at registration so runs without
    // --host-profile stay bit-identical (the values are wall-clock
    // and thus nondeterministic by nature).
    if (hostProfEnabled()) {
        sampler_->addProbe("host.wall_ms", [] {
            return double(hostProfSnapshot().totalWallNs) / 1e6;
        });
        sampler_->addProbe("host.attributed_ms", [] {
            return double(hostProfSnapshot().attributedNs()) / 1e6;
        });
    }
}

Tick
Soc::run(Tick limit)
{
    runLimit_ = limit;
    if (sampler_)
        sampler_->start();
    return sim_.run(limit);
}

MetricsReport
Soc::report() const
{
    HostProfScope prof(HostCat::Stats);
    MetricsReport report;
    report.run = manager_->metrics();
    const Tick end = sim_.now();
    report.execTime = end;
    report.dramBytes = dram_->totalBytes();
    report.dramEnergyPJ = dram_->energyPJ();

    Tick busy_sum = 0;
    for (const auto &acc : accs_) {
        report.spmForwardBytes +=
            acc->dma().bytesMoved(TrafficClass::SpmForward);
        report.spmBytes += acc->spm().readBytes() + acc->spm().writeBytes();
        report.spmEnergyPJ += acc->spm().energyPJ();
        busy_sum += acc->computeBusyTime(end);
    }
    report.accOccupancy = end ? double(busy_sum) / double(end) : 0.0;
    report.fabricOccupancy = fabric_->occupancy(end);

    for (const Submission &sub : submissions_)
        report.apps.push_back(sub.outcome);
    return report;
}

} // namespace relief
