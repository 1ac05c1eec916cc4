/**
 * @file
 * The public SoC facade: one object that wires up the simulator, main
 * memory, interconnect, accelerators, DMA engines, predictor, policy,
 * and hardware manager per the paper's Table VI platform, and exposes
 * submit/run/report.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   SocConfig config;
 *   config.policy = PolicyKind::Relief;
 *   Soc soc(config);
 *   auto dag = buildApp(AppId::Canny);
 *   soc.submit(dag);
 *   soc.run();
 *   MetricsReport report = soc.report();
 */

#ifndef RELIEF_CORE_SOC_HH
#define RELIEF_CORE_SOC_HH

#include <array>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "acc/accelerator.hh"
#include "interconnect/bus.hh"
#include "interconnect/crossbar.hh"
#include "interconnect/ring.hh"
#include "manager/hardware_manager.hh"
#include "mem/banked_memory.hh"
#include "mem/main_memory.hh"
#include "mem/pressure_ledger.hh"
#include "sched/policy.hh"
#include "sim/simulator.hh"
#include "stats/registry.hh"
#include "trace/interval_sampler.hh"
#include "trace/trace.hh"
#include "workload/scenario.hh"

namespace relief
{

/** Interconnect topology (paper Section V-H). */
enum class FabricKind
{
    Bus,
    Crossbar,
    Ring,
};

/** Whole-platform configuration (defaults follow Table VI). */
struct SocConfig
{
    PolicyKind policy = PolicyKind::Relief;
    FabricKind fabric = FabricKind::Bus;
    /** Accelerator instances per type (paper: one of each). */
    std::array<int, std::size_t(numAccTypes)> instances = {1, 1, 1, 1,
                                                           1, 1, 1};
    MainMemoryConfig mem;
    BusConfig bus;
    CrossbarConfig crossbar;
    RingConfig ring;
    DmaConfig dma;
    ManagerConfig manager;
    BwPredictorKind bwPredictor = BwPredictorKind::Max;
    DmPredictorKind dmPredictor = DmPredictorKind::Max;
    /** Output partitions per scratchpad (Table IV: up to 3). */
    int spmPartitions = 3;
    /** Use the bank-aware DRAM model instead of the flat
     *  efficiency-factor model. */
    bool bankedMemory = false;
    BankedMemoryConfig banked; ///< Knobs when bankedMemory is set.
    /** Ablation: disable RELIEF's is_feasible() throttle (promotions
     *  become greedy). Only meaningful for the RELIEF-family. */
    bool reliefFeasibilityCheck = true;
    /**
     * QoS classes registered with the pressure ledger after the
     * implicit class 0 ("default"). The serving layer fills this from
     * its class table so per-class pressure rollups line up with the
     * SLO report; batch runs leave it empty.
     */
    std::vector<std::string> qosClassNames;
    /**
     * Emit per-bank/per-channel utilization and queue-depth counter
     * tracks through the IntervalSampler when tracing is enabled.
     * Off by default: disabled tracks register no probes and cost
     * nothing.
     */
    bool pressureTracks = false;
};

/** Per-application outcome across all of its submissions in a run. */
struct AppOutcome
{
    std::string name;
    char symbol = '?';
    Tick relDeadline = 0;
    int iterations = 0;    ///< Completed DAG executions.
    int deadlinesMet = 0;  ///< Completed executions within deadline.
    std::vector<double> slowdowns; ///< runtime / deadline per run.

    /** Geometric-mean slowdown; infinity when starved (no finish). */
    double meanSlowdown() const;
    double maxSlowdown() const;
    bool starved() const { return iterations == 0; }
};

/** Everything the benches/figures need from one simulation. */
struct MetricsReport
{
    RunMetrics run;             ///< Manager counters.
    Tick execTime = 0;          ///< Submission of first to end of run.
    std::uint64_t dramBytes = 0;
    std::uint64_t spmForwardBytes = 0; ///< SPM-to-SPM traffic.
    std::uint64_t spmBytes = 0; ///< All scratchpad traffic.
    double dramEnergyPJ = 0.0;
    double spmEnergyPJ = 0.0;
    double accOccupancy = 0.0;    ///< Fig. 7 metric.
    double fabricOccupancy = 0.0; ///< Fig. 13 metric.
    std::vector<AppOutcome> apps;

    /** (forwards + colocations) / consumed edges — Fig. 4 metric. */
    double forwardFraction() const
    {
        return run.forwardFraction(run.edgesConsumed);
    }

    /** DRAM traffic over the all-DRAM baseline — Fig. 5 lower bars. */
    double dramTrafficFraction() const;

    /** SPM-to-SPM traffic over the all-DRAM baseline — Fig. 5 upper
     *  bars. */
    double spmTrafficFraction() const;
};

class Soc : private DagObserver
{
  public:
    explicit Soc(const SocConfig &config = {});
    ~Soc();

    Soc(const Soc &) = delete;
    Soc &operator=(const Soc &) = delete;

    Simulator &sim() { return sim_; }
    HardwareManager &manager() { return *manager_; }
    MainMemory &dram() { return *dram_; }
    Interconnect &fabric() { return *fabric_; }
    std::vector<Accelerator *> accelerators();
    const SocConfig &config() const { return config_; }

    /**
     * Submit @p dag at tick @p when (keeps it alive). With
     * @p continuous set, the DAG resubmits itself on completion until
     * the run limit.
     */
    void submit(DagPtr dag, Tick when = 0, bool continuous = false);

    /** Run to completion or @p limit; returns the final tick. */
    Tick run(Tick limit = maxTick);

    /**
     * Start recording a schedule trace (see src/trace). Also arms an
     * IntervalSampler that emits counter tracks (ready-queue depth,
     * DRAM bandwidth utilization, outstanding DMA bytes, accelerator
     * occupancy) every @p sample_period ticks; pass 0 to record spans
     * only.
     */
    TraceRecorder &enableTracing(Tick sample_period = fromUs(10.0));

    /** The active trace recorder, or nullptr. */
    TraceRecorder *trace() { return trace_.get(); }

    /** The counter-track sampler, or nullptr when tracing is off. */
    IntervalSampler *sampler() { return sampler_.get(); }

    /** Every registered model stat (see stats/registry.hh). */
    const StatRegistry &stats() const { return stats_; }

    /** Mutable registry access for layers above the facade (the
     *  serving driver registers its "serve.*" stats here so one dump
     *  covers the whole system). */
    StatRegistry &stats() { return stats_; }

    /** Collect the metrics of the run so far. */
    MetricsReport report() const;

    /**
     * Dump every model counter in gem5-style `name value # comment`
     * lines: simulator, DRAM, per-accelerator compute/SPM/DMA,
     * interconnect, manager, and per-application outcomes.
     */
    void dumpStats(std::ostream &os) const;

    /**
     * Per-DAG critical-path latency attribution table (CLI:
     * `--latency-breakdown`): one row per finished DAG execution, the
     * six buckets in microseconds plus their total — which equals the
     * measured end-to-end latency (manager/critical_path.hh).
     */
    void printLatencyBreakdown(std::ostream &os) const;

    /**
     * Stable-schema JSON stats document ("relief-stats-v1"): the
     * registry's stats object plus an "apps" array of per-application
     * outcomes and a "pressure" attribution block. Written by
     * `relief_sim --stats-json FILE`.
     */
    void writeStatsJson(std::ostream &os) const;

    /** The memory-pressure attribution ledger (always recording). */
    PressureLedger &pressureLedger() { return *ledger_; }
    const PressureLedger &pressureLedger() const { return *ledger_; }

    /**
     * Standalone "relief-pressure-v1" artifact: per-resource top
     * contender tables (PressureLedger::reportedContenders), delay
     * split, per-QoS rollups. Written by
     * `relief_sim --pressure-report FILE`.
     */
    void writePressureJson(std::ostream &os) const;

    /** Byte totals embedded in the pressure document. */
    PressureLedger::Summary pressureSummary() const;

  private:
    /** Records @p dag's outcome; resubmits it when continuous. */
    void dagCompleted(Dag *dag) override;
    void registerStats();
    void addSamplerProbes();

    SocConfig config_;
    Simulator sim_;
    std::unique_ptr<MainMemory> dram_;
    std::unique_ptr<Interconnect> fabric_;
    PortId dramPort_ = -1;
    std::vector<std::unique_ptr<Accelerator>> accs_;
    std::unique_ptr<HardwareManager> manager_;
    std::unique_ptr<PressureLedger> ledger_;

    struct Submission
    {
        DagPtr dag;
        bool continuous = false;
        AppOutcome outcome;
    };
    std::vector<Submission> submissions_;
    std::unique_ptr<TraceRecorder> trace_;
    std::unique_ptr<IntervalSampler> sampler_;
    StatRegistry stats_;
    Tick runLimit_ = maxTick;
};

} // namespace relief

#endif // RELIEF_CORE_SOC_HH
