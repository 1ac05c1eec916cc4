/**
 * @file
 * The online serving driver: drives a Soc like an inference server
 * under open-loop load.
 *
 * ServeDriver generates a seeded arrival schedule (serve/arrival.hh).
 * At each arrival tick it consults the admission policy
 * (serve/admission.hh) with the request's (app, QoS class) DAG pool,
 * and submits an admitted request as a pooled DAG instance through
 * the hardware manager's timed host interface. Completions are
 * intercepted to maintain per-class SLO accounting (serve/slo.hh),
 * which is also registered in the Soc's StatRegistry under "serve.*"
 * names. docs/serving.md describes the request lifecycle.
 *
 * Determinism contract: a ServeReport is a pure function of
 * (ServeConfig, seed). The driver resets the thread-local node-id
 * allocator at construction and draws every random variate from its
 * own core/rng.hh stream, so results are bit-identical across
 * platforms and across parallelFor worker counts — the property the
 * load-sweep bench's --jobs invariance test relies on.
 *
 * Typical use (see examples/serve_demo.cpp):
 *
 *   ServeConfig config;
 *   config.soc.policy = PolicyKind::Relief;
 *   config.arrival.ratePerSec = 400.0;
 *   config.admission.kind = AdmissionKind::QueueCap;
 *   ServeDriver driver(config);
 *   ServeReport report = driver.run();
 *   printSloTable(std::cout, report, "mixed QoS @ 400 rps");
 */

#ifndef RELIEF_SERVE_SERVER_HH
#define RELIEF_SERVE_SERVER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/soc.hh"
#include "serve/admission.hh"
#include "serve/alerts.hh"
#include "serve/arrival.hh"
#include "serve/request.hh"
#include "serve/slo.hh"
#include "trace/exposition.hh"
#include "trace/sampler.hh"
#include "trace/span.hh"

namespace relief
{

/**
 * Tracing / telemetry knobs for one serving run. All off by default:
 * a plain ServeDriver adds nothing to the event hot path.
 */
struct ServeTelemetryConfig
{
    /** Assemble request span trees and tail-sample them
     *  (trace/span.hh, trace/sampler.hh). */
    bool traceRequests = false;
    /** Tail-sampling keep fraction for OK traces (anomalous outcomes
     *  are always kept). */
    double okFraction = 0.0;
    /** Record a Perfetto trace: serve counter tracks plus the kept
     *  request span trees as async slices. */
    bool perfetto = false;
    /** Counter-track sampling cadence when perfetto is set. */
    Tick samplePeriod = fromUs(10.0);
    /** Periodic Prometheus text exposition; enabled when
     *  exposition.path is non-empty (trace/exposition.hh). */
    ExpositionConfig exposition;
    /** Run the per-class SLO burn-rate evaluator (serve/alerts.hh). */
    bool alerts = false;
    BurnRateConfig burnRate;
};

/** Everything one serving run needs. */
struct ServeConfig
{
    SocConfig soc;
    AppConfig app;              ///< DAG-builder knobs for requests.
    std::vector<QosClassConfig> classes = defaultQosClasses();
    ArrivalConfig arrival;
    AdmissionConfig admission;
    ServeTelemetryConfig telemetry;
    Tick horizon = continuousWindow; ///< Open-loop measurement window.
    std::uint64_t seed = 1;          ///< Master seed (arrival stream).
};

/** Outcome of one serving run. */
struct ServeReport
{
    Tick horizon = 0;
    std::vector<ClassSlo> classes; ///< One entry per QoS class.
    ClassSlo total;                ///< All classes aggregated.
    MetricsReport soc;             ///< Underlying platform metrics.
    /** Tail-sampling counters (all zero when tracing is off). */
    TailSampleSummary sampling;
    /** Burn-rate alert summaries + event log (empty when off). */
    std::vector<ClassAlertSummary> alerts;
    std::vector<AlertEvent> alertEvents;

    /**
     * Per-QoS memory-pressure rollup from the Soc's attribution
     * ledger, claim-weighted across every bandwidth resource. Entry 0
     * is the ledger's implicit "default" class (untagged traffic and
     * SPM spills); entries 1..N line up with `classes`.
     */
    struct QosPressure
    {
        std::string name;
        PressureLedger::Slot slot;
    };
    std::vector<QosPressure> pressure;
};

class ServeDriver : private DagObserver, private Liveness
{
  public:
    explicit ServeDriver(const ServeConfig &config);
    ~ServeDriver();

    ServeDriver(const ServeDriver &) = delete;
    ServeDriver &operator=(const ServeDriver &) = delete;

    /** Execute the run (single-shot) and return its report. */
    ServeReport run();

    Soc &soc() { return *soc_; }
    const std::vector<ArrivalEvent> &schedule() const { return schedule_; }
    /** Per-request records, in arrival order (valid after run()). */
    const std::vector<ServeRequest> &requests() const { return requests_; }

    /** Kept request traces, sorted by id (valid after run(); empty
     *  unless telemetry.traceRequests). */
    const std::vector<RequestTrace> &keptTraces() const { return kept_; }
    /** The tail sampler, or nullptr when tracing is off. */
    const TailSampler *tailSampler() const { return sampler_.get(); }
    /** The exposition writer, or nullptr when disabled. */
    StatExposition *exposition() { return exposition_.get(); }
    /** The burn-rate evaluator, or nullptr when disabled. */
    BurnRateAlerts *alerts() { return alerts_.get(); }

  private:
    /**
     * The request DAGs of one (app, QoS class). The first instance
     * built is the template admission reads; an admitted request takes
     * a free instance, or builds one when none is free, and the
     * instance returns to the free list once the manager retires it.
     */
    struct DagPool
    {
        std::vector<DagPtr> instances; ///< Every instance; [0] first.
        std::vector<Dag *> free;       ///< Retired, ready for reuse.
    };

    DagPool &poolFor(AppId app, int qos_class);
    /** Build a new instance into @p pool; consumes its node ids. */
    Dag *buildInstance(DagPool &pool, const ArrivalEvent &event);
    /** The request a submitted DAG executes (its span context). */
    ServeRequest &requestOf(const Dag &dag);

    void registerStats();
    /** Schedule arrival @p index under its reserved sequence number. */
    void scheduleArrival(std::size_t index);
    void onArrival(std::size_t index);
    void dagAttributed(Dag *dag, const DagLatencyRecord &record,
                       const std::vector<const Node *> &path) override;
    void dagCompleted(Dag *dag) override;
    void dagRetired(Dag *dag) override;
    /** Serving work remains: arrivals to come or requests in flight. */
    bool alive() const override;
    void recordDropTrace(const ServeRequest &request,
                         RequestOutcome outcome);

    ServeConfig config_;
    std::unique_ptr<Soc> soc_;
    std::unique_ptr<AdmissionPolicy> admission_;
    std::vector<ArrivalEvent> schedule_;
    std::vector<ServeRequest> requests_;
    std::vector<DagPool> pools_; ///< Indexed by poolFor().
    std::vector<ClassSlo> slo_;
    ClassSlo total_;
    std::unique_ptr<TailSampler> sampler_;
    std::vector<RequestTrace> kept_;
    std::unique_ptr<BurnRateAlerts> alerts_;
    std::unique_ptr<StatExposition> exposition_;
    std::vector<int> perClassInSystem_;
    std::size_t arrivalsSeen_ = 0;
    std::uint64_t arrivalSeqs_ = 0; ///< First of the arrivals' block.
    int parallelism_ = 1;
    int inSystem_ = 0;
    Tick backlog_ = 0;
    bool ran_ = false;
};

/** Print the per-class SLO table (one row per class plus a total). */
void printSloTable(std::ostream &os, const ServeReport &report,
                   const std::string &title);

/**
 * Write one element of a relief-serve-v1 document's "runs" array:
 * run-level identity (policy / admission / arrival / offered load),
 * aggregate counters and rates, and the per-class SLO objects.
 * @p offered_load is the multiplier of measured capacity (0 when the
 * run was configured with an absolute rate instead).
 */
void writeServeRunJson(JsonWriter &w, const ServeReport &report,
                       const std::string &policy,
                       const std::string &admission,
                       const std::string &arrival, double offered_load,
                       double rate_rps);

/** A whole relief-serve-v1 document: its envelope, runs and knees. */
struct ServeDocument
{
    std::uint64_t seed = 1;
    double horizonMs = 0.0;
    bool smoke = false;
    /** Measured capacity; null when the runs used absolute rates. */
    std::optional<double> capacityRps;

    /** One run, written by writeServeRunJson(). */
    struct Run
    {
        const ServeReport *report = nullptr;
        std::string policy;
        std::string admission;
        std::string arrival;
        double offeredLoad = 0.0;
        double rateRps = 0.0;
    };
    std::vector<Run> runs;

    /** A policy's saturation knee: the lowest swept load past the
     *  threshold, or null when no load crossed it. */
    struct Knee
    {
        std::string policy;
        std::optional<double> load;
    };
    std::vector<Knee> saturation;
};

/** Write @p doc with its build_info stamp: the one writer of the
 *  relief-serve-v1 envelope. */
void writeServeDocument(std::ostream &os, const ServeDocument &doc);

/**
 * Measured serving capacity of @p soc in requests per second: a
 * closed-loop continuous run of all five applications for the paper's
 * 50 ms window under FCFS (policy-neutral so every policy in a sweep
 * sees identical offered rates), counting finished DAGs per second.
 */
double measureCapacityRps(const SocConfig &soc, const AppConfig &app);

} // namespace relief

#endif // RELIEF_SERVE_SERVER_HH
