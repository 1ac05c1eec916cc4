/**
 * @file
 * Request-level types for the online serving layer (src/serve).
 *
 * A request is one client-issued execution of a paper application
 * (Table V) arriving at a stochastic time. Requests belong to a QoS
 * class that fixes their relative deadline (a multiple of the app's
 * Table V deadline) and their priority for reporting and admission.
 * The serving driver runs each admitted request on a pooled DAG
 * instance, submitted to the hardware manager at its arrival tick.
 */

#ifndef RELIEF_SERVE_REQUEST_HH
#define RELIEF_SERVE_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dag/apps/apps.hh"
#include "sim/ticks.hh"

namespace relief
{

/** One QoS class: which request types it covers and how they are
 *  treated. */
struct QosClassConfig
{
    std::string name;         ///< Stable label ("realtime", ...).
    std::vector<AppId> apps;  ///< Request types drawn by this class.
    double weight = 1.0;      ///< Share of the arrival stream.
    /** Relative deadline = deadlineScale x appDeadline(app). */
    double deadlineScale = 1.0;
    /** Smaller = more important (reporting / shedding order). */
    int priority = 0;
};

/**
 * The default three-class mix used by the tools and benches:
 * RNN inference is latency-critical, vision is interactive, and deblur
 * runs as batch work with a relaxed (3x) deadline.
 */
std::vector<QosClassConfig> defaultQosClasses();

/** Admission outcome of one request. */
enum class AdmissionVerdict : std::uint8_t
{
    Admitted, ///< Submitted to the manager.
    Shed,     ///< Dropped by load shedding (queue cap).
    Rejected, ///< Dropped by laxity-based infeasibility prediction.
};

/** Lifecycle record of one request (owned by the serving driver). */
struct ServeRequest
{
    std::uint64_t id = 0;   ///< Arrival-order index.
    int qosClass = 0;       ///< Index into the class table.
    AppId app = AppId::Canny;
    Tick arrival = 0;       ///< Arrival (= submission) tick.
    Tick relDeadline = 0;   ///< Scaled relative deadline.
    AdmissionVerdict verdict = AdmissionVerdict::Admitted;
    bool finished = false;
    Tick finish = 0;        ///< Completion tick (when finished).
    /** Id of the first node of the DAG that ran the request (0 when
     *  refused). Arrivals take consecutive id ranges in arrival order,
     *  refused ones included, so an id in a spill transfer or a debug
     *  line maps back to its request. */
    NodeId firstNode = 0;

    Tick absoluteDeadline() const { return arrival + relDeadline; }
};

} // namespace relief

#endif // RELIEF_SERVE_REQUEST_HH
