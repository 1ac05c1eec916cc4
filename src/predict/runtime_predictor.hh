/**
 * @file
 * Node execution-time prediction (paper Section III-B).
 *
 * RELIEF's feasibility check needs each node's runtime estimate,
 * computed once when the node is inserted into the ready queue:
 *
 *   runtime = compute_time + data_movement_bytes / predicted_bandwidth
 *
 * Compute time comes from the profiled model (src/acc/compute_model);
 * data movement comes from either the Max scheme (all operands via
 * DRAM) or the graph-analyzing scheme that predicts colocations on the
 * input side and full-forwarding on the output side; bandwidth comes
 * from a BandwidthPredictor.
 */

#ifndef RELIEF_PREDICT_RUNTIME_PREDICTOR_HH
#define RELIEF_PREDICT_RUNTIME_PREDICTOR_HH

#include <array>
#include <cstdint>

#include "dag/dag.hh"
#include "predict/bandwidth_predictor.hh"
#include "stats/stats.hh"

namespace relief
{

/** Data-movement prediction scheme. */
enum class DmPredictorKind
{
    Max,   ///< Assume every operand moves through DRAM.
    Graph, ///< Analyze the DAG for colocations/forwards (Section III-B).
};

class RuntimePredictor
{
  public:
    /**
     * @param bw_kind   Bandwidth prediction scheme.
     * @param dm_kind   Data-movement prediction scheme.
     * @param max_gbs   Peak memory bandwidth (Max scheme constant).
     * @param instances Accelerator instance count per type (the graph
     *                  DM predictor's unique-mapping check).
     */
    RuntimePredictor(BwPredictorKind bw_kind, DmPredictorKind dm_kind,
                     double max_gbs,
                     const std::array<int, numAccTypes> &instances);

    /** Predicted wall time of @p node (compute + memory). */
    Tick predict(const Node &node) const;

    /** Predicted bytes @p node will move (DM scheme applied). */
    std::uint64_t predictBytes(const Node &node) const;

    /** Predicted memory-access time of @p node. */
    Tick predictMemoryTime(const Node &node) const;

    /** Feed back the bandwidth a finished task achieved. */
    void observeBandwidth(double achieved_gbs);

    /** Record predicted-vs-actual samples (Table VIII accuracy). */
    void recordComputeOutcome(Tick predicted, Tick actual);
    void recordMemoryOutcome(Tick predicted, Tick actual);

    /** Signed mean error (predicted - actual) / actual, in percent. */
    double computeErrorPct() const;
    double memoryErrorPct() const;

    /** Mean absolute error in percent (the paper's gmean treatment). */
    double computeErrorAbsPct() const { return computeErrorAbs_.mean(); }
    double memoryErrorAbsPct() const { return memoryErrorAbs_.mean(); }

    BwPredictorKind bwKind() const { return bw_.kind(); }
    DmPredictorKind dmKind() const { return dmKind_; }

  private:
    BandwidthPredictor bw_;
    DmPredictorKind dmKind_;
    std::array<int, numAccTypes> instances_;
    Accum computeError_;
    Accum memoryError_;
    Accum computeErrorAbs_;
    Accum memoryErrorAbs_;
};

} // namespace relief

#endif // RELIEF_PREDICT_RUNTIME_PREDICTOR_HH
