/**
 * @file
 * One-call experiment runner used by the benches and examples: build a
 * platform, submit an application mix, run (with the paper's 50 ms
 * cap), and report metrics.
 */

#ifndef RELIEF_CORE_EXPERIMENT_HH
#define RELIEF_CORE_EXPERIMENT_HH

#include <string>

#include "core/soc.hh"
#include "dag/apps/apps.hh"
#include "workload/scenario.hh"

namespace relief
{

struct ExperimentConfig
{
    SocConfig soc;
    std::string mix = "C";      ///< Application symbols, e.g. "CDL".
    bool continuous = false;    ///< Loop each application (Fig. 10).
    Tick timeLimit = continuousWindow; ///< Paper's simulation cap.
    AppConfig app;              ///< DAG-builder knobs.
};

/** Run one simulation and return its metrics. */
MetricsReport runExperiment(const ExperimentConfig &config);

/** Shorthand: run @p mix under @p policy at the given contention mode. */
MetricsReport runMixPolicy(const std::string &mix, PolicyKind policy,
                           bool continuous = false);

} // namespace relief

#endif // RELIEF_CORE_EXPERIMENT_HH
