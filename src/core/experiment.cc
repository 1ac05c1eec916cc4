#include "core/experiment.hh"

#include <memory>

#include "kernels/scratch.hh"
#include "sim/hostprof.hh"

namespace relief
{

MetricsReport
runExperiment(const ExperimentConfig &config)
{
    // Fresh ids per experiment: results become a pure function of the
    // config, identical whether runs execute serially or on a
    // parallel runner's workers (see dag.hh resetNodeIds).
    resetNodeIds();
    resetKernelScratch(); // likewise for the kernels.scratch_* stats
    auto soc = std::make_unique<Soc>(config.soc);
    for (AppId app : parseMix(config.mix)) {
        DagPtr dag = buildApp(app, config.app);
        soc->submit(dag, 0, config.continuous);
    }
    soc->run(config.timeLimit);
    MetricsReport report = soc->report();
    // Tearing the platform down is host time too: charge it to
    // "other" rather than leave it unattributed after the last span.
    HostProfScope teardown(HostCat::Other);
    soc.reset();
    return report;
}

MetricsReport
runMixPolicy(const std::string &mix, PolicyKind policy, bool continuous)
{
    ExperimentConfig config;
    config.soc.policy = policy;
    config.mix = mix;
    config.continuous = continuous;
    return runExperiment(config);
}

} // namespace relief
