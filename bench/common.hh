/**
 * @file
 * Shared plumbing for the experiment benches: run a mix under a policy
 * at a contention level, and emit paper-style panels (one table per
 * contention level, one column per policy, gmean row).
 */

#ifndef RELIEF_BENCH_COMMON_HH
#define RELIEF_BENCH_COMMON_HH

#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hh"
#include "core/relief.hh"

namespace relief::bench
{

/**
 * Worker threads for the figure benches, from RELIEF_BENCH_JOBS
 * (0 = one per hardware thread; default 1 = serial; a value that is
 * not an integer is a fatal error). Each (mix, policy) cell of a
 * panel is an independent simulation, so the printed tables are
 * identical for any value; only wall-clock changes.
 */
inline int
benchJobs()
{
    static const int jobs = [] {
        const char *env = std::getenv("RELIEF_BENCH_JOBS");
        if (!env || !*env)
            return 1;
        try {
            int v = parseNumber<int>("RELIEF_BENCH_JOBS", env);
            return v <= 0 ? defaultParallelJobs() : v;
        } catch (const FatalError &) {
            std::exit(1); // fatal() already printed the message
        }
    }();
    return jobs;
}

/** Run @p mix under @p policy at @p level (continuous loops for 50 ms). */
inline MetricsReport
run(const std::string &mix, PolicyKind policy, Contention level,
    const SocConfig &base = {})
{
    ExperimentConfig config;
    config.soc = base;
    config.soc.policy = policy;
    config.mix = mix;
    config.continuous = level == Contention::Continuous;
    config.timeLimit = continuousWindow;
    return runExperiment(config);
}

/** Extracts one plotted value from a finished run. */
using Metric = std::function<double(const MetricsReport &)>;

/**
 * Print one paper panel: rows are the level's mixes plus a Gmean row,
 * columns are @p policies, values come from @p metric (already scaled
 * for display).
 */
inline void
printPanel(const std::string &title, Contention level,
           const std::vector<PolicyKind> &policies, const Metric &metric,
           int precision = 1, const SocConfig &base = {})
{
    Table table(title);
    std::vector<std::string> header = {"mix"};
    for (PolicyKind policy : policies)
        header.push_back(policyName(policy));
    table.setHeader(header);

    // Simulate every (mix, policy) cell first — on benchJobs() worker
    // threads when RELIEF_BENCH_JOBS asks for them — then lay out the
    // table serially in panel order, so output is job-count-invariant.
    const std::vector<std::string> mixes = mixesFor(level);
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    for (std::size_t m = 0; m < mixes.size(); ++m)
        for (std::size_t p = 0; p < policies.size(); ++p)
            cells.emplace_back(m, p);
    std::vector<double> grid(cells.size());
    parallelFor(cells.size(), benchJobs(), [&](std::size_t i) {
        grid[i] = metric(run(mixes[cells[i].first],
                             policies[cells[i].second], level, base));
    });

    std::map<PolicyKind, std::vector<double>> values;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        std::vector<std::string> row = {mixes[m]};
        for (std::size_t p = 0; p < policies.size(); ++p) {
            double v = grid[m * policies.size() + p];
            values[policies[p]].push_back(v);
            row.push_back(Table::num(v, precision));
        }
        table.addRow(row);
    }
    std::vector<std::string> gmean_row = {"Gmean"};
    for (PolicyKind policy : policies)
        gmean_row.push_back(Table::num(geomean(values[policy]),
                                       precision));
    table.addRow(gmean_row);
    table.emit(std::cout);
    std::cout << "\n";
}

/** The four contention levels in figure order (panels a-d). */
inline const std::vector<Contention> allLevels = {
    Contention::Low, Contention::Medium, Contention::High,
    Contention::Continuous};

} // namespace relief::bench

#endif // RELIEF_BENCH_COMMON_HH
