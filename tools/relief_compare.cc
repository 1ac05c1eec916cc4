/**
 * @file
 * relief_compare — run one workload under every scheduling policy and
 * print the side-by-side comparison (forwards, colocations, traffic,
 * deadlines, makespan). For workloads small enough (<= 24 nodes total,
 * e.g. a --workload file), an "Ideal (oracle)" row from the exhaustive
 * schedule search is appended as the upper bound.
 *
 * Usage: relief_compare [--mix SYMBOLS | --workload FILE]
 *                       [--continuous] [--limit-ms X] [platform flags]
 *
 * --stats-json FILE writes one JSON stats dump per policy, with the
 * policy name spliced in before the extension (stats.json ->
 * stats.RELIEF.json); --debug-flags applies to every run.
 *
 * Diff mode compares two previously written documents instead of
 * running anything:
 *
 *   relief_compare --diff A.json B.json [--max-rel-delta PCT]
 *                  [--abs-floor X] [--breaches-only]
 *
 * Both documents must be relief-stats-v1, or both relief-pressure-v1;
 * any other schema is an input error (exit 1). Every numeric field of
 * the memory-pressure block (totals, per-QoS rollups, per-resource
 * counters, contender slots matched by source/qos/traffic) and the
 * p50/p95/p99 of every histogram stat are compared; a relative delta
 * above the threshold (default 10%) is a breach, and any breach makes
 * the exit status 2 — the CI hook for "this change moved memory
 * pressure". Values where both sides sit below --abs-floor are skipped
 * as noise. Host-time regressions are measured by
 * perfbench/run_benchmark.py, not here.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/relief.hh"
#include "dag/workload_file.hh"
#include "sched/oracle.hh"
#include "stats/json_reader.hh"

using namespace relief;

namespace
{

std::vector<DagPtr>
buildWorkload(const ExperimentConfig &config,
              const std::string &workload_path)
{
    if (!workload_path.empty())
        return loadWorkloadFile(workload_path);
    std::vector<DagPtr> dags;
    for (AppId app : parseMix(config.mix))
        dags.push_back(buildApp(app, config.app));
    return dags;
}

/** Shared breach accounting for diff mode. */
struct DiffReport
{
    double maxRelPct = 10.0;  ///< Relative-delta breach threshold (%).
    double absFloor = 1.0;    ///< Both below this -> skipped as noise.
    bool breachesOnly = false;
    int breaches = 0;
    int compared = 0;
    Table table{"stats diff (A vs B)"};

    DiffReport()
    {
        table.setHeader({"metric", "A", "B", "delta %", "verdict"});
    }

    void
    row(const std::string &metric, double a, double b)
    {
        if (std::fabs(a) < absFloor && std::fabs(b) < absFloor)
            return;
        double denom = std::max(std::fabs(a), std::fabs(b));
        double rel = std::fabs(a - b) / denom * 100.0;
        bool breach = rel > maxRelPct;
        compared += 1;
        breaches += breach ? 1 : 0;
        if (breachesOnly && !breach)
            return;
        table.addRow({metric, Table::num(a, 3), Table::num(b, 3),
                      Table::num(rel, 1), breach ? "BREACH" : "ok"});
    }

    /** Compare every numeric member present in both objects. */
    void
    object(const std::string &prefix, const JsonValue &a,
           const JsonValue &b)
    {
        for (const std::string &key : a.keys()) {
            const JsonValue *vb = b.find(key);
            if (vb && a.at(key).isNumber() && vb->isNumber())
                row(prefix + key, a.at(key).asNumber(), vb->asNumber());
        }
    }
};

/**
 * The pressure block of a loaded document: the "pressure" member of a
 * relief-stats-v1 dump, or the document itself when it already is a
 * standalone relief-pressure-v1 artifact.
 */
const JsonValue *
pressureBlock(const JsonValue &doc)
{
    if (const JsonValue *block = doc.find("pressure"))
        return block;
    if (doc.find("totals") && doc.find("resources"))
        return &doc;
    return nullptr;
}

/** Identity of a contender row for cross-file matching. */
std::string
contenderKey(const JsonValue &row)
{
    return row.at("source").asString() + "/" + row.at("qos").asString() +
           "/" + row.at("traffic").asString();
}

void
diffPressure(DiffReport &diff, const JsonValue &a, const JsonValue &b)
{
    diff.object("pressure.totals.", a.at("totals"), b.at("totals"));

    const JsonValue &qos_b = b.at("qos");
    for (std::size_t i = 0; i < a.at("qos").size(); ++i) {
        const JsonValue &cls = a.at("qos").at(i);
        for (std::size_t j = 0; j < qos_b.size(); ++j) {
            if (qos_b.at(j).at("name").asString() !=
                cls.at("name").asString())
                continue;
            diff.object("pressure.qos." + cls.at("name").asString() + ".",
                        cls, qos_b.at(j));
            break;
        }
    }

    const JsonValue &res_b = b.at("resources");
    for (std::size_t i = 0; i < a.at("resources").size(); ++i) {
        const JsonValue &res = a.at("resources").at(i);
        const std::string &name = res.at("name").asString();
        const JsonValue *other = nullptr;
        for (std::size_t j = 0; j < res_b.size() && !other; ++j)
            if (res_b.at(j).at("name").asString() == name)
                other = &res_b.at(j);
        if (!other)
            continue;
        diff.object(name + ".", res, *other);
        const JsonValue &contenders = res.at("contenders");
        for (std::size_t c = 0; c < contenders.size(); ++c) {
            const JsonValue &mine = contenders.at(c);
            const JsonValue &theirs_all = other->at("contenders");
            for (std::size_t d = 0; d < theirs_all.size(); ++d) {
                if (contenderKey(theirs_all.at(d)) != contenderKey(mine))
                    continue;
                diff.object(name + "[" + contenderKey(mine) + "].", mine,
                            theirs_all.at(d));
                break;
            }
        }
    }
}

/**
 * Quantile of a serialized histogram stat, replicating
 * Histogram::quantile's linear in-bucket interpolation so the diff
 * agrees with what the live model would report.
 */
double
histQuantile(const JsonValue &hist, double q)
{
    double count = hist.at("count").asNumber();
    if (count <= 0.0)
        return 0.0;
    double target = q * count;
    double seen = hist.at("underflow").asNumber();
    double vmin = hist.at("min").asNumber();
    double vmax = hist.at("max").asNumber();
    if (target <= seen)
        return vmin;
    const JsonValue &buckets = hist.at("buckets");
    double lo = hist.at("range").at(0).asNumber();
    double hi = hist.at("range").at(1).asNumber();
    double width = (hi - lo) / double(buckets.size());
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        double in_bucket = buckets.at(i).asNumber();
        if (in_bucket > 0.0 && target <= seen + in_bucket) {
            double frac = (target - seen) / in_bucket;
            double v = lo + double(i) * width + frac * width;
            return std::min(std::max(v, vmin), vmax);
        }
        seen += in_bucket;
    }
    return vmax;
}

void
diffQuantiles(DiffReport &diff, const JsonValue &a, const JsonValue &b)
{
    const JsonValue *stats_a = a.find("stats");
    const JsonValue *stats_b = b.find("stats");
    if (!stats_a || !stats_b)
        return;
    const double quantiles[] = {0.50, 0.95, 0.99};
    const char *labels[] = {".p50", ".p95", ".p99"};
    for (const std::string &key : stats_a->keys()) {
        const JsonValue &stat = stats_a->at(key);
        const JsonValue *other = stats_b->find(key);
        if (!other || !stat.isObject() || !other->isObject())
            continue;
        const JsonValue *kind = stat.find("kind");
        if (!kind || kind->asString() != "histogram")
            continue;
        for (int i = 0; i < 3; ++i)
            diff.row(key + labels[i], histQuantile(stat, quantiles[i]),
                     histQuantile(*other, quantiles[i]));
    }
}

std::string
docSchema(const JsonValue &doc)
{
    const JsonValue *schema = doc.find("schema");
    return schema && schema->isString() ? schema->asString() : "";
}

int
runDiff(const std::string &path_a, const std::string &path_b,
        DiffReport &diff)
{
    const JsonValue a = JsonValue::parseFile(path_a);
    const JsonValue b = JsonValue::parseFile(path_b);
    const std::string schema = docSchema(a);
    if (schema != "relief-stats-v1" && schema != "relief-pressure-v1")
        fatal("--diff compares relief-stats-v1 or relief-pressure-v1 "
              "documents, but ", path_a, " has schema '", schema, "'");
    if (docSchema(b) != schema)
        fatal("--diff documents disagree on schema ('", schema,
              "' vs '", docSchema(b), "')");

    const JsonValue *pressure_a = pressureBlock(a);
    const JsonValue *pressure_b = pressureBlock(b);
    if (pressure_a && pressure_b)
        diffPressure(diff, *pressure_a, *pressure_b);
    else
        std::cout << "note: no pressure block in both documents — "
                     "skipping pressure diff\n";
    diffQuantiles(diff, a, b);

    diff.table.print(std::cout);
    std::cout << "\n"
              << diff.compared << " metrics compared, " << diff.breaches
              << " above threshold (" << path_a << " vs " << path_b
              << ")\n";
    return diff.breaches > 0 ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_path;
    std::vector<std::string> diff_paths;
    DiffReport diff;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            workload_path = argv[++i];
        } else if (arg == "--diff" && i + 2 < argc) {
            diff_paths = {argv[i + 1], argv[i + 2]};
            i += 2;
        } else if (arg == "--max-rel-delta" && i + 1 < argc) {
            diff.maxRelPct = std::atof(argv[++i]);
        } else if (arg == "--abs-floor" && i + 1 < argc) {
            diff.absFloor = std::atof(argv[++i]);
        } else if (arg == "--breaches-only") {
            diff.breachesOnly = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << cliUsage()
                      << " [--workload FILE]\n"
                         "   or: relief_compare --diff A.json B.json"
                         " [--max-rel-delta PCT] [--abs-floor X]"
                         " [--breaches-only]\n";
            return 0;
        } else {
            args.push_back(arg);
        }
    }

    if (!diff_paths.empty()) {
        try {
            return runDiff(diff_paths[0], diff_paths[1], diff);
        } catch (const FatalError &) {
            return 1; // fatal() already printed the message
        }
    }

    ExperimentConfig config;
    try {
        config = parseCliOptions(args);
    } catch (const FatalError &) {
        return 1; // fatal() already printed the message
    }

    Table table("policy comparison — " +
                (workload_path.empty() ? "mix " + config.mix
                                       : "workload " + workload_path));
    table.setHeader({"policy", "fwd", "coloc", "DRAM KiB",
                     "node deadlines %", "DAG deadlines",
                     "makespan (ms)"});

    std::vector<PolicyKind> policies = allPolicies;
    policies.push_back(PolicyKind::ReliefHetSched);
    for (PolicyKind policy : policies) {
        SocConfig soc_config = config.soc;
        soc_config.policy = policy;
        Soc soc(soc_config);
        std::vector<DagPtr> dags;
        try {
            dags = buildWorkload(config, workload_path);
        } catch (const FatalError &) {
            return 1; // fatal() already printed the message
        }
        for (DagPtr &dag : dags)
            soc.submit(dag, 0, config.continuous);
        soc.run(config.timeLimit);
        MetricsReport r = soc.report();
        if (!config.statsJsonPath.empty()) {
            std::string path = config.statsJsonPath;
            std::size_t dot = path.rfind('.');
            std::string tag = std::string(".") + policyName(policy);
            path = dot == std::string::npos
                       ? path + tag
                       : path.substr(0, dot) + tag + path.substr(dot);
            std::ofstream out(path);
            if (!out) {
                std::cerr << "cannot write stats to " << path << "\n";
                return 1;
            }
            soc.writeStatsJson(out);
            std::cout << "JSON stats written to " << path << "\n";
        }
        table.addRow(
            {policyName(policy), std::to_string(r.run.forwards),
             std::to_string(r.run.colocations),
             std::to_string(r.dramBytes / 1024),
             Table::pct(r.run.nodeDeadlineFraction()),
             std::to_string(r.run.dagDeadlinesMet) + "/" +
                 std::to_string(r.run.dagsFinished),
             Table::num(toMs(r.execTime), 3)});
    }

    // Oracle bound, when the search is tractable.
    try {
        std::vector<DagPtr> dags = buildWorkload(config, workload_path);
        int total_nodes = 0;
        std::vector<Dag *> raw;
        for (DagPtr &dag : dags) {
            total_nodes += dag->numNodes();
            raw.push_back(dag.get());
        }
        if (total_nodes <= 24 && !config.continuous) {
            OracleResult ideal =
                findIdealSchedule(raw, config.soc.instances);
            table.addRow(
                {std::string("Ideal (oracle") +
                     (ideal.exhaustive ? ")" : ", state-capped)"),
                 std::to_string(ideal.forwards),
                 std::to_string(ideal.colocations), "-", "-",
                 std::to_string(ideal.dagDeadlinesMet) + "/" +
                     std::to_string(ideal.dagCount),
                 Table::num(toMs(ideal.makespan), 3)});
        }
    } catch (const PanicError &) {
        // Too large for the oracle: no bound row.
    }

    table.print(std::cout);
    return 0;
}
