/**
 * @file
 * relief_compare — run one workload under every scheduling policy and
 * print the side-by-side comparison (forwards, colocations, traffic,
 * deadlines, makespan). For workloads small enough (<= 24 nodes total,
 * e.g. a --workload file), an "Ideal (oracle)" row from the exhaustive
 * schedule search is appended as the upper bound.
 *
 * Diff mode (`--diff A.json B.json`) compares two relief-stats-v1 or
 * two relief-pressure-v1 documents instead: every numeric field of the
 * memory-pressure block (contenders matched by source/qos/traffic) and
 * the p50/p95/p99 of every histogram stat. Any relative delta above
 * --max-rel-delta is a breach and makes the exit status 2 — the CI hook
 * for "this change moved memory pressure"; any other schema is an input
 * error (exit 1). `relief_compare --help` lists every flag.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/relief.hh"
#include "sched/oracle.hh"
#include "stats/json_reader.hh"

using namespace relief;

namespace
{

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

std::string
nameOf(const JsonValue &row)
{
    return row.at("name").asString();
}

/** The first element of array @p list whose @p id_of is @p id. */
const JsonValue *
findMatch(const JsonValue &list, const std::string &id,
          std::string (*id_of)(const JsonValue &))
{
    for (std::size_t i = 0; i < list.size(); ++i)
        if (id_of(list.at(i)) == id)
            return &list.at(i);
    return nullptr;
}

void
diffPressure(DiffReport &diff, const JsonValue &a, const JsonValue &b)
{
    diff.object("pressure.totals.", a.at("totals"), b.at("totals"));
    for (std::size_t i = 0; i < a.at("qos").size(); ++i) {
        const JsonValue &cls = a.at("qos").at(i);
        if (const JsonValue *other = findMatch(b.at("qos"), nameOf(cls),
                                               nameOf))
            diff.object("pressure.qos." + nameOf(cls) + ".", cls, *other);
    }
    for (std::size_t i = 0; i < a.at("resources").size(); ++i) {
        const JsonValue &res = a.at("resources").at(i);
        const JsonValue *other =
            findMatch(b.at("resources"), nameOf(res), nameOf);
        if (!other)
            continue;
        diff.object(nameOf(res) + ".", res, *other);
        const JsonValue &contenders = res.at("contenders");
        for (std::size_t c = 0; c < contenders.size(); ++c) {
            std::string key = contenderKey(contenders.at(c));
            if (const JsonValue *theirs = findMatch(
                    other->at("contenders"), key, contenderKey))
                diff.object(nameOf(res) + "[" + key + "].",
                            contenders.at(c), *theirs);
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

int
run(int argc, char **argv)
{
    ExperimentConfig config;
    std::string workload_path;
    std::string stats_json_path;
    std::vector<std::string> diff_paths;
    DiffReport diff;

    FlagTable flags("relief_compare");
    addExperimentFlags(flags, config, workload_path, false);
    flags
        .text("--stats-json", "FILE",
              "write one relief-stats-v1 dump per policy "
              "(stats.json -> stats.RELIEF.json)",
              stats_json_path)
        .add("--diff", "A.json B.json",
             "diff two stats or pressure documents instead of running; "
             "exit 2 on a breach",
             [&](FlagValues v) { diff_paths.assign(v.begin(), v.end()); })
        .number("--max-rel-delta", "PCT",
                "diff: relative delta that breaches (default 10)",
                diff.maxRelPct)
        .number("--abs-floor", "X",
                "diff: skip values below X on both sides (default 1)",
                diff.absFloor)
        .toggle("--breaches-only", "diff: print only breaching rows",
                diff.breachesOnly);
    if (!flags.parse({argv + 1, argv + argc}))
        return 0;
    if (!diff_paths.empty())
        return runDiff(diff_paths[0], diff_paths[1], diff);

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
        for (DagPtr &dag : buildWorkload(config, workload_path))
            soc.submit(dag, 0, config.continuous);
        soc.run(config.timeLimit);
        MetricsReport r = soc.report();
        if (!stats_json_path.empty()) {
            std::string path = stats_json_path;
            path.insert(std::min(path.rfind('.'), path.size()),
                        std::string(".") + policyName(policy));
            writeFile(path, "JSON stats",
                      [&](std::ostream &out) { soc.writeStatsJson(out); });
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

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 1; // fatal() already printed the message
    }
}
