/**
 * @file
 * serve_load_sweep — open-loop load sweep across the saturation knee.
 *
 * For each scheduling policy, sweep the offered load across multiples
 * of the platform's measured capacity (default 0.2x-1.4x), run one
 * seeded open-loop serving experiment per (policy, load) point, and
 * emit one relief-serve-v1 document: per-class p50/p95/p99 latency,
 * goodput, miss and shed rate per point, plus each policy's saturation
 * knee (the lowest load whose miss + shed rate exceeds 10%).
 *
 * Capacity is measured once with a closed-loop continuous run under
 * FCFS, so every policy sees the same absolute request rates, and
 * arrival schedules derive from (seed, load index) only, so every
 * policy at a load serves the same request stream. The document holds
 * no host timing: the same seed gives a bit-identical file for any
 * --jobs value (CI diffs --jobs 1 against --jobs 2).
 *
 * Examples:
 *
 *   serve_load_sweep                        # full sweep -> BENCH_serve.json
 *   serve_load_sweep --smoke --jobs 2       # CI: 5 loads, 2 policies, 30 ms
 *   serve_load_sweep --policies RELIEF,LAX --loads 0.5,1.0,1.5
 *
 * `serve_load_sweep --help` lists every flag.
 */

#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/relief.hh"
#include "core/rng.hh"
#include "serve/server.hh"

using namespace relief;

namespace
{

/** Miss + shed rate past which a point counts as saturated. */
constexpr double kneeThreshold = 0.10;

int
run(int argc, char **argv)
{
    std::string out_path = "BENCH_serve.json";
    std::vector<std::string> policies;
    for (PolicyKind kind : mainPolicies)
        policies.push_back(policyName(kind));
    std::vector<double> loads = {0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4};
    double horizon_ms = toMs(continuousWindow);
    ArrivalKind arrival = ArrivalKind::Poisson;
    AdmissionConfig admission;
    admission.kind = AdmissionKind::Laxity;
    std::uint64_t seed = 1;
    int jobs = 1;
    bool smoke = false;

    FlagTable flags("serve_load_sweep");
    flags
        .text("--out", "FILE", "output path (default BENCH_serve.json)",
              out_path)
        .add("--policies", "LIST",
             "comma-separated policy names (default the six headline "
             "policies)",
             [&](FlagValues v) { policies = splitCsv(v[0]); })
        .add("--loads", "LIST",
             "offered-load multipliers of the measured capacity (default "
             "0.2,0.4,...,1.4)",
             [&](FlagValues v) {
                 loads.clear();
                 for (const std::string &item : splitCsv(v[0]))
                     loads.push_back(
                         parseNumber<double>("flag --loads", item, positive));
             })
        .number("--horizon-ms", "X", "per-run measurement window (default 50)",
                horizon_ms, positive)
        .add("--arrival", "KIND", "poisson | bursty (default poisson)",
             [&](FlagValues v) {
                 arrival = arrivalFromName(v[0]);
                 if (arrival == ArrivalKind::Trace)
                     fatal("the sweep needs a stochastic arrival process "
                           "(poisson | bursty)");
             })
        .add("--admission", "KIND",
             "admit-all | queue-cap | laxity (default laxity)",
             [&](FlagValues v) { admission.kind = admissionFromName(v[0]); })
        .number("--queue-cap", "N",
                "queue-cap: in-system request cap (default 64)",
                admission.queueCap)
        .number("--seed", "N", "master seed (default 1)", seed)
        .add("--jobs", "N",
             "sweep points on N worker threads (0 = one per hardware "
             "thread); results are jobs-invariant",
             [&](FlagValues v) {
                 jobs = parseNumber<int>("flag --jobs", v[0], nonNegative);
                 if (jobs == 0)
                     jobs = defaultParallelJobs();
             })
        .add("--smoke", "", "tiny sweep for CI: FCFS+RELIEF, 5 loads, 30 ms",
             [&](FlagValues) {
                 smoke = true;
                 policies = {policyName(PolicyKind::Fcfs),
                             policyName(PolicyKind::Relief)};
                 loads = {0.25, 0.5, 0.75, 1.0, 1.25};
                 horizon_ms = 30.0;
             });
    if (!flags.parse({argv + 1, argv + argc}))
        return 0;

    std::vector<PolicyKind> policy_kinds;
    for (const std::string &name : policies)
        policy_kinds.push_back(policyFromName(name));
    if (policy_kinds.empty() || loads.empty())
        fatal("need at least one policy and one load point");

    // Calibrate once; every sweep point shares the result.
    SocConfig base_soc;
    AppConfig base_app;
    double capacity_rps = measureCapacityRps(base_soc, base_app);
    std::cout << "measured capacity: " << Table::num(capacity_rps, 1)
              << " requests/s (closed-loop FCFS, all five apps)\n";

    // The sweep matrix: loads major, policies minor. Arrival seeds
    // derive from the load index only, so every policy at a load
    // serves the identical request stream.
    struct Point
    {
        std::size_t load = 0;
        std::size_t policy = 0;
    };
    std::vector<Point> points;
    for (std::size_t l = 0; l < loads.size(); ++l)
        for (std::size_t p = 0; p < policy_kinds.size(); ++p)
            points.push_back({l, p});

    std::vector<ServeReport> reports(points.size());
    parallelFor(points.size(), jobs, [&](std::size_t i) {
        ServeConfig config;
        config.soc = base_soc;
        config.app = base_app;
        config.soc.policy = policy_kinds[points[i].policy];
        config.arrival.kind = arrival;
        config.arrival.ratePerSec = loads[points[i].load] * capacity_rps;
        config.admission = admission;
        config.horizon = fromMs(horizon_ms);
        config.seed = deriveSeed(seed, points[i].load);
        ServeDriver driver(config);
        reports[i] = driver.run();
    });

    for (std::size_t i = 0; i < points.size(); ++i) {
        const ClassSlo &total = reports[i].total;
        std::cout << "serve " << policyName(policy_kinds[points[i].policy])
                  << " @ " << Table::num(loads[points[i].load], 2)
                  << "x: goodput "
                  << Table::num(total.goodputRps(), 1)
                  << " rps, p99 "
                  << Table::num(total.latencyMs.quantile(0.99), 2)
                  << " ms, miss " << Table::num(total.missRate() * 100, 1)
                  << "%, shed " << Table::num(total.shedRate() * 100, 1)
                  << "%\n";
    }

    // No --jobs or host timing in the document: the same seed must
    // produce a bit-identical file for any worker count.
    ServeDocument doc;
    doc.seed = seed;
    doc.horizonMs = horizon_ms;
    doc.smoke = smoke;
    doc.capacityRps = capacity_rps;
    for (std::size_t i = 0; i < points.size(); ++i) {
        double load = loads[points[i].load];
        doc.runs.push_back({&reports[i],
                            policyName(policy_kinds[points[i].policy]),
                            admissionKindName(admission.kind),
                            arrivalKindName(arrival), load,
                            load * capacity_rps});
    }
    // Saturation knee per policy: the lowest swept load whose miss +
    // shed rate crosses the threshold.
    for (std::size_t p = 0; p < policy_kinds.size(); ++p) {
        ServeDocument::Knee knee{policyName(policy_kinds[p]), {}};
        for (std::size_t l = 0; l < loads.size() && !knee.load; ++l) {
            const ServeReport &report = reports[l * policy_kinds.size() + p];
            if (report.total.missRate() + report.total.shedRate() >
                kneeThreshold)
                knee.load = loads[l];
        }
        doc.saturation.push_back(knee);
    }
    writeFile(out_path, "serve JSON", [&](std::ostream &out) {
        writeServeDocument(out, doc);
    });
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
