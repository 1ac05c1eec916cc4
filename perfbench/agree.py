#!/usr/bin/env python3
"""Check that two sets of benchmark runs agree within BENCHMARK.json's bounds.

    python3 perfbench/agree.py A.json[,A2.json...] B.json[,B2.json...]

Each file is a document written by `run_benchmark.py --out` (or a
baseline such as perfbench/baseline/seed1.json), holding one or more
runs. For every workload present in both sets, the median of each
end-to-end metric over the untraced runs is compared:

  * host-measured metrics (sim_ms_per_s, setup_s, peak_rss_mb) agree
    when the medians differ by at most the metric's bound;
  * modelled metrics are deterministic for a given seed: when both sets
    ran the same seeds their medians must be identical, otherwise they
    are held to the bound like host metrics. A modelled metric that
    does not describe a workload reads 1 in every run, so it agrees.

Prints one row per (workload, metric). Exits 0 when everything agrees,
2 on any disagreement or failed run, 1 on unusable input. Python
standard library only.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_METRICS = {"sim_ms_per_s", "setup_s", "peak_rss_mb"}


def load_runs(arg):
    runs = []
    for path in arg.split(","):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != "relief-perfbench-v1":
            raise ValueError("%s is not a relief-perfbench-v1 document"
                             % path)
        runs += [r for r in doc["runs"] if not r["trace"]]
    return runs


def by_workload(runs):
    out = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 1
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        a, b = by_workload(load_runs(argv[1])), by_workload(load_runs(argv[2]))
    except (OSError, ValueError, KeyError) as err:
        print("agree: %s" % err, file=sys.stderr)
        return 1

    ok = True
    common = [w["name"] for w in spec["workloads"]
              if w["name"] in a and w["name"] in b]
    if not common:
        print("agree: the two sets share no workload", file=sys.stderr)
        return 1
    print("%-13s %-18s %14s %14s %9s %6s" % ("workload", "metric", "median A",
                                             "median B", "delta", "bound"))
    for workload in common:
        runs_a, runs_b = a[workload], b[workload]
        for run in runs_a + runs_b:
            if not run["result"]["correct"]:
                print("%-13s run with seed %d failed %d operation(s)"
                      % (workload, run["seed"], run["result"]["failed"]))
                ok = False
        same_seeds = (sorted(r["seed"] for r in runs_a)
                      == sorted(r["seed"] for r in runs_b))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med_a = statistics.median(
                r["result"]["metrics"][name]["value"] for r in runs_a)
            med_b = statistics.median(
                r["result"]["metrics"][name]["value"] for r in runs_b)
            delta = (med_b - med_a) / med_a if med_a else float(med_b != 0)
            exact = name not in HOST_METRICS and same_seeds
            agrees = med_a == med_b if exact else abs(delta) <= bound
            ok = ok and agrees
            print("%-13s %-18s %14.6g %14.6g %+8.2f%% %6s %s" % (
                workload, name, med_a, med_b, delta * 100.0,
                "exact" if exact else "%g" % bound,
                "ok" if agrees else "DISAGREE"))
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
