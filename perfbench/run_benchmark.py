#!/usr/bin/env python3
"""Build the RELIEF benchmark and run one of its workloads.

    python3 perfbench/run_benchmark.py --workload matrix [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

The first run in a checkout configures and builds the simulator and the
measuring program (perfbench/relief_benchmark.cc) as a Release build in
.bench_build/perfbench; later runs only check that build is current.
The workload then runs in its own child process for the fixed number of
passes PASSES gives it, sized to fit in --seconds on a 4-vCPU server;
a run that a slow host stretches past 1.5 x --seconds stops early. Prints one `workload metric value unit` line per metric, then,
as the last line, one JSON object (--out FILE also appends the run,
with its diagnostics and build_info, to a document agree.py reads):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
declares; with --trace 1 they are its per-layer metrics, and the spans
of the traced pass go to .bench_build/traces/. Exits non-zero when the
build fails, an operation failed, or the metrics do not match
BENCHMARK.json. Python standard library only.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "relief_benchmark")

# Passes per run: (untraced run, traced run). A traced run makes that
# many pairs of an untraced and a traced pass. Every build does the same
# work, so each cell's fastest pass is a minimum over the same number of
# samples. On the machine the baseline comes from, matrix and functional
# take about 18 s, and burst-banked and serve, whose host time is the
# noisiest, about 27 s.
PASSES = {
    "matrix": (140, 50),
    "burst-banked": (54, 20),
    "serve": (12, 5),
    "functional": (700, 400),
}


def fail(message):
    print("run_benchmark: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_quiet(cmd):
    """Run a build step; on failure show its output and stop."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no simulator sources around perfbench/ (expected "
             "CMakeLists.txt and src/ in %s)" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target",
               "relief_benchmark", "-j", jobs])
    return BINARY


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="what the passes are sized to take; a run "
                             "stops early past 1.5x this (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--out", help="also append the run to this JSON "
                                      "document (input of agree.py)")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over at most two cells")
    parser.add_argument("--binary", help="use this prebuilt "
                                         "relief_benchmark; skip the build")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                  ", ".join(names)))
    if args.seed < 0:
        fail("--seed must be non-negative")
    seconds = args.seconds or spec["run_seconds"]
    if seconds < 1:
        fail("--seconds must be positive")
    traced = args.trace == "1"
    max_seconds = math.ceil(1.5 * seconds)

    binary = args.binary or build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--passes", str(PASSES[args.workload][int(traced)]),
           "--max-seconds", str(max_seconds)]
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace", "--trace-out",
                os.path.join(TRACE_DIR, "%s-seed%d.json" % (args.workload,
                                                            args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")

    # The workload runs in a process of its own, so its peak RSS is its
    # own. The program stops starting passes after max_seconds; the
    # timeout leaves room for the last pass and the layer probes.
    timeout = 2 * seconds + 60
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("relief_benchmark ran past %d s" % timeout)
    if proc.returncode != 0:
        fail("relief_benchmark exited with %d" % proc.returncode)
    try:
        doc = json.loads(proc.stdout)
    except ValueError as err:
        fail("relief_benchmark printed no JSON document: %s" % err)

    metrics = doc["metrics"]
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    errors = list(doc["failures"])
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(want) ^ set(metrics)):
        errors.append("metric %s is %s" % (
            name, "missing" if name in want else "not declared"))
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got["unit"] != unit:
            errors.append("metric %s has unit %s, declared %s"
                          % (name, got["unit"], unit))
        if not isinstance(got["value"], (int, float)):
            errors.append("metric %s has no finite value" % name)
        elif not traced and got["value"] == 0:
            errors.append("end-to-end metric %s is 0" % name)

    not_applicable = set(doc["diagnostics"]["not_applicable"])
    ordered = {m["name"]: metrics[m["name"]] for m in declared
               if m["name"] in metrics}
    for name, m in ordered.items():
        print("%s %s %r %s%s" % (args.workload, name, m["value"], m["unit"],
                                 " (not applicable)"
                                 if name in not_applicable else ""))
    for error in errors:
        print("run_benchmark: " + error, file=sys.stderr)

    result = {
        "correct": doc["ops_failed"] == 0 and not errors,
        "attempted": doc["ops"],
        "failed": doc["ops_failed"],
        "metrics": ordered,
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": int(traced), "seconds": seconds,
                  "smoke": args.smoke, "result": result,
                  "diagnostics": doc["diagnostics"],
                  "build_info": doc["build_info"]}
        out = {"schema": "relief-perfbench-v1", "runs": []}
        if os.path.isfile(args.out):
            with open(args.out) as f:
                out = json.load(f)
            if out.get("schema") != "relief-perfbench-v1":
                fail("%s is not a relief-perfbench-v1 document" % args.out)
        out["runs"].append(record)
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
