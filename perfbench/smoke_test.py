#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload once, plus its self-checks.

    python3 perfbench/smoke_test.py [--binary PATH]

Runs each workload with --smoke (one pass over at most two cells),
untraced and traced, and asserts that:

  * each run prints exactly the metrics BENCHMARK.json declares for it,
    with their units, and every check passes; modelled metrics that do
    not describe the workload read 1 and are listed as not applicable;
  * --seed 2 changes serve's modelled metrics and functional's outputs,
    and leaves matrix's modelled metrics identical;
  * a corrupted functional reference output fails exactly one operation
    and makes the run exit non-zero.

Without --binary it builds the program first, as run_benchmark.py does.
Python standard library only.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "smoke")
HOST_METRICS = {"sim_ms_per_s", "setup_s", "peak_rss_mb"}

sys.path.insert(0, HERE)
import run_benchmark  # noqa: E402


def run(binary, workload, seed=1, trace=False, corrupt=False):
    """One smoke run; returns (exit code, its run record, its stderr)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s-%d-%d.json" % (workload, seed, trace))
    if os.path.exists(out):
        os.remove(out)  # --out appends
    cmd = [sys.executable, os.path.join(HERE, "run_benchmark.py"),
           "--binary", binary, "--smoke", "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0",
           "--out", out]
    if corrupt:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out) as f:
        record = json.load(f)["runs"][0]
    assert record["result"] == last, "--out differs from the printed result"
    return proc.returncode, record, proc.stderr


def modelled(record):
    return {k: v["value"] for k, v in record["result"]["metrics"].items()
            if k not in HOST_METRICS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--binary")
    args = parser.parse_args()
    binary = args.binary or run_benchmark.build()
    spec = run_benchmark.load_spec()

    first = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            code, record, err = run(binary, workload, trace=trace)
            assert code == 0 and record["result"]["correct"], (
                "%s trace=%d failed:\n%s" % (workload, trace, err))
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            got = {k: v["unit"]
                   for k, v in record["result"]["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in declared}, (
                "%s trace=%d prints other metrics than BENCHMARK.json "
                "declares" % (workload, trace))
            if not trace:
                first[workload] = record
                marked = record["diagnostics"]["not_applicable"]
                assert not HOST_METRICS & set(marked), (
                    "%s marks a host metric not applicable" % workload)
                assert all(record["result"]["metrics"][name]["value"] == 1
                           for name in marked), (
                    "%s: a not-applicable metric does not read 1" % workload)
        print("ok   %s" % workload)

    reseeded = {w: run(binary, w, seed=2)[1]
                for w in ("matrix", "serve", "functional")}
    assert modelled(reseeded["matrix"]) == modelled(first["matrix"]), (
        "matrix has no random inputs, yet --seed changed its results")
    assert modelled(reseeded["serve"]) != modelled(first["serve"]), (
        "--seed did not change serve's arrivals")
    assert (reseeded["functional"]["diagnostics"]["output_digest"]
            != first["functional"]["diagnostics"]["output_digest"]), (
        "--seed did not change functional's inputs")
    print("ok   --seed 2")

    code, record, _ = run(binary, "functional", corrupt=True)
    assert code != 0 and record["result"]["failed"] == 1, (
        "a corrupted reference gave exit %d, %d failed operation(s)"
        % (code, record["result"]["failed"]))
    print("ok   corrupted reference detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
