#!/usr/bin/env python3
"""Smoke-run the pressure ledger on one platform.

    pressure_smoke_test.py CHECKER OUTDIR RELIEF_SIM [FLAGS...]

Runs RELIEF_SIM --mix CDL --policy RELIEF --pressure-tracks with FLAGS
(the platform), writing the pressure report, the stats JSON and the
trace into OUTDIR. Passes when the schema checker CHECKER accepts the
pressure report and the stats JSON (it checks that the suffered and
caused waits balance and sum to totals.wait_us), the stats JSON embeds
the pressure block, and the trace holds the DRAM channel's counter
tracks, plus bank 0's when FLAGS include --banked-memory.
"""

import os
import subprocess
import sys


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    checker, outdir, command = argv[1], argv[2], argv[3:]
    os.makedirs(outdir, exist_ok=True)
    pressure = os.path.join(outdir, "pressure.json")
    stats = os.path.join(outdir, "stats.json")
    trace = os.path.join(outdir, "trace.json")
    command += ["--mix", "CDL", "--policy", "RELIEF", "--pressure-tracks",
                "--pressure-report", pressure, "--stats-json", stats,
                "--trace", trace]
    errors = []
    for step in (command, [sys.executable, checker, pressure],
                 [sys.executable, checker, stats]):
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT,
                              universal_newlines=True, timeout=120)
        if proc.returncode != 0:
            errors.append("%s exited %d:\n%s" % (" ".join(step),
                                                  proc.returncode,
                                                  proc.stdout))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1

    with open(stats) as f:
        if '"pressure": {' not in f.read():
            errors.append("stats JSON has no pressure block")
    tracks = ["dram.channel.utilization", "dram.channel.queue_depth"]
    if "--banked-memory" in command:
        tracks += ["dram.bank0.utilization", "dram.bank0.queue_depth"]
    with open(trace) as f:
        text = f.read()
    errors += ["trace has no %s track" % track for track in tracks
               if track not in text]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
