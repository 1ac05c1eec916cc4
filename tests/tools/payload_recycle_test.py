#!/usr/bin/env python3
"""Functional payloads recycle their output buffers.

    payload_recycle_test.py RELIEF_SIM STATS_JSON

Runs RELIEF_SIM --mix CDGHL --policy RELIEF --functional, writing its
stats JSON to STATS_JSON. Passes when the payload buffer pool served at
least 250 buffers by reuse (kernels.scratch_reuses) and allocated at
most 20 (kernels.scratch_allocs): the manager hands each payload a
recycled buffer instead of a fresh one per node.
"""

import json
import subprocess
import sys

MIN_REUSES = 250
MAX_ALLOCS = 20


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    relief_sim, stats_path = argv[1], argv[2]
    command = [relief_sim, "--mix", "CDGHL", "--policy", "RELIEF",
               "--functional", "--stats-json", stats_path]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT,
                          universal_newlines=True, timeout=120)
    if proc.returncode != 0:
        print("%s exited %d:\n%s" % (" ".join(command), proc.returncode,
                                     proc.stdout), file=sys.stderr)
        return 1
    with open(stats_path) as f:
        stats = json.load(f)["stats"]
    reuses = stats["kernels.scratch_reuses"]["value"]
    allocs = stats["kernels.scratch_allocs"]["value"]
    print("kernels.scratch_reuses", reuses)
    print("kernels.scratch_allocs", allocs)
    errors = []
    if reuses < MIN_REUSES:
        errors.append("payload buffers are not recycled: %d reuses < %d"
                      % (reuses, MIN_REUSES))
    if allocs > MAX_ALLOCS:
        errors.append("payload buffers are allocated per node: %d "
                      "allocations > %d" % (allocs, MAX_ALLOCS))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
