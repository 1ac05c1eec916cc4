#!/usr/bin/env python3
"""Golden serve runs: every document of a few short relief_serve runs,
pinned by SHA-256.

    golden_serve.py RELIEF_SERVE WORKDIR           check against hashes.json
    golden_serve.py RELIEF_SERVE WORKDIR --update  rewrite hashes.json

Each config in CONFIGS runs RELIEF_SERVE in WORKDIR/<config> with
burn-rate alerts (logged to stderr under the Serve debug flag), 20%
tail sampling, and every output: the relief-serve-v1 document (--out),
the stats JSON, the relief-trace-v1 document, the Perfetto trace, the
final exposition snapshot and every earlier one (--expo-series, hashed
as one document). stdout and stderr are hashed too, after the work
directory is replaced by "<out>"; the JSON documents are hashed with
their build_info object removed, so the hashes hold across build types
and compilers that compute the same model.

A check passes when every document hashes as recorded. A PR that
changes a hash must say in CHANGES.md which modelled behaviour changed
and why, then rerun with --update.
"""

import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HASHES = os.path.join(HERE, "hashes.json")

COMMON = ["--horizon-ms", "100", "--alerts", "--sample-ok", "0.2",
          "--debug-flags", "Serve"]
CONFIGS = {
    "laxity": ["--admission", "laxity", "--rate", "600"],
    "admit-all-bursty": ["--admission", "admit-all", "--arrival", "bursty",
                         "--rate", "300"],
    "queue-cap": ["--admission", "queue-cap", "--queue-cap", "8",
                  "--rate", "600"],
    # Arrivals tie with each other and with the periodic services.
    "trace-ties": ["--arrival", "trace", "--trace-file", "arrivals.txt",
                   "--admission", "queue-cap", "--queue-cap", "6"],
}
OUTPUTS = {
    "serve": ["--out", "serve.json"],
    "stats": ["--stats-json", "stats.json"],
    "trace_doc": ["--trace-json", "trace.json"],
    "perfetto": ["--trace", "perfetto.json"],
    "expo": ["--expo", "expo.prom", "--expo-series"],
}
BUILD_INFO = re.compile(rb'\n\s*"build_info": \{[^{}]*\},')


def run_config(binary, workdir, args):
    """Run one config; return {document: sha256}."""
    os.makedirs(workdir, exist_ok=True)
    for stale in glob.glob(os.path.join(workdir, "*")):
        os.remove(stale)
    shutil.copy(os.path.join(HERE, "arrivals.txt"), workdir)
    command = [binary] + args + COMMON
    for flags in OUTPUTS.values():
        command += flags
    proc = subprocess.run(command, cwd=workdir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (
            " ".join(command), proc.returncode, proc.stderr.decode()))

    def read(name):
        with open(os.path.join(workdir, name), "rb") as f:
            return f.read()

    series = sorted(glob.glob(os.path.join(workdir, "expo.prom.*")),
                    key=lambda p: int(p.rsplit(".", 1)[1]))
    docs = {
        "serve": read("serve.json"),
        "stats": read("stats.json"),
        "trace_doc": read("trace.json"),
        "perfetto": read("perfetto.json"),
        "expo": read("expo.prom"),
        "expo_series": b"".join(read(os.path.basename(p)) for p in series),
        "stdout": proc.stdout,
        "stderr": proc.stderr,
    }
    out = {}
    for name, data in docs.items():
        data = data.replace(workdir.encode(), b"<out>")
        data = BUILD_INFO.sub(b"", data, count=1)
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def main(argv):
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--update"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, workdir = os.path.abspath(argv[1]), os.path.abspath(argv[2])
    got = {name: run_config(binary, os.path.join(workdir, name), args)
           for name, args in CONFIGS.items()}
    if len(argv) == 4:
        with open(HASHES, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % HASHES)
        return 0

    with open(HASHES) as f:
        want = json.load(f)
    diffs = ["%s/%s: got %s, want %s" % (config, doc, digest,
                                         want.get(config, {}).get(doc))
             for config, docs in sorted(got.items())
             for doc, digest in sorted(docs.items())
             if want.get(config, {}).get(doc) != digest]
    diffs += ["%s: recorded but not run" % config
              for config in sorted(set(want) - set(got))]
    if diffs:
        print("golden serve outputs changed (outputs kept in %s):\n  %s"
              % (workdir, "\n  ".join(diffs)), file=sys.stderr)
        return 1
    print("%d configs, %d documents match" % (
        len(got), sum(len(docs) for docs in got.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
