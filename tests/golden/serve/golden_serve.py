#!/usr/bin/env python3
"""Golden runs: every document of a few short relief_serve and
relief_sim runs, pinned by SHA-256.

    golden_serve.py RELIEF_SERVE RELIEF_SIM WORKDIR           check
    golden_serve.py RELIEF_SERVE RELIEF_SIM WORKDIR --update  rewrite

hashes.json holds one table per driver, {config: {document: sha256}}.

Each config in SERVE_CONFIGS runs RELIEF_SERVE in WORKDIR/<config> with
burn-rate alerts (logged to stderr under the Serve debug flag), 20%
tail sampling, and every output: the relief-serve-v1 document (--out),
the stats JSON, the relief-trace-v1 document, the Perfetto trace, the
final exposition snapshot and every earlier one (--expo-series, hashed
as one document). Beyond its hashes, each serve config must show
Perfetto async request slices ("b"/"e", cat "request"), at least two
snapshots in the series, `relief_serve_offered_total` in the final
snapshot, a nonzero `relief_dram_channel_busy_us` in the second one
(a mid-run snapshot reports the busy time so far) and at least one
burn-rate alert opening. The first config runs again without the
exposition and must write the same two traces byte for byte.

Each config in SIM_CONFIGS runs RELIEF_SIM in WORKDIR/sim-<config> with
the stats JSON, the text stats dump, the relief-pressure-v1 report, the
Perfetto trace with pressure tracks, and the critical-path table on
stdout. The host profile is not hashed: it measures host time. The
"observability" config also runs under --debug-flags Sched and must
show, beyond its hashes, a Perfetto trace that parses, holds counter
("C"), flow ("s") and forward-edge events, and RELIEF's promote/deny
lines on stderr.

stdout and stderr are hashed too, after the work directory is replaced
by "<out>"; the JSON documents are hashed with their build_info object
removed, so the hashes hold across build types and compilers that
compute the same model.

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

SERVE_COMMON = ["--horizon-ms", "100", "--alerts", "--sample-ok", "0.2",
                "--debug-flags", "Serve",
                "--out", "serve.json", "--stats-json", "stats.json",
                "--trace-json", "trace.json", "--trace", "perfetto.json",
                "--expo", "expo.prom", "--expo-series"]
SERVE_CONFIGS = {
    "laxity": ["--admission", "laxity", "--rate", "600"],
    "admit-all-bursty": ["--admission", "admit-all", "--arrival", "bursty",
                         "--rate", "300"],
    "queue-cap": ["--admission", "queue-cap", "--queue-cap", "8",
                  "--rate", "600"],
    # Arrivals tie with each other and with the periodic services.
    "trace-ties": ["--arrival", "trace", "--trace-file", "arrivals.txt",
                   "--admission", "queue-cap", "--queue-cap", "6"],
}

SIM_COMMON = ["--stats-json", "stats.json", "--stats", "stats.txt",
              "--pressure-report", "pressure.json",
              "--trace", "perfetto.json", "--pressure-tracks",
              "--latency-breakdown"]
SIM_CONFIGS = {
    "observability": ["--mix", "CDL", "--policy", "RELIEF",
                      "--debug-flags", "Sched"],
    "xbar-banked-burst": ["--mix", "CDL", "--policy", "FCFS",
                          "--continuous", "--limit-ms", "10",
                          "--fabric", "xbar", "--banked-memory",
                          "--dma-burst", "1024"],
    "ring-lax": ["--mix", "GHL", "--policy", "LAX", "--fabric", "ring"],
    "gedf-d-continuous": ["--mix", "CDG", "--policy", "GEDF-D",
                          "--continuous", "--limit-ms", "10"],
    "gedf-n-banked": ["--mix", "DHL", "--policy", "GEDF-N",
                      "--banked-memory"],
    "ll-xbar": ["--mix", "CG", "--policy", "LL", "--fabric", "xbar"],
    "hetsched-continuous": ["--mix", "CDL", "--policy", "HetSched",
                            "--continuous", "--limit-ms", "10"],
    "relief-lax-functional": ["--mix", "CG", "--policy", "RELIEF-LAX",
                              "--functional"],
    "stream-forwarding": ["--mix", "CDL", "--policy", "RELIEF",
                          "--stream-forwarding", "--continuous",
                          "--limit-ms", "10"],
    "stream-functional-banked": ["--mix", "CDGHL", "--policy", "RELIEF",
                                 "--stream-forwarding", "--functional",
                                 "--banked-memory"],
    "relief-hs-ring-burst": ["--mix", "CDL", "--policy", "RELIEF-HS",
                             "--fabric", "ring", "--banked-memory",
                             "--dma-burst", "1024", "--continuous",
                             "--limit-ms", "10"],
}
BUILD_INFO = re.compile(rb'\n\s*"build_info": \{[^{}]*\},')
DRAM_BUSY = re.compile(rb"^relief_dram_channel_busy_us (\S+)$", re.MULTILINE)
SCHED_DECISION = re.compile(r"^ *[0-9]+: relief: (promote|deny) ",
                            re.MULTILINE)


def run(binary, workdir, args):
    """Run one config in a clean WORKDIR; return (stdout, stderr)."""
    os.makedirs(workdir, exist_ok=True)
    for stale in glob.glob(os.path.join(workdir, "*")):
        os.remove(stale)
    shutil.copy(os.path.join(HERE, "arrivals.txt"), workdir)
    command = [binary] + args
    proc = subprocess.run(command, cwd=workdir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (
            " ".join(command), proc.returncode, proc.stderr.decode()))
    return proc.stdout, proc.stderr


def read(workdir, name):
    with open(os.path.join(workdir, name), "rb") as f:
        return f.read()


def expo_series(workdir):
    """The --expo-series snapshots of a serve run, in order."""
    series = sorted(glob.glob(os.path.join(workdir, "expo.prom.*")),
                    key=lambda p: int(p.rsplit(".", 1)[1]))
    return [read(workdir, os.path.basename(p)) for p in series]


def serve_docs(binary, workdir, args):
    stdout, stderr = run(binary, workdir, args + SERVE_COMMON)
    docs = {name: read(workdir, name + ".json")
            for name in ("serve", "stats", "perfetto")}
    docs["trace_doc"] = read(workdir, "trace.json")
    docs["expo"] = read(workdir, "expo.prom")
    docs["expo_series"] = b"".join(expo_series(workdir))
    docs["stdout"], docs["stderr"] = stdout, stderr
    return docs


def check_serve(docs, workdir):
    """The request slices, exposition snapshots and alerts of a serve
    config."""
    events = json.loads(docs["perfetto"])
    errors = ["trace has no %s event" % what
              for what, seen in (
                  ('"ph":"b"', any(e.get("ph") == "b" for e in events)),
                  ('"ph":"e"', any(e.get("ph") == "e" for e in events)),
                  ('"cat":"request"',
                   any(e.get("cat") == "request" for e in events)))
              if not seen]
    series = expo_series(workdir)
    if len(series) < 2:
        errors.append("%d exposition snapshots, want >= 2" % len(series))
    else:
        busy = DRAM_BUSY.search(series[1])
        if not busy or float(busy.group(1)) <= 0:
            errors.append("second snapshot has no relief_dram_channel_busy_us"
                          " > 0")
    if not re.search(rb"^relief_serve_offered_total ", docs["expo"],
                     re.MULTILINE):
        errors.append("final snapshot has no relief_serve_offered_total")
    alerts = json.loads(docs["serve"])["runs"][0]["alerts"]
    if sum(a["opens"] for a in alerts) == 0:
        errors.append("no burn-rate alert opened")
    return errors


def check_repeat(binary, root):
    """Rerun the first serve config without the exposition: its two
    traces must not change."""
    name, args = next(iter(SERVE_CONFIGS.items()))
    expo = SERVE_COMMON.index("--expo")
    common = SERVE_COMMON[:expo] + SERVE_COMMON[expo + 3:]
    first, again = os.path.join(root, name), os.path.join(root, name + "-b")
    run(binary, again, args + common)
    return ["%s: %s differs in a run without the exposition" % (name, doc)
            for doc in ("trace.json", "perfetto.json")
            if read(first, doc) != read(again, doc)]


def sim_docs(binary, workdir, args):
    stdout, stderr = run(binary, workdir, args + SIM_COMMON)
    docs = {name: read(workdir, name + ".json")
            for name in ("stats", "pressure", "perfetto")}
    docs["stats_text"] = read(workdir, "stats.txt")
    docs["stdout"], docs["stderr"] = stdout, stderr
    return docs


def check_observability(docs):
    """The Perfetto trace and Sched log of the observability config."""
    events = json.loads(docs["perfetto"])
    errors = ["trace has no %s event" % what
              for what, seen in (
                  ('"ph":"C"', any(e.get("ph") == "C" for e in events)),
                  ('"ph":"s"', any(e.get("ph") == "s" for e in events)),
                  ('"cat":"forward"',
                   any(e.get("cat") == "forward" for e in events)))
              if not seen]
    if not SCHED_DECISION.search(docs["stderr"].decode()):
        errors.append("Sched log has no promote/deny line")
    return errors


def digest(data, workdir):
    data = data.replace(workdir.encode(), b"<out>")
    data = BUILD_INFO.sub(b"", data, count=1)
    return hashlib.sha256(data).hexdigest()


def main(argv):
    if len(argv) not in (4, 5) or (len(argv) == 5 and argv[4] != "--update"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    serve, sim, root = (os.path.abspath(arg) for arg in argv[1:4])
    got = {"relief_serve": {}, "relief_sim": {}}
    errors = []
    for name, args in SERVE_CONFIGS.items():
        workdir = os.path.join(root, name)
        docs = serve_docs(serve, workdir, args)
        errors += ["%s: %s" % (name, e) for e in check_serve(docs, workdir)]
        got["relief_serve"][name] = {doc: digest(data, workdir)
                                     for doc, data in docs.items()}
    errors += check_repeat(serve, root)
    for name, args in SIM_CONFIGS.items():
        workdir = os.path.join(root, "sim-" + name)
        docs = sim_docs(sim, workdir, args)
        if name == "observability":
            errors += ["%s: %s" % (name, e)
                       for e in check_observability(docs)]
        got["relief_sim"][name] = {doc: digest(data, workdir)
                                   for doc, data in docs.items()}
    if errors:
        print("outputs incomplete:\n  %s"
              % "\n  ".join(errors), file=sys.stderr)
        return 1
    if len(argv) == 5:
        with open(HASHES, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % HASHES)
        return 0

    with open(HASHES) as f:
        want = json.load(f)
    diffs = []
    for tool in sorted(got):
        recorded = want.get(tool, {})
        diffs += ["%s %s/%s: got %s, want %s" % (
                      tool, config, doc, value,
                      recorded.get(config, {}).get(doc))
                  for config, docs in sorted(got[tool].items())
                  for doc, value in sorted(docs.items())
                  if recorded.get(config, {}).get(doc) != value]
        diffs += ["%s %s: recorded but not run" % (tool, config)
                  for config in sorted(set(recorded) - set(got[tool]))]
    if diffs:
        print("golden outputs changed (outputs kept in %s):\n  %s"
              % (root, "\n  ".join(diffs)), file=sys.stderr)
        return 1
    print("%d configs, %d documents match" % (
        sum(len(configs) for configs in got.values()),
        sum(len(docs) for configs in got.values()
            for docs in configs.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
