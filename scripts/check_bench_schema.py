#!/usr/bin/env python3
"""Validate a relief benchmark JSON document.

Dispatches on the document's "schema" field and validates every
artifact the tools emit:

  - relief-stats-v1     --stats-json of relief_sim, relief_compare and
                        relief_serve: stats, app outcomes, pressure
  - relief-serve-v1     bench/serve_load_sweep, relief_serve --out
  - relief-trace-v1     relief_serve --trace-json: request span trees
  - relief-pressure-v1  relief_sim --pressure-report: the memory-
                        pressure attribution ledger
  - relief-hostprof-v1  relief_sim --host-profile: host wall time

docs/serving.md documents the serve and trace schemas,
docs/observability.md the other three.

Each schema is described in two pieces:

  - SCHEMAS[name], its field table: every field and its type (count,
    number, fraction, enum, nested table, ListOf, MapOf, Optional...).
    check_fields() walks it. It is the field reference the docs point
    at, and a new checked field is one table line.
  - INVARIANTS[name], only the cross-field rules (conservation, span
    nesting, coverage). It runs once every field has its declared
    type, so it indexes the document without guards.

Every top-level document carries a "build_info" provenance object (git
sha, compiler, build type, flags) with no other keys. Dependency-free
(Python standard library only) so CI and developers can run it anywhere:

    scripts/check_bench_schema.py pressure.json
    scripts/check_bench_schema.py BENCH_serve.json
    scripts/check_bench_schema.py --self-test

Exits 0 when the document is schema-valid, 1 with a diagnostic per
violation otherwise. --self-test validates the checker itself against
embedded good and broken documents (run from ctest as
schema_checker_self_test).
"""

import json
import sys

BUCKETS = ("queue_wait", "manager", "dma_in", "compute", "dma_out",
           "dep_stall", "total")
HOST_CATS = ("other", "sched", "dma", "mem", "interconnect", "kernels",
             "stats", "serve")
HOSTPROF_NS_BUCKETS = 40
TRAFFIC_TYPES = ("dram_fetch", "writeback", "forward", "spm_spill")

# Coverage is emitted with ~6 significant digits; allow rounding slack
# when cross-checking it against the raw nanosecond counters.
COVERAGE_TOLERANCE = 1e-4

# One sim tick is 1 ps = 1e-6 us; timestamps are rounded to ~9
# significant digits on export, so allow a loose microsecond slack.
SPAN_TOLERANCE_US = 0.001

# Float slack for microsecond sums rounded independently on export.
PRESSURE_TOLERANCE_US = 0.01


# --- field types ---------------------------------------------------------

def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Scalar:
    """A leaf field: @p test accepts a value, @p what names the type."""

    def __init__(self, what, test):
        self.what, self.test = what, test

    def check(self, where, value, errors):
        if not self.test(value):
            errors.append("%s: expected %s, got %r"
                          % (where, self.what, value))


INT = Scalar("an integer", lambda v: is_number(v) and isinstance(v, int))
COUNT = Scalar("a non-negative integer", lambda v: INT.test(v) and v >= 0)
NUMBER = Scalar("a number", is_number)
NONNEG = Scalar("a non-negative number", lambda v: is_number(v) and v >= 0)
POSITIVE = Scalar("a positive number", lambda v: is_number(v) and v > 0)
FRACTION = Scalar("a number in [0, 1]",
                  lambda v: is_number(v) and 0.0 <= v <= 1.0)
STRING = Scalar("a string", lambda v: isinstance(v, str))
NAME = Scalar("a non-empty string", lambda v: isinstance(v, str) and v != "")
BOOL = Scalar("a boolean", lambda v: isinstance(v, bool))


def Enum(*values):
    return Scalar("one of %s" % (values,), lambda v: v in values)


def Nullable(scalar):
    return Scalar(scalar.what + " or null",
                  lambda v: v is None or scalar.test(v))


class ListOf:
    """An array of @p item values, optionally required non-empty."""

    def __init__(self, item, nonempty=False):
        self.item, self.nonempty = item, nonempty
        self.what = "a non-empty array" if nonempty else "an array"

    def check(self, where, value, errors):
        if not isinstance(value, list) or (self.nonempty and not value):
            errors.append("%s: expected %s" % (where, self.what))
            return
        for i, entry in enumerate(value):
            check_value("%s[%d]" % (where, i), entry, self.item, errors)


class MapOf:
    """An object whose every member is an @p item value."""

    def __init__(self, item):
        self.item = item

    def check(self, where, value, errors):
        if not isinstance(value, dict):
            errors.append("%s: expected an object" % where)
            return
        for key, entry in value.items():
            check_value("%s.%s" % (where, key), entry, self.item, errors)


class Optional:
    """A member older documents may lack; checked when present."""

    def __init__(self, item):
        self.item = item


class Tagged:
    """An object whose field table is chosen by its @p tag member."""

    def __init__(self, tag, tables):
        self.tag, self.tables = tag, tables

    def check(self, where, value, errors):
        before = len(errors)
        check_fields(where, value, {self.tag: Enum(*self.tables)}, errors)
        if len(errors) == before:
            check_fields(where, value, self.tables[value[self.tag]], errors)


def check_value(where, value, kind, errors):
    """Check @p value against @p kind: a field table (dict) or a type."""
    if isinstance(kind, dict):
        check_fields(where, value, kind, errors)
    else:
        kind.check(where, value, errors)


def check_fields(where, value, table, errors):
    if not isinstance(value, dict):
        errors.append("%s: expected an object, got %r" % (where, value))
        return
    for field, kind in table.items():
        if isinstance(kind, Optional):
            if field not in value:
                continue
            kind = kind.item
        check_value("%s.%s" % (where, field) if where else field,
                    value.get(field), kind, errors)


# --- field tables ----------------------------------------------------------

BUILD_INFO = dict.fromkeys(("git_sha", "compiler_id", "compiler_version",
                            "build_type", "cxx_flags"), NAME)

# The accounting shared by qos rollups, contender rows and serve's
# per-class pressure entries.
PRESSURE_SLOT = dict(dict.fromkeys(("bytes", "transfers"), COUNT),
                     **dict.fromkeys(("service_us", "wait_suffered_us",
                                      "wait_caused_us"), NONNEG))

# A relief-pressure-v1 document without its top-level stamp: also the
# "pressure" member of every relief-stats-v1 document.
PRESSURE_BODY = {
    "end_us": NONNEG,
    "qos_classes": ListOf(NAME, nonempty=True),
    "traffic": Scalar("%s" % (list(TRAFFIC_TYPES),),
                      lambda v: v == list(TRAFFIC_TYPES)),
    "totals": dict(dict.fromkeys(
        ("bytes", "transfers", "dram_bytes", "fabric_bytes",
         "bytes_spared_colocation", "bytes_spared_forwarding"), COUNT),
        service_us=NONNEG, wait_us=NONNEG),
    "qos": ListOf(dict(PRESSURE_SLOT, name=NAME)),
    "resources": ListOf({
        "name": NAME, "peak_gbs": POSITIVE, "bytes": COUNT,
        "transfers": COUNT, "service_us": NONNEG, "wait_us": NONNEG,
        "busy_us": NONNEG, "occupancy": FRACTION,
        "contenders": ListOf(dict(
            PRESSURE_SLOT, source=NAME, qos=NAME,
            traffic=Enum(*TRAFFIC_TYPES + ("untagged",)))),
    }, nonempty=True),
}

QUANTILE_DIST = dict.fromkeys(("mean", "p50", "p95", "p99", "max"), NONNEG)

SLO = dict(dict.fromkeys(("offered", "admitted", "shed", "rejected",
                          "completed", "missed", "in_flight"), COUNT),
           name=NAME, goodput_rps=NONNEG, miss_rate=FRACTION,
           shed_rate=FRACTION, latency_ms=QUANTILE_DIST,
           time_in_system_ms=QUANTILE_DIST)

SCHEMAS = {
    "relief-stats-v1": {
        "build_info": BUILD_INFO,
        "stats": MapOf(Tagged("kind", {
            "counter": {"description": STRING, "value": COUNT},
            "scalar": {"description": STRING, "value": Nullable(NUMBER)},
            "formula": {"description": STRING, "value": Nullable(NUMBER)},
            "histogram": dict(
                dict.fromkeys(("mean", "min", "max"), Nullable(NUMBER)),
                description=STRING, count=COUNT, range=ListOf(NUMBER),
                underflow=COUNT, overflow=COUNT, buckets=ListOf(COUNT)),
        })),
        # A slowdown is null (infinite) when the app never finished.
        "apps": ListOf({"name": NAME, "rel_deadline": COUNT,
                        "iterations": COUNT, "deadlines_met": COUNT,
                        "gmean_slowdown": Nullable(NONNEG),
                        "max_slowdown": Nullable(NONNEG)}),
        "pressure": PRESSURE_BODY,
    },
    "relief-serve-v1": {
        "build_info": BUILD_INFO,
        "seed": COUNT, "horizon_ms": POSITIVE, "smoke": BOOL,
        "capacity_rps": Nullable(POSITIVE),  # null: absolute-rate runs
        "runs": ListOf({
            "policy": NAME, "admission": NAME, "arrival": NAME,
            # offered_load 0 marks an absolute-rate run (relief_serve).
            "offered_load": NONNEG,
            "rate_rps": POSITIVE,
            "total": SLO,
            "classes": ListOf(SLO, nonempty=True),
            # Burn-rate alerts (serve/alerts.hh) and the per-class
            # pressure rollup arrived after the first documents.
            "alerts": Optional(ListOf({
                "class": NAME, "opens": COUNT, "closes": COUNT,
                "active": BOOL, "active_ms": NONNEG,
                "final_fast_burn": NONNEG, "final_slow_burn": NONNEG,
                "events": ListOf({"t_ms": NONNEG, "open": BOOL,
                                  "fast_burn": NONNEG,
                                  "slow_burn": NONNEG}),
            })),
            "pressure": Optional(ListOf(dict(PRESSURE_SLOT, **{
                "class": NAME}), nonempty=True)),
        }, nonempty=True),
        "saturation": ListOf({"policy": STRING,
                              "knee_load": Nullable(POSITIVE)}),
    },
    "relief-trace-v1": {
        "build_info": BUILD_INFO,
        "seed": COUNT, "horizon_ms": POSITIVE, "ok_fraction": FRACTION,
        "sampling": dict.fromkeys(("offered", "admitted", "kept_ok",
                                   "kept_miss", "kept_shed",
                                   "kept_rejected", "dropped"), COUNT),
        "requests": ListOf({
            "id": COUNT, "class": NAME, "app": NAME,
            "outcome": Enum("ok", "miss", "shed", "rejected", "in_flight"),
            "arrival_us": NONNEG, "finish_us": NONNEG,
            "deadline_us": NONNEG, "latency_us": NONNEG,
            "buckets_us": dict.fromkeys(BUCKETS, NONNEG),
            "spans": ListOf({
                "kind": Enum("request", "admission", "node", "queue_wait",
                             "dispatch", "dma_in", "compute", "dma_out"),
                "parent": INT, "label": STRING,
                "start_us": NUMBER, "end_us": NUMBER}, nonempty=True),
        }),
    },
    "relief-pressure-v1": dict(PRESSURE_BODY, build_info=BUILD_INFO),
    "relief-hostprof-v1": {
        "build_info": BUILD_INFO,
        "total_wall_ns": COUNT,
        "attributed_wall_ns": COUNT,
        "coverage": FRACTION,
        "categories": MapOf(dict(
            dict.fromkeys(("wall_ns", "events", "heap_allocs"), COUNT),
            ns_hist=ListOf(COUNT))),
    },
}


# --- cross-field invariants ----------------------------------------------

def slo_invariants(where, slo, errors):
    if slo["offered"] != slo["admitted"] + slo["shed"] + slo["rejected"]:
        errors.append("%s: offered != admitted + shed + rejected" % where)
    if slo["admitted"] != slo["completed"] + slo["in_flight"]:
        errors.append("%s: admitted != completed + in_flight" % where)
    if slo["missed"] > slo["completed"]:
        errors.append("%s: missed > completed" % where)
    for field in ("latency_ms", "time_in_system_ms"):
        dist = slo[field]
        if not dist["p50"] <= dist["p95"] <= dist["p99"] <= dist["max"]:
            errors.append("%s.%s: quantiles are not monotonic"
                          % (where, field))


def serve_invariants(doc, errors):
    for i, run in enumerate(doc["runs"]):
        where = "runs[%d]" % i
        slo_invariants(where + ".total", run["total"], errors)
        for j, slo in enumerate(run["classes"]):
            slo_invariants("%s.classes[%d]" % (where, j), slo, errors)
        for j, alert in enumerate(run.get("alerts", ())):
            # An alert is a strict open/close alternation starting with
            # an open, so it is still active iff opens == closes + 1.
            if alert["opens"] != alert["closes"] + int(alert["active"]):
                errors.append("%s.alerts[%d]: opens/closes inconsistent "
                              "with active" % (where, j))
        if "pressure" in run and run["pressure"][0]["class"] != "default":
            errors.append("%s.pressure[0]: expected the ledger's implicit "
                          "'default' class" % where)


def trace_invariants(doc, errors):
    # Tail-sampling conservation (trace/sampler.hh): every admitted
    # request is kept-ok, kept-anomalous, or dropped; every offered
    # request is admitted or a kept shed/reject.
    tally = doc["sampling"]
    if tally["kept_ok"] + tally["kept_miss"] + tally["dropped"] \
            != tally["admitted"]:
        errors.append("sampling: kept_ok + kept_miss + dropped != admitted")
    if tally["admitted"] + tally["kept_shed"] + tally["kept_rejected"] \
            != tally["offered"]:
        errors.append("sampling: admitted + kept_shed + kept_rejected "
                      "!= offered")
    kept = tally["kept_ok"] + tally["kept_miss"] + tally["kept_shed"] \
        + tally["kept_rejected"]
    if len(doc["requests"]) != kept:
        errors.append("requests: %d records but sampling says %d kept"
                      % (len(doc["requests"]), kept))

    for i, req in enumerate(doc["requests"]):
        where = "requests[%d]" % i
        if req["finish_us"] < req["arrival_us"]:
            errors.append("%s: finish_us before arrival_us" % where)
        spans = req["spans"]
        if spans[0]["kind"] != "request" or spans[0]["parent"] != -1:
            errors.append("%s: spans[0] must be the 'request' root with "
                          "parent -1" % where)
        for j, span in enumerate(spans):
            swhere = "%s.spans[%d]" % (where, j)
            if span["end_us"] < span["start_us"]:
                errors.append("%s: end_us before start_us" % swhere)
            if j and not 0 <= span["parent"] < j:
                errors.append("%s.parent: %d not an earlier span index"
                              % (swhere, span["parent"]))
            elif j:
                outer, tol = spans[span["parent"]], SPAN_TOLERANCE_US
                if span["start_us"] < outer["start_us"] - tol \
                        or span["end_us"] > outer["end_us"] + tol:
                    errors.append("%s: does not nest within its parent"
                                  % swhere)
        # The root's synchronous children (everything but the
        # overlapping asynchronous dma_out write-backs) are disjoint:
        # their durations sum to at most the root duration.
        root = spans[0]
        sync_sum = sum(s["end_us"] - s["start_us"] for s in spans[1:]
                       if s["parent"] == 0 and s["kind"] != "dma_out")
        if sync_sum > root["end_us"] - root["start_us"] + SPAN_TOLERANCE_US:
            errors.append("%s: synchronous child spans exceed the root "
                          "span" % where)


def pressure_invariants(prefix, body, errors):
    """@p prefix locates @p body: "" or a stats document's "pressure."."""
    classes, qos = body["qos_classes"], body["qos"]
    if classes[0] != "default":
        errors.append(prefix + "qos_classes[0]: expected the implicit "
                      "'default' class")
    if len(qos) != len(classes):
        errors.append(prefix + "qos: expected one rollup per qos class")
    for i, (entry, name) in enumerate(zip(qos, classes)):
        if entry["name"] != name:
            errors.append("%sqos[%d].name: %r does not match "
                          "qos_classes[%d]" % (prefix, i, entry["name"], i))
    # The attribution invariant: every microsecond of queueing delay
    # suffered is charged to some contender, so the rollups balance.
    suffered = sum(entry["wait_suffered_us"] for entry in qos)
    caused = sum(entry["wait_caused_us"] for entry in qos)
    if abs(suffered - caused) > PRESSURE_TOLERANCE_US:
        errors.append("%sqos: wait_suffered_us and wait_caused_us do not "
                      "balance (%.3f vs %.3f)" % (prefix, suffered, caused))
    if qos and abs(suffered - body["totals"]["wait_us"]) \
            > PRESSURE_TOLERANCE_US:
        errors.append(prefix + "qos: per-class wait does not sum to "
                      "totals.wait_us")

    for i, res in enumerate(body["resources"]):
        where = "%sresources[%d]" % (prefix, i)
        for j, row in enumerate(res["contenders"]):
            if row["qos"] not in classes:
                errors.append("%s.contenders[%d].qos: %r not in "
                              "qos_classes" % (where, j, row["qos"]))
        # Contender tables are top-K truncated, so they bound the
        # resource's counters from below but never exceed them.
        if sum(row["bytes"] for row in res["contenders"]) > res["bytes"]:
            errors.append("%s: contender bytes exceed the resource total"
                          % where)
    total_bytes = sum(res["bytes"] for res in body["resources"])
    if total_bytes != body["totals"]["bytes"]:
        errors.append("%stotals.bytes: %d does not equal the per-resource "
                      "sum %d" % (prefix, body["totals"]["bytes"],
                                  total_bytes))


def stats_invariants(doc, errors):
    for name, stat in doc["stats"].items():
        if stat["kind"] == "histogram" and sum(stat["buckets"]) \
                + stat["underflow"] + stat["overflow"] != stat["count"]:
            errors.append("stats.%s: buckets + underflow + overflow != "
                          "count" % name)
    for i, app in enumerate(doc["apps"]):
        if app["deadlines_met"] > app["iterations"]:
            errors.append("apps[%d]: deadlines_met > iterations" % i)
    pressure_invariants("pressure.", doc["pressure"], errors)


def hostprof_invariants(doc, errors):
    cats = doc["categories"]
    if tuple(cats) != HOST_CATS:
        errors.append("categories: expected exactly %s in order, got %s"
                      % (list(HOST_CATS), list(cats)))
    for name, cat in cats.items():
        if len(cat["ns_hist"]) != HOSTPROF_NS_BUCKETS:
            errors.append("categories.%s.ns_hist: expected %d buckets"
                          % (name, HOSTPROF_NS_BUCKETS))
        elif sum(cat["ns_hist"]) != cat["events"]:
            errors.append("categories.%s: ns_hist sums to %d but events "
                          "is %d" % (name, sum(cat["ns_hist"]),
                                     cat["events"]))
    # The attributed total is exactly the sum of per-category wall time,
    # and coverage is its (clamped) share of the total window.
    wall_sum = sum(cat["wall_ns"] for cat in cats.values())
    if doc["attributed_wall_ns"] != wall_sum:
        errors.append("attributed_wall_ns %d != per-category sum %d"
                      % (doc["attributed_wall_ns"], wall_sum))
    if doc["total_wall_ns"] > 0:
        expected = min(1.0, doc["attributed_wall_ns"] / doc["total_wall_ns"])
        if abs(doc["coverage"] - expected) > COVERAGE_TOLERANCE:
            errors.append("coverage: %r inconsistent with attributed/total "
                          "(%r)" % (doc["coverage"], expected))


INVARIANTS = {
    "relief-stats-v1": stats_invariants,
    "relief-serve-v1": serve_invariants,
    "relief-trace-v1": trace_invariants,
    "relief-pressure-v1": lambda doc, errors:
        pressure_invariants("", doc, errors),
    "relief-hostprof-v1": hostprof_invariants,
}


def check(doc):
    if not isinstance(doc, dict):
        return ["top level: expected an object"]
    schema = doc.get("schema")
    if not isinstance(schema, str) or schema not in SCHEMAS:
        return ["schema: expected one of %s, got %r"
                % (sorted(SCHEMAS), schema)]
    errors = []
    check_fields("", doc, SCHEMAS[schema], errors)
    if errors:
        return errors
    extra = set(doc["build_info"]) - set(BUILD_INFO)
    if extra:
        errors.append("build_info: unknown keys %s" % sorted(extra))
    INVARIANTS[schema](doc, errors)
    return errors


# --- self test -----------------------------------------------------------

GOOD_BUILD_INFO = {
    "git_sha": "0123456789ab",
    "compiler_id": "GNU",
    "compiler_version": "12.2.0",
    "build_type": "Release",
    "cxx_flags": "-O3 -DNDEBUG",
}


def good_hostprof_category(wall_ns=0, events=0, heap_allocs=0):
    hist = [0] * HOSTPROF_NS_BUCKETS
    if events:
        hist[5] = events
    return {"wall_ns": wall_ns, "events": events,
            "heap_allocs": heap_allocs, "ns_hist": hist}


GOOD_HOSTPROF = {
    "schema": "relief-hostprof-v1",
    "build_info": GOOD_BUILD_INFO,
    "total_wall_ns": 1000000,
    "attributed_wall_ns": 950000,
    "coverage": 0.95,
    "categories": {
        "other": good_hostprof_category(wall_ns=150000),
        "sched": good_hostprof_category(wall_ns=300000, events=40,
                                        heap_allocs=2),
        "dma": good_hostprof_category(wall_ns=250000, events=80),
        "mem": good_hostprof_category(wall_ns=100000),
        "interconnect": good_hostprof_category(wall_ns=50000),
        "kernels": good_hostprof_category(wall_ns=60000, events=30),
        "stats": good_hostprof_category(wall_ns=40000, events=5),
        "serve": good_hostprof_category(),
    },
}

GOOD_SLO = {
    "name": "realtime",
    "offered": 10,
    "admitted": 8,
    "shed": 1,
    "rejected": 1,
    "completed": 6,
    "missed": 1,
    "in_flight": 2,
    "goodput_rps": 100.0,
    "miss_rate": 0.1667,
    "shed_rate": 0.2,
    "latency_ms": {"mean": 2.0, "p50": 1.5, "p95": 4.0, "p99": 5.0,
                   "max": 6.0},
    "time_in_system_ms": {"mean": 2.5, "p50": 2.0, "p95": 5.0,
                          "p99": 6.0, "max": 7.0},
}

GOOD_ALERTS = [{
    "class": "realtime",
    "opens": 2,
    "closes": 1,
    "active": True,
    "active_ms": 8.5,
    "final_fast_burn": 10.0,
    "final_slow_burn": 6.7,
    "events": [
        {"t_ms": 4.0, "open": True, "fast_burn": 3.0, "slow_burn": 2.1},
        {"t_ms": 9.0, "open": False, "fast_burn": 0.5, "slow_burn": 0.9},
        {"t_ms": 12.0, "open": True, "fast_burn": 10.0,
         "slow_burn": 6.7},
    ],
}]

GOOD_SERVE_PRESSURE = [
    {"class": "default", "bytes": 4096, "transfers": 2,
     "service_us": 1.0, "wait_suffered_us": 0.5,
     "wait_caused_us": 0.7},
    {"class": "realtime", "bytes": 65536, "transfers": 10,
     "service_us": 9.0, "wait_suffered_us": 2.5,
     "wait_caused_us": 2.3},
]

GOOD_SERVE = {
    "schema": "relief-serve-v1",
    "build_info": GOOD_BUILD_INFO,
    "seed": 1,
    "horizon_ms": 50.0,
    "smoke": False,
    "capacity_rps": 340.0,
    "runs": [{
        "policy": "RELIEF",
        "admission": "laxity",
        "arrival": "poisson",
        "offered_load": 1.0,
        "rate_rps": 340.0,
        "total": GOOD_SLO,
        "classes": [GOOD_SLO],
        "alerts": GOOD_ALERTS,
        "pressure": GOOD_SERVE_PRESSURE,
    }],
    "saturation": [{"policy": "RELIEF", "knee_load": 1.2},
                   {"policy": "FCFS", "knee_load": None}],
}

GOOD_PRESSURE_SLOT = {
    "bytes": 1024,
    "transfers": 2,
    "service_us": 1.5,
    "wait_suffered_us": 2.0,
    "wait_caused_us": 2.0,
}

GOOD_PRESSURE = {
    "schema": "relief-pressure-v1",
    "build_info": GOOD_BUILD_INFO,
    "end_us": 1000.0,
    "qos_classes": ["default", "realtime"],
    "traffic": list(TRAFFIC_TYPES),
    "totals": {
        "bytes": 3072,
        "transfers": 4,
        "service_us": 3.0,
        "wait_us": 2.0,
        "dram_bytes": 2048,
        "fabric_bytes": 1024,
        "bytes_spared_colocation": 512,
        "bytes_spared_forwarding": 256,
    },
    "qos": [
        dict(GOOD_PRESSURE_SLOT, name="default"),
        {"name": "realtime", "bytes": 2048, "transfers": 2,
         "service_us": 1.5, "wait_suffered_us": 0.0,
         "wait_caused_us": 0.0},
    ],
    "resources": [
        {
            "name": "soc.dram.channel",
            "peak_gbs": 12.8,
            "bytes": 2048,
            "transfers": 3,
            "service_us": 2.0,
            "wait_us": 2.0,
            "busy_us": 2.0,
            "occupancy": 0.002,
            "contenders": [
                dict(GOOD_PRESSURE_SLOT, source="soc.elem-matrix0",
                     qos="default", traffic="dram_fetch"),
                {"source": "soc.conv0", "qos": "realtime",
                 "traffic": "writeback", "bytes": 1024,
                 "transfers": 1, "service_us": 0.5,
                 "wait_suffered_us": 0.0, "wait_caused_us": 0.0},
            ],
        },
        {
            "name": "soc.bus.channel",
            "peak_gbs": 32.0,
            "bytes": 1024,
            "transfers": 1,
            "service_us": 1.0,
            "wait_us": 0.0,
            "busy_us": 1.0,
            "occupancy": 0.001,
            "contenders": [],
        },
    ],
}

GOOD_TRACE = {
    "schema": "relief-trace-v1",
    "build_info": GOOD_BUILD_INFO,
    "seed": 1,
    "horizon_ms": 20.0,
    "ok_fraction": 0.25,
    "sampling": {
        "offered": 5,
        "admitted": 3,
        "kept_ok": 1,
        "kept_miss": 1,
        "kept_shed": 1,
        "kept_rejected": 1,
        "dropped": 1,
    },
    "requests": [
        {
            # A completed miss with a full span tree: root, admission,
            # one node with its four phases, one async write-back.
            "id": 0,
            "class": "realtime",
            "app": "canny",
            "outcome": "miss",
            "arrival_us": 100.0,
            "finish_us": 300.0,
            "deadline_us": 250.0,
            "latency_us": 200.0,
            "buckets_us": {"queue_wait": 80.0, "manager": 10.0,
                           "dma_in": 40.0, "compute": 60.0,
                           "dma_out": 0.0, "dep_stall": 10.0,
                           "total": 200.0},
            "spans": [
                {"kind": "request", "parent": -1, "label": "",
                 "start_us": 100.0, "end_us": 300.0},
                {"kind": "admission", "parent": 0, "label": "",
                 "start_us": 100.0, "end_us": 110.0},
                {"kind": "node", "parent": 0, "label": "canny.gauss",
                 "start_us": 110.0, "end_us": 300.0},
                {"kind": "queue_wait", "parent": 2, "label": "",
                 "start_us": 110.0, "end_us": 190.0},
                {"kind": "dispatch", "parent": 2, "label": "",
                 "start_us": 190.0, "end_us": 200.0},
                {"kind": "dma_in", "parent": 2, "label": "",
                 "start_us": 200.0, "end_us": 240.0},
                {"kind": "compute", "parent": 2, "label": "",
                 "start_us": 240.0, "end_us": 300.0},
                {"kind": "dma_out", "parent": 0,
                 "label": "canny.gauss", "start_us": 250.0,
                 "end_us": 300.0},
            ],
        },
        {
            # A sampled-in OK request, root-only for brevity.
            "id": 1,
            "class": "batch",
            "app": "lstm",
            "outcome": "ok",
            "arrival_us": 120.0,
            "finish_us": 180.0,
            "deadline_us": 500.0,
            "latency_us": 60.0,
            "buckets_us": {"queue_wait": 10.0, "manager": 5.0,
                           "dma_in": 15.0, "compute": 25.0,
                           "dma_out": 0.0, "dep_stall": 5.0,
                           "total": 60.0},
            "spans": [{"kind": "request", "parent": -1, "label": "",
                       "start_us": 120.0, "end_us": 180.0}],
        },
        {
            # A shed request: root-only, finish == arrival.
            "id": 2,
            "class": "interactive",
            "app": "gru",
            "outcome": "shed",
            "arrival_us": 130.0,
            "finish_us": 130.0,
            "deadline_us": 400.0,
            "latency_us": 0.0,
            "buckets_us": {bucket: 0.0 for bucket in BUCKETS},
            "spans": [{"kind": "request", "parent": -1, "label": "",
                       "start_us": 130.0, "end_us": 130.0}],
        },
        {
            # A rejected request: root-only, finish == arrival.
            "id": 3,
            "class": "realtime",
            "app": "deblur",
            "outcome": "rejected",
            "arrival_us": 140.0,
            "finish_us": 140.0,
            "deadline_us": 300.0,
            "latency_us": 0.0,
            "buckets_us": {bucket: 0.0 for bucket in BUCKETS},
            "spans": [{"kind": "request", "parent": -1, "label": "",
                       "start_us": 140.0, "end_us": 140.0}],
        },
    ],
}


GOOD_STATS = {
    "schema": "relief-stats-v1",
    "build_info": GOOD_BUILD_INFO,
    "stats": {
        "sim.events": {"kind": "counter", "description": "events executed",
                       "value": 676},
        "sim.time_ms": {"kind": "scalar", "description": "", "value": 18.5},
        "bad.ratio": {"kind": "formula", "description": "0/0",
                      "value": None},
        "manager.queue_wait_us": {
            "kind": "histogram", "description": "ready-to-launch wait",
            "count": 6, "mean": 40.0, "min": 0, "max": 150.0,
            "range": [0, 100], "underflow": 0, "overflow": 1,
            "buckets": [3, 0, 2, 0]},
    },
    "apps": [
        {"name": "canny", "rel_deadline": 16600000000, "iterations": 2,
         "deadlines_met": 1, "gmean_slowdown": 0.9, "max_slowdown": 1.2},
        {"name": "lstm", "rel_deadline": 7000000000, "iterations": 0,
         "deadlines_met": 0, "gmean_slowdown": None, "max_slowdown": None},
    ],
    "pressure": {key: value for key, value in GOOD_PRESSURE.items()
                 if key not in ("schema", "build_info")},
}


def mutate(doc, path, value):
    """Deep-copy @p doc and set the field at @p path to @p value."""
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in path[:-1]:
        node = node[key]
    if value is Ellipsis:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return copy


def self_test():
    failures = []

    def expect(doc, valid, label):
        errors = check(doc)
        if valid and errors:
            failures.append("%s: expected valid, got %s" % (label, errors))
        if not valid and not errors:
            failures.append("%s: expected a violation, got none" % label)

    expect(GOOD_SERVE, True, "good serve doc")
    expect([], False, "non-object top level")
    expect({"schema": "relief-nope-v9", "runs": []}, False,
           "unknown schema")

    expect(GOOD_HOSTPROF, True, "good hostprof doc")
    expect(mutate(GOOD_HOSTPROF, ["build_info"], Ellipsis), False,
           "hostprof missing build_info")
    expect(mutate(GOOD_HOSTPROF, ["coverage"], -0.1), False,
           "hostprof coverage below zero")
    expect(mutate(GOOD_HOSTPROF, ["attributed_wall_ns"], 900000),
           False, "hostprof attributed != per-category sum")
    # With coverage moved along, only the attributed sum is wrong.
    expect(mutate(mutate(GOOD_HOSTPROF, ["attributed_wall_ns"], 900000),
                  ["coverage"], 0.9),
           False, "hostprof attributed != per-category sum alone")
    expect(mutate(GOOD_HOSTPROF, ["coverage"], 0.5), False,
           "hostprof coverage inconsistent with counters")
    expect(mutate(GOOD_HOSTPROF, ["categories", "dma"], Ellipsis),
           False, "hostprof missing category")
    expect(mutate(GOOD_HOSTPROF, ["categories", "serve", "wall_ns"],
                  -1), False, "hostprof negative category wall")
    expect(mutate(GOOD_HOSTPROF,
                  ["categories", "sched", "ns_hist"], [0] * 10),
           False, "hostprof wrong histogram length")
    expect(mutate(GOOD_HOSTPROF,
                  ["categories", "sched", "events"], 99),
           False, "hostprof events != histogram sum")

    expect(mutate(GOOD_SERVE, ["seed"], -1), False, "serve negative seed")
    expect(mutate(GOOD_SERVE, ["build_info"], Ellipsis), False,
           "serve missing build_info")
    expect(mutate(GOOD_SERVE, ["horizon_ms"], 0), False,
           "serve zero horizon")
    expect(mutate(GOOD_SERVE, ["capacity_rps"], None), True,
           "serve null capacity (absolute-rate doc)")
    expect(mutate(GOOD_SERVE, ["runs"], []), False, "serve empty runs")
    expect(mutate(GOOD_SERVE, ["runs", 0, "rate_rps"], 0), False,
           "serve zero rate")
    expect(mutate(GOOD_SERVE, ["runs", 0, "total", "offered"], 99), False,
           "serve counter conservation violated")
    expect(mutate(GOOD_SERVE, ["runs", 0, "total", "miss_rate"], 1.5),
           False, "serve rate outside [0, 1]")
    expect(mutate(GOOD_SERVE,
                  ["runs", 0, "total", "latency_ms", "p95"], 9.0),
           False, "serve non-monotonic quantiles")
    expect(mutate(GOOD_SERVE, ["runs", 0, "classes"], []), False,
           "serve empty classes")
    expect(mutate(GOOD_SERVE, ["saturation", 0, "knee_load"], -2), False,
           "serve negative knee")
    expect(mutate(GOOD_SERVE, ["saturation"], Ellipsis), False,
           "serve missing saturation")
    expect(mutate(GOOD_SERVE, ["runs", 0, "alerts"], Ellipsis), True,
           "serve doc without alerts (pre-telemetry)")
    expect(mutate(GOOD_SERVE, ["runs", 0, "alerts", 0, "active"], False),
           False, "serve alert active inconsistent with opens/closes")
    expect(mutate(GOOD_SERVE,
                  ["runs", 0, "alerts", 0, "events", 0, "fast_burn"],
                  -1.0),
           False, "serve alert negative burn")

    expect(mutate(GOOD_SERVE, ["runs", 0, "pressure"], Ellipsis), True,
           "serve doc without pressure (pre-ledger)")
    expect(mutate(GOOD_SERVE, ["runs", 0, "pressure"], []), False,
           "serve empty pressure array")
    expect(mutate(GOOD_SERVE, ["runs", 0, "pressure", 0, "class"],
                  "realtime"),
           False, "serve pressure without the default class first")
    expect(mutate(GOOD_SERVE,
                  ["runs", 0, "pressure", 1, "wait_caused_us"], -1.0),
           False, "serve pressure negative wait")

    expect(GOOD_PRESSURE, True, "good pressure doc")
    expect(mutate(GOOD_PRESSURE, ["build_info", "compiler_id"], ""),
           False, "pressure empty compiler id")
    expect(mutate(GOOD_PRESSURE, ["end_us"], -1), False,
           "pressure negative end_us")
    expect(mutate(GOOD_PRESSURE, ["qos_classes"], ["realtime"]), False,
           "pressure missing default class")
    # Renaming the first class everywhere breaks only the rule that it
    # is the implicit default.
    renamed = mutate(GOOD_PRESSURE, ["qos_classes", 0], "batch")
    renamed = mutate(renamed, ["qos", 0, "name"], "batch")
    renamed = mutate(renamed, ["resources", 0, "contenders", 0, "qos"],
                     "batch")
    expect(renamed, False, "pressure first class is not 'default'")
    expect(mutate(GOOD_PRESSURE, ["traffic"], ["dram_fetch"]), False,
           "pressure wrong traffic list")
    expect(mutate(GOOD_PRESSURE, ["totals", "bytes"], 999), False,
           "pressure totals do not match per-resource sum")
    expect(mutate(GOOD_PRESSURE, ["qos", 1, "wait_caused_us"], 9.0),
           False, "pressure suffered/caused books unbalanced")
    expect(mutate(GOOD_PRESSURE, ["qos", 1, "name"], "batch"), False,
           "pressure qos rollup name mismatch")
    expect(mutate(GOOD_PRESSURE, ["resources"], []), False,
           "pressure empty resources")
    expect(mutate(GOOD_PRESSURE, ["resources", 0, "occupancy"], 1.5),
           False, "pressure occupancy outside [0, 1]")
    expect(mutate(GOOD_PRESSURE, ["resources", 0, "peak_gbs"], 0),
           False, "pressure non-positive peak bandwidth")
    expect(mutate(GOOD_PRESSURE,
                  ["resources", 0, "contenders", 0, "qos"], "batch"),
           False, "pressure contender with unknown qos class")
    expect(mutate(GOOD_PRESSURE,
                  ["resources", 0, "contenders", 0, "traffic"], "dma"),
           False, "pressure contender with unknown traffic type")
    expect(mutate(GOOD_PRESSURE,
                  ["resources", 0, "contenders", 0, "bytes"], 999999),
           False, "pressure contender bytes exceed the resource")
    expect(mutate(GOOD_PRESSURE,
                  ["resources", 0, "contenders", 1, "transfers"], -1),
           False, "pressure negative transfer count")

    expect(GOOD_TRACE, True, "good trace doc")
    expect(mutate(GOOD_TRACE, ["build_info"], None), False,
           "trace null build_info")
    expect(mutate(GOOD_TRACE, ["ok_fraction"], 1.5), False,
           "trace ok_fraction outside [0, 1]")
    expect(mutate(GOOD_TRACE, ["sampling", "dropped"], 7), False,
           "trace sampling conservation violated")
    expect(mutate(GOOD_TRACE, ["sampling", "kept_shed"], 2), False,
           "trace offered conservation violated")
    expect(mutate(GOOD_TRACE, ["requests", 1], Ellipsis), False,
           "trace kept count mismatch")
    expect(mutate(GOOD_TRACE, ["requests", 0, "outcome"], "late"),
           False, "trace unknown outcome")
    expect(mutate(GOOD_TRACE, ["requests", 0, "finish_us"], 50.0),
           False, "trace finish before arrival")
    expect(mutate(GOOD_TRACE, ["requests", 0, "spans", 0, "kind"],
                  "node"),
           False, "trace non-request root span")
    expect(mutate(GOOD_TRACE, ["requests", 0, "spans", 3, "parent"], 5),
           False, "trace forward parent reference")
    expect(mutate(GOOD_TRACE,
                  ["requests", 0, "spans", 3, "end_us"], 400.0),
           False, "trace child escapes its parent window")
    expect(mutate(GOOD_TRACE,
                  ["requests", 0, "spans", 1, "end_us"], 290.0),
           False, "trace synchronous children exceed root")
    expect(mutate(GOOD_TRACE,
                  ["requests", 0, "buckets_us", "compute"], Ellipsis),
           False, "trace missing bucket")

    expect(GOOD_STATS, True, "good stats doc")
    expect(mutate(GOOD_STATS, ["build_info", "host"], "ci"), False,
           "stats build_info with an unknown key")
    expect(mutate(GOOD_STATS, ["stats", "sim.events", "kind"], "gauge"),
           False, "stats unknown stat kind")
    expect(mutate(GOOD_STATS, ["stats", "sim.events", "value"], 1.5),
           False, "stats fractional counter")
    expect(mutate(GOOD_STATS, ["stats", "manager.queue_wait_us", "count"],
                  7), False, "stats histogram buckets != count")
    expect(mutate(GOOD_STATS, ["apps", 0, "deadlines_met"], 3), False,
           "stats app meets more deadlines than it ran")
    expect(mutate(GOOD_STATS, ["pressure"], Ellipsis), False,
           "stats missing pressure block")
    expect(mutate(GOOD_STATS, ["pressure", "qos", 1, "wait_caused_us"],
                  9.0), False, "stats pressure books unbalanced")

    # Each of these breaks one cross-field rule and nothing else.
    expect(mutate(GOOD_SERVE, ["runs", 0, "total", "in_flight"], 3),
           False, "serve admitted != completed + in_flight")
    expect(mutate(GOOD_SERVE, ["runs", 0, "total", "missed"], 7), False,
           "serve more misses than completions")
    expect(mutate(GOOD_TRACE, ["sampling", "offered"], 6), False,
           "trace offered != admitted + kept shed/rejected")
    expect(mutate(GOOD_TRACE, ["requests", 0, "spans", 1, "end_us"], 90.0),
           False, "trace span ends before it starts")
    expect(mutate(GOOD_PRESSURE, ["qos", 1], Ellipsis), False,
           "pressure qos class without a rollup")
    expect(mutate(GOOD_PRESSURE, ["totals", "wait_us"], 5.0), False,
           "pressure per-class wait != totals.wait_us")
    expect(mutate(mutate(GOOD_HOSTPROF, ["categories", "other"], Ellipsis),
                  ["categories", "other"], good_hostprof_category(150000)),
           False, "hostprof categories out of order")

    for failure in failures:
        print("self-test failure: %s" % failure, file=sys.stderr)
    if not failures:
        print("self-test passed")
    return 1 if failures else 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 2:
        print("usage: check_bench_schema.py (BENCH_FILE | --self-test)",
              file=sys.stderr)
        return 1
    try:
        with open(argv[1]) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        print("error: cannot parse %s: %s" % (argv[1], exc),
              file=sys.stderr)
        return 1
    errors = check(doc)
    for error in errors:
        print("schema violation: %s" % error, file=sys.stderr)
    if errors:
        return 1
    for unit in ("runs", "requests", "resources", "categories", "stats"):
        if unit in doc:
            break
    print("%s: schema-valid %s (%d %s)"
          % (argv[1], doc["schema"], len(doc.get(unit, [])), unit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
