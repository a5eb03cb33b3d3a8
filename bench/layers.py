"""Per-layer spans for the traced benchmark run.

A layer is one module of the program. `install` wraps the layer's public
functions and methods with a span that records, per (span, parent span),
the call count and self time: the duration minus the time its child spans
cover. Names bound by `from .x import y` live in the importing module, so
every wrapper replaces the original in every module of the package that
holds it; methods are wrapped on their class. Nothing here is imported by
the untraced run.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from probe import REFERENCE_S

PACKAGE = "forcing_lab"

# layer -> {function name: span name}; None selects every `nat_*` function.
FUNCTIONS = {
    "towers": None,
    "bits": {"prng_bit": "prng_bit", "derive_seed": "derive_seed",
             "stream_from_json": "stream_from_json",
             "read_bit_file": "read_bit_file"},
    "generic": {"meets_family": "meets_family",
                "mutual_genericity_check": "mutual_genericity_check"},
    "posets": {"cohen_index": "encode", "_cohen_locate": "locate"},
    "wide": {"entangle_wide": "entangle_wide", "decode_wide": "decode_wide",
             "_find_hit": "find_hit"},
    "entangle": {"entangle_pair": "entangle_pair", "decode_pair": "decode_pair",
                 "entangle_many": "entangle_many", "decode_many": "decode_many"},
    "plane": {"merge_conditions": "merge_conditions",
              "factor_plane": "factor_plane"},
    "closure": {"build_generics_run": "build_generics_run",
                "bound_chain": "bound_chain", "verify_bound": "verify_bound"},
    "trace": {"write_trace": "write", "load_trace": "load"},
    "verify": {"verify_trace": "verify_trace"},
}

# layer -> {class: methods}; None selects the public methods and __init__.
CLASSES = {
    "bits": {"BitString": None, "BitStream": None, "PatchedStream": None},
    "dense": {"DenseSet": ("member", "densify")},
    "plane": {"PlaneCondition": None, "GenericPlane": None},
}


class Tracer:
    """Aggregated spans: (name, parent) -> [calls, self seconds]."""

    def __init__(self):
        self.stats = {}
        self.totals = defaultdict(float)   # layer -> time in outermost spans
        self.counters = defaultdict(int)
        self._depth = defaultdict(int)
        self._stack = []

    def reset(self):
        self.stats.clear()
        self.totals.clear()
        self.counters.clear()

    def wrap(self, name, fn, on_return=None):
        layer = name.split(".", 1)[0]
        stack, stats, depth, totals = (self._stack, self.stats, self._depth,
                                       self.totals)
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            depth[layer] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][1] += dur
                if not depth[layer]:
                    totals[layer] += dur
                st = stats.get((name, parent))
                if st is None:
                    st = stats[(name, parent)] = [0, 0.0]
                st[0] += 1
                st[1] += dur - frame[1]
            if on_return is not None:
                on_return(self, out)
            return out

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        span.__wrapped__ = fn
        return span

    def calls(self, name, parent=...):
        return sum(c for (n, p), (c, _) in self.stats.items()
                   if n == name and (parent is ... or p == parent))

    def self_s(self, name):
        return sum(s for (n, _), (_, s) in self.stats.items() if n == name)

    def layer_calls(self, layer):
        return sum(c for (n, _), (c, _) in self.stats.items()
                   if n.startswith(layer + "."))

    def layer_self_s(self, layer):
        return sum(s for (n, _), (_, s) in self.stats.items()
                   if n.startswith(layer + "."))


def _count_sets(tracer, report):
    tracer.counters["generic.sets_checked"] += len(report.results)


def _count_hit(tracer, hit):
    tracer.counters["wide.find_hit.hits"] += hit is not None


_HOOKS = {"generic.meets_family": _count_sets, "wide.find_hit": _count_hit}


def install(tracer: Tracer) -> int:
    """Wrap every selected function at every import site; return site count."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    wrappers = {}
    for layer, names in FUNCTIONS.items():
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, val in vars(mod).items():
            if not (inspect.isfunction(val) and val.__module__ == mod.__name__):
                continue
            alias = attr if names is None and attr.startswith("nat_") else (
                names or {}).get(attr)
            if alias is not None:
                span = f"{layer}.{alias}"
                wrappers[val] = tracer.wrap(span, val, _HOOKS.get(span))
    sites = 0
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])
                sites += 1
    for layer, classes in CLASSES.items():
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for attr, raw in list(vars(cls).items()):
                if methods is None:
                    chosen = attr == "__init__" or not attr.startswith("_")
                else:
                    chosen = attr in methods
                if chosen:
                    wrapped = _wrap_member(tracer, f"{layer}.{cls_name}.{attr}", raw)
                    if wrapped is not None:
                        setattr(cls, attr, wrapped)
                        sites += 1
    return sites


def _wrap_member(tracer, span, raw):
    if isinstance(raw, classmethod):
        return classmethod(tracer.wrap(span, raw.__func__))
    if isinstance(raw, property):
        return property(tracer.wrap(span, raw.fget), raw.fset, raw.fdel)
    if inspect.isfunction(raw):
        return tracer.wrap(span, raw)
    return None


# --- per-layer metrics --------------------------------------------------------

LAYERS = ("towers", "bits", "dense", "generic", "posets", "wide", "entangle",
          "plane", "closure", "trace", "verify")

# metric -> span name, for the single functions reported on their own
CALLS_AND_SELF = {
    "bits.strip_prefix": "bits.BitString.strip_prefix",
    "bits.stable_key": "bits.BitString.stable_key",
    "bits.to01": "bits.BitString.to01",
    "dense.densify": "dense.DenseSet.densify",
    "dense.member": "dense.DenseSet.member",
    "generic.meets_family": "generic.meets_family",
    "posets.encode": "posets.encode",
    "posets.locate": "posets.locate",
}
SELF_ONLY = ("wide.entangle_wide", "wide.decode_wide",
             "entangle.entangle_pair", "entangle.decode_pair",
             "entangle.entangle_many", "entangle.decode_many",
             "closure.build_generics_run", "closure.bound_chain",
             "closure.verify_bound", "trace.write", "trace.load",
             "verify.verify_trace", "cli.main")

# Spans each workload exists to exercise: a zero count means a wrapper
# missed an import site, and the traced run reports itself incorrect.
EXPECTED = {
    "cohen": ("entangle.entangle_pair", "entangle.decode_pair",
              "entangle.entangle_many", "entangle.decode_many",
              "bits.BitString.stable_key", "bits.BitString.to01",
              "bits.prng_bit", "dense.DenseSet.densify",
              "dense.DenseSet.member", "generic.meets_family",
              "generic.mutual_genericity_check"),
    "wide": ("towers", "posets.encode", "posets.locate",
             "wide.entangle_wide", "wide.decode_wide", "wide.find_hit",
             "bits.BitString.strip_prefix", "bits.BitString.stable_key",
             "dense.DenseSet.densify", "dense.DenseSet.member"),
    "plane": ("plane", "plane.merge_conditions", "closure.build_generics_run",
              "closure.bound_chain", "closure.verify_bound",
              "generic.meets_family", "bits.prng_bit", "bits.derive_seed",
              "dense.DenseSet.densify", "dense.DenseSet.member"),
}
EXPECTED_ALL = ("trace.write", "trace.load", "verify.verify_trace", "cli.main")

UNITS = {"calls": "calls/op", "self_s": "s/op", "total_s": "s/op"}


def collect(tracer, workload, results, pool):
    """Per-layer metrics of a traced run, per timed op; and missed spans."""
    n = len(results)
    # span seconds -> seconds per op at the probe's reference speed
    per_op_s = statistics.median(REFERENCE_S / r["probe_s"] for r in results) / n
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("traced_ops_per_s",
        sum(not r["error"] for r in results)
        / sum(r["wall_s"] for r in results), "ops/s")
    for layer in LAYERS:
        put(f"{layer}.calls", tracer.layer_calls(layer) / n, UNITS["calls"])
        put(f"{layer}.self_s", tracer.layer_self_s(layer) * per_op_s,
            UNITS["self_s"])
        put(f"{layer}.total_s", tracer.totals.get(layer, 0.0) * per_op_s,
            UNITS["total_s"])
    towers = sys.modules.get(f"{PACKAGE}.towers")
    put("towers.intern_nodes", len(towers._INTERN), "count")
    for metric, span in CALLS_AND_SELF.items():
        put(f"{metric}.calls", tracer.calls(span) / n, UNITS["calls"])
        put(f"{metric}.self_s", tracer.self_s(span) * per_op_s,
            UNITS["self_s"])
    for span in SELF_ONLY:
        put(f"{span}.self_s", tracer.self_s(span) * per_op_s, UNITS["self_s"])
    put("bits.prng_digests",
        (tracer.calls("bits.prng_bit") + tracer.calls("bits.derive_seed")) / n,
        UNITS["calls"])
    sets = tracer.counters["generic.sets_checked"]
    inside = tracer.calls("dense.DenseSet.member", parent="generic.meets_family")
    put("generic.member_checks_per_set", inside / sets if sets else 0.0,
        "ratio")
    locates = tracer.calls("posets.locate")
    put("posets.locate.hit_ratio",
        tracer.counters["wide.find_hit.hits"] / locates if locates else 0.0,
        "ratio")
    retries = stages = 0
    for op in pool:
        if op.kind == "plane" and Path(op.files["trace"]).is_file():
            recs = json.loads(Path(op.files["trace"]).read_text())["stages"]
            retries += sum(rec["retries"] for rec in recs)
            stages += len(recs)
    put("closure.retries_per_stage", retries / stages if stages else 0.0,
        "ratio")
    put("trace.bytes_p50", statistics.median(r["bytes"] for r in results),
        "bytes")

    missing = [span for span in EXPECTED[workload] + EXPECTED_ALL
               if not (tracer.layer_calls(span) if "." not in span
                       else tracer.calls(span))]
    return out, missing
