"""Out-of-program tracing for the liepair benchmark.

`Tracer` wraps every public function of the measured liepair modules, and
the public methods of the classes they define, for as long as it is active.
A function imported by name (`from .linalg import rank`) is a separate
binding in each importing module, so the wrapper replaces the function at
every module of the package that binds it, not only where it is defined.
Each call becomes a span (name, parent span, start, end) kept in memory;
a layer's self time is its spans' durations minus the parts covered by
their child spans.  Leaving the `with` block restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "liepair"
LAYERS = ("catalog", "pairfile", "algebra", "linalg", "weights", "polyhedral",
          "checks", "report")



# Machine-independent counts taken from a call's arguments or result, beyond
# the call count every span gives.
def _rows_cells(args, result):
    return {"cells": len(args[0]) * (len(args[0][0]) if args[0] else 0)}


def _square_cells(args, result):
    return {"cells": len(args[0]) ** 2}


def _cone_counts(args, result):
    return {"cones": len(result),
            "rays": len({r for cone in result for r in cone.generators})}


def _witness(args, result):
    return {"witnesses": int(result.outcome == "yes_certified")}


EXTRA_COUNTS = {
    "linalg.rref": _rows_cells,
    "linalg.exp_nilpotent": _square_cells,
    "polyhedral.enumerate_cones": _cone_counts,
    "checks.check_real_spherical": _witness,
    "checks.check_complex_spherical": _witness,
}


def _public_functions(module):
    """(span name, owner, attribute, raw attribute) for each public function
    defined in `module`, including public methods of its classes."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{name}", module, name, obj))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if not attr.startswith("_") and inspect.isfunction(fn):
                    out.append((f"{layer}.{attr}", obj, attr, raw))
    return out


class Tracer:
    """Context manager that records one span per call of a wrapped function.

    Span i has name `names[name_ids[i]]`, parent span `parents[i]` (-1 at
    the top), times `starts[i]`, `ends[i]` and `nested[i]` set when a span
    of the same function encloses it.  The columns are arrays, since a pass
    makes millions of calls.  `counts[name]` holds the call count and
    the `EXTRA_COUNTS` of each name.  A tracer may be entered more than once;
    its spans accumulate.  Self time comes from `totals()`.
    """

    def __init__(self):
        self.names = []
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.nested = array("b")
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, nested = self.starts, self.ends, self.nested
        stack, calls = self._stack, self.counts[name]
        depth = [0]
        extra = EXTRA_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            nested.append(depth[0] > 0)
            stack.append(idx)
            depth[0] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[0] -= 1
                stack.pop()
            calls["calls"] += 1
            if extra is not None:
                for key, value in extra(args, result).items():
                    calls[key] += value
            return result

        return wrapper

    def __enter__(self):
        modules = [sys.modules[f"{PACKAGE}.{m}"] for m in LAYERS]
        everyone = [m for n, m in list(sys.modules.items())
                    if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for span_name, owner, attr, raw in (
                f for m in modules for f in _public_functions(m)):
            if inspect.isclass(owner):
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(self._wrap(span_name, raw.__func__))
                else:
                    new = self._wrap(span_name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            new = self._wrap(span_name, raw)
            for mod in everyone:
                for bound_name, value in list(vars(mod).items()):
                    if value is raw:
                        self._restore.append((mod, bound_name, raw))
                        setattr(mod, bound_name, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
        return False

    def totals(self):
        """name -> (inclusive seconds, self seconds).  Inclusive time counts
        only the outermost span of a name, so recursion is not counted
        twice; self time is a span's duration minus its children's."""
        n = len(self.starts)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        inclusive = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_ids[i]
            own[k] += dur[i] - child[i]
            if not self.nested[i]:
                inclusive[k] += dur[i]
        out = {}
        for k, name in enumerate(self.names):
            t = out.setdefault(name, [0.0, 0.0])
            t[0] += inclusive[k]
            t[1] += own[k]
        return {k: tuple(v) for k, v in out.items()}


# Per-layer metrics: span name and the numbers reported for it.  "s" is the
# inclusive time of the name's outermost spans; the rest are counts.
LAYER_METRICS = (
    ("checks.apply_to_rows", ("s", "calls")),
    ("linalg.exp_nilpotent", ("s", "calls", "cells")),
    ("linalg.rref", ("s", "calls", "cells")),
    ("polyhedral.enumerate_cones", ("s", "calls", "cones", "rays")),
    ("polyhedral.decide_dominance", ("s",)),
    ("weights.weight_decomposition", ("s", "calls")),
    ("checks.minimal_parabolic", ("calls",)),
    ("checks.nilpotent_pool", ("calls",)),
    ("algebra.subspace_intersect", ("s", "calls")),
    ("algebra.ad_matrix", ("s", "calls")),
    ("checks.check_tempered", ("s",)),
    ("checks.check_real_spherical", ("s",)),
    ("checks.check_complex_spherical", ("s",)),
    ("checks.generic_stabilizer", ("s",)),
    ("pairfile.parse_pair_text", ("s", "calls")),
    ("algebra.validate", ("s", "calls")),
    ("checks.verify_certificate", ("s", "calls")),
    ("catalog.construct", ("s", "calls")),
    ("linalg.eigensplit", ("s", "calls")),
    ("pairfile.serialize_pair", ("s",)),
    ("report.render_machine", ("s",)),
)

SEARCHES = ("checks.check_real_spherical", "checks.check_complex_spherical")
WORD_USERS = SEARCHES + ("checks.generic_stabilizer",)


def layer_metrics(tracer):
    """The per-layer metrics of a finished trace, by metric name."""
    totals = tracer.totals()
    out = {}
    for name, keys in LAYER_METRICS:
        for key in keys:
            out[f"{name}.{key}"] = (totals.get(name, (0.0, 0.0))[0] if key == "s"
                                    else tracer.counts[name][key])
    words = orbit_words = 0
    names = tracer.names
    users = {k for k, n in enumerate(names) if n in WORD_USERS}
    searches = {k for k, n in enumerate(names) if n in SEARCHES}
    apply_ids = {k for k, n in enumerate(names) if n == "checks.apply_to_rows"}
    ids, parents = tracer.name_ids, tracer.parents
    for i in range(len(ids)):
        if ids[i] not in apply_ids:
            continue
        p = parents[i]
        while p >= 0 and ids[p] not in users:
            p = parents[p]
        if p >= 0:
            words += 1
            orbit_words += ids[p] in searches
    witnesses = sum(tracer.counts[n]["witnesses"] for n in SEARCHES)
    out["checks.words_tried"] = words
    # 0 when no open-orbit search ran
    out["checks.witness_ratio"] = witnesses / orbit_words if orbit_words else 0.0
    return out


def self_time_table(tracer, top=25):
    """Lines naming the `top` functions by self time, with calls and
    inclusive time, for a reader of the traced run's stderr."""
    rows = sorted(tracer.totals().items(), key=lambda kv: -kv[1][1])[:top]
    return [f"{name:40s} calls {tracer.counts[name]['calls']:>9d}  "
            f"self {own:9.3f} s  inclusive {inc:9.3f} s"
            for name, (inc, own) in rows]


def metric_units():
    """Per-layer metric name -> unit, in report order."""
    units = {f"{name}.{key}": "s" if key == "s" else "count"
             for name, keys in LAYER_METRICS for key in keys}
    units.update({"checks.words_tried": "count", "checks.witness_ratio": "ratio",
                  "trace.overhead_s": "s"})
    return units
