"""Per-layer tracing and cache probes for the traced benchmark run.

The layers are the modules of ``mhsums``.  ``install`` replaces each
boundary below (a function one module imports from another, or a method of
``Polynomial``/``ClosedForm``) with a wrapper, everywhere the package holds a
reference to it, so recursive and cross-module calls both go through it.

Every wrapper times its call and subtracts the time its traced callees took,
which gives self time.  Boundaries marked ``keep_spans`` also record a span
``(id, name, start, end, parent id, item)``; the others are called so often
(up to hundreds of thousands of times per round) that a span record
each would cost more than the work, so they keep only their call count and
time.

Everything here reads names the package may rename or delete.  A missing
boundary or probe makes the metrics built on it ``None`` instead of failing.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from time import perf_counter

# (boundary, module, attribute path, keep_spans)
BOUNDARIES = (
    ("cli.main", "mhsums.cli", "main", True),
    ("sums.structured_form", "mhsums.sums", "structured_form", True),
    ("sums.sum_power", "mhsums.sums", "sum_power", True),
    ("sums.sum_power_shifted", "mhsums.sums", "sum_power_shifted", True),
    ("sums.sum_product", "mhsums.sums", "sum_product", True),
    ("sums.structure_check", "mhsums.sums", "structure_check", True),
    ("sums.structured_to_closed", "mhsums.sums", "structured_to_closed", True),
    ("reducer.reduce", "mhsums.reducer", "reduce", True),
    ("reducer.reduce_direct", "mhsums.reducer", "reduce_direct", True),
    ("reducer.c_poly", "mhsums.reducer", "c_poly", True),
    ("reducer.faulhaber", "mhsums.reducer", "faulhaber", False),
    ("stuffle.expand_power", "mhsums.stuffle", "expand_power", True),
    ("stuffle.product_combinations", "mhsums.stuffle", "product_combinations", True),
    ("stuffle.stuffle", "mhsums.stuffle", "stuffle", True),
    ("closedform.add", "mhsums.closedform", "ClosedForm.__add__", True),
    ("closedform.sub", "mhsums.closedform", "ClosedForm.__sub__", True),
    ("closedform.neg", "mhsums.closedform", "ClosedForm.__neg__", True),
    ("closedform.scale", "mhsums.closedform", "ClosedForm.scale", True),
    ("closedform.eval", "mhsums.closedform", "ClosedForm.eval", True),
    ("closedform.render", "mhsums.closedform", "ClosedForm.render", True),
    ("oracle.mhs_eval", "mhsums.oracle", "mhs_eval", False),
    ("oracle.mhs_values", "mhsums.oracle", "mhs_values", False),
    ("bernoulli.bernoulli", "mhsums.bernoulli", "bernoulli", False),
    ("bernoulli.umbral_eval", "mhsums.bernoulli", "umbral_eval", False),
    ("polynomial.mul", "mhsums.polynomial", "Polynomial.__mul__", False),
    ("polynomial.add", "mhsums.polynomial", "Polynomial.__add__", False),
    ("polynomial.eval", "mhsums.polynomial", "Polynomial.eval", False),
)

# The worker wraps each verify check callable itself, under this name.
VERIFY_CHECK = "verify.check"

_ARITH = ["closedform.add", "closedform.sub", "closedform.neg", "closedform.scale"]
_SUMS = ["sums.sum_power", "sums.sum_power_shifted", "sums.sum_product",
         "sums.structure_check", "sums.structured_to_closed"]

# per-layer metric -> ("calls" | "self", boundaries summed)
TIMED = {
    "bernoulli.calls": ("calls", ["bernoulli.bernoulli"]),
    "bernoulli.self_s": ("self", ["bernoulli.bernoulli", "bernoulli.umbral_eval"]),
    "reducer.direct_calls": ("calls", ["reducer.reduce_direct"]),
    "reducer.direct_self_s": ("self", ["reducer.reduce_direct"]),
    "reducer.c_poly_calls": ("calls", ["reducer.c_poly"]),
    "reducer.c_poly_self_s": ("self", ["reducer.c_poly"]),
    "reducer.faulhaber_self_s": ("self", ["reducer.faulhaber"]),
    "reducer.reduce_calls": ("calls", ["reducer.reduce"]),
    "reducer.reduce_self_s": ("self", ["reducer.reduce"]),
    "closedform.arith_calls": ("calls", _ARITH),
    "closedform.arith_self_s": ("self", _ARITH),
    "polynomial.mul_calls": ("calls", ["polynomial.mul"]),
    "polynomial.mul_s": ("self", ["polynomial.mul"]),
    "polynomial.add_calls": ("calls", ["polynomial.add"]),
    "polynomial.add_s": ("self", ["polynomial.add"]),
    "closedform.eval_calls": ("calls", ["closedform.eval"]),
    "closedform.eval_self_s": ("self", ["closedform.eval"]),
    "polynomial.eval_calls": ("calls", ["polynomial.eval"]),
    "polynomial.eval_s": ("self", ["polynomial.eval"]),
    "oracle.calls": ("calls", ["oracle.mhs_eval", "oracle.mhs_values"]),
    "oracle.self_s": ("self", ["oracle.mhs_eval", "oracle.mhs_values"]),
    "stuffle.expand_power_self_s": ("self", ["stuffle.expand_power"]),
    "stuffle.product_self_s": ("self", ["stuffle.product_combinations", "stuffle.stuffle"]),
    "sums.self_s": ("self", _SUMS),
    "sums.structured_self_s": ("self", ["sums.structured_form"]),
    "closedform.render_self_s": ("self", ["closedform.render"]),
    "verify.checks": ("calls", [VERIFY_CHECK]),
    "verify.self_s": ("self", [VERIFY_CHECK]),
    "cli.self_s": ("self", ["cli.main"]),
}


class Tracer:
    """Call counts, self times and spans for one round, kept in memory."""

    def __init__(self):
        self.stack = []  # open calls: [seconds spent in traced callees, span id]
        self.spans = []
        self.stats = {}  # boundary -> [calls, self seconds]
        self.item = -1
        self.missing = set()
        self._ids = itertools.count(1)

    def wrap(self, name, fn, keep_spans):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack, spans, ids = self.stack, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            frame = [0.0, next(ids) if keep_spans else parent]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if keep_spans:
                    spans.append((frame[1], name, start, end, parent, self.item))

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _resolve(module: str, path: str):
    obj = sys.modules.get(module)
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


def install(tracer: Tracer) -> None:
    """Wrap every boundary in BOUNDARIES that still exists."""
    modules = [m for n, m in sys.modules.items() if n == "mhsums" or n.startswith("mhsums.")]
    for name, module, path, keep_spans in BOUNDARIES:
        owner, original = _resolve(module, path)
        if original is None:
            tracer.missing.add(name)
            continue
        traced = tracer.wrap(name, original, keep_spans)
        # a method is replaced on its class (with its aliases, e.g. __rmul__);
        # a function everywhere the package refers to it
        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, traced)


# ------------------------------------------------------------------ probes


def _cache_info(module: str, name: str):
    _, obj = _resolve(module, name)
    while obj is not None and not hasattr(obj, "cache_info"):
        obj = getattr(obj, "__wrapped__", None)
    return obj.cache_info() if obj is not None else None


def _hit_ratio(*infos):
    if any(info is None for info in infos):
        return None
    hits = sum(info.hits for info in infos)
    tries = hits + sum(info.misses for info in infos)
    return hits / tries if tries else 0.0


def probes() -> dict:
    """Cache and table sizes, read from private names; None where a name is gone."""
    reduce_info = _cache_info("mhsums.reducer", "_reduce")
    c_poly_info = _cache_info("mhsums.reducer", "_c_poly")
    stuffle_info = _cache_info("mhsums.stuffle", "_stuffle")
    power_info = _cache_info("mhsums.stuffle", "_expand_power")
    _, table = _resolve("mhsums.bernoulli", "_SHARED._minus")
    _, oracle_cache = _resolve("mhsums.oracle", "_cache")
    return {
        "bernoulli.table_len": len(table) if isinstance(table, list) else None,
        "reducer.c_poly_hit_ratio": _hit_ratio(c_poly_info),
        "reducer.reduce_hit_ratio": _hit_ratio(reduce_info),
        "oracle.tables": len(oracle_cache) if isinstance(oracle_cache, dict) else None,
        "oracle.table_entries": (
            sum(len(v) for v in oracle_cache.values()) if isinstance(oracle_cache, dict) else None
        ),
        "stuffle.cache_size": (
            stuffle_info.currsize + power_info.currsize
            if stuffle_info is not None and power_info is not None
            else None
        ),
        "stuffle.hit_ratio": _hit_ratio(stuffle_info, power_info),
    }


def layer_metrics(tracer: Tracer) -> dict:
    out = {}
    for metric, (field, names) in TIMED.items():
        if any(n in tracer.missing for n in names):
            out[metric] = None
            continue
        column = 0 if field == "calls" else 1
        out[metric] = sum(tracer.stats.get(n, (0, 0.0))[column] for n in names)
    out.update(probes())
    return out
