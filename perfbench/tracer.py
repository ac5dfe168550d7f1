"""Span tracer that wraps spin7's public functions from outside the package.

Every public module-level function of every ``spin7`` module, plus the few
methods named in ``METHODS``, is replaced in every ``spin7`` namespace that
binds it (modules do ``from .forms import wedge``, so patching
``spin7.forms.wedge`` alone would miss most calls).  The wrapper records a
span: name, start, end, parent span and op id, kept in memory.  Helpers that
run tens of thousands of times per op (index sorting, the dense parity) get a
wrapper that only counts calls, because a span there would cost more than the
work it measures; their time is part of the caller's self time.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

# Called once per index tuple or per permutation: counted, never timed.
COUNT_ONLY = frozenset({
    "forms.sort_with_sign",
    "forms.merge_with_sign",
    "forms.complement",
    "forms.validate_multi_index",
    "forms.KForm.__add__",
    "dense.parity",
})

# Methods that sit on a layer boundary; module-level functions are found
# by walking the modules.
METHODS = (
    ("forms", "KForm", "__add__"),
    ("geometry", "Geometry", "build"),
    ("report", "VerificationReport", "to_json"),
)

# Spans of these functions are split by degree: the input degree, or the
# output degree for products.
DEGREE_OF = {
    "liealgebra.ce_differential": lambda args: args[0].degree,
    "forms.wedge": lambda args: args[0].degree + args[1].degree,
    "forms.raise_coeffs": lambda args: args[0].degree,
    "forms.hodge_star": lambda args: args[0].degree,
    "dense.dense_star": lambda args: np.ndim(args[0]),
    "dense.dense_wedge": lambda args: np.ndim(args[0]) + np.ndim(args[1]),
}


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


# Waste ratios: the distinct inputs a cache would have to compute once.
DISTINCT_KEY = {
    "forms.raise_coeffs": lambda args: _digest(args[1].g.tobytes(), args[1].orientation,
                                               args[0].degree),
    "liealgebra.ce_differential": lambda args: _digest(args[1].c.tobytes(), args[0].degree),
}


def spin7_modules():
    """The spin7 package and every submodule, imported."""
    import spin7

    mods = [spin7]
    for info in pkgutil.iter_modules(spin7.__path__):
        mods.append(importlib.import_module(f"spin7.{info.name}"))
    return mods


class Tracer:
    """Records spans and counts for calls into spin7 while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start, end, parent span index or -1, op id)
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.op = -1
        self._undo: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers -----------------------------------------------------------

    def _counting(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        degree_of = DEGREE_OF.get(name)
        key_of = DISTINCT_KEY.get(name)
        keys = self.keys[name] if key_of else None
        base_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = base_id if degree_of is None else self.name_id(f"{name}.d{degree_of(args)}")
            if keys is not None:
                keys.add(key_of(args))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op)

        return wrapper

    def _wrap(self, fn, name):
        return self._counting(fn, name) if name in COUNT_ONLY else self._spanning(fn, name)

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        mods = spin7_modules()
        wrapped: dict[int, object] = {}
        for mod in mods[1:]:
            short = mod.__name__.removeprefix("spin7.")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and id(obj) not in wrapped):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{obj.__qualname__}"))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        for modname, clsname, meth in METHODS:
            cls = getattr(importlib.import_module(f"spin7.{modname}"), clsname)
            raw = cls.__dict__[meth]
            name = f"{modname}.{clsname}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            setattr(cls, meth, new)
            self._undo.append((cls, meth, raw))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def export(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "keys": {k: sorted(v) for k, v in self.keys.items()},
        }


class SpanLog:
    """Spans from one or more tracers, merged, with per-name aggregates.

    Each merged export is one process (the cli workload merges one per CLI
    child).  ``distinct`` sums each process's own distinct inputs, since a
    cache lives in one process and cannot reuse work across processes.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counts: Counter = Counter()
        self.distinct: Counter = Counter()

    def merge(self, exported: dict, op_offset: int = 0) -> None:
        remap = []
        for name in exported["names"]:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            remap.append(self._ids[name])
        base = len(self.spans)
        for nid, t0, t1, parent, op in exported["spans"]:
            self.spans.append((remap[nid], t0, t1, parent + base if parent >= 0 else -1,
                               op + op_offset))
        self.counts.update(exported["counts"])
        for name, keys in exported["keys"].items():
            self.distinct[name] += len(keys)

    def aggregate(self, slowdown: list[float] | None = None) -> dict[str, dict]:
        """name -> {"calls", "self_s", "total_s"} summed over all spans.

        With slowdown, one factor per op id, each span's times are divided by
        its op's factor.
        """
        covered = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (nid, t0, t1, _, op) in enumerate(self.spans):
            f = slowdown[op] if slowdown else 1.0
            agg = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += (t1 - t0) / f
            agg["self_s"] += ((t1 - t0) - covered[i]) / f
        for name, n in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})["calls"] += n
        return out

    def calls_of(self, agg: dict, name: str) -> int:
        """Calls of a function summed over its degree buckets."""
        return sum(v["calls"] for k, v in agg.items()
                   if k == name or (k.startswith(name + ".d") and k[len(name) + 2:].isdigit()))

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "span_fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for nid, t0, t1, parent, op in self.spans:
                fh.write(f"[{nid},{t0!r},{t1!r},{parent},{op}]\n")
