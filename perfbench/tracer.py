"""In-memory span recorder wrapped around the package's public functions.

The program carries no instrumentation of its own, so the tracer replaces
selected functions and methods with timing wrappers, in every
``billiardpath`` module that holds a reference to them (``from .x import f``
copies the name).  Each call records one span: name, start, end and the
index of the enclosing span.  Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its direct
children; summed over every span below a root, self times add up to the
root's duration exactly, which is what lets the per-layer figures of a
cover be checked against the cover's own wall time.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class.
TARGETS = (
    ("corpus", "load_default_corpus", "corpus.load"),
    ("sequences", "all_assignments", "sequences.assignments"),
    ("classify", "angle_bounding_polygon", "classify.polygon"),
    ("geometry", "clip_polygon", "geometry.clip"),
    ("numeric", "enclose_sin", "numeric.enclosure"),
    ("numeric", "enclose_cos", "numeric.enclosure"),
    ("numeric", "TrigPoly.eval", "numeric.trigpoly_eval"),
    ("numeric", "simplify", "numeric.simplify"),
    ("tower", "SymbolicTower.__init__", "tower.symbolic_build"),
    ("tower", "symbolic_tower", "tower.symbolic_tower"),
    ("tower", "test_II", "tower.band_test"),
    ("prover", "cover", "prover.quadtree"),
    ("prover", "region_system", "prover.region_system"),
    ("prover", "certify_square", "prover.certify"),
    ("oracle", "find_orbit", "oracle.find_orbit"),
    ("oracle", "trace", "oracle.trace"),
)

# Names whose calls nested directly in a call of the same name are not
# spans of their own: enclose_cos delegates to enclose_sin, and one
# top-level enclosure is one unit of work.
FLATTEN = frozenset({"numeric.enclosure"})

LAYERS = ("corpus", "sequences", "classify", "geometry", "numeric", "tower",
          "prover", "oracle", "bench")


class Tracer:
    """Records spans for the functions in ``TARGETS`` once installed."""

    def __init__(self, base_precision: int):
        self.base_precision = base_precision
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name: str) -> int:
        """Start a span by hand (the benchmark's own root spans)."""
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        flatten = name in FLATTEN
        outcome = _OUTCOMES.get(name)
        stack, name_of = self.stack, self.name_of
        start, end, parent = self.start, self.end, self.parent

        def traced(*args, **kwargs):
            if flatten and stack and name_of[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            end.append(0.0)
            start.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if outcome is not None:
                outcome(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every loaded ``billiardpath`` module; undone by
        ``uninstall``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "billiardpath" or n.startswith("billiardpath.")]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[f"billiardpath.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, name))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def summary(self, root: int) -> dict:
        """Calls, total and self seconds per span name below ``root``
        (inclusive), self seconds per layer, and the root's duration."""
        n = len(self.start)
        child = [0.0] * n
        inside = [False] * n
        inside[root] = True
        for i in range(root + 1, n):
            p = self.parent[i]
            if p >= 0 and inside[p]:
                inside[i] = True
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i in range(root, n):
            if not inside[i]:
                continue
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            own = dur - child[i]
            self_s[name] = self_s.get(name, 0.0) + own
            layer_self[name.split(".", 1)[0]] += own
        return {"root_s": self.end[root] - self.start[root], "calls": calls,
                "total_s": total, "self_s": self_s, "layer_self_s": layer_self}

    def totals(self, name: str):
        """(calls, seconds) of every span called ``name``, wherever it is."""
        nid = self._ids.get(name)
        calls, secs = 0, 0.0
        if nid is not None:
            for i, k in enumerate(self.name_of):
                if k == nid:
                    calls += 1
                    secs += self.end[i] - self.start[i]
        return calls, secs

    def span_cost(self, calls: int = 100_000) -> float:
        """Seconds one traced call adds to a plain one, measured on a
        function that does nothing, with a scratch tracer."""
        def nothing():
            return None

        traced = Tracer(self.base_precision)._wrap(nothing, "bench.probe")
        t0 = perf_counter()
        for _ in range(calls):
            nothing()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def write(self, path: str):
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_of[i]],
                                     self.start[i], self.end[i],
                                     self.parent[i]]) + "\n")


def _certify_outcome(tracer, args, kwargs, cert):
    precision = args[2] if len(args) > 2 else \
        kwargs.get("precision", tracer.base_precision)
    retry = precision > tracer.base_precision
    if cert.passed:
        tracer.count("prover.certify_pass")
    if retry:
        tracer.count("prover.retry_calls")
        if cert.passed:
            tracer.count("prover.retry_pass")


def _orbit_outcome(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("oracle.orbit_found")


_OUTCOMES = {"prover.certify": _certify_outcome,
             "oracle.find_orbit": _orbit_outcome}
