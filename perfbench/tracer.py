"""Outside-in span tracer for the sosreg layers.

The tracer replaces public functions and methods at the names their callers
look up (``sosreg.sos.build_cover``, not ``sosreg.cover.build_cover``;
``sosreg.calculus.evaluate``, not ``sosreg.exprlang.evaluate``) with wrappers
that record one span per call: a name, a start, an end and the index of the
enclosing span.  Spans and counters stay in memory; ``unit_metrics`` folds
them into per-layer numbers and ``save`` writes the spans out at the end of
a run.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import Counter

import numpy as np


def _children(e):
    """Expression children of a frozen-dataclass Expr node."""
    out = []
    for fld in dataclasses.fields(e):
        v = getattr(e, fld.name)
        if isinstance(v, tuple):
            out.extend(x for x in v if dataclasses.is_dataclass(x))
        elif dataclasses.is_dataclass(v):
            out.append(v)
    return out


class NodeCounter:
    """Distinct DAG nodes per Expr object, cached by id.

    The cache holds a reference to each counted expression so its id cannot
    be reused by a different object while the cache lives.
    """

    def __init__(self):
        self._cache: dict = {}

    def __call__(self, e) -> int:
        hit = self._cache.get(id(e))
        if hit is not None:
            return hit[1]
        seen = set()
        stack = [e]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(_children(node))
        self._cache[id(e)] = (e, len(seen))
        return len(seen)


def _rows(X) -> int:
    return int(np.atleast_2d(np.asarray(X)).shape[0])


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.nodes = NodeCounter()
        self._patches: list = []
        self.reset()

    def reset(self):
        self.name_of: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return any(self.name_of[i] == nid for i in self.stack)

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper recording a span per call; ``before(args)`` and
        ``after(result, args)`` update counters outside the timed interval."""
        nid = self.name_id(name)
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            if before is not None:
                before(self, args)
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(self, out, args)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        orig = owner.__dict__[attr]
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, before, after))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def bump_max(self, key: str, value):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def self_times(self) -> dict:
        """Per span name: summed duration minus the time of direct children."""
        if not self.start:
            return {}
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_s = np.bincount(np.asarray(self.name_of), weights=dur - child, minlength=len(self.names))
        return {self.names[k]: float(v) for k, v in enumerate(self_s)}

    def save(self, path: str, units: list):
        """Write the spans of the traced units; ``units`` holds one
        (name_of, start, end, parent) tuple of arrays per unit."""
        arrays = {"names": np.array(self.names)}
        for u, (name_of, start, end, parent) in enumerate(units):
            arrays[f"unit{u}_name"] = name_of
            arrays[f"unit{u}_start"] = start
            arrays[f"unit{u}_end"] = end
            arrays[f"unit{u}_parent"] = parent
        np.savez_compressed(path, **arrays)

    def snapshot(self):
        return (
            np.asarray(self.name_of, dtype=np.int32),
            np.asarray(self.start),
            np.asarray(self.end),
            np.asarray(self.parent, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries
# ---------------------------------------------------------------------------


def _count_nodes(t: Tracer, args):
    t.counts["exprlang.evaluate.nodes"] += t.nodes(args[0])


def _count_rows(name: str, pos: int):
    def before(t: Tracer, args):
        t.counts[name + ".points"] += _rows(args[pos])

    return before


def _count_derivative(t: Tracer, args):
    _, X, alpha = args[:3]
    t.counts["calculus.derivative_values.points"] += _rows(X)
    order = int(sum(alpha))
    if order:
        t.counts[f"calculus.deriv_calls.order{order}"] += 1


def _count_control_distance(t: Tracer, args):
    n = _rows(args[1])
    t.counts["cover.control_distance_values.points"] += n
    if t.inside("cover.build_cover"):
        t.counts["cover.build_cover.cd_points"] += n


def _after_cover(t: Tracer, cells, args):
    t.counts["cover.cells"] += len(cells)


def _after_colors(t: Tracer, cells, args):
    t.bump_max("cover.colors", len({c.color for c in cells}))


def _after_chi_pairs(t: Tracer, pairs, args):
    t.counts["cover.chi_pairs.hits"] += sum(len(idxs) for idxs, _ in pairs)
    t.counts["cover.chi_pairs.live"] += sum(int(np.count_nonzero(chi > 0)) for _, chi in pairs)


def _after_decompose(t: Tracer, report, args):
    cc = report.case_counts
    t.counts["sos.case_ii_cells"] += cc["II"]
    t.counts["sos.cells_total"] += cc["I"] + cc["II"]
    t.bump_max("sos.recursion_depth", report.recursion_depth)


def _after_delta_nu(t: Tracer, report, args):
    t.counts["counterex.restarts"] += len(report.restart_values)


def install(tracer: Tracer):
    """Patch every traced name; ``tracer.uninstall()`` restores them."""
    import sosreg.calculus as calculus
    import sosreg.counterex as counterex
    import sosreg.cover as cover
    import sosreg.sos as sos

    p = tracer.patch
    p(calculus, "evaluate", "exprlang.evaluate", before=_count_nodes)
    p(calculus, "differentiate", "exprlang.differentiate")
    FH = calculus.FunctionHandle
    p(FH, "derivative_values", "calculus.derivative_values", before=_count_derivative)
    p(FH, "hessian_values", "calculus.hessian_values")
    p(FH, "max_entry_values", "calculus.max_entry_values")
    # the benchmark's own calls and build_cover's look the name up in cover,
    # decompose's in sos
    for mod in (cover, sos):
        p(mod, "control_distance_values", "cover.control_distance_values", before=_count_control_distance)
    p(sos, "build_cover", "cover.build_cover", after=_after_cover)
    p(sos, "color_classes", "cover.color_classes", after=_after_colors)
    p(sos, "build_partition", "cover.build_partition")
    p(cover.Partition, "chi_pairs", "cover.chi_pairs", before=_count_rows("cover.chi_pairs", 1), after=_after_chi_pairs)
    p(cover.Partition, "sum_chi_sq", "cover.sum_chi_sq")
    p(sos, "decompose", "sos.decompose", after=_after_decompose)
    p(sos, "check_differential_inequalities", "sos.check_differential_inequalities")
    p(sos.MinimizerProfile, "solve_many", "sos.solve_many", before=_count_rows("sos.solve_many", 1))
    p(sos, "reduced_profile", "sos.reduced_profile")
    p(sos.RootGroup, "eval_many", "sos.root_eval", before=_count_rows("sos.root_eval", 1))
    p(sos.DecompositionReport, "sum_of_squares", "sos.sum_of_squares")
    p(sos, "root_holder_estimate", "sos.root_holder_estimate")
    p(counterex, "estimate_delta_nu", "counterex.estimate_delta_nu", after=_after_delta_nu)


def unit_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of the spans and counters recorded since reset()."""
    out = {f"{k}.self_s": v for k, v in tracer.self_times().items()}
    out.update(tracer.counts)
    out.update(tracer.maxima)
    cd_points = tracer.counts["cover.build_cover.cd_points"]
    out["cover.accept_ratio"] = tracer.counts["cover.cells"] / cd_points if cd_points else 0.0
    hits = tracer.counts["cover.chi_pairs.hits"]
    out["cover.chi_live_ratio"] = tracer.counts["cover.chi_pairs.live"] / hits if hits else 0.0
    return out
