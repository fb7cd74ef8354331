"""The benchmark workloads: inputs, one timed unit, and its checks.

Each workload makes its inputs from the seed in ``setup``; ``unit(k, span)``
is one closed-loop call that returns the program's output, and
``checks(result)`` returns ``(name, passed, detail)`` triples for it.  Every
unit rebuilds its FunctionHandle from the parsed expression, so it pays the
first symbolic differentiation as every ``sosreg`` CLI invocation does.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import sosreg.counterex as counterex
import sosreg.cover as cover
import sosreg.reporting as reporting
import sosreg.sos as sos
from sosreg.calculus import FunctionHandle
from sosreg.exprlang import catalog_function, free_variables, parse_expression
from sosreg.geometry import Ball, ball_points

REFERENCE = Path(__file__).resolve().parent / "reference" / "lab.json"

# CLI defaults of ``sosreg decompose`` that the workloads keep
DELTA, ETA, FLOOR, TOL = 0.25, 0.3, 1e-3, 1e-6
MAX_OFFSET = 0.05  # share of the region radius


def _offsets(rng, dim: int, radius: float, count: int) -> np.ndarray:
    """Region-centre offsets, uniform in the ball of MAX_OFFSET * radius."""
    d = rng.normal(size=(count, dim))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = MAX_OFFSET * radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return d * r


def _handle(body, variables, source: str) -> FunctionHandle:
    # as ``sosreg decompose <expression>`` builds it
    return FunctionHandle.from_expr(
        body, variables, domain=Ball(center=(0.0,) * len(variables), radius=16.0), label=source
    )


def _params(region: Ball, verify_points: int) -> sos.DecomposeParams:
    return sos.DecomposeParams(
        delta=DELTA, eta=ETA, region=region, floor=FLOOR, tol=TOL,
        verify_points=verify_points, estimate_holder=False,
    )


def _residual_check(f: FunctionHandle, report) -> tuple:
    # README and criterion 2: tol * (1 + sup f on the region)
    sup_f = float(np.max(f.values(ball_points(report.params.region, 2000))))
    bound = TOL * (1.0 + sup_f)
    ok = report.residual_points > 0 and report.residual_sup <= bound
    return ("residual", bool(ok), f"{report.residual_sup:.3e} <= {bound:.3e}")


def _decomposition_checks(f, report) -> list:
    case_ii = report.case_counts["II"]
    return [
        _residual_check(f, report),
        ("identity", report.identity_error <= 1e-10, f"{report.identity_error:.3e} <= 1e-10"),
        ("case_ii_cells", case_ii >= 1, f"{case_ii} case-II cells"),
    ]


class Decomposition:
    """``sosreg decompose <source> --no-holder`` on a ball of the given radius,
    centred at a seeded offset from the origin that differs per unit."""

    offsets_per_run = 64

    def __init__(self, name, source, radius, verify_points, depth):
        self.name = name
        self.source = source
        self.radius = radius
        self.verify_points = verify_points
        self.depth = depth

    def setup(self, rng):
        self.body = parse_expression(self.source)
        self.variables = tuple(sorted(free_variables(self.body)))
        self.offsets = _offsets(rng, len(self.variables), self.radius, self.offsets_per_run)

    def sizes(self) -> dict:
        return {
            "function": self.source, "radius": self.radius, "verify_points": self.verify_points,
            "offsets": self.offsets_per_run, "max_offset_share": MAX_OFFSET,
        }

    def inputs(self):
        return self.offsets

    def unit(self, k: int, span):
        f = _handle(self.body, self.variables, self.source)
        region = Ball(center=tuple(self.offsets[k % len(self.offsets)]), radius=self.radius)
        params = _params(region, self.verify_points)
        report = sos.decompose(f, params)
        with span("sos.report_json"):
            payload = {"command": "decompose", "config": {"function": self.source}, "report": report.as_dict()}
            text = json.dumps(reporting.to_jsonable(payload), indent=2, sort_keys=True)
        return f, report, text

    def checks(self, result) -> list:
        f, report, text = result
        out = _decomposition_checks(f, report)
        cells = json.loads(text)["report"]["cell_count"]
        out.append(("report_json", cells == len(report.cells), f"{cells} cells serialised"))
        out.append(("recursion_depth", report.recursion_depth == self.depth,
                    f"depth {report.recursion_depth}, want {self.depth}"))
        return out


class Holder:
    """Criterion 12's probe: root Hoelder seminorms at P and 4P pairs on the
    root groups with the most member cells of decompositions made in set-up.

    Set-up decomposes the region at ``regions`` seeded centre offsets and a
    unit probes the largest groups of each: which groups are largest, and so
    the probes' work, shifts with the offset, and several offsets per run
    average that out."""

    name = "holder2d"
    source = "x^2 + y^2"

    def __init__(self, radius, groups, pairs, regions):
        self.radius = radius
        self.n_groups = groups
        self.pairs = pairs
        self.regions = regions

    def setup(self, rng):
        body = parse_expression(self.source)
        variables = tuple(sorted(free_variables(body)))
        self.offsets = _offsets(rng, len(variables), self.radius, self.regions)
        self.f = _handle(body, variables, self.source)
        self.reports, self.groups = [], []
        for i, offset in enumerate(self.offsets):
            region = Ball(center=tuple(offset), radius=self.radius)
            report = sos.decompose(self.f, _params(region, 3000))
            ranked = sorted(report.roots, key=lambda g: (-len(g.members), g.label))
            self.reports.append(report)
            self.groups += [(f"r{i}/{g.label}", g, report.deltas[-1]) for g in ranked[: self.n_groups]]

    def sizes(self) -> dict:
        return {
            "function": self.source, "radius": self.radius, "regions": self.regions,
            "groups_per_region": self.n_groups, "pairs": [self.pairs, 4 * self.pairs],
            "cells": [len(r.cells) for r in self.reports], "root_groups": [len(r.roots) for r in self.reports],
        }

    def inputs(self):
        return self.offsets

    def unit(self, k: int, span):
        out = []
        for label, g, exponent in self.groups:
            base = sos.root_holder_estimate(g, exponent, samples=self.pairs)
            fine = sos.root_holder_estimate(g, exponent, samples=4 * self.pairs)
            out.append((label, base.seminorm, fine.seminorm))
        return out

    def checks(self, result) -> list:
        out = []
        for label, base, fine in result:
            growth = fine / base - 1.0 if base > 0 else 0.0
            out.append((f"holder_growth[{label}]", growth < 0.5, f"{100 * growth:.1f}% < 50%"))
        return out

    def setup_checks(self) -> list:
        return [c for report in self.reports for c in _decomposition_checks(self.f, report)]


class Lab:
    """Control distance of family_f on seeded points of the unit 5-ball plus
    stored anchor points, then restarts 13-15 of criterion 11's delta_1 run."""

    name = "lab"
    # estimate_delta_nu seeds restart r with seed + 1000 r, so seed 7 + 13000
    # replays restarts 13, 14 and 15 of estimate_delta_nu(1, seed=7)
    first_restart, restarts = 13, 3

    def __init__(self, points):
        self.points = points

    def setup(self, rng):
        self.fdef = catalog_function("family_f")
        self.ref = json.loads(REFERENCE.read_text())
        dim = len(self.fdef.variables)
        d = rng.normal(size=(self.points, dim))
        d /= np.linalg.norm(d, axis=1)[:, None]
        self.X = d * rng.uniform(size=(self.points, 1)) ** (1.0 / dim)
        self.anchors = np.asarray(self.ref["anchors"])
        self.batch = np.vstack([self.X, self.anchors])
        self.cdp = cover.ControlDistanceParams(delta=self.ref["delta"], variant="full")

    def sizes(self) -> dict:
        return {
            "function": "family_f", "points": self.points, "anchors": len(self.anchors),
            "delta_nu": {"nu": 1, "c0": 3.0, "sphere_samples": 2000, "iterations": 300,
                         "restarts": self.restarts, "first_restart": self.first_restart},
        }

    def inputs(self):
        return self.X

    def unit(self, k: int, span):
        f = FunctionHandle.from_def(self.fdef)
        rho = cover.control_distance_values(f, self.batch, self.cdp)
        rep = counterex.estimate_delta_nu(
            1, c0=3.0, sphere_samples=2000, restarts=self.restarts, iterations=300,
            seed=7 + 1000 * self.first_restart,
        )
        return rho, rep

    def checks(self, result) -> list:
        rho, rep = result
        ref_rho = np.asarray(self.ref["anchor_rho"])
        got = rho[len(self.X):]
        rel = float(np.max(np.abs(got - ref_rho) / ref_rho))
        seeded = rho[: len(self.X)]
        ref_restarts = sorted(self.ref["restart_values"][self.first_restart:][: self.restarts])
        restart_err = max(abs(a - b) for a, b in zip(rep.restart_values, ref_restarts))
        return [
            ("control_distance_finite", bool(np.all(np.isfinite(seeded) & (seeded > 0))),
             f"{len(seeded)} seeded points"),
            ("control_distance_reference", rel <= 1e-9, f"max relative error {rel:.2e} <= 1e-9"),
            ("delta_1", abs(rep.estimate - self.ref["delta_1"]) <= 1e-3,
             f"{rep.estimate:.6f} within 1e-3 of {self.ref['delta_1']}"),
            ("delta_1_stable", bool(rep.stable), f"stable={rep.stable}"),
            ("restarts_reference", restart_err <= 1e-3, f"max restart error {restart_err:.2e} <= 1e-3"),
        ]


def make(name: str, smoke: bool = False):
    """The workload at its benchmark size, or at a tiny size for ``--smoke``."""
    if name == "fiber3d":
        return Decomposition("fiber3d", "x^2 + y^2 + z^2", 0.015, 500 if smoke else 3000, depth=2)
    if name == "holder2d":
        return Holder(radius=0.05 if smoke else 0.12, groups=1 if smoke else 3, pairs=240, regions=2)
    if name == "lab":
        return Lab(points=20 if smoke else 500)
    raise KeyError(name)
