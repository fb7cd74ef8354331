"""One read per sample family.

A check that compares a coarse sampled supremum with its nested refinement
evaluates the fine family once and takes the coarse estimate from its
prefix, and a check that needs several derivative orders at one point set
reads them by one jet, as does the control distance of a jet-backed handle.
The `reads` fixture records the outermost FunctionHandle reads of a call as
(method, rows, order); every coarse estimate is checked against an oracle
that evaluates the coarse family on its own.  The root Hölder probe reads
each of its points once; its reads are logged at `RootGroup.jet`.  The sum
of squares reads each batch's bumps and root pieces once per partition level.
"""

import math

import numpy as np
import pytest

import sosreg.counterex as counterex
from sosreg.calculus import (
    FunctionHandle,
    Modulus,
    _pair_set,
    directional_hessian_plus_values,
    holder_seminorm,
    is_flat,
    log_ratios,
    verify_odd_even_control,
)
from sosreg.counterex import FamilyParams, functional, gamma_alpha
from sosreg.cover import ControlDistanceParams, CoverCell, Partition, control_distance_values, control_terms
from sosreg.exprlang import parse_expression
from sosreg.geometry import Ball, as_points, ball_points, sphere_points
from sosreg.monotone import STABILITY_TOLERANCE, verify_power_bound
from sosreg.roots import PowerHandle, verify_root_regularity
from sosreg.sos import (
    DecomposeParams, RootGroup, _CaseIPiece, check_differential_inequalities, decompose, reduced_profile,
    root_holder_estimate,
)

from oracles import root_holder_two_reads

READS = ("values", "log_values", "derivative_values", "derivative_tensor", "jet",
         "gradient_values", "hessian_values", "max_entry_values")


def handle(src, variables=("x",), radius=4.0):
    return FunctionHandle.from_expr(
        parse_expression(src), variables, domain=Ball((0.0,) * len(variables), radius)
    )


@pytest.fixture
def reads(monkeypatch):
    seen, depth = [], [0]
    for name in READS:
        def read(self, X, *args, _orig=getattr(FunctionHandle, name), _name=name, **kwargs):
            if not depth[0]:
                seen.append((_name, len(as_points(X, self.arity))) + tuple(args[:1]))
            depth[0] += 1
            try:
                return _orig(self, X, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(FunctionHandle, name, read)
    return seen


def _sup_constant(log_num, log_den, exponent):
    b = np.fmax.reduce(log_ratios(log_num, log_den, exponent), initial=-np.inf)
    return math.exp(b) if b < 700 else math.inf


class TestDifferentialInequalities:
    @staticmethod
    def constants(f, delta, eta, pts):
        with np.errstate(divide="ignore"):
            log_f = np.log(np.maximum(f.values(pts), 0.0))
            log_q = np.log(f.max_entry_values(pts, 4))
            log_h = np.log(directional_hessian_plus_values(f, pts))
        return _sup_constant(log_q, log_f, delta / (2.0 + delta)), _sup_constant(log_h, log_f, eta)

    @pytest.mark.parametrize("src, region, samples", [
        ("x^2 + y^4", Ball((0.01, 0.0), 0.05), 40),
        ("x^4 + y^2 + x^2*y^2", Ball((0.2, -0.1), 0.3), 25),
        ("x^2 + sin(y)^2", Ball((0.0, 0.0), 0.05), 60),
    ])
    def test_one_batch_and_coarse_prefix(self, reads, src, region, samples):
        f = handle(src, ("x", "y"))
        rep = check_differential_inequalities(f, 0.25, 0.3, region, samples=samples)
        n = 2 * samples
        assert reads == [("values", n), ("max_entry_values", n, 4), ("hessian_values", n)]
        reads.clear()

        coarse = self.constants(f, 0.25, 0.3, ball_points(region, samples))
        fine = self.constants(f, 0.25, 0.3, ball_points(region, n))

        def stable(a, b):
            return math.isfinite(a) and math.isfinite(b) and (b == 0.0 or b <= a * 1.05 + 1e-12)

        assert (rep.quartic_constant, rep.hessian_constant) == fine
        assert rep.quartic_stable == stable(coarse[0], fine[0])
        assert rep.hessian_stable == stable(coarse[1], fine[1])


class TestPowerBound:
    @pytest.mark.parametrize("m_max, s_prime, region, samples", [
        (3, 0.5, Ball((0.5,), 0.45), 300),
        (4, 0.6, Ball((0.53125,), 0.46875), 40),
        (2, 0.3, Ball((0.3,), 0.25), 7),
    ])
    def test_one_jet_and_coarse_prefix(self, reads, flat_exp, m_max, s_prime, region, samples):
        rep = verify_power_bound(flat_exp, 0.9, s_prime, m_max, region, samples=samples)
        assert reads == [("jet", 2 * samples, m_max), ("log_values", 2 * samples)]
        reads.clear()

        def sups(pts):
            logs = flat_exp.log_values(pts)
            out = []
            for m in range(1, m_max + 1):
                with np.errstate(divide="ignore"):
                    ratios = log_ratios(np.log(flat_exp.max_entry_values(pts, m)), logs, s_prime**m)
                out.append(np.fmax.reduce(ratios, initial=-math.inf))
            return out

        coarse, fine = sups(ball_points(region, samples)), sups(ball_points(region, 2 * samples))
        for m in range(1, m_max + 1):
            assert rep.constants[m] == float(np.exp(min(fine[m - 1], 700.0)))
            assert rep.stable[m] == bool(fine[m - 1] - coarse[m - 1] < math.log(1.0 + STABILITY_TOLERANCE))


class TestFunctional:
    @pytest.mark.parametrize("name, gamma, s", [
        ("R", 1.25, 0.5), ("S", 0.5, 0.3), ("S", 0.5, 0.9), ("T", gamma_alpha(1.0), 0.6),
        ("T", gamma_alpha(1.0), 0.75),
    ])
    def test_one_grid_and_coarse_prefix(self, monkeypatch, name, gamma, s):
        p, m = FamilyParams(), Modulus.omega(s)
        logs_of = counterex._functional_logs
        grids = []
        monkeypatch.setattr(counterex, "_functional_logs",
                            lambda *a: grids.append(len(a[-1])) or logs_of(*a))
        rep = functional(p, name, gamma, m)
        monkeypatch.undo()
        coarse_grid = counterex._dyadic_grid(counterex._T_MIN)
        fine_grid = counterex._dyadic_grid(float(np.min(coarse_grid)) / 4.0)
        assert grids == [len(fine_grid)]

        coarse = logs_of(p, name, gamma, m, coarse_grid)
        fine = logs_of(p, name, gamma, m, fine_grid)
        i = int(np.argmax(coarse))
        assert rep.log_sup == float(coarse[i]) and rep.argmax_t == float(coarse_grid[i])
        assert rep.divergent == bool(float(np.max(fine)) > coarse[i] + math.log(10.0))


class TestHolderSeminorm:
    @pytest.mark.parametrize("f, order, samples", [
        (handle("x^3*y + y^4 + x^2", ("x", "y")), 2, 120),
        (handle("x^3*y + y^4 + x^2", ("x", "y")), 3, 30),
        (PowerHandle(handle("x^2 + y^2 + 0.1", ("x", "y")), 0.5), 2, 80),
    ])
    def test_one_jet_and_one_pair_read(self, reads, f, order, samples):
        region = Ball((0.1, 0.0), 0.4)
        est = holder_seminorm(f, order, 0.5, region, samples=samples)
        sup_rows = max(64, samples)
        assert reads == [("jet", sup_rows, order), ("derivative_tensor", 2 * est.pair_count, order)]
        reads.clear()

        sup_pts = ball_points(region, sup_rows)
        assert est.sup_norms == [float(np.max(f.max_entry_values(sup_pts, ell))) for ell in range(order + 1)]
        ys, zs = _pair_set(region, samples, 1e-7)
        quot = np.abs(f.derivative_tensor(ys, order) - f.derivative_tensor(zs, order))
        quot = np.max(quot.reshape(len(ys), -1), axis=1) / np.linalg.norm(ys - zs, axis=1) ** 0.5
        i = int(np.argmax(quot))
        assert est.seminorm == float(quot[i])
        assert est.worst_pair == (tuple(ys[i]), tuple(zs[i]))


class TestRootRegularity:
    def test_two_reads_for_every_exponent(self, reads, flat_exp):
        region = Ball((0.5,), 0.45)
        deltas = [0.05, 0.1, 0.2, 1.5]  # 1.5 is no Hoelder exponent: unstable
        rep = verify_root_regularity(flat_exp, s=0.9, M=2, delta_search=deltas, region=region, samples=60)
        assert [r for r in reads if r[0] == "derivative_tensor"] == [("derivative_tensor", 240, 2)]
        # the values check for truncation and the probe's sup-norm jet; the
        # coarse seminorm takes the first 60 of the 120 pairs the probe reads
        assert reads[0] == ("values", 256) and ("jet", 120, 2) in reads and len(reads) == 3
        reads.clear()

        root = PowerHandle(flat_exp, 0.5, order_cap=4)
        for dlt in deltas[:-1]:
            coarse = holder_seminorm(root, 2, dlt, region, samples=60)
            fine = holder_seminorm(root, 2, dlt, region, samples=120)
            assert rep.estimates[dlt].as_dict() == fine.as_dict()
            assert rep.stable[dlt] == (fine.seminorm <= coarse.seminorm * 1.5 + 1e-12)
        assert rep.stable[1.5] is False and 1.5 not in rep.estimates

    def test_unreadable_root_fails_every_exponent(self, reads):
        # sqrt(x^2) needs f > 0 for its derivatives; every exponent reads unstable
        rep = verify_root_regularity(handle("x^2"), s=0.8, M=1, delta_search=[0.3, 0.5],
                                     region=Ball((0.0,), 1.0), samples=50)
        assert rep.stable == {0.3: False, 0.5: False} and rep.estimates == {}


class TestRootHolderProbe:
    @pytest.mark.parametrize("src, label", [("x^2 + y^2", "caseI:0"), ("x^2 + sin(y)^2", "rem:17:caseI:0")])
    def test_two_reads_per_estimate(self, monkeypatch, src, label):
        rep = decompose(handle(src, ("x", "y")), DecomposeParams(
            delta=0.25, eta=0.3, region=Ball((0.0, 0.0), 0.05), estimate_holder=False))
        (grp,) = [g for g in rep.roots if g.label == label]
        counts = [root_holder_two_reads(grp, rep.deltas[-1], samples) for samples in (150, 960)]
        seen, depth = [], [0]

        def jet(self, X, _orig=RootGroup.jet):
            if not depth[0]:
                seen.append(len(X))
            depth[0] += 1
            try:
                return _orig(self, X)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(RootGroup, "jet", jet)
        for samples, want in zip((150, 960), counts):
            seen.clear()
            est = root_holder_estimate(grp, rep.deltas[-1], samples=samples)
            # the anchors that order the cells, then the later laps' starts and every pair end
            assert est.pair_count == want["pair_count"]
            assert seen == [want["anchor_rows"], want["roam_starts"] + want["pair_count"]]
        assert counts[0]["roam_starts"] < counts[1]["roam_starts"]


class TestSumOfSquares:
    """The sum of squares reads each batch once per partition level: one
    `chi_pairs` per level, one case-I fill per level and one `eval_many` per group."""

    def test_one_pass_per_level(self, monkeypatch):
        rep = decompose(handle("x^2 + y^2 + z^2", ("x", "y", "z")), DecomposeParams(
            delta=0.25, eta=0.3, region=Ball((0.0, 0.0, 0.0), 0.015), verify_points=500, estimate_holder=False))
        levels, todo = {}, [rep]
        while todo:
            sub = todo.pop()
            levels[sub.partition] = sub
            todo += [cd.sub_report for cd in sub.case_ii if cd.sub_report is not None and not cd.sub_report.empty]
        case_one = {p: lvl for lvl in levels.values() for g in lvl.roots for _, p in g.members
                    if isinstance(p, _CaseIPiece)}
        assert rep.recursion_depth == 2 and len(case_one) == len(levels) > 2

        log = []
        for owner, name in ((Partition, "chi_pairs"), (RootGroup, "eval_many")):
            def logged(self, X, *args, _orig=getattr(owner, name), **kwargs):
                log.append((self, len(X)))
                return _orig(self, X, *args, **kwargs)

            monkeypatch.setattr(owner, name, logged)

        def read(self, level, at, _orig=_CaseIPiece.read):
            if self not in level.reads:  # a fill of sqrt(f) that the level's groups share
                log.append((self, len(level.X)))
            return _orig(self, level, at)

        monkeypatch.setattr(_CaseIPiece, "read", read)
        pts = ball_points(rep.params.region, 600)
        rep.sum_of_squares(pts)
        parts = [p for p, _ in log if isinstance(p, Partition)]
        reads = [p for p, _ in log if isinstance(p, _CaseIPiece)]
        groups = [g for g, _ in log if isinstance(g, RootGroup)]
        assert log[0] == (rep.partition, len(pts))
        assert len(set(parts)) == len(parts) and {levels[p].recursion_depth for p in parts} == {0, 1, 2}
        assert len(set(reads)) == len(reads) and {case_one[p].partition for p in reads} <= set(parts)
        assert sorted(map(id, groups)) == sorted(id(g) for p in parts for g in levels[p].roots)
        # group by group, each case-I group reads the top level's case-I piece on its own
        top = [g for g in rep.roots if g.label.startswith("caseI:")]
        log.clear()
        for g in top:
            g.eval_many(pts)
        assert sum(isinstance(p, _CaseIPiece) for p, _ in log) == len(top) > 1


class TestControlDistance:
    @pytest.mark.parametrize("variant", ["full", "reduced"])
    def test_one_jet_on_a_reduced_profile(self, reads, monkeypatch, variant):
        f = handle("x^2 + 2*y^2 + z^2 + x*y*z", ("x", "y", "z"))
        cell = CoverCell(nu=0, center=(0.0, 0.0, 0.0), radius=0.01)
        F = reduced_profile(f, cell, [0.0, 0.0, 1.0], rho=1.0, delta=0.25).F
        F2 = reduced_profile(F, CoverCell(nu=0, center=(0.0, 0.0), radius=0.005), [0.0, 1.0], rho=1.0, delta=0.25).F
        p = ControlDistanceParams(0.25, variant)
        for G in (F, F2):
            X = ball_points(Ball((0.0,) * G.arity, 0.9 * G.domain.radius), 40)
            jets = []  # G's own jet calls; a profile of a profile reads its parent's inside them
            monkeypatch.setattr(G, "_jet_many",
                                lambda X, order, _jm=G._jet_many, _log=jets: _log.append(order) or _jm(X, order))
            reads.clear()
            rho = control_distance_values(G, X, p)
            assert jets == [4 if variant == "full" else 2] and reads == [("jet", 40, jets[0])]
            quartic = G.max_entry_values(X, 4) if variant == "full" else None
            want = np.max(control_terms(G.values(X), directional_hessian_plus_values(G, X), quartic, 0.25), axis=1)
            assert np.array_equal(rho, want)


class TestOddEvenControl:
    @pytest.mark.parametrize("src, variables, region", [
        ("x^2*y^2 + x^4 + 0.1", ("x", "y"), Ball((0.2, 0.1), 0.3)),
        ("exp(-1/x^2)", ("x",), Ball((0.5,), 0.4)),
    ])
    def test_one_jet_per_point_set(self, reads, src, variables, region):
        f = handle(src, variables)
        rep = verify_odd_even_control(f, region, samples=150)
        assert reads == [("jet", 150, 3), ("jet", 300, 4)]
        reads.clear()

        n = f.arity
        pts = ball_points(region, 150)
        wide = ball_points(Ball(center=region.center, radius=min(1.5 * region.radius, f.domain.radius)), 300)

        def axis(X, p, a):
            return f.derivative_values(X, [p * (j == a) for j in range(n)])

        M = 1.05 * max(1.0, float(np.max(np.abs(f.values(wide)))),
                       max(float(np.max(np.abs(axis(wide, 4, a)))) for a in range(n)))
        assert rep.rescale == M
        g = np.maximum(f.values(pts) / M, 0.0)
        for a in range(n):
            g2 = axis(pts, 2, a) / M
            rhs = (5.0 / 3.0) * np.sqrt(g)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.where(-g2 <= 0, 0.0, -g2 / np.where(rhs > 0, rhs, np.inf))
            assert rep.worst_ratios[f"axis{a}.second_lower"] == float(np.max(ratio))


class TestFlatness:
    @pytest.mark.parametrize("src, variables, check_derivatives", [
        ("t^4", ("t",), True), ("exp(-1/t^2)", ("t",), True), ("x^2*y^6 + y^8", ("x", "y"), True),
        ("x^3 + y^2", ("x", "y"), False),
    ])
    def test_one_batch_for_every_t(self, reads, src, variables, check_derivatives):
        f = handle(src, variables)
        rep = is_flat(f, n_max=8, check_derivatives=check_derivatives)
        t_grid = [2.0 ** (-j) for j in range(1, 11)]
        dirs = np.array([[1.0], [-1.0]]) if f.arity == 1 else sphere_points(4, f.arity)
        rows = len(t_grid) * len(dirs)
        assert reads == [("values", rows)] + [("gradient_values", rows)] * check_derivatives
        reads.clear()

        def failures(value_fn):
            vals = np.array([np.max(np.abs(value_fn(t * dirs))) for t in t_grid])
            out = []
            for N in range(1, 9):
                seq = vals / np.array(t_grid) ** N
                for i in range(1, len(seq)):
                    if seq[i] > seq[i - 1] * (1 + 1e-9) + 1e-14:
                        out.append({"N": N, "t": t_grid[i], "value": float(seq[i])})
                        break
            return out

        expected = failures(f.values)
        if check_derivatives:
            for a in range(f.arity):
                alpha = tuple(int(j == a) for j in range(f.arity))
                expected += [{"derivative_axis": a, **fl}
                             for fl in failures(lambda P, alpha=alpha: f.derivative_values(P, alpha))]
        assert rep.failures == expected
