import math
from fractions import Fraction

import numpy as np
import pytest

import sosreg.cover as cover
from sosreg.calculus import FunctionHandle, jet_line_series, max_entries, multiindices
from sosreg.cover import ControlDistanceParams, CoverCell, build_cover, bump_jet, bump_profile
from sosreg.errors import BoundaryRootError, ClassificationError, ConvergenceError, DomainError, QuadratureError
from sosreg.exprlang import parse_expression
from sosreg.geometry import Ball, ball_points
from sosreg.reporting import to_jsonable
from sosreg.sos import (
    DecomposeParams,
    MinimizerProfile,
    check_differential_inequalities,
    classify_cells,
    decompose,
    delta_sequence,
    implicit_second_derivative,
    RootGroup,
    _ConstPiece,
    _RotatedFrame,
    _fiber_factor,
    reduced_profile,
    root_holder_estimate,
    rotation_with_last_axis,
    track_implicit_root,
    verify_decomposition,
)

from oracles import fd_callable_partial, fd_handle, fd_stencil, profile_jet_by_tensors, root_holder_two_reads


def handle(src, variables=("x",), radius=4.0):
    return FunctionHandle.from_expr(
        parse_expression(src), variables, domain=Ball((0.0,) * len(variables), radius)
    )


class TestDeltaSequence:
    def test_single_level(self):
        assert delta_sequence(0.3, 0.2, 1) == [0.3]

    def test_hand_solved_step(self):
        # u = 0.25 * (0.5 / 1.5) = 1/12 and 2u/(1-u) = 2/11
        seq = delta_sequence(0.5, 0.25, 2)
        assert seq[1] == pytest.approx(2.0 / 11.0, abs=1e-15)

    def test_strictly_decreasing(self):
        seq = delta_sequence(0.45, 0.4, 6)
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_exact_rational_recursion(self):
        # float recursion against exact fractions
        d, eta = Fraction(2, 5), Fraction(3, 10)
        exact = [d]
        for _ in range(4):
            u = eta * exact[-1] / (1 + exact[-1])
            exact.append(2 * u / (1 - u))
        seq = delta_sequence(0.4, 0.3, 5)
        for a, b in zip(seq, exact):
            assert a == pytest.approx(float(b), abs=1e-14)

    def test_crude_sandwich(self):
        # (4/5)(5 eta/3)^(n-1) delta <= delta_(n-1) <= (5/4)(2 eta)^(n-1) delta
        for delta, eta, n in [(0.4, 0.3, 5), (0.25, 0.2, 4), (0.45, 0.45, 6)]:
            seq = delta_sequence(delta, eta, n)
            lo = 0.8 * (5.0 * eta / 3.0) ** (n - 1) * delta
            hi = 1.25 * (2.0 * eta) ** (n - 1) * delta
            assert lo <= seq[-1] <= hi

    def test_ratio_sandwich_in_s_variables(self):
        delta, eta, n = 0.4, 0.3, 5
        seq = delta_sequence(delta, eta, n)
        s = [d / (2.0 + d) for d in seq]
        assert (5.0 * eta / 3.0) ** (n - 1) <= s[-1] / s[0] <= (2.0 * eta) ** (n - 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            delta_sequence(0.6, 0.3, 2)
        with pytest.raises(DomainError):
            delta_sequence(0.3, 0.3, 0)


class TestDifferentialInequalities:
    def test_positive_constant_passes_with_zero(self):
        rep = check_differential_inequalities(handle("3"), 0.25, 0.3, Ball((0.0,), 1.0))
        assert rep.passed
        assert rep.quartic_constant == 0.0
        assert rep.hessian_constant == 0.0

    def test_flat_profile_passes(self, flat_exp_sq):
        rep = check_differential_inequalities(
            flat_exp_sq, 0.1, 0.25, Ball((0.525,), 0.465), samples=400
        )
        assert rep.passed

    def test_parabola_fails_hessian_bound(self):
        # f'' = 2 while f^eta -> 0 near the origin
        rep = check_differential_inequalities(handle("x^2"), 0.25, 0.5, Ball((0.0,), 1.0))
        assert not rep.passed

    def test_no_samples_does_not_pass(self):
        # an empty sample gives the constants 0, which are stable, but measures nothing
        rep = check_differential_inequalities(handle("3"), 0.25, 0.3, Ball((0.0,), 1.0), samples=0)
        assert rep.samples == 0 and rep.quartic_stable and rep.hessian_stable and not rep.passed


class TestImplicitFunctionHelpers:
    def test_tracked_root_residual(self):
        H = handle("x^3 + s*x - s^2", ("s", "x"))
        root = track_implicit_root(H, [0.5], 0.0, 1.0)
        assert abs(H.values((0.5, root))[0]) < 1e-12

    def test_no_sign_change(self):
        H = handle("x^2 + 1 + 0*s", ("s", "x"))
        with pytest.raises(BoundaryRootError):
            track_implicit_root(H, [0.0], -1.0, 1.0)

    def test_non_convergence_raises(self):
        # no float y has y^2 - 2 == 0, so |H| <= 0 is never met
        H = handle("x^2 - 2 + 0*s", ("s", "x"))
        with pytest.raises(ConvergenceError, match=r"x'=\(0\.0,\) on \[1\.0, 2\.0\]: last \|H\| = "):
            track_implicit_root(H, [0.0], 1.0, 2.0, tol=0.0)

    @pytest.mark.parametrize(
        "src,xi0,bracket",
        [
            ("x^3 + s*x - s^2", 0.5, (0.0, 1.0)),
            ("sin(x) + s^2*x - 0.5*s", 0.7, (0.0, 1.0)),
        ],
    )
    def test_second_derivative_formula_matches_fd(self, src, xi0, bracket):
        H = handle(src, ("s", "x"))
        root = track_implicit_root(H, [xi0], *bracket)
        d2 = implicit_second_derivative(H, (xi0, root))[0, 0]
        h = 1e-3
        roots = [track_implicit_root(H, [xi0 + k * h], *bracket) for k in (-2, -1, 0, 1, 2)]
        fd = (-roots[0] + 16 * roots[1] - 30 * roots[2] + 16 * roots[3] - roots[4]) / (12 * h * h)
        assert d2 == pytest.approx(fd, abs=1e-6)

    def test_falling_function_and_reversed_bracket(self):
        # H = s^2 - x falls across the bracket, which is given high end first
        H = handle("s^2 - x", ("s", "x"))
        assert track_implicit_root(H, [0.3], 1.0, -1.0) == pytest.approx(0.09, abs=1e-13)

    def test_explicit_quadratic_zero_set(self):
        # H = y - s^2 has implicit Hessian 2
        H = handle("x - s^2", ("s", "x"))
        root = track_implicit_root(H, [0.3], -1.0, 1.0)
        assert root == pytest.approx(0.09)
        assert implicit_second_derivative(H, (0.3, 0.09))[0, 0] == pytest.approx(2.0)


def test_rotated_frame_to_local_inverts_to_global():
    R = rotation_with_last_axis(np.array([0.48, -0.6, 0.64]))
    frame = _RotatedFrame(handle("x^2 + y^2 + z^2", ("x", "y", "z")), np.array([0.1, -0.2, 0.3]), R)
    V = np.random.default_rng(3).uniform(-1.0, 1.0, (50, 3))
    Xi, Y = frame.to_local(frame.to_global(V))
    assert Xi.shape == (50, 2) and Y.shape == (50,)
    assert np.max(np.abs(np.column_stack([Xi, Y]) - V)) <= 1e-15


class TestClassifyCell:
    def test_constant_cell_case_one(self):
        cell = CoverCell(nu=0, center=(0.2,), radius=0.005)
        (case_one,), *_ = classify_cells(handle("1"), [cell], 0.25, (1 / 200.0) ** 2 / 8)
        assert case_one

    def test_parabola_origin_case_two_with_axis(self):
        cell = CoverCell(nu=0, center=(0.0, 0.0), radius=0.006)
        f = handle("x^2 + 0.25*y^2", ("x", "y"))
        (case_one,), (rho,), (axis,) = classify_cells(f, [cell], 0.25, (1 / 200.0) ** 2 / 8)
        assert not case_one
        # top eigendirection is the x axis
        assert abs(axis[0]) == pytest.approx(1.0)
        assert rho == pytest.approx(2.0 ** (1.0 / 2.5))

    def test_quartic_dominant_signals_classification_error(self):
        # un-normalized x^4 + tiny constant: the fourth-derivative term
        # dominates rho and the Hessian vanishes at the center
        cell = CoverCell(nu=0, center=(0.0,), radius=0.005)
        f = handle("x^4/12 + 0*x")
        with pytest.raises(ClassificationError):
            classify_cells(f, [cell], 0.25, (1 / 200.0) ** 2 / 8)

    def test_shifted_quartic_case_one_after_normalization(self):
        # f = x^4 + 1 at a cell centered at 0 is case I once the fourth
        # derivative is normalized below the value term
        f = handle("x^4 + 1")
        delta = 0.25
        pts = np.linspace(-1, 1, 101).reshape(-1, 1)
        c4 = float(np.max(f.max_entry_values(pts, 4) / f.values(pts) ** (delta / (2 + delta))))
        g = f.rescaled(c4 ** (-(2 + delta) / 2.0))
        cell = CoverCell(nu=0, center=(0.0,), radius=0.005)
        (case_one,), *_ = classify_cells(g, [cell], delta, (1 / 200.0) ** 2 / 8)
        assert case_one


def _profile(f, cell, axis, rho, newton_tol=1e-12):
    """The fiber minimizer of a cell along `axis`, as `reduced_profile` builds it for delta = 0.25."""
    frame = _RotatedFrame(f, np.asarray(cell.center), rotation_with_last_axis(np.asarray(axis, dtype=float)))
    return MinimizerProfile(frame, halfwidth=cell.radius, g_tol=newton_tol * rho**2.5, cell_nu=cell.nu)


class TestMinimizerAndProfile:
    def test_parabola_minimizer_at_zero(self):
        f = handle("x^2")
        cell = CoverCell(nu=0, center=(0.0,), radius=0.006)
        prof = _profile(f, cell, [1.0], rho=2 ** (1 / 2.5))
        assert prof.solve_many(np.zeros((1, 0)))[0] == pytest.approx(0.0, abs=1e-14)

    def test_affine_minimizer_of_shifted_quadratic(self):
        # f(xi, x) = xi^2 + (x - xi)^2 has X(xi) = xi
        f = handle("s^2 + (x - s)^2", ("s", "x"))
        cell = CoverCell(nu=0, center=(0.0, 0.0), radius=0.01)
        prof = _profile(f, cell, [0.0, 1.0], rho=2 ** (1 / 2.5))
        for xi in (-0.005, 0.0, 0.004):
            assert prof.solve_many([[xi]])[0] == pytest.approx(xi, abs=1e-12)

    def test_newton_non_convergence_is_counted(self):
        # with g_tol = 0 the iterates stall one rounding error away from the root
        f = handle("s^2 + (x - s)^2 + s*x^2", ("s", "x"))
        cell = CoverCell(nu=0, center=(0.0, 0.0), radius=0.01)
        xi = np.linspace(-0.007, 0.007, 9)[:, None]
        for tol in (1e-12, 0.0):
            prof = _profile(f, cell, [0.0, 1.0], rho=2 ** (1 / 2.5), newton_tol=tol)
            y = prof.solve_many(xi)
            assert np.max(np.abs(y - xi.ravel() / (1 + xi.ravel()))) <= 1e-15
            assert (prof.unconverged > 0) == (tol == 0.0)
        stalled = prof.unconverged
        prof.solve_many(xi)
        assert prof.unconverged == 2 * stalled  # a running count over solves

    def test_newton_stops_when_steps_cannot_move(self):
        # with g_tol = 0 every point stays above tolerance, but a Newton step
        # that rounds to its iterate ends the solve instead of running max_iter
        f = handle("s^2 + (x - s)^2 + s*x^2", ("s", "x"))
        cell = CoverCell(nu=0, center=(0.0, 0.0), radius=0.01)
        xi = np.linspace(-0.007, 0.007, 9)[:, None]
        prof = _profile(f, cell, [0.0, 1.0], rho=2 ** (1 / 2.5), newton_tol=0.0)
        calls = []
        fiber = prof.frame.fiber
        prof.frame.fiber = lambda V: calls.append(len(V)) or fiber(V)
        y = prof.solve_many(xi)
        assert np.max(np.abs(y - xi.ravel() / (1 + xi.ravel()))) <= 1e-15
        assert prof.unconverged > 0
        assert len(calls) <= 20

    def test_repeated_batch_is_not_solved_again(self):
        f = handle("s^2 + (x - s)^2 + s*x^2", ("s", "x"))
        cell = CoverCell(nu=0, center=(0.0, 0.0), radius=0.01)
        prof = _profile(f, cell, [0.0, 1.0], rho=2 ** (1 / 2.5))
        calls = []
        fiber = prof.frame.fiber
        prof.frame.fiber = lambda V: calls.append(len(V)) or fiber(V)
        batches = [np.linspace(-0.007, 0.007, 9 + i)[:, None] for i in range(6)]
        solved = [prof.solve_many(xi) for xi in batches]
        assert MinimizerProfile.memo_size == 4 and len(prof._memo) == 4
        before = len(calls)
        for xi, y in zip(batches[2:], solved[2:]):
            # an equal batch, here a strided view, is a hit; the caller gets its own copy
            again = prof.solve_many(np.repeat(xi, 2, axis=1)[:, :1])
            assert np.array_equal(again, y)
            again[:] = 1.0
            assert np.array_equal(prof.solve_many(xi), y)
        assert len(calls) == before
        # the two oldest batches were dropped and are solved again, to the same values
        assert np.array_equal(prof.solve_many(batches[0]), solved[0]) and len(calls) > before
        assert len(prof._memo) == 4

    def test_empty_cross_section_is_solved_once(self):
        # with g_tol = 0 the one problem of a 1-D cell stalls, and each row counts it
        f = handle("(x - 0.001)^2 + x^3")
        cell = CoverCell(nu=0, center=(0.0,), radius=0.006)
        runs = []
        for rows in (1, 7):
            prof = _profile(f, cell, [1.0], rho=2 ** (1 / 2.5), newton_tol=0.0)
            calls = []
            fiber = prof.frame.fiber
            prof.frame.fiber = lambda V: calls.append(V.copy()) or fiber(V)
            runs.append((prof.solve_many(np.zeros((rows, 0))), calls, prof.unconverged))
        (y1, calls1, stalled1), (y7, calls7, stalled7) = runs
        assert len(calls1) == len(calls7) and all(np.array_equal(a, b) for a, b in zip(calls1, calls7))
        assert np.array_equal(y7, np.full(7, y1[0]))
        assert stalled1 > 0 and stalled7 == 7 * stalled1

    def test_decompose_warns_per_unconverged_cell(self, monkeypatch):
        # no Newton step at all: the case-II cell off the origin keeps y = 0
        monkeypatch.setattr(MinimizerProfile, "max_iter", 0)
        rep = decompose(handle("x^2"), DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0003,), 1.0),
                                                       verify_points=400, estimate_holder=False))
        (cd,) = rep.case_ii
        assert cd.split.minimizer.unconverged > 0
        assert any(w.startswith(f"cell {cd.cell.nu}: {cd.split.minimizer.unconverged} fiber Newton solves")
                   for w in rep.warnings)

    def test_boundary_root_error(self):
        # strictly increasing fiber: the minimum sits on the bracket edge
        f = handle("x + 10 + 0*s", ("s", "x"))
        cell = CoverCell(nu=0, center=(0.0, 0.0), radius=0.01)
        prof = _profile(f, cell, [0.0, 1.0], rho=1.0)
        with pytest.raises(BoundaryRootError):
            prof.solve_many([[0.0]])

    def test_reduced_profile_parabola(self):
        # f = x^2: F = 0, H == 1, identity exact
        f = handle("x^2")
        cell = CoverCell(nu=0, center=(0.0,), radius=0.006)
        rho = 2 ** (1 / 2.5)
        split = reduced_profile(f, cell, [1.0], rho=rho, delta=0.25)
        assert split.F == 0.0
        assert split.h_ok
        ys = np.linspace(-0.005, 0.005, 11)
        vals = split.H(np.zeros((11, 0)), ys)
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_reduced_profile_shifted_quadratic(self):
        # f(xi, x) = xi^2 + (x - xi)^2: F(xi) = xi^2, H == 1
        f = handle("s^2 + (x - s)^2", ("s", "x"))
        cell = CoverCell(nu=0, center=(0.0, 0.0), radius=0.01)
        rho = 2 ** (1 / 2.5)
        split = reduced_profile(f, cell, [0.0, 1.0], rho=rho, delta=0.25)
        F = split.F
        xis = np.linspace(-0.007, 0.007, 9).reshape(-1, 1)
        assert np.allclose(F.values(xis), xis.ravel() ** 2, atol=1e-12)
        assert np.allclose(split.H(xis, np.linspace(-0.007, 0.007, 9)), 1.0, atol=1e-10)
        # implicit-function derivatives of F
        assert np.allclose(F.derivative_values(xis, (2,)), 2.0, atol=1e-9)


def _richardson(F, X, alpha, h):
    """Reference derivative: Richardson extrapolation (h, h/2) of the nested
    4th-order central stencils on F.values."""

    def fd(step):
        obs, wts = fd_stencil(alpha, lambda p: step)
        pts = (X[:, None, :] + obs[None, :, :]).reshape(-1, F.arity)
        return F.values(pts).reshape(len(X), -1) @ wts

    return (16.0 * fd(h / 2.0) - fd(h)) / 15.0


def _check_against_richardson(F, X, h):
    J = F.jet(X, 4)
    assert np.array_equal(J[0], F.values(X))
    for order in (1, 2, 3, 4):
        for alpha in multiindices(F.arity, order):
            axes = tuple(i for i, p in enumerate(alpha) for _ in range(p))
            jet = J[order][(slice(None),) + axes]
            assert np.array_equal(jet, F.derivative_values(X, alpha))
            err = np.abs(jet - _richardson(F, X, alpha, h))
            if order <= 2:
                assert np.max(err) <= 1e-9, alpha
            else:
                assert np.max(err / (1.0 + np.abs(jet))) <= 1e-5, alpha


def _level_profile(f, center, axis, radius):
    cell = CoverCell(nu=0, center=center, radius=radius)
    split = reduced_profile(f, cell, axis, rho=1.0, delta=0.25)
    return split.F, split.minimizer


class TestJets:
    def test_expression_jet_is_derivative_values(self):
        f = handle("exp(x*y) + x^3*z - sin(y*z) + x*y*z^2", ("x", "y", "z"))
        X = ball_points(Ball((0.1, -0.2, 0.3), 0.5), 40)
        J = f.jet(X, 4)
        assert np.array_equal(J[0], f.values(X))
        for order in (1, 2, 3, 4):
            assert J[order].shape == (40,) + (3,) * order
            for idx in np.ndindex(*(3,) * order):
                alpha = tuple(int(c) for c in np.bincount(idx, minlength=3))
                assert np.array_equal(J[order][(slice(None),) + idx], f.derivative_values(X, alpha))
        assert np.array_equal(f.gradient_values(X), J[1])
        assert np.array_equal(f.hessian_values(X), J[2])
        assert np.array_equal(f.max_entry_values(X, 4), np.max(np.abs(J[4]), axis=(1, 2, 3, 4)))

    def test_level_one_profile_with_cross_terms(self):
        # X(s) = s/(1+s) and F(s) = s^2 + s^3/(1+s) = 2s^2 - s + 1 - 1/(1+s)
        f = handle("s^2 + (x - s)^2 + s*x^2", ("s", "x"))
        F, _ = _level_profile(f, (0.0, 0.0), (0.0, 1.0), 0.01)
        s = np.linspace(-0.007, 0.007, 5)
        _check_against_richardson(F, s[:, None], 0.01 / 16.0)
        exact = [2 * s**2 - s + 1 - 1 / (1 + s), 4 * s - 1 + (1 + s) ** -2.0, 4 - 2 * (1 + s) ** -3.0,
                 6 * (1 + s) ** -4.0, -24 * (1 + s) ** -5.0]
        for got, want in zip(F.jet(s[:, None], 4), exact):
            assert np.allclose(got.ravel(), want, rtol=1e-12, atol=1e-15)

    def test_level_two_profile_of_isotropic_3d(self):
        f = handle("x^2 + y^2 + z^2", ("x", "y", "z"))
        axis = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
        F1, _ = _level_profile(f, (0.0, 0.0, 0.0), axis, 0.004)
        F2, p2 = _level_profile(F1, (0.0005, 0.0003), (0.6, 0.8), 0.002)
        X = np.linspace(-0.0005, 0.0005, 5)[:, None]
        _check_against_richardson(F2, X, 2.5e-4)
        # F1 = |xi|^2, so F2(eta) = (c . u + eta)^2 with c the level-2 center, u its cross-section axis
        _, d1, d2, d3, d4 = F2.jet(X, 4)
        cu = np.dot((0.0005, 0.0003), p2.frame.R[:, 0])
        assert np.allclose(d1.ravel(), 2 * (cu + X.ravel()), rtol=1e-9, atol=1e-15)
        assert np.allclose(d2, 2.0, atol=1e-12)
        assert np.max(np.abs(d3)) <= 1e-12 and np.max(np.abs(d4)) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_fiber_reads_build_no_tensors(self, scale, monkeypatch):
        # the Newton solves and H read f along the fiber by line series alone
        f = handle("x^2 + y^2 + z^2 + x*y*z", ("x", "y", "z"))
        f = f.rescaled(scale) if scale != 1.0 else f
        split = reduced_profile(f, CoverCell(nu=0, center=(0.0, 0.0, 0.0), radius=0.004), [0.6, 0.0, 0.8],
                                rho=1.0, delta=0.25)
        orders = []
        tensor = FunctionHandle.derivative_tensor
        monkeypatch.setattr(FunctionHandle, "derivative_tensor",
                            lambda self, X, order: orders.append(order) or tensor(self, X, order))
        Xi = ball_points(Ball((0.0, 0.0), 0.003), 20)
        Y = np.linspace(-0.003, 0.003, 20)
        X = split.minimizer.solve_many(Xi)
        h = split.H(Xi, Y)
        assert orders == []
        assert np.all(np.abs(split.frame.fiber(np.column_stack([Xi, X]))[0]) <= 1e-12) and np.all(h > 0.0)
        split.F.jet(Xi, 4)  # and so does a full jet of the reduced profile
        assert orders == []

    def test_one_parent_batch_per_newton_iteration(self):
        # level 1 along z leaves F1(s, x) = s^2 + (x - s)^2 + s x^2, whose level-2 minimizer X(s) = s/(1+s) moves
        f = handle("s^2 + (x - s)^2 + s*x^2 + z^2", ("s", "x", "z"))
        F1, p1 = _level_profile(f, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.004)
        p2 = _profile(F1, CoverCell(nu=1, center=(0.0, 0.0), radius=0.002), [0.0, 1.0], rho=1.0)
        parent, fiber_calls = [], []
        solve_many, fiber = p1.solve_many, p2.frame.fiber
        p1.solve_many = lambda Xi: parent.append(len(Xi)) or solve_many(Xi)
        p2.frame.fiber = lambda V: fiber_calls.append(len(V)) or fiber(V)
        N = 7
        s = np.linspace(-0.001, 0.001, N)
        assert np.max(np.abs(p2.solve_many(s[:, None]) - s / (1 + s))) <= 1e-15
        assert parent == fiber_calls
        # the center's solve (bracket ends and y = 0, where f_x = 0), then the batch's bracket ends
        # and start at the center's root, then one batch of the unconverged points per iteration
        assert parent[:2] == [3, 3 * N]
        assert 0 < len(parent[2:]) and all(a >= b for a, b in zip([N] + parent[2:], parent[2:]))

    def test_constant_minimizer_solves_in_the_first_read(self):
        # every fiber minimizer of x^2 + y^2 + z^2 is constant over its cross-section, so every
        # solve after a profile's center solve stops at the start its first fiber read checks
        stack, solves = [], []
        newton, fiber = MinimizerProfile._newton, _RotatedFrame.fiber

        def counted_newton(self, Xi):
            solves.append([self, 0, bool(stack) and stack[-1][0] is self])  # profile, fiber reads, center?
            stack.append(solves[-1])
            try:
                return newton(self, Xi)
            finally:
                stack.pop()

        def counted_fiber(self, V):
            if stack and stack[-1][0].frame is self:
                stack[-1][1] += 1
            return fiber(self, V)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(MinimizerProfile, "_newton", counted_newton)
            mp.setattr(_RotatedFrame, "fiber", counted_fiber)
            rep = decompose(handle("x^2 + y^2 + z^2", ("x", "y", "z")),
                            DecomposeParams(delta=0.25, eta=0.3, region=Ball((3e-4, -2e-4, 1e-4), 0.015),
                                            estimate_holder=False))
        assert rep.recursion_depth == 2
        # a 1-D cell's one problem is its center's: it has no center solve of its own
        solves = [s for s in solves if s[0].frame.n > 1]
        centers = [reads for _, reads, center in solves if center]
        assert len(centers) == len({id(m) for m, _, _ in solves}) > 1 and max(centers) > 1  # off-axis centers iterate
        assert [reads for _, reads, center in solves if not center] == [1] * (len(solves) - len(centers))


def _cubic_3d(scale=1.0):
    # not isotropic: the graph's cross derivative f_uy = u . D^2 f e is the xyz term's, not 0
    f = handle("x^2 + y^2 + z^2 + x*y*z", ("x", "y", "z"))
    return f.rescaled(scale) if scale != 1.0 else f


def _cubic_level_one(scale=1.0):
    axis = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
    return reduced_profile(_cubic_3d(scale), CoverCell(nu=0, center=(0.0, 0.0, 0.0), radius=0.3), axis,
                           rho=1.0, delta=0.25)


def _cubic_level_two(level_one=None):
    F1 = (level_one or _cubic_level_one()).F
    return reduced_profile(F1, CoverCell(nu=1, center=(0.05, 0.03), radius=0.1), [0.6, 0.8], rho=1.0, delta=0.25)


def _cubic_4d_levels():
    # the splits of a 4-D cubic down to its 1-D level-3 profile, outermost first
    f = handle("x^2 + y^2 + z^2 + w^2 + x*y*z - y*z*w", ("x", "y", "z", "w"))
    axis = np.array([0.2, 0.4, 0.5, 0.7]) / np.linalg.norm([0.2, 0.4, 0.5, 0.7])
    splits = [reduced_profile(f, CoverCell(nu=0, center=(0.0,) * 4, radius=0.3), axis, rho=1.0, delta=0.25)]
    for nu, center, radius, axis in ((1, (0.05, 0.03, -0.02), 0.1, [0.48, 0.6, 0.64]),
                                     (2, (0.02, 0.01), 0.05, [0.8, 0.6])):
        cell = CoverCell(nu=nu, center=center, radius=radius)
        splits.append(reduced_profile(splits[-1].F, cell, axis, rho=1.0, delta=0.25))
    return splits


class TestProfileLineSeries:
    """A reduced profile's own line series against the contraction of its jet."""

    @staticmethod
    def _check(F, X, directions):
        for degree in range(5):
            got = F.line_series(X, directions, degree)
            want = jet_line_series(F.jet(X, degree), np.asarray(directions, dtype=float))
            scale = np.max([np.abs(w).reshape(-1, len(X)).max(axis=0) for w in want], axis=0)
            assert len(got) == degree + 1
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.all(np.abs(g - w) <= 1e-12 * scale)
        if np.ndim(directions) == 2:  # the same directions given to every point
            per_point = np.repeat(np.asarray(directions, dtype=float)[:, None], len(X), axis=1)
            for g, w in zip(F.line_series(X, per_point, 4), F.line_series(X, directions, 4)):
                assert np.all(np.abs(g - w) <= 1e-12 * scale)

    @staticmethod
    def _directions(k):
        rng = np.random.default_rng(7)
        return rng.normal(size=(4, k))

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_level_one(self, scale):
        split = _cubic_level_one(scale)
        Xi = ball_points(Ball((0.0, 0.0), 0.2), 30)
        R = self._directions(2)
        self._check(split.F, Xi, R)
        for r in R:
            self._check(split.F, Xi, r)
        # the cross term is live: D^2 F differs from the xi block of the rotated Hessian
        V = np.column_stack([Xi, split.minimizer.solve_many(Xi)])
        assert np.max(np.abs(split.F.jet(Xi, 2)[2] - split.frame.jet(V, 2)[2][:, :2, :2])) > 1e-3 * scale

    def test_level_two(self):
        split = _cubic_level_two()
        Xi = np.linspace(-0.08, 0.08, 9)[:, None]
        R = np.array([[1.0], [-0.5], [2.0]])
        self._check(split.F, Xi, R)
        for r in R:
            self._check(split.F, Xi, r)

    def test_jets_match_the_tensor_oracle(self):
        # levels 1 and 2 of the 3-D cubic and levels 1 to 3 of a 4-D cubic, against the
        # parent's full tensors rotated and composed through every level
        one, levels = _cubic_level_one(), _cubic_4d_levels()
        chains = [[one], [one, _cubic_level_two(one)]] + [levels[: i + 1] for i in range(3)]
        for splits in chains:
            k = splits[-1].frame.n - 1
            Xi = ball_points(Ball((0.0,) * k, 0.8 * splits[-1].cell.radius), 12)
            got, want = splits[-1].F.jet(Xi, 4), profile_jet_by_tensors(splits, Xi, 4)
            scale = np.max([max_entries(w) if m else np.abs(w) for m, w in enumerate(want)], axis=0)
            for m, (g, w) in enumerate(zip(got, want)):
                assert g.shape == w.shape
                assert np.all(np.abs(g - w) <= 1e-12 * scale[(slice(None),) + (None,) * m]), (len(splits), m)

    def test_level_two_split_reads_no_tensors(self, monkeypatch):
        tensors, rotated = [], []
        tensor, frame_jet = FunctionHandle.derivative_tensor, _RotatedFrame.jet
        monkeypatch.setattr(FunctionHandle, "derivative_tensor",
                            lambda self, X, order: tensors.append(order) or tensor(self, X, order))
        monkeypatch.setattr(_RotatedFrame, "jet",
                            lambda self, V, order: rotated.append(order) or frame_jet(self, V, order))
        split = _cubic_level_two()
        Xi = np.linspace(-0.07, 0.07, 11)[:, None]
        Y = np.linspace(-0.07, 0.07, 11)
        X = split.minimizer.solve_many(Xi)
        h = split.H(Xi, Y)
        assert tensors == [] and rotated == []
        assert np.all(np.abs(split.frame.fiber(np.column_stack([Xi, X]))[0]) <= split.minimizer.g_tol)
        assert np.all(h > 0.0)
        split.F.jet(Xi, 4)  # nor does a full jet of the level-2 profile, at any level
        assert tensors == [] and rotated == []


class TestDecompose:
    def test_constant_single_level(self):
        f = handle("4")
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 1.0),
                                           verify_points=800, estimate_holder=False))
        assert rep.case_counts["II"] == 0
        assert rep.residual_sup <= 1e-12
        assert rep.inequalities.passed

    def test_parabola_1d(self):
        f = handle("x^2")
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 1.0),
                                           verify_points=1200, estimate_holder=False))
        assert rep.residual_sup <= 1e-8
        assert rep.identity_error <= 1e-10
        assert rep.case_counts["II"] >= 1

    def test_isotropic_2d_with_recursion(self):
        f = handle("x^2 + y^2", ("x", "y"))
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0, 0.0), 0.1),
                                           verify_points=1200, estimate_holder=False))
        assert rep.residual_sup <= 1e-6 * (1 + 0.02)
        assert rep.identity_error <= 1e-10
        assert rep.recursion_depth == 1
        assert rep.case_counts["II"] >= 1

    def test_cover_takes_the_boundary_probe_prefix(self, monkeypatch):
        # decompose reads its boundary probe once; the cover's radius probe is its prefix
        f = handle("x^2 + y^2", ("x", "y"))  # no normalization: the cover is built on f itself
        region = Ball((0.01, 0.0), 0.1)
        alone = build_cover(f, ControlDistanceParams(delta=0.25, variant="full"), region)
        reads = []
        read = cover.control_distance_values
        monkeypatch.setattr(cover, "control_distance_values", lambda g, X, p: reads.append(len(X)) or read(g, X, p))
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=region, verify_points=1200,
                                           estimate_holder=False))
        assert rep.value_scale == 1.0 and len(reads) >= 2  # the top level's candidates and a sub-level's
        assert cover.RADIUS_PROBE not in reads and cover._read_probes == {}
        assert [(c.center, c.radius) for c in rep.cells] == [(c.center, c.radius) for c in alone]

    def test_empty_cover_below_floor(self):
        f = handle("0")
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 1.0),
                                           estimate_holder=False))
        assert rep.empty
        assert rep.roots == []

    def test_sum_of_squares_equals_f_pointwise(self):
        f = handle("x^2")
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 1.0),
                                           verify_points=600, estimate_holder=False))
        pts = np.linspace(-0.9, 0.9, 101).reshape(-1, 1)
        recon = rep.sum_of_squares(pts)
        assert np.max(np.abs(recon - pts.ravel() ** 2)) < 1e-10

    def test_group_supports_disjoint_within_group(self):
        f = handle("x^2")
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 1.0),
                                           verify_points=400, estimate_holder=False))
        pts = np.linspace(-0.99, 0.99, 500).reshape(-1, 1)
        pairs = rep.partition.chi_pairs(pts)
        for grp in rep.roots:
            # a group is a value: its members a tuple sorted by cell, its cells those cells
            assert isinstance(grp.members, tuple)
            assert list(grp.cells) == [nu for nu, _ in grp.members] == sorted({nu for nu, _ in grp.members})
            active = np.zeros(len(pts), dtype=int)
            for nu, piece in grp.members:
                idxs, chi = pairs[nu]
                active[idxs[chi > 0]] += 1
            assert np.max(active) <= 1, grp.label

    def test_root_derivative_size_bound(self):
        # |D^a g(x)| <= C rho(x)^(2 + d - |a|) for |a| <= 2 empirically
        f = handle("x^2")
        params = DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 1.0),
                                 verify_points=400, estimate_holder=False)
        rep = decompose(f, params)
        from sosreg.cover import control_distance_values

        pts = np.linspace(-0.9, 0.9, 200).reshape(-1, 1)
        rho = control_distance_values(f, pts, ControlDistanceParams(0.25))
        for grp in rep.roots[:6]:
            gh = fd_handle(grp.eval_many, arity=1, vectorized=True, domain=params.region)
            for order in (0, 1, 2):
                vals = np.abs(gh.derivative_values(pts, (order,)))
                # bump derivatives contribute 1/r = 1/(s rho) per order, so the
                # cell-independent constant carries a factor s^(-order)
                bound = rho ** (2.0 + 0.25 - order) * params.s ** (-order)
                ratio = vals / bound
                assert np.max(ratio) < 10.0, (grp.label, order, float(np.max(ratio)))

    def test_isotropic_3d_recursion_depth_two(self):
        f = handle("x^2 + y^2 + z^2", ("x", "y", "z"))
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0, 0.0, 0.0), 0.015),
                                           estimate_holder=False))
        assert rep.recursion_depth == 2
        assert rep.identity_error <= 1e-10
        assert rep.passed
        assert not rep.warnings

    @pytest.mark.parametrize("src, radius", [
        ("x^2", 0.05),  # translation-invariant fiber: the remainder is exactly zero
        ("x^2 + y^4", 0.01),  # degenerate zero set
    ])
    def test_case_two_cells_2d(self, src, radius):
        f = handle(src, ("x", "y"))
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0, 0.0), radius),
                                           estimate_holder=False))
        assert rep.identity_error <= 1e-10
        assert rep.passed
        assert rep.case_counts["II"] >= 1
        assert all(w.endswith(": remainder profile entirely below the floor; dropped") for w in rep.warnings)

    def test_strict_mode_raises(self):
        f = handle("x^2")
        with pytest.raises(Exception):
            decompose(f, DecomposeParams(delta=0.25, eta=0.45, region=Ball((0.0,), 1.0),
                                         strict_inequalities=True, estimate_holder=False))

    def test_case_two_crucial_inequality_inheritance(self):
        # [Hess F]_+ at the reduced profile is controlled by the parent's
        # positive Hessian part at matched points
        f = handle("x^2 + y^2", ("x", "y"))
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0, 0.0), 0.06),
                                           verify_points=600, estimate_holder=False))
        checked = 0
        for cd in rep.case_ii:
            xis = np.linspace(-0.7, 0.7, 9).reshape(-1, 1) * cd.cell.radius
            f2 = cd.split.F.derivative_values(xis, (2,))
            parent_plus = 2.0  # sup of the positive Hessian part of x^2+y^2
            assert np.max(np.maximum(f2, 0.0)) <= 3.0 * parent_plus
            checked += 1
        assert checked >= 1


class TestReportColumns:
    """The report's JSON lists the cells as columns, row nu, and one record per case-II cell."""

    def test_columns_rebuild_every_cell(self):
        rep = decompose(handle("x^2 + y^2", ("x", "y")), DecomposeParams(
            delta=0.25, eta=0.3, region=Ball((0.0, 0.0), 0.02), verify_points=300, estimate_holder=False))
        out = to_jsonable(rep)
        cols = out["cells"]
        assert set(cols) == {"center", "radius", "color", "case", "rho"}
        assert all(len(col) == len(rep.cells) == out["cell_count"] for col in cols.values())
        rows = [{"nu": nu, **{k: col[nu] for k, col in cols.items()}} for nu in range(len(rep.cells))]
        assert rows == [{**to_jsonable(cell), "case": "I" if one else "II", "rho": rho}
                        for cell, one, rho in zip(rep.cells, rep.case_one, rep.rho)]

        assert [cd.cell.nu for cd in rep.case_ii] == np.flatnonzero(~rep.case_one).tolist()
        assert sum(cd.sub_report is not None for cd in rep.case_ii) == 2
        for record, cd in zip(out["case_ii"], rep.case_ii, strict=True):
            assert cd.cell is rep.cells[cd.cell.nu] and cd.rho == rows[cd.cell.nu]["rho"]
            assert record == to_jsonable({
                "nu": cd.cell.nu, "axis": cd.axis, "h_lower_ok": cd.split.h_ok, "identity_error": cd.identity_error,
                "recursive": cd.sub_report is not None, "quad_nodes": cd.split.nodes,
                "tables": cd.split.sampled_tables(),
            })

    def test_empty_report_has_empty_columns(self):
        rep = decompose(handle("0"), DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 1.0),
                                                     estimate_holder=False))
        out = to_jsonable(rep)
        assert out["cells"] == dict.fromkeys(("center", "radius", "color", "case", "rho"), [])
        assert out["case_ii"] == [] and out["case_counts"] == {"I": 0, "II": 0}


def _case_ii_cells(rep, depth=0):
    """(depth, cell decomposition) of every case-II cell, recursing into sub-reports."""
    for cd in rep.case_ii:
        yield depth, cd
        if cd.sub_report is not None:
            yield from _case_ii_cells(cd.sub_report, depth + 1)


@pytest.fixture(scope="module")
def counted_isotropic_3d():
    """x^2+y^2+z^2 on the fiber3d-sized ball, with the points of every fiber
    solve request, and of every fiber jet read of the 3-D function, counted."""
    points, reads = [], []
    solve_many, fiber = MinimizerProfile.solve_many, _RotatedFrame.fiber
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MinimizerProfile, "solve_many",
                   lambda self, Xi: points.append(len(np.atleast_2d(Xi))) or solve_many(self, Xi))
        mp.setattr(_RotatedFrame, "fiber",
                   lambda self, V: (self.n == 3 and reads.append(len(V))) or fiber(self, V))
        rep = decompose(handle("x^2 + y^2 + z^2", ("x", "y", "z")),
                        DecomposeParams(delta=0.25, eta=0.3, region=Ball((3e-4, -2e-4, 1e-4), 0.015),
                                        estimate_holder=False))
    return rep, sum(points), sum(reads)


@pytest.fixture(scope="module")
def isotropic_3d():
    return decompose(handle("x^2 + y^2 + z^2", ("x", "y", "z")),
                     DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0, 0.0, 0.0), 0.015),
                                     estimate_holder=False))


@pytest.fixture(scope="module")
def sine_fiber_2d():
    """x^2 + sin(y)^2 on B(0, 0.05): one case-II cell, whose fiber takes 4 nodes."""
    params = DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0, 0.0), 0.05), estimate_holder=False)
    return decompose(handle("x^2 + sin(y)^2", ("x", "y")), params)


class TestSumOfSquares:
    """One pass per level gives the sum of squares bit for bit as adding
    g.eval_many(X)^2 one group at a time, each group reading alone."""

    @pytest.fixture(scope="class")
    def quartic_2d(self):
        return decompose(handle("x^2 + y^4", ("x", "y")),
                         DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0, 0.0), 0.01), estimate_holder=False))

    @pytest.mark.parametrize("name", ["isotropic_3d", "quartic_2d"])
    def test_one_pass_equals_group_by_group(self, request, name):
        rep = request.getfixturevalue(name)
        assert rep.recursion_depth == (2 if name == "isotropic_3d" else 1)
        pts = ball_points(rep.params.region, 800)
        want = np.zeros(len(pts))
        for g in rep.roots:
            want += g.eval_many(pts) ** 2
        assert np.array_equal(rep.sum_of_squares(pts), want)
        assert np.max(np.abs(want - np.sum(pts**2 if name == "isotropic_3d" else pts**[2, 4], axis=1))) <= 1e-6

    @pytest.mark.parametrize("batch", ["empty", "outside", "one_cell"])
    def test_batches_most_groups_miss(self, isotropic_3d, batch):
        rep = isotropic_3d
        cell = rep.case_ii[0].cell  # its lifted groups read a sub-level
        pts = {"empty": np.empty((0, 3)), "outside": np.array([[0.0, 0.0, 10.0 * rep.params.region.radius]]),
               "one_cell": ball_points(Ball(cell.center, 0.2 * cell.radius), 40)}[batch]
        rows = [g.eval_many(pts) for g in rep.roots]
        got = rep.sum_of_squares(pts)
        assert all(r.dtype == got.dtype == np.float64 and r.shape == got.shape == (len(pts),) for r in rows)
        want = np.zeros(len(pts))
        for r in rows:
            want += r**2
        assert np.array_equal(got, want)
        live = sum(bool(np.any(r != 0.0)) for r in rows)
        assert live == 0 if batch != "one_cell" else 2 < live < len(rows) / 4


class TestFiberQuadrature:
    def test_polynomial_fibers_choose_two_nodes(self, isotropic_3d):
        nodes = {}
        for depth, cd in _case_ii_cells(isotropic_3d):
            nodes.setdefault(depth, set()).add(cd.split.nodes)
            assert cd.as_dict()["quad_nodes"] == cd.split.nodes
        assert nodes[0] == nodes[1] == {2}

    def test_transcendental_fiber_chooses_more_nodes(self, sine_fiber_2d):
        params = sine_fiber_2d.params
        cells = sine_fiber_2d.case_ii
        assert cells
        for cd in cells:
            split = cd.split
            assert 2 < split.nodes <= 32
            pts = ball_points(Ball(cd.cell.center, 0.98 * cd.cell.radius), 200)
            Xi, Y = split.frame.to_local(pts)
            # an unchecked factor integrates with its cap
            full = _fiber_factor(split.frame, Xi, Y, split.minimizer.solve_many(Xi), 32)
            assert np.max(np.abs(split.H(Xi, Y) - full)) <= 1e-12 * np.max(np.abs(full))
        f = handle("x^2 + sin(y)^2", ("x", "y")).rescaled(sine_fiber_2d.value_scale)
        cd = cells[0]
        with pytest.raises(QuadratureError, match=f"cell {cd.cell.nu}: .* at 2 nodes"):
            reduced_profile(f, cd.cell, cd.axis, cd.rho, params.delta, quad_nodes=2)

    def test_solve_count(self, counted_isotropic_3d):
        rep, points, reads = counted_isotropic_3d
        assert rep.recursion_depth == 2 and rep.passed
        # measured 33,641 points and 73,595 reads, each bound about 7-9% above its count
        assert points <= 36_000
        # the Newton iterations of the top level, each solve started at its profile's center
        # root; a batch read again is not solved again
        assert reads <= 80_000

    def test_one_fiber_solve_per_batch(self, counted_isotropic_3d, monkeypatch):
        rep, _, _ = counted_isotropic_3d
        parent, cd = next((p, c) for p in rep.case_ii if p.sub_report is not None
                          for _, c in _case_ii_cells(p.sub_report))
        callers = []
        solve_many = MinimizerProfile.solve_many
        monkeypatch.setattr(MinimizerProfile, "solve_many",
                            lambda self, Xi: callers.append(self) or solve_many(self, Xi))
        pts = ball_points(Ball(cd.cell.center, 0.9 * cd.cell.radius), 50)
        split = cd.split
        for run in (lambda: split.weights(pts), lambda: split.jet(pts), lambda: split.identity_error(50)):
            callers.clear()
            run()
            # H's second fiber derivatives solve the parent level; this level solves once
            assert sum(m is split.minimizer for m in callers) == 1
            assert any(m is parent.split.minimizer for m in callers)


class TestVerifyDecomposition:
    def test_grid_statistics(self):
        f = handle("x^2")
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 1.0),
                                           verify_points=400, estimate_holder=False))
        grid = np.linspace(-0.95, 0.95, 400).reshape(-1, 1)
        out = verify_decomposition(f, rep, grid)
        assert not out.empty and out.passed
        assert out.residual_sup <= 1e-8

    def test_grid_entirely_excluded(self):
        f = handle("x^2")
        params = DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 1.0),
                                 verify_points=400, estimate_holder=False)
        rep = decompose(f, params)
        # force exclusion with an impossible floor
        rep.params.floor = 1e9
        out = verify_decomposition(f, rep, np.linspace(-0.5, 0.5, 50).reshape(-1, 1))
        assert out.empty and not out.passed


class TestOneDimensionalBatches:
    """A one-variable decomposition reads a 1-D array as N points, as its column."""

    @pytest.fixture(scope="class")
    def shifted_parabola(self):
        f = handle("x^2+1")
        rep = decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=Ball((0.0,), 0.05),
                                           verify_points=300, estimate_holder=False))
        assert rep.case_counts == {"I": 16, "II": 0}
        return f, rep

    def test_flat_batch_reads_as_a_column(self, shifted_parabola):
        _, rep = shifted_parabola
        flat = np.array([0.01, 0.02])
        col = flat[:, None]
        part, g = rep.partition, rep.roots[0]
        a, b = part.chi_pairs(flat), part.chi_pairs(col)
        assert len(b.idx) == 4
        pairs = [(a.idx, b.idx), (a.cell, b.cell), (a.chi, b.chi)]
        pairs += [(read(flat), read(col)) for read in (rep.sum_of_squares, part.sum_chi_sq, part.check_unity,
                                                        part.observe_overlap, g.eval_many)]
        pairs += [(part.phi(nu, flat), part.phi(nu, col)) for nu in np.unique(b.cell)]
        pairs += [(part.chi(nu, flat), part.chi(nu, col)) for nu in np.unique(b.cell)]
        pairs += list(zip(g.jet(flat), g.jet(col)))
        for x, y in pairs:
            assert np.shape(x) == np.shape(y) and np.array_equal(x, y)
        assert np.allclose(rep.sum_of_squares(flat), [1.0001, 1.0004], rtol=0, atol=1e-12)
        assert part.observe_overlap(flat) == 2

    def test_verify_reads_the_flat_grid(self, shifted_parabola):
        f, rep = shifted_parabola
        out = verify_decomposition(f, rep, [0.01, 0.02])
        assert out.grid_points == 2 and out.passed

    def test_wrong_width_raises(self, isotropic_2d):
        X = np.zeros((4, 3))
        with pytest.raises(DomainError, match="dimension 2"):
            isotropic_2d.partition.sum_chi_sq(X)
        with pytest.raises(DomainError, match="dimension 2"):
            isotropic_2d.roots[0].jet(X)
        with pytest.raises(DomainError, match="dimension 2"):
            isotropic_2d.sum_of_squares(X[:, :1])


def _decomposed(src, variables, region):
    f = handle(src, variables)
    return decompose(f, DecomposeParams(delta=0.25, eta=0.3, region=region, floor=1e-3, tol=1e-6,
                                        verify_points=3000, estimate_holder=False))


@pytest.fixture(scope="module")
def isotropic_2d():
    return _decomposed("x^2 + y^2", ("x", "y"), Ball((0.0, 0.0), 0.12))


@pytest.fixture(scope="module")
def parabola_1d():
    return _decomposed("x^2", ("x",), Ball((0.0,), 1.0))


def _fd_jet(grp, pts, h):
    """Central differences of eval_many: first and second derivatives."""
    n = pts.shape[1]
    e = np.eye(n) * h
    g = grp.eval_many
    d1 = np.stack([(g(pts + e[i]) - g(pts - e[i])) / (2 * h) for i in range(n)], axis=1)
    d2 = np.empty((len(pts), n, n))
    for i in range(n):
        for j in range(n):
            d2[:, i, j] = (g(pts + e[i] + e[j]) - g(pts + e[i] - e[j])
                           - g(pts - e[i] + e[j]) + g(pts - e[i] - e[j])) / (4 * h * h)
    return d1, d2


def _check_jet(grp, partition):
    for nu, _ in grp.members[:3]:
        cell = partition.cells[nu]
        pts = ball_points(Ball(cell.center, 0.9 * cell.radius), 24)
        g, d1, d2 = grp.jet(pts)
        fd1, fd2 = _fd_jet(grp, pts, 1e-4 * cell.radius)
        assert np.array_equal(g, grp.eval_many(pts))
        assert np.max(np.abs(d1 - fd1)) <= 1e-4 * np.max(np.abs(d1)) + 1e-12, grp.label
        assert np.max(np.abs(d2 - fd2)) <= 1e-4 * np.max(np.abs(d2)) + 1e-8, grp.label


class TestRootJet:
    def test_bump_jet_matches_fd_of_profile(self):
        u = np.linspace(0.3, 1.1, 1601)
        u = u[(np.abs(u - 0.5) > 1e-3) & (np.abs(u - 1.0) > 1e-3)]
        b, b1, b2 = bump_jet(u)
        h = 1e-5
        fd1 = (bump_profile(u + h) - bump_profile(u - h)) / (2 * h)
        fd2 = (bump_profile(u + h) - 2 * bump_profile(u) + bump_profile(u - h)) / h**2
        assert np.array_equal(b, bump_profile(u))
        assert np.max(np.abs(b1 - fd1)) <= 1e-7 * np.max(np.abs(b1))
        assert np.max(np.abs(b2 - fd2)) <= 1e-5 * np.max(np.abs(b2))
        outside = (u < 0.5) | (u > 1.0)
        assert np.all(b1[outside] == 0.0) and np.all(b2[outside] == 0.0)

    @pytest.mark.parametrize("prefix", ["caseI:", "caseII:", "rem:"])
    def test_isotropic_groups_match_fd(self, isotropic_2d, prefix):
        groups = [g for g in isotropic_2d.roots if g.label.startswith(prefix)]
        assert groups
        for grp in groups[:4]:
            _check_jet(grp, isotropic_2d.partition)

    @pytest.mark.parametrize("label", [
        "caseII:17",
        "rem:17:caseI:0",
        pytest.param("rem:17:caseI:2", marks=pytest.mark.xfail(
            strict=True, reason="a case-I cell of the reduced profile covers its zero at xi = 0, "
                                "so the lifted root sqrt(F) has a kink there")),
        "rem:17:caseII:1",
        "rem:17:rem:1:const",
    ])
    def test_four_node_fiber_groups_match_fd(self, sine_fiber_2d, label):
        (grp,) = [g for g in sine_fiber_2d.roots if g.label == label]
        assert {cd.split.nodes for _, cd in _case_ii_cells(sine_fiber_2d)} >= {4}
        _check_jet(grp, sine_fiber_2d.partition)

    def test_split_jet_on_a_curved_fiber(self):
        # X is curved and f_yy varies along the fiber, so every term of the jet is live
        f = handle("s^2 + (x - s)^2 + s*x^2 + x^3", ("s", "x"))
        cell = CoverCell(nu=0, center=(0.0, 0.0), radius=0.01)
        split = reduced_profile(f, cell, [0.0, 1.0], rho=1.0, delta=0.25)
        pts = ball_points(Ball(cell.center, 0.9 * cell.radius), 24)
        w, d1, d2 = split.jet(pts)
        h = 1e-3 * cell.radius
        e = np.eye(2) * h
        wt = split.weights
        fd1 = np.stack([(wt(pts + e[i]) - wt(pts - e[i])) / (2 * h) for i in range(2)], axis=1)
        fd2 = np.stack([np.stack([(wt(pts + e[i] + e[j]) - wt(pts + e[i] - e[j]) - wt(pts - e[i] + e[j])
                                   + wt(pts - e[i] - e[j])) / (4 * h * h) for j in range(2)], axis=1)
                        for i in range(2)], axis=1)
        assert np.max(np.abs(w - wt(pts))) <= 1e-15
        assert np.max(np.abs(d1 - fd1)) <= 1e-4 * np.max(np.abs(d1))
        assert np.max(np.abs(d2 - fd2)) <= 1e-4 * np.max(np.abs(d2))

    def test_depth_two_lifted_groups_match_fd(self, isotropic_3d):
        groups = [g for g in isotropic_3d.roots if g.label.startswith("rem:") and ":rem:" in g.label]
        assert isotropic_3d.recursion_depth == 2 and len(groups) >= 3
        for grp in groups:
            _check_jet(grp, isotropic_3d.partition)

    def test_group_is_built_from_members_in_any_order(self, isotropic_2d):
        grp = max((g for g in isotropic_2d.roots if g.label.startswith("caseI:")), key=lambda g: len(g.members))
        members = list(grp.members)
        np.random.default_rng(0).shuffle(members)
        assert len(members) >= 3 and members != list(grp.members)
        shuffled = RootGroup(grp.label, isotropic_2d.partition, members, grp.scale)
        assert shuffled.members == grp.members and np.array_equal(shuffled.cells, grp.cells)
        part = isotropic_2d.partition
        pts = np.concatenate([ball_points(Ball(part.cells[nu].center, 0.9 * part.cells[nu].radius), 12)
                              for nu in grp.cells])
        assert np.all(grp.eval_many(pts) != 0.0)
        assert np.array_equal(shuffled.eval_many(pts), grp.eval_many(pts))
        for got, want in zip(shuffled.jet(pts), grp.jet(pts)):
            assert np.array_equal(got, want)

    def test_parabola_constant_group(self, parabola_1d):
        (grp,) = [g for g in parabola_1d.roots if g.label.endswith(":const")]
        _check_jet(grp, parabola_1d.partition)
        # the same member with a positive constant exercises the chi / sqrt(S) jet
        nu = grp.members[0][0]
        positive = RootGroup("const2", parabola_1d.partition, [(nu, _ConstPiece(2.0))])
        _check_jet(positive, parabola_1d.partition)

    def test_shifted_region_holder_growth(self):
        # region r0 of the holder2d benchmark's seed 405: the former
        # |w(center)|/r^2 cell order missed the extreme cell (growth 182%, 181%)
        rep = _decomposed("x^2 + y^2", ("x", "y"),
                          Ball((0.00032931282065477, 0.00465484852411652), 0.12))
        groups = {g.label: g for g in rep.roots}
        for label in ("caseI:0", "caseI:3"):
            base = root_holder_estimate(groups[label], rep.deltas[-1], samples=240)
            fine = root_holder_estimate(groups[label], rep.deltas[-1], samples=960)
            assert 0 < base.pair_count <= 240 and base.pair_count < fine.pair_count <= 960
            assert fine.seminorm / base.seminorm - 1.0 < 0.5, label
            inside = rep.partition.region.contains(np.array(fine.worst_pair))
            assert np.all(inside)


class TestRootHolderProbe:
    """`root_holder_estimate` reads each probe point once: the ring anchors'
    jets are those of the first-lap pair starts.  The two-read probe of the
    oracle, which reads the anchors and then every pair end again, gives the
    same pairs and the same estimate up to rounding."""

    @pytest.fixture(scope="class")
    def groups(self, isotropic_3d, sine_fiber_2d):
        plain = _decomposed("x^2 + y^2", ("x", "y"), Ball((0.0, 0.0), 0.05))
        picked = {}
        for key, rep, label in [("caseI-2d", plain, "caseI:0"), ("caseII-sine", sine_fiber_2d, "caseII:17"),
                                ("lifted-sine", sine_fiber_2d, "rem:17:caseI:0"),
                                ("lifted-3d", isotropic_3d, "rem:109:rem:4:caseI:0")]:
            (grp,) = [g for g in rep.roots if g.label == label]
            picked[key] = (grp, rep.deltas[-1])
        return picked

    @pytest.mark.parametrize("samples", [150, 240, 960])
    @pytest.mark.parametrize("key", ["caseI-2d", "caseII-sine", "lifted-sine", "lifted-3d"])
    def test_matches_the_two_read_probe(self, groups, key, samples):
        grp, exponent = groups[key]
        got = root_holder_estimate(grp, exponent, samples=samples)
        want = root_holder_two_reads(grp, exponent, samples)
        assert got.pair_count == want["pair_count"] > 0
        assert got.min_separation == want["min_separation"]
        assert got.worst_pair == want["worst_pair"]
        assert got.seminorm == pytest.approx(want["seminorm"], rel=1e-11, abs=0.0)
        assert got.sup_norms == pytest.approx(want["sup_norms"], rel=1e-11, abs=0.0)
