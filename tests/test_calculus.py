import math
import tracemalloc

import numpy as np
import pytest

import sosreg.calculus as calculus
import sosreg.exprlang as exprlang
from sosreg.calculus import (
    FunctionHandle,
    Modulus,
    directional_hessian_plus_values,
    holder_seminorm,
    is_flat,
    log_ratios,
    multiindices,
    verify_interpolation_bound,
    verify_odd_even_control,
)
from sosreg.errors import DerivativeError, DomainError, NonnegativityError
from sosreg.exprlang import catalog_function, parse_expression
from sosreg.geometry import Ball, ball_points

from oracles import brute_direction_hessian_plus, brute_pair_seminorm, fd_handle, pair_set_loop


def handle(src, variables=("x",), radius=3.0):
    return FunctionHandle.from_expr(
        parse_expression(src), variables, domain=Ball((0.0,) * len(variables), radius)
    )


class TestOneInputRule:
    """A 1-D array is N points of a one-variable handle and one point otherwise."""

    def test_flat_batch_reads_as_a_column(self):
        f = handle("x^3 + sin(x)")
        flat = np.array([0.1, 0.2, 0.3])
        col = flat[:, None]
        pairs = [(f.values(flat), f.values(col)), (f.derivative_values(flat, (1,)), f.derivative_values(col, (1,))),
                 (f.hessian_values(flat), f.hessian_values(col))]
        pairs += list(zip(f.jet(flat, 2), f.jet(col, 2)))
        pairs += [(f.max_entry_values(flat, m), f.max_entry_values(col, m)) for m in range(5)]
        for a, b in pairs:
            assert a.shape[0] == 3 and np.array_equal(a, b)

    def test_flat_array_is_one_point_of_several_variables(self):
        f = handle("x^2 + 3*y", ("x", "y"))
        assert np.array_equal(f.values([0.5, 1.0]), [3.25])
        assert np.array_equal(f.derivative_values([0.5, 1.0], (1, 0)), [1.0])
        assert f.hessian_values([0.5, 1.0]).shape == (1, 2, 2)

    @pytest.mark.parametrize("X", [[[0.1, 0.2, 5.0]], [[0.1]], [0.1, 0.2, 5.0], np.zeros((2, 2, 2))])
    def test_wrong_width_raises(self, X):
        f = handle("x^2 + y^2", ("x", "y"))
        for read in (f.values, f.hessian_values, lambda X: f.jet(X, 2),
                     lambda X: f.derivative_values(X, (1, 0)), lambda X: directional_hessian_plus_values(f, X)):
            with pytest.raises(DomainError, match="dimension 2"):
                read(X)


class TestModulus:
    def test_power_case(self):
        assert Modulus.omega(0.5).eval(0.25) == pytest.approx(0.5)

    def test_duality_of_endpoints(self):
        m1, m0 = Modulus.omega(1.0), Modulus.omega(0.0)
        for t in (0.1, 0.37, 0.9, 1e-6):
            assert m1.eval(t) * m0.eval(t) == pytest.approx(t, abs=1e-12)

    def test_normalization(self):
        for s in (0.0, 0.3, 0.7, 1.0):
            m = Modulus.omega(s)
            assert m.eval(1.0) == 1.0
            assert m.eval(0.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            Modulus.omega(0.5).eval(1.5)

    def test_log_eval_consistency(self):
        for s in (0.0, 0.5, 1.0):
            m = Modulus.omega(s)
            for t in (0.3, 0.01):
                assert m.log_eval(math.log(t)) == pytest.approx(math.log(m.eval(t)), abs=1e-12)

    def test_log_eval_reaches_tiny_arguments(self):
        # representable only in log space
        m = Modulus.omega(0.5)
        assert m.log_eval(-1e6) == pytest.approx(-5e5)

    def test_scale_ordering(self):
        # t << omega_1 << omega_s' << omega_s << omega_0 << 1 is asymptotic:
        # at t = 0.1 no pair (s, s') satisfies the full chain, so the chain is
        # checked from 1e-2 down while the ratio decrease uses the full grid
        s, s_prime = 0.45, 0.6
        for t in [10.0**-k for k in range(2, 7)]:
            vals = [t, Modulus.omega(1.0).eval(t), Modulus.omega(s_prime).eval(t),
                    Modulus.omega(s).eval(t), Modulus.omega(0.0).eval(t), 1.0]
            assert all(a < b for a, b in zip(vals, vals[1:])), t
        prev_ratio = None
        for t in [10.0**-k for k in range(1, 7)]:
            ratio = Modulus.omega(s_prime).eval(t) / Modulus.omega(s).eval(t)
            if prev_ratio is not None:
                assert ratio < prev_ratio
            prev_ratio = ratio

    def test_custom_table(self):
        m = Modulus.from_table([(0.01, 0.1), (0.1, 0.4), (1.0, 1.0)])
        assert m.eval(0.1) == pytest.approx(0.4)
        assert m.eval(0.0) == 0.0
        assert 0.1 < m.eval(0.03) < 0.4

    def test_log_eval_arrays_match_scalar_calls(self):
        # -inf, tiny, the table's continuation below its first node, and log t = 0
        x = np.concatenate([[-np.inf, -1e300, -745.0, -50.0], -np.logspace(-8, 3, 40), [0.0]])
        table = Modulus.from_table([(0.01, 0.1), (0.1, 0.4), (1.0, 1.0)])
        for m in [Modulus.omega(s) for s in (0.0, 0.3, 0.5, 1.0)] + [table]:
            got = m.log_eval(x)
            assert got.shape == x.shape
            assert np.array_equal(got, [m.log_eval(float(v)) for v in x]), m.name
            assert isinstance(m.log_eval(-1.0), float)
            assert m.log_eval(-math.inf) == -math.inf
            with pytest.raises(DomainError):
                m.log_eval(np.array([-1.0, 1e-9]))
            with pytest.raises(DomainError):
                m.log_eval(1e-9)

    def test_eval_matches_closed_forms(self):
        table = Modulus.from_table([(0.01, 0.1), (0.1, 0.4), (1.0, 1.0)])
        slope = math.log(4.0) / math.log(10.0)
        for t in (1e-6, 0.003, 0.01, 0.05, 0.37, 1.0):
            assert Modulus.omega(1.0).eval(t) == pytest.approx(t * (1.0 + math.log(1.0 / t)), rel=1e-14)
            assert Modulus.omega(0.0).eval(t) == pytest.approx(1.0 / (1.0 + math.log(1.0 / t)), rel=1e-14)
            assert Modulus.omega(0.3).eval(t) == pytest.approx(t**0.3, rel=1e-14)
            if t <= 0.01:  # log-log continuation of the first segment
                assert table.eval(t) == pytest.approx(0.1 * (t / 0.01) ** slope, rel=1e-13)


class TestLogRatios:
    def test_zero_and_nan_rules(self):
        inf, nan = math.inf, math.nan
        log_num = [-inf, -inf, 1.0, 2.0, nan, nan, 1.0]
        log_den = [-inf, 0.5, -inf, 1.0, -inf, 1.0, nan]
        # 0/0, 0/x, x/0, x/y, and NaN in either place
        np.testing.assert_array_equal(log_ratios(log_num, log_den, 0.5), [-inf, -inf, inf, 1.5, nan, nan, nan])

    def test_supremum_skips_nan(self):
        ratios = log_ratios([math.nan, 1.0, math.nan, 0.0], [0.0, 0.0, -math.inf, 2.0], 1.0)
        assert np.fmax.reduce(ratios, initial=-np.inf) == 1.0

    def test_all_zero_numerators(self):
        ratios = log_ratios(np.full(4, -np.inf), [-np.inf, 0.0, -3.0, 1.0], 0.3)
        assert np.all(ratios == -np.inf)
        assert np.fmax.reduce(ratios, initial=-np.inf) == -np.inf


class TestHolderSeminorm:
    def test_quadratic_has_zero_order2_seminorm(self):
        est = holder_seminorm(handle("x^2"), 2, 0.5, Ball((0.0,), 1.0), samples=100)
        assert est.seminorm <= 1e-10

    def test_cubic_exact_value(self):
        est = holder_seminorm(handle("x^3"), 2, 1.0, Ball((0.0,), 1.0), samples=300)
        assert est.seminorm == pytest.approx(6.0, abs=1e-9)
        assert est.sup_norms[2] == pytest.approx(6.0, rel=1e-6)

    def test_smoothed_power_profile_stable_under_doubling(self):
        # x^2 * (x^2 + eps)^0.25 ~ |x|^2.5 smoothly regularized
        f = handle("x^2*(x^2 + 0.0001)^0.25")
        base = holder_seminorm(f, 2, 0.5, Ball((0.0,), 1.0), samples=300)
        fine = holder_seminorm(f, 2, 0.5, Ball((0.0,), 1.0), samples=600)
        assert fine.seminorm <= base.seminorm * 1.2 + 1e-12
        assert fine.seminorm >= base.seminorm * 0.8 - 1e-12

    def test_monotone_nonincreasing_in_exponent(self):
        # profile ~ x^2 |x|^(1/2): its order-2 seminorm is finite up to
        # exponent 1/2, and on that range the sampled estimate is attained at
        # macroscopic separations, hence nonincreasing in the exponent
        f = handle("x^2*(x^2 + 0.0001)^0.25")
        region = Ball((0.0,), 1.0)
        values = [
            holder_seminorm(f, 2, d, region, samples=400).seminorm
            for d in (0.15, 0.3, 0.45)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_brute_force_oracle_agreement(self):
        # order-1 seminorm of x^3 with delta=1 equals sup |3y^2-3z^2|/|y-z| = 6
        f = handle("x^3")
        est = holder_seminorm(f, 1, 1.0, Ball((0.0,), 1.0), samples=400)
        oracle = brute_pair_seminorm(
            lambda X: 3.0 * np.asarray(X)[:, 0] ** 2, -1.0, 1.0, 201, 1.0
        )
        assert est.seminorm == pytest.approx(oracle, rel=0.05)

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            holder_seminorm(handle("x^2"), 2, 1.5, Ball((0.0,), 1.0))


class TestDirectionalHessian:
    def test_isotropic(self):
        f = handle("x^2 + y^2", ("x", "y"))
        assert directional_hessian_plus_values(f, [0.3, -0.4])[0] == pytest.approx(2.0)

    def test_saddle(self):
        f = handle("x^2 - y^2", ("x", "y"))
        assert directional_hessian_plus_values(f, [0.0, 0.0])[0] == pytest.approx(2.0)

    def test_negative_definite(self):
        f = handle("-(x^2) - y^2", ("x", "y"))
        assert directional_hessian_plus_values(f, [0.0, 0.0])[0] == 0.0

    def test_non_finite_names_the_point(self):
        with pytest.raises(DerivativeError, match=r"non-finite at \(0.0, 0.0\)"):
            directional_hessian_plus_values(handle("ln(x^2 + y^2)", ("x", "y")), [0.0, 0.0])

    @pytest.mark.parametrize("src,vars", [
        ("x^2 + 3*x*y - y^2", ("x", "y")),
        ("x^2*y + y^2*z + z^2*x", ("x", "y", "z")),
        ("w^4 + x^2*y^2 - 2*w*x*y*z + z^2", ("w", "x", "y", "z")),
    ])
    def test_matches_brute_force_directions(self, src, vars):
        f = handle(src, vars)
        x = np.full(len(vars), 0.3)
        direct = directional_hessian_plus_values(f, x)[0]
        oracle = brute_direction_hessian_plus(f.hessian_values(x)[0], n_dirs=1000)
        assert direct == pytest.approx(oracle, abs=1e-8)


class TestOddEvenControl:
    def test_quartic_second_line_trivial(self):
        rep = verify_odd_even_control(handle("x^4"), Ball((0.0,), 1.0), samples=500)
        assert rep.passed
        assert rep.worst_ratios["axis0.second_lower"] == 0.0

    def test_parabola(self):
        rep = verify_odd_even_control(handle("x^2"), Ball((0.0,), 1.0), samples=500)
        assert rep.passed
        assert rep.worst_ratios["axis0.first_odd"] <= 1.0

    def test_constant(self):
        rep = verify_odd_even_control(handle("1"), Ball((0.0,), 1.0), samples=200)
        assert rep.passed
        for key, val in rep.worst_ratios.items():
            assert val == 0.0, key

    def test_negativity_detected(self):
        with pytest.raises(NonnegativityError):
            verify_odd_even_control(handle("x"), Ball((0.0,), 1.0), samples=200)


class TestInterpolationBound:
    def test_parabola_constant_below_three(self):
        rep = verify_interpolation_bound(handle("x^2"), Ball((0.0,), 1.0), 1, 2, pairs=1000)
        assert rep.max_grad_m == pytest.approx(2.0, rel=1e-6)
        assert rep.constant <= 3.0

    def test_linear_remainder_free(self):
        rep = verify_interpolation_bound(handle("2*x + 1"), Ball((0.0,), 1.0), 1, 2)
        assert rep.max_grad_k <= 1e-12
        assert math.isfinite(rep.constant)

    def test_constant_function(self):
        rep = verify_interpolation_bound(handle("3"), Ball((0.0,), 1.0), 1, 2)
        assert rep.max_grad_m == 0.0
        assert rep.constant == 0.0

    def test_order_validation(self):
        with pytest.raises(DomainError):
            verify_interpolation_bound(handle("x^2"), Ball((0.0,), 1.0), 3, 2)

    def test_handle_calls_do_not_grow_with_pairs(self, monkeypatch):
        # one values batch at the pairs, one jet at the anchors and the two
        # max-entry reads, whatever the number of pairs
        def calls(pairs):
            f = handle("x^3*y + y^4 + x^2", ("x", "y"))
            seen = []
            inner, reads = f._eval_many, calculus.FunctionHandle.derivative_values
            f._eval_many = lambda X: seen.append("values") or inner(X)
            monkeypatch.setattr(calculus.FunctionHandle, "derivative_values",
                                lambda self, X, alpha, memo=None: seen.append(alpha) or reads(self, X, alpha, memo))
            verify_interpolation_bound(f, Ball((0.1, 0.0), 0.8), 3, 4, pairs=pairs)
            monkeypatch.undo()
            return seen

        assert calls(50) == calls(1000)
        assert calls(50).count("values") <= 3


class TestPairSet:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("h_min", [0.0, 1e-7, 0.05, 0.3, 1.18, 1.3])
    @pytest.mark.parametrize("samples", [1, 50, 777])
    def test_equals_the_candidate_loop(self, dim, h_min, samples):
        # bit for bit, including the runs that stop at the candidate limit
        region = Ball((0.1,) * dim, 0.6)
        ys, zs = calculus._pair_set(region, samples, h_min)
        ref_ys, ref_zs = pair_set_loop(region, samples, h_min)
        assert np.array_equal(ys, ref_ys) and np.array_equal(zs, ref_zs)


class TestFlatness:
    def test_flat_profile(self, flat_exp_sq):
        rep = is_flat(flat_exp_sq, n_max=8, t_grid=[2.0 ** (-j) for j in range(1, 11)])
        assert rep.flat

    def test_polynomial_fails_at_next_order(self):
        rep = is_flat(handle("t^4", ("t",)), n_max=8)
        assert not rep.flat
        assert rep.failures[0]["N"] == 5

    def test_zero_function(self):
        rep = is_flat(handle("0", ("t",)), n_max=8)
        assert rep.flat

    def test_derivatives_of_flat_are_flat(self, flat_exp_sq):
        rep = is_flat(flat_exp_sq, n_max=6, check_derivatives=True)
        assert rep.flat and rep.derivative_flat


class TestFiniteDifferenceBackend:
    def test_matches_exact_on_polynomial(self):
        # self-check of the test-side finite-difference handle
        fd = fd_handle(
            lambda x: float(x[0] ** 4 + x[0] * x[1]), arity=2, domain=Ball((0.0, 0.0), 2.0)
        )
        assert fd.derivative_values([0.5, 0.2], (2, 0))[0] == pytest.approx(3.0, abs=1e-6)
        assert fd.derivative_values([0.5, 0.2], (1, 1))[0] == pytest.approx(1.0, abs=1e-6)
        assert fd.derivative_values([0.5, 0.2], (0, 0))[0] == pytest.approx(0.5**4 + 0.1)

    def test_rescaled_handle(self):
        f = handle("x^2")
        g = f.rescaled(3.0)
        assert g.values([0.5])[0] == pytest.approx(0.75)
        assert g.derivative_values([0.5], (2,))[0] == pytest.approx(6.0)


def _axes(alpha):
    return (slice(None),) + tuple(i for i, p in enumerate(alpha) for _ in range(p))


class TestDerivativeTable:
    fdef = catalog_function("family_f")

    def test_family_derivatives_equal_fresh_ones(self, monkeypatch):
        # each multi-index of the symbolic orders 1 and 2: the handle's
        # expression equals a fresh axis-by-axis differentiate, and its
        # batch-memo values are bitwise those of a fresh-memo evaluate
        f = FunctionHandle.from_def(self.fdef)
        X = ball_points(Ball((0.0,) * 5, 0.9), 24)
        env = {v: X[:, i] for i, v in enumerate(self.fdef.variables)}
        seen = []

        def recording(expr, env, memo=None):
            seen.append(expr)
            return exprlang.evaluate(expr, env, memo=memo)

        def fresh(alpha):
            # fresh differentiate calls (each with its own table), axis by axis
            if alpha not in chains:
                k = max(i for i, p in enumerate(alpha) if p)
                head = fresh(alpha[:k] + (0,) * (5 - k))
                chains[alpha] = exprlang.differentiate(head, self.fdef.variables[k], alpha[k])
            return chains[alpha]

        chains = {(0,) * 5: self.fdef.body}
        monkeypatch.setattr(calculus, "evaluate", recording)
        for order in range(1, calculus.SERIES_ORDER):
            seen.clear()
            T = f.derivative_tensor(X, order)
            assert len(seen) == len(multiindices(5, order))
            for alpha, expr in zip(multiindices(5, order), seen):
                assert expr == fresh(alpha)
                want = np.broadcast_to(np.asarray(exprlang.evaluate(expr, env), dtype=float), (len(X),))
                assert T[_axes(alpha)].tobytes() == want.tobytes()

    def test_batch_memo_is_freed(self):
        f = FunctionHandle.from_def(self.fdef)
        X = ball_points(Ball((0.0,) * 5, 0.9), 8)
        memo = f.batch_memo(2)
        for alpha in multiindices(5, 2):
            f.derivative_values(X, alpha, memo=memo)
        assert memo.values == {} and not any(memo.left.values())

    def test_order_four_peak_memory(self):
        # the order-4 Taylor-series pass peaks near 30 MB at this size when it
        # keeps every node's series; freeing after the last read keeps it small
        f = FunctionHandle.from_def(self.fdef)
        X = ball_points(Ball((0.0,) * 5, 1.0), 516)
        f.max_entry_values(X[:1], 4)  # builds the interpolation layout and the series plan
        tracemalloc.start()
        try:
            f.max_entry_values(X, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_table_holds_only_the_simplified_nodes(self):
        # the 85 derivatives of orders 2 and 4, taken axis by axis through one
        # table, intern 43,372 nodes when each step is built unsimplified and
        # then simplified
        table = exprlang.DerivativeTable()
        for order in (2, 4):
            for alpha in multiindices(5, order):
                e = self.fdef.body
                for v, p in zip(self.fdef.variables, alpha):
                    if p:
                        e = exprlang.differentiate(e, v, p, table=table)
        assert len(table._nodes) <= 20_000

    def test_each_handle_differentiates_for_itself(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return exprlang.differentiate(*args, **kwargs)

        monkeypatch.setattr(calculus, "differentiate", counting)
        fdef = catalog_function("quartic_L")
        X = np.array([[0.1, 0.2, 0.3, 0.4]])
        for handles in (1, 2):
            f = FunctionHandle.from_def(fdef)
            f.derivative_values(X, (1, 0, 0, 0))
            f.derivative_values(X, (1, 0, 0, 0))
            assert len(calls) == handles


def _symbolic(fdef, alpha, X):
    e = fdef.body
    for v, p in zip(fdef.variables, alpha):
        if p:
            e = exprlang.differentiate(e, v, p)
    env = {v: X[:, i] for i, v in enumerate(fdef.variables)}
    return np.broadcast_to(exprlang.evaluate(e, env), (len(X),))


# ln, sin, cos, quotients and negative integer powers, which no catalog entry has
_MIXED = exprlang.FunctionDef(
    "mixed", ("x", "y"), parse_expression("ln(2 + x^2 + x*y) * sin(y) / (3 + y) + cos(x*y)^3 + x^2.5 * (1 + y)^-2"),
    Ball((0.0, 0.0), 1.0), sample_box=((0.1, 0.6), (-0.5, 0.5)),
)


class TestTaylorSeries:
    @pytest.mark.parametrize("name", [*exprlang.catalog_names(), "mixed"])
    def test_agrees_with_symbolic_derivatives(self, name):
        fdef = _MIXED if name == "mixed" else catalog_function(name)
        f = FunctionHandle.from_def(fdef)
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.uniform(lo, hi, 40) for lo, hi in fdef.sample_box])
        for order in range(calculus.SERIES_ORDER, 5):
            T = f.derivative_tensor(X, order)
            scale = np.max(np.abs(T.reshape(len(X), -1)), axis=1)
            for alpha in multiindices(fdef.arity, order):
                assert np.all(np.abs(T[_axes(alpha)] - _symbolic(fdef, alpha, X)) <= 1e-11 * scale)

    def test_monomials_give_alpha_factorial(self):
        variables = ("v", "w", "x", "y", "z")
        X = ball_points(Ball((0.0,) * 5, 1.0), 16)
        for order in range(calculus.SERIES_ORDER, 5):
            for alpha in multiindices(5, order):
                body = exprlang.Prod(tuple(exprlang.Pow(exprlang.Var(v), float(p)) for v, p in zip(variables, alpha)))
                f = FunctionHandle.from_expr(body, variables)
                assert np.all(f.derivative_values(X, alpha) == math.prod(map(math.factorial, alpha)))

    def test_exact_zeros_beyond_the_seams(self):
        f = handle("flatexp(x) * exp(y)", ("x", "y"))
        bump = FunctionHandle.from_def(catalog_function("bump_h"))  # 1 on |t| <= 0.5, 0 for |t| >= 1
        for g, X in ((f, [[-0.5, 0.1], [0.0, 0.3], [-2.0, -1.0]]), (bump, [[0.2], [-0.3], [1.0], [-1.4]])):
            for order in range(calculus.SERIES_ORDER, 5):
                assert np.all(g.derivative_tensor(np.array(X), order) == 0.0)

    def test_real_power_at_a_zero_base(self):
        X = np.array([[0.0], [0.3], [-0.2]])
        assert handle("x^4.5").derivative_values(X[:1], (4,))[0] == 0.0
        fdef = exprlang.FunctionDef("p", ("x",), parse_expression("x^2.5"), Ball((0.0,), 1.0))
        f = FunctionHandle.from_def(fdef)
        for order in range(calculus.SERIES_ORDER, 5):
            sym = _symbolic(fdef, (order,), X)
            got = f.derivative_values(X, (order,))
            assert np.array_equal(np.isfinite(got), np.isfinite(sym)) and not np.isfinite(got[0])

    def test_zero_base_spares_the_partials_off_its_directions(self):
        # the series of x^2.5 at x = 0 is not finite along the directions
        # that move x; the partials in y alone weight none of them
        f = handle("x^2.5 + y^4", ("x", "y"))
        X = np.array([[0.0, 0.5]])
        assert f.derivative_values(X, (0, 4))[0] == 24.0
        assert f.derivative_values(X, (0, 3))[0] == 12.0
        # 0 symbolically, but interpolation cannot separate it from those directions
        assert np.isnan(f.derivative_values(X, (1, 3))[0])

    def test_zero_base_flat_only_to_its_degree_stays_non_finite(self):
        # x^4 + y^4 has zero coefficients up to degree 3 along every line
        # through 0 but is not 0 along any; the third derivatives of its
        # square root are unbounded near 0 and read NaN, as symbolically
        for src in ("sqrt(x^4 + y^4)", "(x^4)^0.25 + y"):
            f = handle(src, ("x", "y"))
            with np.errstate(all="ignore"):
                assert not np.isfinite(f.max_entry_values(np.zeros((1, 2)), 3)).any()

    def test_order_four_is_one_series_pass(self, monkeypatch):
        # lab's fourth-order read: 70 multi-indices, no symbolic table beyond
        # order 2 and one series pass for the whole batch
        calls = {"differentiate": 0, "taylor_series": 0, "derivative_values": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(calculus, "differentiate")
        counted(calculus, "taylor_series")
        counted(FunctionHandle, "derivative_values")
        f = FunctionHandle.from_def(catalog_function("family_f"))
        X = ball_points(Ball((0.0,) * 5, 1.0), 64)
        f.max_entry_values(X, 2)
        assert calls["differentiate"] > 0 and calls["taylor_series"] == 0
        calls.update(differentiate=0, derivative_values=0)
        f.max_entry_values(X, 4)
        assert calls == {"differentiate": 0, "taylor_series": 1, "derivative_values": 70}


def _contracted(J, r) -> list:
    """c_k = D^k f[r, ..., r] / k! of one direction r from the jet J."""
    out = []
    for k, T in enumerate(J):
        for _ in range(k):
            T = T @ r
        out.append(T / math.factorial(k))
    return out


def _directions(n: int, count: int, seed: int) -> np.ndarray:
    d = np.random.default_rng(seed).normal(size=(count, n))
    return d / np.linalg.norm(d, axis=1)[:, None]


class TestLineSeries:
    def _assert_agrees(self, f, X, R, degree, rel=1e-12):
        """f's line series along each row of R, read all at once and one
        direction at a time, against the contraction of f's own jet."""
        J = f.jet(X, degree)
        together = f.line_series(X, R, degree)
        assert len(together) == degree + 1
        for d, r in enumerate(R):
            alone = f.line_series(X, r, degree)
            for k, want in enumerate(_contracted(J, r)):
                scale = calculus.max_entries(J[k]) if k else np.abs(J[0])
                assert together[k].shape == (len(R), len(X)) and alone[k].shape == (len(X),)
                for got in (together[k][d], alone[k]):
                    assert np.all(np.abs(got - want) <= rel * scale), (k, d)

    @pytest.mark.parametrize("name", [*exprlang.catalog_names(), "mixed"])
    def test_agrees_with_the_jet_contraction(self, name):
        # catalog bodies include flatexp, piecewise (bump_h), and 1-D to 5-D handles
        fdef = _MIXED if name == "mixed" else catalog_function(name)
        f = FunctionHandle.from_def(fdef)
        rng = np.random.default_rng(7)
        X = np.column_stack([rng.uniform(lo, hi, 30) for lo, hi in fdef.sample_box])
        self._assert_agrees(f, X, _directions(fdef.arity, 3, 11), 4)

    def test_rescaled_handle_scales_the_base_series(self):
        f = handle("exp(x*y) + x^3*z - sin(y*z)", ("x", "y", "z"))
        g = f.rescaled(2.5)
        X = ball_points(Ball((0.1, -0.2, 0.3), 0.5), 20)
        R = _directions(3, 4, 2)
        for a, b in zip(g.line_series(X, R, 3), f.line_series(X, R, 3)):
            assert np.array_equal(a, 2.5 * b)
        self._assert_agrees(g, X, R, 3)

    def test_directions_per_point_match_a_loop(self):
        # D directions for each point, read at once, against each point read alone
        f = handle("exp(x*y) + x^3*z - sin(y*z)", ("x", "y", "z"))
        X = ball_points(Ball((0.1, -0.2, 0.3), 0.5), 20)
        R = np.random.default_rng(3).normal(size=(4, len(X), 3))
        together = f.line_series(X, R, 4)
        assert [c.shape for c in together] == [(4, len(X))] * 5
        for p in range(len(X)):
            for a, b in zip(together, f.line_series(X[p : p + 1], R[:, p], 4)):
                assert np.array_equal(a[:, p], b[:, 0])
        for a, b in zip(calculus.jet_line_series(f.jet(X, 4), R), together):
            assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))

    def test_jet_backed_power_handle(self):
        from sosreg.roots import PowerHandle

        src = "1 + x^2 + y*z + z^2"
        p = PowerHandle(handle(src, ("x", "y", "z")), 0.5)
        X = ball_points(Ball((0.1, -0.2, 0.3), 0.5), 20)
        R = _directions(3, 3, 4)
        self._assert_agrees(p, X, R, 4)
        # and against the series of the expression sqrt(f) itself
        for a, b in zip(p.line_series(X, R, 4), handle(f"({src})^0.5", ("x", "y", "z")).line_series(X, R, 4)):
            assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))

    def test_jet_backed_reduced_profile(self):
        from sosreg.cover import CoverCell
        from sosreg.sos import reduced_profile

        # x^2 + y^2 + z^2 along the fiber (0.6, 0, 0.8) reduces to F(xi) = |xi|^2
        f = handle("x^2 + y^2 + z^2", ("x", "y", "z"))
        F = reduced_profile(f, CoverCell(nu=0, center=(0.0, 0.0, 0.0), radius=0.004), [0.6, 0.0, 0.8],
                            rho=1.0, delta=0.25).F
        Xi = ball_points(Ball((0.0, 0.0), 0.003), 12)
        R = _directions(2, 3, 5)
        self._assert_agrees(F, Xi, R, 2)
        c0, c1, c2 = F.line_series(Xi, R, 2)
        assert np.allclose(c0, np.sum(Xi**2, axis=1), rtol=1e-9, atol=1e-15)
        assert np.allclose(c1, 2.0 * R @ Xi.T, rtol=1e-9, atol=1e-15)
        assert np.allclose(c2, 1.0, atol=1e-12)

    def test_constant_coefficients_fill_the_batch(self):
        f = handle("2 + x", ("x", "y"))
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        c0, c1, c2 = f.line_series(X, np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]), 2)
        assert np.array_equal(c0, np.tile([2.1, 2.3], (3, 1)))
        assert np.array_equal(c1, [[1.0, 1.0], [0.0, 0.0], [0.6, 0.6]])
        assert np.array_equal(c2, np.zeros((3, 2)))

    def test_real_power_at_a_zero_base(self):
        # x^2.5 at 0: the coefficients below 2.5 are 0, c_3 is not finite
        f = handle("x^2.5 + y^4", ("x", "y"))
        X = np.array([[0.0, 0.5]])
        with np.errstate(all="ignore"):
            got = f.line_series(X, np.array([[1.0, 0.0], [0.0, 1.0]]), 3)
        assert [c[0, 0] for c in got[:3]] == [0.0625, 0.0, 0.0] and np.isnan(got[3][0, 0])
        assert [c[1, 0] for c in got] == [0.0625, 0.5, 1.5, 2.0]
