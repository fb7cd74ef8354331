import math

import numpy as np
import pytest

from sosreg.calculus import FunctionHandle, Modulus, multiindices
from sosreg.errors import DomainError, NonnegativityError
from sosreg.exprlang import (
    Const,
    FlatExp,
    Pow,
    Prod,
    Quot,
    Sin,
    Sum,
    Var,
    parse_expression,
)
from sosreg.geometry import Ball, ball_points
from sosreg.monotone import STABILITY_TOLERANCE, classify_monotonicity, monotone_functional, verify_power_bound

from oracles import running_max_monotone_1d


def handle(src, radius=3.0, center=(0.0,)):
    variables = ("x",)
    return FunctionHandle.from_expr(parse_expression(src), variables,
                                    domain=Ball(center, radius))


class TestMonotoneFunctional:
    def test_linear_profile_closed_form(self):
        # sup_{0<y<=x<=1} y / sqrt(x) = 1 at x = y = 1
        f = handle("x")
        rep = monotone_functional(
            f, Modulus.omega(0.5), outer_samples=300, inner_samples=64,
            t_min=1e-3, region=Ball((0.5,), 0.5),
        )
        assert rep.estimate == pytest.approx(1.0, abs=1e-3)

    def test_constant_function(self):
        rep = monotone_functional(handle("1"), Modulus.omega(0.3), 50, 16, 1e-2)
        assert rep.estimate == pytest.approx(1.0, abs=1e-9)
        assert not rep.divergent

    def test_monotone_bounded_with_omega_one(self):
        # nondecreasing f <= 1: f(y) <= f(x) <= omega_1(f(x)) pointwise
        f = handle("0.5*x + 0.25")
        rep = monotone_functional(f, Modulus.omega(1.0), 100, 32, 1e-2,
                                  region=Ball((0.5,), 0.5))
        assert not rep.divergent
        assert rep.estimate <= 1.0 + 1e-9

    def test_divergence_witness(self):
        # f positive below 0.5 and identically zero beyond: pairs with
        # f(x) = 0 but f(y) > 0 for y between 0 and x make the ratio infinite
        f = FunctionHandle.from_expr(
            FlatExp(Sum((Const(0.5), Prod((Const(-1.0), Var("x")))))),
            ("x",), domain=Ball((0.5,), 0.5),
        )
        rep = monotone_functional(f, Modulus.omega(0.5), 100, 32, 1e-2,
                                  region=Ball((0.5,), 0.5))
        assert rep.divergent
        assert rep.witness is not None

    def test_invalid_t_min(self):
        with pytest.raises(DomainError):
            monotone_functional(handle("x"), Modulus.omega(0.5), 10, 8, 0.0)

    def test_functional_monotone_in_modulus(self):
        # pointwise omega_{s'}(u) <= omega_s(u) for s < s' and u <= 1
        f = handle("x^2")
        region = Ball((0.55,), 0.4)
        r_small = monotone_functional(f, Modulus.omega(0.3), 150, 48, 1e-2, region)
        r_large = monotone_functional(f, Modulus.omega(0.6), 150, 48, 1e-2, region)
        assert r_small.log_estimate <= r_large.log_estimate + 1e-9

    def test_truncation_is_about_the_origin(self):
        # (x - 1/2)^2 vanishes at the centre of B(1/2, 1/2) while f(y) > 0 for
        # y in (0, 1/2): the centre is an outer sample, and x = 0, whose B_x is
        # the single point 0, is not
        rep = monotone_functional(handle("(x - 0.5)^2"), Modulus.omega(0.5), region=Ball((0.5,), 0.5))
        assert rep.divergent and rep.witness[0] == (0.5,)

    @pytest.mark.parametrize("src, arity, outer", [("x^2 + 0.5", 1, 50), ("x^2 + 0.5", 1, 400),
                                                   ("flatexp(x^2 + y^2) + 0.1*x^2*y^2", 2, 50),
                                                   ("flatexp(x^2 + y^2) + 0.1*x^2*y^2", 2, 400)])
    def test_batches_do_not_grow_with_the_samples(self, src, arity, outer):
        # one outer values batch, one outer and one inner log batch, then two
        # per ascent step, whatever the number of samples
        variables = ("x", "y")[:arity]
        f = FunctionHandle.from_expr(parse_expression(src), variables, domain=Ball((0.0,) * arity, 2.0))
        batches = []
        inner = f._eval_many
        f._eval_many = lambda X: batches.append(len(X)) or inner(X)
        rep = monotone_functional(f, Modulus.omega(0.5), outer, 64, 1e-2, ascent_steps=20)
        assert len(batches) <= 3 + 2 * 20
        assert rep.outer_samples == outer and max(batches) == outer * 64


_OSCILLATING = "sin(3.141592653589793/x)^2 + flatexp(x^2)"


class TestRunningMaxOracle:
    """The 1-D functional against a running maximum on one fine grid."""

    @pytest.mark.parametrize("src, fn, s, region, t_min, outer, inner, extra", [
        ("flatexp(x^2)", lambda x: np.exp(-1.0 / x**2), 0.3, Ball((0.55,), 0.42), 1e-2, 200, 64, ()),
        ("flatexp(x^2)", lambda x: np.exp(-1.0 / x**2), 0.6, Ball((0.55,), 0.42), 1e-2, 200, 64, ()),
        ("flatexp(x)", lambda x: np.exp(-1.0 / x), 0.5, Ball((0.55,), 0.42), 1e-2, 200, 64, ()),
        pytest.param(
            _OSCILLATING, lambda x: np.sin(math.pi / x) ** 2 + np.exp(-1.0 / x**2), 0.3, Ball((0.55,), 0.4), 5e-2,
            150, 48, [1.0 / k for k in range(2, 8)],
            marks=pytest.mark.xfail(strict=True, reason=(
                "the single ascent settles in the dip of the best grid pair, x = 1/5 (1682.8); "
                "the narrower dip at x = 1/6 gives 45625")),
            id="oscillating"),
        ("(x - 0.5)^2 + 1e-4", lambda x: (x - 0.5) ** 2 + 1e-4, 0.5, Ball((0.5,), 0.5), 1e-2, 200, 64, [0.5]),
    ])
    def test_within_the_stability_tolerance(self, src, fn, s, region, t_min, outer, inner, extra):
        rep = monotone_functional(handle(src), Modulus.omega(s), outer, inner, t_min, region)
        lo, hi = region.center[0] - region.radius, region.center[0] + region.radius
        oracle = running_max_monotone_1d(fn, s, lo, hi, t_min, rep.rescale, extra=extra)
        assert rep.estimate == pytest.approx(oracle, rel=STABILITY_TOLERANCE)


class TestClassification:
    def test_flat_exp_nearly_monotone(self, flat_exp):
        cls = classify_monotonicity(
            flat_exp, [0.25, 0.5, 0.75, 0.9], region=Ball((0.55,), 0.42),
            t_min=5e-2, outer_samples=100, inner_samples=32,
        )
        assert cls.nearly_monotone
        assert cls.holder_monotone

    def test_constant_monotone_for_every_s(self):
        cls = classify_monotonicity(
            handle("1"), [0.2, 0.5, 0.9], outer_samples=50, inner_samples=16, t_min=1e-2,
        )
        assert cls.nearly_monotone
        assert all(abs(v - 1.0) < 1e-6 for v in cls.estimates.values())

    def test_oscillating_flat_function_threshold(self):
        # f(x) = phi(x)^(1/g - 1) (sin^2(pi/x) + phi(x)), phi = exp(-1/x^2):
        # s-power monotone iff s <= 1/(1 + g); here g = 1 so the flip is at 1/2
        gamma = 1.0
        phi = FlatExp(Pow(Var("x"), 2.0))
        body = Prod(
            (
                Pow(phi, 1.0 / gamma - 1.0) if gamma != 1.0 else Const(1.0),
                Sum((Pow(Sin(Quot(Const(math.pi), Var("x"))), 2.0), phi)),
            )
        )
        f = FunctionHandle.from_expr(body, ("x",), domain=Ball((0.5,), 0.5))
        cls = classify_monotonicity(
            f, [0.3, 0.45, 0.6, 0.8], region=Ball((0.55,), 0.4), t_min=5e-2,
            outer_samples=150, inner_samples=48,
        )
        assert cls.finite[0.3] and cls.finite[0.45]
        assert not cls.finite[0.6] and not cls.finite[0.8]
        assert cls.holder_monotone and not cls.nearly_monotone

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            classify_monotonicity(handle("x"), [])


def _power_bound_reference(f, s_prime, m_max, region, samples):
    """verify_power_bound's constants by the per-multi-index, per-point loops
    it used before reading max_entry_values and log_ratios."""
    constants = {}
    for m in range(1, m_max + 1):
        exponent = s_prime**m

        def worst(points):
            logs = f.log_values(points)
            best = -math.inf
            d = np.zeros(len(points))
            for alpha in multiindices(f.arity, m):
                d = np.maximum(d, np.abs(f.derivative_values(points, alpha)))
            with np.errstate(divide="ignore"):
                logd = np.log(d)
            for i in range(len(points)):
                if logs[i] == -math.inf:
                    continue
                best = max(best, logd[i] - exponent * logs[i])
            return best

        fine = worst(ball_points(region, 2 * samples))
        constants[m] = float(np.exp(min(fine, 700.0)))
    return constants


class TestPowerBound:
    @pytest.mark.parametrize("m_max, s_prime, region", [
        (3, 0.5, Ball((0.5,), 0.45)),
        (4, 0.6, Ball((0.53125,), 0.46875)),
    ])
    def test_matches_per_multiindex_loop(self, flat_exp, m_max, s_prime, region):
        rep = verify_power_bound(flat_exp, 0.9, s_prime, m_max, region, samples=300)
        assert rep.constants == _power_bound_reference(flat_exp, s_prime, m_max, region, 300)

    def test_vanishing_with_nonzero_derivative_names_the_point(self):
        # x^2 vanishes at the region's first sample, x = 0, where f'' = 2
        with pytest.raises(NonnegativityError, match=r"vanishes at \[0\.\] with a nonzero order-2"):
            verify_power_bound(handle("x^2"), 0.9, 0.5, 2, Ball((0.0,), 0.5), samples=50)

    def test_flat_exp_constants_stable(self, flat_exp):
        rep = verify_power_bound(flat_exp, 0.9, 0.5, 3, Ball((0.5,), 0.45), samples=300)
        assert all(rep.stable.values())
        assert all(math.isfinite(v) for v in rep.constants.values())

    def test_closed_form_ratio(self, flat_exp):
        # |f'| = f / t^2, so sup |f'| / f^(s') = sup t^(-2) f^(1-s') attained
        # inside the region; cross-check the m=1 constant on a dyadic grid
        s_prime = 0.5
        ts = 0.5 ** np.arange(1, 5, 0.25)
        vals = np.exp(-1.0 / ts) / ts**2 / np.exp(-1.0 / ts) ** s_prime
        oracle = float(np.max(vals))
        rep = verify_power_bound(flat_exp, 0.9, s_prime, 1, Ball((0.53125,), 0.46875), samples=600)
        assert rep.constants[1] >= oracle * 0.95

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            verify_power_bound(handle("x"), 0.5, 0.7, 2, Ball((0.5,), 0.4))

    def test_scale_precondition(self):
        with pytest.raises(DomainError):
            verify_power_bound(handle("4*x"), 0.9, 0.5, 1, Ball((0.5,), 0.4))

    def test_scale_precondition_covers_every_point_read(self):
        # x^2 stays below 0.976 on the first 50 points but reaches 1.0075 on
        # the 100 the constants are read at
        f, region = handle("x^2"), Ball((0.5,), 0.52)
        assert np.max(f.values(ball_points(region, 50))) < 1.0 < np.max(f.values(ball_points(region, 100)))
        with pytest.raises(DomainError, match="f must be <= 1"):
            verify_power_bound(f, 0.9, 0.5, 1, region, samples=50)
