import math

import numpy as np
import pytest

from sosreg.calculus import FunctionHandle, multiindices, verify_odd_even_control
from sosreg.errors import DerivativeError, DomainError
from sosreg.exprlang import Pow, Var, catalog_function, catalog_names, differentiate, evaluate, parse_expression
from sosreg.geometry import Ball, ball_points
from sosreg.roots import (
    PowerHandle,
    falling_factorial,
    power_jet,
    verify_power_smoothness_chain,
    verify_root_regularity,
)

from oracles import fd_callable_partial


def handle(src, variables=("x",), radius=4.0):
    return FunctionHandle.from_expr(
        parse_expression(src), variables, domain=Ball((0.0,) * len(variables), radius)
    )


class TestPowerDerivative:
    def test_hand_computed_example(self):
        # d2 sqrt(x^4+1) at x=1: 12/(2 sqrt 2) - 16/(4 * 2^(3/2)) = 2 sqrt 2
        p = PowerHandle(handle("x^4 + 1"), 0.5)
        assert p.derivative_values([1.0], (2,))[0] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_identity_power(self):
        f = handle("x^4 + 1")
        p = PowerHandle(f, 1.0)
        for order in (1, 2, 3):
            assert p.derivative_values([0.7], (order,))[0] == pytest.approx(
                f.derivative_values([0.7], (order,))[0], abs=1e-10
            )

    def test_constant_base(self):
        p = PowerHandle(handle("5"), 0.3)
        assert p.derivative_values([0.2], (2,))[0] == 0.0

    def test_positive_base_required(self):
        p = PowerHandle(handle("x"), 0.5)
        with pytest.raises(DomainError):
            p.derivative_values([-0.5], (1,))

    def test_order_cap(self):
        p = PowerHandle(handle("x^2 + 1"), 0.5, order_cap=2)
        with pytest.raises(DerivativeError):
            p.derivative_values([0.3], (3,))

    def test_falling_factorial_matches_symbolic(self):
        # d^k/dt^k t^gamma = gamma (gamma-1) ... (gamma-k+1) t^(gamma-k)
        for gamma in (0.5, 1.0 / 3.0):
            for k in range(0, 7):
                e = Pow(Var("t"), gamma)
                for _ in range(k):
                    e = differentiate(e, "t")
                for t in (0.5, 2.0):
                    expected = falling_factorial(gamma, k) * t ** (gamma - k)
                    assert evaluate(e, {"t": t}) == pytest.approx(expected, rel=1e-12)

    def test_mixed_partials_match_symbolic_composition(self, quartic_L):
        body = catalog_function("quartic_L").body
        half = Pow(body, 0.5)
        p = PowerHandle(quartic_L, 0.5)
        pt = {"w": 1.1, "x": 0.6, "y": 0.8, "z": 0.9}
        x = [1.1, 0.6, 0.8, 0.9]
        for alpha in [(1, 1, 0, 0), (2, 0, 0, 0), (1, 1, 1, 1), (2, 2, 0, 0)]:
            d = half
            for var, k in zip("wxyz", alpha):
                for _ in range(k):
                    d = differentiate(d, var)
            sym = evaluate(d, pt)
            num = p.derivative_values(x, alpha)[0]
            assert num == pytest.approx(sym, abs=1e-9 * (1 + abs(sym)))

    def test_flat_base_log_space(self, flat_exp):
        # tiny base values: terms combine in log space without overflow
        quarter_sym = Pow(catalog_function("flat_exp").body, 0.25)
        d2 = differentiate(differentiate(quarter_sym, "t"), "t")
        p = PowerHandle(flat_exp, 0.25)
        for t in (0.05, 0.1, 0.3):
            sym = evaluate(d2, {"t": t})
            assert p.derivative_values([t], (2,))[0] == pytest.approx(sym, rel=1e-7)

    def test_matches_nested_fd(self, flat_exp_sq):
        p = PowerHandle(flat_exp_sq, 0.5)
        pts = np.linspace(0.7, 0.95, 20).reshape(-1, 1)
        fn = lambda X: np.maximum(flat_exp_sq.values(X), 0.0) ** 0.5
        for alpha in [(1,), (2,), (3,), (4,)]:
            direct = p.derivative_values(pts, alpha)
            oracle = fd_callable_partial(fn, pts, alpha, h=2e-3)
            assert np.max(np.abs(direct - oracle) / (1 + np.abs(direct))) < 1e-5


def _composition_reference(base, gamma, X, alpha):
    """D^alpha f^gamma by the composition-term table and signed log-space sum
    that PowerHandle used before power_jet: each partial-derivative step
    either bumps the outer derivative or raises one inner factor."""
    n = len(alpha)
    terms = {(0, ()): 1.0}
    for axis in range(n):
        for _ in range(alpha[axis]):
            new = {}
            e = tuple(1 if i == axis else 0 for i in range(n))
            for (m, betas), coeff in terms.items():
                key = (m + 1, tuple(sorted(betas + (e,))))
                new[key] = new.get(key, 0.0) + coeff
                for i, beta in enumerate(betas):
                    raised = tuple(b + (1 if j == axis else 0) for j, b in enumerate(beta))
                    key = (m, tuple(sorted(betas[:i] + betas[i + 1 :] + (raised,))))
                    new[key] = new.get(key, 0.0) + coeff
            terms = new
    log_f = np.log(base.values(X))
    total = np.zeros(len(X))
    for (m, betas), coeff in terms.items():
        c = coeff * falling_factorial(gamma, m)
        if c == 0.0:
            continue
        sign = np.full(len(X), math.copysign(1.0, c))
        log_term = math.log(abs(c)) + (gamma - m) * log_f
        alive = np.ones(len(X), dtype=bool)
        for beta in betas:
            vals = base.derivative_values(X, beta)
            alive &= vals != 0.0
            log_term = log_term + np.log(np.abs(np.where(vals != 0.0, vals, 1.0)))
            sign *= np.where(vals < 0, -1.0, 1.0)
        total += np.where(alive, sign * np.exp(np.where(alive, log_term, 0.0)), 0.0)
    return total


class TestPowerJet:
    def test_matches_composition_reference(self):
        # criterion 8's power points (its generator after the symbolic draws),
        # four exponents, orders 1-4
        rng = np.random.default_rng(17)
        for name in catalog_names():
            for lo, hi in catalog_function(name).sample_box:
                rng.uniform(lo, hi, 100)
        boxes = {
            "flat_exp_sq": ((0.7, 0.95),),
            "flat_exp": ((0.5, 0.95),),
            "bump_h": ((0.65, 0.8),),
            "motzkin_M": ((0.4, 0.9),) * 3,
            "quartic_L": ((0.6, 1.0),) * 4,
        }
        worst = 0.0
        for name, box in boxes.items():
            fh = FunctionHandle.from_def(catalog_function(name))
            pts = np.column_stack([rng.uniform(lo, hi, 120) for lo, hi in box])
            pts = pts[fh.values(pts) > 0.1][:100]
            J = fh.jet(pts, 4)
            for gamma in (0.25, 0.5, 1.0, 2.0):
                P = power_jet(J, gamma)
                for order in (1, 2, 3, 4):
                    for alpha in multiindices(fh.arity, order):
                        axes = tuple(i for i, p in enumerate(alpha) for _ in range(p))
                        ref = _composition_reference(fh, gamma, pts, alpha)
                        got = P[order][(slice(None),) + axes]
                        worst = max(worst, float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref)))))
        assert worst <= 1e-10

    def test_flat_base_near_underflow(self, flat_exp):
        # f(0.0015) is about 1e-290; every partial product stays finite
        pts = np.array([[0.0015], [0.002], [0.003]])
        for gamma in (0.25, 0.5, 1.0, 2.0):
            P = power_jet(flat_exp.jet(pts, 4), gamma)
            for order in (1, 2, 3, 4):
                ref = _composition_reference(flat_exp, gamma, pts, (order,))
                assert np.all(np.isfinite(P[order]))
                assert np.max(np.abs(P[order][(slice(None),) + (0,) * order] - ref) / (1.0 + np.abs(ref))) <= 1e-10

    def test_square_at_tiny_base(self):
        # (x^2)^2 = x^4 at x = 1e-100: f = 1e-200 and the derivatives span 300 decades
        x = 1e-100
        P = power_jet(handle("x^2").jet(np.array([[x]]), 4), 2.0)
        expected = [x**4, 4 * x**3, 12 * x**2, 24 * x, 24.0]
        for order, want in enumerate(expected):
            got = float(P[order].ravel()[0])
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), order

    def test_symmetric_tensors(self, quartic_L):
        pts = np.array([[1.1, 0.6, 0.8, 0.9], [0.7, 0.9, 0.65, 1.0]])
        T = power_jet(quartic_L.jet(pts, 3), 0.5)[3]
        for perm in [(0, 2, 1, 3), (0, 3, 2, 1), (0, 2, 3, 1)]:
            assert np.array_equal(T, np.transpose(T, perm))

    def test_zero_where_base_not_positive(self):
        f = handle("x - 0.5")
        pts = np.array([[0.2], [0.5], [0.9]])
        w, w1, w2 = power_jet(f.jet(pts, 2), 0.5)
        assert np.array_equal(w[:2], [0.0, 0.0]) and np.all(w1[:2] == 0.0) and np.all(w2[:2] == 0.0)
        assert w[2] == pytest.approx(math.sqrt(0.4))
        assert w1[2, 0] == pytest.approx(0.5 / math.sqrt(0.4))
        assert w2[2, 0, 0] == pytest.approx(-0.25 * 0.4**-1.5)

    def test_exponent_must_be_positive(self):
        with pytest.raises(DomainError):
            power_jet(handle("x^2 + 1").jet(np.array([[0.3]]), 1), 0.0)


class TestPowerHandleValue:
    def test_value_on_negative_base(self):
        # value reads values, which clips the base at 0
        p = PowerHandle(handle("x - 1"), 0.5)
        assert p.values([0.5])[0] == 0.0
        assert p.values(np.array([[0.5]]))[0] == 0.0
        assert p.values([3.0])[0] == pytest.approx(math.sqrt(2.0))

    def test_handle_reads_one_base_jet(self):
        f = handle("x^2*y^2 + x^4 + 0.1", ("x", "y"))
        calls = []
        jet = f.jet
        f.jet = lambda X, order: calls.append(order) or jet(X, order)
        h = PowerHandle(f, 0.5)
        T = h.derivative_tensor(np.array([[0.2, 0.3], [0.1, -0.4]]), 3)
        assert calls == [3]
        assert T.shape == (2, 2, 2, 2)


    def test_order_reads_share_one_jet(self):
        # verify_odd_even_control reads each point set by one jet: order 3
        # at the samples and order 4 at the enlarged set, not one per order
        f = handle("x^2*y^2 + x^4 + 0.1", ("x", "y"))
        calls = []
        jet = f.jet
        f.jet = lambda X, order: calls.append(order) or jet(X, order)
        verify_odd_even_control(PowerHandle(f, 0.5), Ball((0.2, 0.1), 0.3), samples=200)
        assert calls == [3, 4]


class TestRootRegularity:
    def test_flat_profile_has_stable_exponent(self, flat_exp):
        rep = verify_root_regularity(flat_exp, s=0.9, M=2, delta_search=[0.05, 0.1],
                                     region=Ball((0.5,), 0.45), samples=150)
        assert rep.best_exponent is not None

    def test_kink_fails_across_zero(self):
        # sqrt(x^2) = |x| is Lipschitz but not C^1 across the origin
        f = handle("x^2")
        rep = verify_root_regularity(f, s=0.8, M=1, delta_search=[0.5],
                                     region=Ball((0.0,), 1.0), samples=200)
        assert rep.truncated or not any(rep.stable.values())
        assert not rep.stable.get(0.5, False)

    def test_constant_function(self):
        rep = verify_root_regularity(handle("1"), s=0.9, M=2, delta_search=[0.3],
                                     region=Ball((0.0,), 1.0), samples=100)
        assert rep.best_exponent == 0.3
        assert rep.estimates[0.3].seminorm <= 1e-10

    def test_exponent_range_validation(self):
        with pytest.raises(DomainError):
            verify_root_regularity(handle("1"), s=0.5, M=2, delta_search=[0.3],
                                   region=Ball((0.0,), 1.0))


def _chain_reference(f, gamma_grid, m_max, region, samples, s):
    """verify_power_smoothness_chain's constants and power sups by the
    per-multi-index, per-point loops it used before reading max_entry_values."""
    pts = ball_points(region, samples)
    log_f = f.log_values(pts)
    constants = {}
    for m in range(1, m_max + 1):
        best = -math.inf
        d = np.zeros(len(pts))
        for alpha in multiindices(f.arity, m):
            d = np.maximum(d, np.abs(f.derivative_values(pts, alpha)))
        with np.errstate(divide="ignore"):
            logd = np.log(d)
        for i in range(len(pts)):
            if logd[i] == -math.inf:
                continue
            if log_f[i] == -math.inf:
                best = math.inf
                break
            best = max(best, logd[i] - s * log_f[i])
        constants[m] = math.exp(best) if best < 700 else math.inf
    power_sup = {}
    for gamma in gamma_grid:
        ph = PowerHandle(f, float(gamma), order_cap=m_max)
        power_sup[float(gamma)] = {
            m: max(float(np.max(np.abs(ph.derivative_values(pts, a)))) for a in multiindices(f.arity, m))
            for m in range(1, m_max + 1)
        }
    return constants, power_sup


class TestPowerSmoothnessChain:
    @pytest.mark.parametrize("src, variables, gammas, m_max, region", [
        ("flatexp(x)", ("x",), [0.5, 0.25, 0.1], 4, Ball((0.5,), 0.45)),
        ("x^2*y^2 + x^4 + 0.1", ("x", "y"), [0.5, 0.75], 3, Ball((0.2, 0.1), 0.3)),
        ("1", ("x",), [0.5], 3, Ball((0.0,), 1.0)),
    ])
    def test_matches_per_multiindex_loop(self, src, variables, gammas, m_max, region):
        f = handle(src, variables)
        rep = verify_power_smoothness_chain(f, gammas, m_max, region, samples=150, s=0.8)
        constants, power_sup = _chain_reference(f, gammas, m_max, region, 150, 0.8)
        assert rep.derivative_constants == constants
        assert rep.power_sup == power_sup

    def test_one_base_jet_for_every_exponent(self):
        # 34 multi-indices of orders 1-4 in 3-D: one derivative call each
        f = handle("x^2*y^2 + x^4 + 0.1 + z^2", ("x", "y", "z"))
        calls = []
        derivative_values = f.derivative_values

        def counted(X, alpha, memo=None):
            calls.append(tuple(alpha))
            return derivative_values(X, alpha, memo=memo)

        f.derivative_values = counted
        rep = verify_power_smoothness_chain(f, [0.5, 0.75], 4, Ball((0.2, 0.1, 0.0), 0.3), samples=300)
        assert len(calls) <= 34
        assert rep.consistent

    def test_chain_needs_positive_base(self):
        with pytest.raises(DomainError):
            verify_power_smoothness_chain(handle("0*x"), [0.5], 2, Ball((0.0,), 0.5), samples=50)

    def test_flat_profile_chain(self, flat_exp):
        rep = verify_power_smoothness_chain(flat_exp, [0.5, 0.25, 0.1], 4,
                                            Ball((0.5,), 0.45), samples=200)
        assert rep.consistent
        assert all(math.isfinite(c) for c in rep.derivative_constants.values())

    def test_constant_function_chain(self):
        rep = verify_power_smoothness_chain(handle("1"), [0.5], 3, Ball((0.0,), 1.0), samples=100)
        assert rep.consistent
        assert all(v == 0.0 for v in rep.derivative_constants.values())

    def test_power_handle_order4_seminorm_finite(self, flat_exp):
        # f^gamma stays fourth-order Hölder-estimable on a truncated interval
        from sosreg.calculus import holder_seminorm

        for gamma in (0.5, 0.25):
            ph = PowerHandle(flat_exp, gamma, order_cap=5)
            est = holder_seminorm(ph, 4, 0.1, Ball((0.55,), 0.4), samples=120)
            assert math.isfinite(est.seminorm)
            assert all(math.isfinite(v) for v in est.sup_norms)

    def test_malgrange_style_gradient_bound(self, flat_exp_sq):
        # |grad(f^beta)| <= C sqrt(f^beta) for smooth nonnegative powers
        beta = 0.5
        p = PowerHandle(flat_exp_sq, beta)
        pts = np.linspace(0.3, 0.95, 60).reshape(-1, 1)
        grads = np.abs(p.derivative_values(pts, (1,)))
        roots = np.sqrt(p.values(pts))
        assert np.max(grads / roots) < 50.0
