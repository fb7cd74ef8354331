import math

import numpy as np
import pytest

from sosreg import counterex
from sosreg.calculus import Modulus
from sosreg.counterex import (
    _misfit,
    _monomials,
    _smoothed,
    DeltaNuReport,
    FamilyParams,
    LogProfile,
    boundary_pair_supremum,
    build_family,
    crucial_lower_bound,
    estimate_delta_nu,
    functional,
    gamma_alpha,
    holder_monotone_threshold,
    monotone_bounds,
    monotone_scan,
    quartic_values,
    sos_failure_criterion,
    threshold_report,
    witness_pair_ratios,
)
from sosreg.errors import DomainError
from sosreg.geometry import sphere_points


class TestGammaAlpha:
    def test_value_at_one(self):
        assert gamma_alpha(1.0) == pytest.approx(1.20711, abs=1e-5)

    def test_threshold(self):
        s0 = holder_monotone_threshold()
        assert s0 == pytest.approx(0.68629, abs=1e-5)

    def test_blowup_as_alpha_vanishes(self):
        vals = [gamma_alpha(a) for a in (1.0, 0.5, 0.1, 0.01)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_positive_argument(self):
        with pytest.raises(DomainError):
            gamma_alpha(0.0)


class TestFamilyParams:
    def test_default_tail_is_small(self):
        FamilyParams()  # validates psi = o(phi t^4)

    def test_bad_tail_rejected(self):
        # psi == phi t^4 exactly: the gap does not decrease
        bad = LogProfile("flat", lambda t: -1.0 / t**2 + 4.0 * np.log(np.abs(t)))
        with pytest.raises(DomainError):
            FamilyParams(psi=bad)

    def test_plateau_range(self):
        with pytest.raises(DomainError):
            FamilyParams(rho_plateau=1.2)


class TestFamilyValues:
    def test_on_axis_equals_psi(self):
        p = FamilyParams()
        fam = build_family(p)
        t = 0.3
        assert fam.values([0, 0, 0, 0, t])[0] == pytest.approx(
            float(np.exp(p.psi.log(np.array([t]))[0])), rel=1e-12
        )

    def test_at_zero_time_equals_phi_r(self):
        fam = build_family(FamilyParams())
        r = 0.4
        assert fam.values([r, 0, 0, 0, 0.0])[0] == pytest.approx(math.exp(-1 / r**2), rel=1e-12)

    def test_plateau_vanishes_for_large_time(self):
        p = FamilyParams()
        fam = build_family(p)
        # t >= r > 0: only the quartic and tail terms remain
        W = [0.2, 0.0, 0.0, 0.0]
        t = 0.25
        expected = math.exp(-1 / t**2) * quartic_values([W])[0] + float(
            np.exp(p.psi.log(np.array([t]))[0])
        )
        assert fam.values(W + [t])[0] == pytest.approx(expected, rel=1e-12)

    def test_non_default_profiles_are_refused(self):
        for p in (FamilyParams(psi=LogProfile.exact_sos_boundary(0.5)), FamilyParams(psi=LogProfile.power_tail(0.3))):
            with pytest.raises(DomainError, match="default profiles"):
                build_family(p)

    def test_log_values_consistent(self):
        p = FamilyParams()
        fam = build_family(p)
        x = [0.1, 0.05, 0.02, 0.08, 0.07]
        assert math.exp(fam.log_values([x])[0]) == pytest.approx(fam.values(x)[0], rel=1e-10)

    def test_quartic_homogeneity(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(50, 4))
        lam = rng.uniform(0.2, 2.0, 50)
        a = quartic_values(W * lam[:, None])
        b = lam**4 * quartic_values(W)
        assert np.max(np.abs(a - b) / (1 + np.abs(b))) < 1e-12


class TestFunctionals:
    def test_t_verdict_flips_at_threshold(self):
        p = FamilyParams()
        g1 = gamma_alpha(1.0)
        below = functional(p, "T", g1, Modulus.omega(0.6))
        above = functional(p, "T", g1, Modulus.omega(0.75))
        assert not below.divergent
        assert above.divergent

    def test_threshold_sharp_within_two_percent(self):
        # the flip happens within s0 +/- 0.02 on the dyadic grid
        p = FamilyParams()
        g1 = gamma_alpha(1.0)
        s0 = holder_monotone_threshold()
        assert not functional(p, "T", g1, Modulus.omega(s0 - 0.02)).divergent
        assert functional(p, "T", g1, Modulus.omega(s0 + 0.02)).divergent

    def test_r_dominated_by_s(self):
        p = FamilyParams()
        for gamma in (0.7, 1.0, 1.5):
            r = functional(p, "R", gamma, Modulus.omega(0.5))
            s = functional(p, "S", gamma, Modulus.omega(0.5))
            assert r.log_sup <= s.log_sup + 1e-9

    def test_s_finite_up_to_tail_exponent(self):
        # S(1/2) with the tail psi = phi(t/2)^(1/s') t^(4/s') is finite
        # exactly when s <= s'
        p = FamilyParams(s_prime=0.5)
        assert not functional(p, "S", 0.5, Modulus.omega(0.45)).divergent
        assert not functional(p, "S", 0.5, Modulus.omega(0.5)).divergent
        assert functional(p, "S", 0.5, Modulus.omega(0.65)).divergent

    def test_unknown_functional(self):
        with pytest.raises(DomainError):
            functional(FamilyParams(), "Q", 1.0, Modulus.omega(0.5))

    def test_custom_modulus_table(self):
        m = Modulus.from_table([(1e-6, 1e-3), (1e-3, 0.05), (1.0, 1.0)])
        rep = functional(FamilyParams(), "T", 1.0, m)
        assert math.isfinite(rep.log_sup)


class TestWitnessPairs:
    def test_boundary_parametrization_consistency(self):
        # points on the circle satisfy |Q - P/2| = |P|/2
        ts = np.array([0.5, 0.25, 0.1])
        for ratio in (0.0, 0.5, 2.0):
            r = ratio * ts
            R = np.sqrt(r**2 + ts**2)
            for th in np.linspace(0, 2 * math.pi, 9):
                z = r / 2 + R / 2 * math.cos(th)
                u = ts / 2 + R / 2 * math.sin(th)
                P = np.concatenate([np.outer(r, [1, 0, 0, 0]), ts[:, None]], axis=1)
                Q = np.concatenate([np.outer(z, [1, 0, 0, 0]), u[:, None]], axis=1)
                lhs = np.linalg.norm(Q - P / 2, axis=1)
                rhs = np.linalg.norm(P, axis=1) / 2
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_pair_shapes_across_a_decade(self):
        p = FamilyParams()
        m = Modulus.omega(0.6)
        ts = 2.0 ** (-np.arange(2, 9, 0.5))
        wr = witness_pair_ratios(p, m, ts)
        log_om_psi = np.array([m.log_eval(min(v, 0.0)) for v in p.psi.log(ts)])
        s_shape = p.phi.log(ts / 2) + 4 * np.log(ts) - log_om_psi
        spread1 = np.max(wr["pair1"] - s_shape) - np.min(wr["pair1"] - s_shape)
        assert spread1 < math.log(50.0)
        log_om_phit4 = np.array([m.log_eval(min(v, 0.0)) for v in (p.phi.log(ts) + 4 * np.log(ts))])
        t_shape = p.phi.log(gamma_alpha(1.0) * ts) + 4 * np.log(ts) - log_om_phit4
        spread2 = np.max(wr["pair2"] - t_shape) - np.min(wr["pair2"] - t_shape)
        assert spread2 < math.log(50.0)

    def test_witnesses_below_searched_supremum(self):
        p = FamilyParams(s_prime=0.55)
        m = Modulus.omega(0.12)
        ts = 2.0 ** (-np.arange(2, 8, 0.5))
        wr = witness_pair_ratios(p, m, ts)
        sup = boundary_pair_supremum(p, m)
        assert np.max(wr["pair1"]) <= sup["log_sup"] + 1e-9
        assert np.max(wr["pair2"]) <= sup["log_sup"] + 1e-9


    def test_boundary_pairs_in_two_batches(self, monkeypatch):
        # one batch of the P and one of the Q
        batches = []
        inner = counterex.family_log_values
        monkeypatch.setattr(counterex, "family_log_values", lambda p, X: batches.append(len(X)) or inner(p, X))
        sup = boundary_pair_supremum(FamilyParams(), Modulus.omega(0.6))
        assert len(batches) <= 2
        assert math.isfinite(sup["log_sup"]) and len(sup["P"]) == len(sup["Q"]) == 5


class TestThresholdReport:
    def test_flip_at_gamma_one(self):
        report = threshold_report(1.0, verify_flip=True)
        assert report.printed == "0.68629" and report.in_unit_interval
        assert report.flip["flips"] and report.passed

    def test_unverified_report_passes(self):
        report = threshold_report(1.0)
        assert report.flip is None and report.passed

    def test_no_threshold_in_the_unit_interval(self):
        # gamma_2 = (1 + sqrt 5)/4 < 1 puts s0 at 1.52786, beyond every omega_s
        report = threshold_report(2.0, verify_flip=True)
        assert report.printed == "1.52786" and not report.in_unit_interval
        assert report.flip == {"below": None, "above": None, "flips": False}
        assert not report.passed


class TestMonotoneScan:
    def test_rows_and_verdicts(self):
        report = monotone_scan(FamilyParams(), 0.75, [0.5, 0.65])
        assert report.header == ["s", "beta", "rho", "S", "T", "verdictSOS", "verdictMonotone"]
        assert [row[0] for row in report.rows] == [0.5, 0.65]
        assert {row[5] for row in report.rows} == {sos_failure_criterion(FamilyParams(), 0.75)["verdict"]}
        assert report.passed


class TestMonotoneBounds:
    def test_sandwich_in_finite_regime(self):
        # all five functionals finite needs rho near 1, small delta, and
        # 4s <= s' so the interior-arc pairs stay bounded
        p = FamilyParams(s_prime=0.55, rho_plateau=0.9)
        out = monotone_bounds(p, Modulus.omega(0.12), delta=0.05)
        assert out["divergent"] is False
        assert out["sandwich_holds"]

    def test_divergent_regime_reported(self):
        p = FamilyParams(s_prime=0.5, rho_plateau=0.5)
        out = monotone_bounds(p, Modulus.omega(0.75), delta=0.1)
        assert out["divergent"] is True
        assert out["sandwich_holds"] is None


class TestSosFailureCriterion:
    def test_beta_above_tail_exponent_fails_sos(self):
        assert sos_failure_criterion(FamilyParams(s_prime=0.5), 0.75)["verdict"] == "fails-SOS"

    def test_beta_below_tail_exponent(self):
        assert sos_failure_criterion(FamilyParams(s_prime=0.5), 0.3)["verdict"] == "does-not-trigger"

    def test_boundary_tail_inconclusive(self):
        p = FamilyParams(psi=LogProfile.exact_sos_boundary(0.5))
        assert sos_failure_criterion(p, 0.5)["verdict"] == "inconclusive"

    def test_beta_validation(self):
        with pytest.raises(DomainError):
            sos_failure_criterion(FamilyParams(), 1.5)


class TestDeltaNu:
    def test_empty_family_pointwise_inf_vanishes(self):
        rep = estimate_delta_nu(0, sphere_samples=2000)
        # the quartic vanishes on coordinate-axis sphere points, so the
        # pointwise infimum collapses while the sup-distance stays order one
        assert rep.pointwise_inf < 1e-2
        assert rep.estimate > 0.5
        axes = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])
        assert np.all(quartic_values(axes) == 0.0)

    def test_single_form_estimate_positive_and_stable(self):
        rep = estimate_delta_nu(1, sphere_samples=1000, restarts=8, iterations=240, seed=11)
        assert rep.estimate > 0.0
        assert rep.stable

    def test_richer_family_never_increases(self):
        r1 = estimate_delta_nu(1, sphere_samples=800, restarts=6, iterations=120, seed=11)
        r2 = estimate_delta_nu(2, sphere_samples=800, restarts=6, iterations=120, seed=11)
        assert r2.estimate <= r1.estimate * 1.05

    def test_nu_validation(self):
        with pytest.raises(DomainError):
            estimate_delta_nu(7)

    def test_restarts_reproduce_reference_values(self):
        # restarts 13-15 of criterion 11's run, as recorded before the exact gradient
        rep = estimate_delta_nu(1, seed=7 + 13000, restarts=3)
        assert rep.restart_values == pytest.approx([0.20049268, 0.20050603, 0.20053424], abs=1e-6)

    @pytest.mark.parametrize(("seed", "restarts"), [(7 + 13000, 3), (7, 20)])
    def test_lean_objective_reproduces_restarts_bit_for_bit(self, monkeypatch, seed, restarts):
        # the numpy-wrapper forms of the helpers that the descent calls
        def misfit(theta, Phi, L):
            q = theta.reshape(-1, 10) @ Phi.T
            return L - np.sum(q**2, axis=0), q

        def softmax(r, tau):
            m = r**2
            top = float(np.max(m))
            e = np.exp((m - top) / tau)
            mean = float(np.mean(e)) + 1e-300
            return top + tau * math.log(mean), e, mean

        def gradient(r, q, e, mean, Phi):
            weight = e / (e.size * mean)
            return ((-4.0 * weight * r * q) @ Phi).ravel()

        lean = estimate_delta_nu(1, seed=seed, restarts=restarts).restart_values
        monkeypatch.setattr(counterex, "_misfit", misfit)
        monkeypatch.setattr(counterex, "_softmax", softmax)
        monkeypatch.setattr(counterex, "_gradient", gradient)
        assert estimate_delta_nu(1, seed=seed, restarts=restarts).restart_values == lean
        # the box projection's ufunc pair is np.clip's own rule
        x = np.linspace(-4.0, 4.0, 81)
        assert np.array_equal(np.minimum(np.maximum(x, -3.0), 3.0), np.clip(x, -3.0, 3.0))


def _descend_reference(theta, tau, Phi, L, c0, iterations):
    """The descent loop without the skip: every one of the iterations runs."""
    step = 0.1
    stalled = True
    for i in range(iterations):
        if i and i % 40 == 0:
            tau = max(tau * 0.4, 1e-9)
            step = max(step, 1e-3)
        val, grad = _smoothed(theta, tau, Phi, L, grad=True)
        gn = np.linalg.norm(grad)
        if gn == 0:
            break
        improved = False
        for _ in range(40):
            cand = np.minimum(np.maximum(theta - step * grad / gn, -c0), c0)
            if _smoothed(cand, tau, Phi, L) < val:
                theta = cand
                improved = True
                break
            step *= 0.5
            if step < 1e-14:
                break
        if improved:
            step *= 1.7
            stalled = False
        if step < 1e-14:
            step = 1e-6
    return theta, stalled


class TestDeltaNuSkip:
    """Skipping the steps that repeat a failed search from the reset step
    changes no result, and saves most objective evaluations."""

    @pytest.mark.parametrize(
        ("nu", "seed", "restarts"), [(1, 7 + 13000, 3), (1, 7, 20), (2, 11, 5), (3, 5, 3), (4, 2, 2)]
    )
    def test_report_equals_the_full_loop(self, monkeypatch, nu, seed, restarts):
        skipping = estimate_delta_nu(nu, c0=3.0, seed=seed, restarts=restarts).as_dict()
        monkeypatch.setattr(counterex, "_descend", _descend_reference)
        assert estimate_delta_nu(nu, c0=3.0, seed=seed, restarts=restarts).as_dict() == skipping

    def test_objective_evaluations(self, monkeypatch):
        # each iterate's misfit is evaluated once: 2,658 evaluations on lab's
        # restarts, where the full loop takes 7,470
        calls = []

        def counting(*args):
            calls.append(1)
            return _misfit(*args)

        monkeypatch.setattr(counterex, "_misfit", counting)
        estimate_delta_nu(1, c0=3.0, sphere_samples=2000, restarts=3, iterations=300, seed=7 + 13000)
        assert len(calls) <= 2700


class TestDeltaNuObjective:
    W = sphere_points(400, 4)

    def test_monomials_give_the_quadratic_forms(self):
        theta = np.random.default_rng(5).uniform(-1.0, 1.0, size=20)
        mats = np.zeros((2, 4, 4))
        for ell in range(2):
            for k, (i, j) in enumerate((i, j) for i in range(4) for j in range(i, 4)):
                mats[ell, i, j] = mats[ell, j, i] = theta[10 * ell + k]
        q = np.einsum("pi,lij,pj->lp", self.W, mats, self.W)
        r, q_phi = _misfit(theta, _monomials(self.W), quartic_values(self.W))
        assert np.allclose(q_phi, q, rtol=0, atol=1e-13)
        assert np.allclose(r, quartic_values(self.W) - np.sum(q**2, axis=0), rtol=0, atol=1e-13)

    def test_misfit_adds_the_squares_as_np_sum(self):
        Phi, L = _monomials(self.W), quartic_values(self.W)
        for nu in range(1, 5):
            theta = np.random.default_rng(nu).uniform(-1.0, 1.0, size=10 * nu)
            q = theta.reshape(-1, 10) @ Phi.T
            assert np.array_equal(_misfit(theta, Phi, L)[0], L - np.sum(q * q, axis=0))

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("tau", [0.05, 0.002])
    def test_gradient_matches_central_differences(self, nu, tau):
        Phi, L = _monomials(self.W), quartic_values(self.W)
        theta = np.random.default_rng(100 * nu + 1).uniform(-0.5, 0.5, size=10 * nu)
        val, grad = _smoothed(theta, tau, Phi, L, grad=True)
        assert val == _smoothed(theta, tau, Phi, L)
        h = 1e-6
        fd = np.array([
            (_smoothed(theta + h * e, tau, Phi, L) - _smoothed(theta - h * e, tau, Phi, L)) / (2 * h)
            for e in np.eye(theta.size)
        ])
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)


class TestCrucialLowerBound:
    def test_exponent_at_half(self):
        # beta/(8-2beta) = 1/14 at beta = 1/2
        curve = crucial_lower_bound(0.1, 0.5, [1e-2, 1e-4])
        assert curve[1][1] / curve[0][1] == pytest.approx((1e-2) ** (-1.0 / 14.0), rel=1e-12)

    def test_monotone_blowup(self):
        curve = crucial_lower_bound(0.2, 0.3, [10.0**-k for k in range(1, 8)])
        vals = [v for _, v in curve]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_power_law_in_gap(self):
        beta = 0.5
        a = crucial_lower_bound(0.1, beta, [1e-3])[0][1]
        b = crucial_lower_bound(0.2, beta, [1e-3])[0][1]
        assert b / a == pytest.approx(2.0 ** (2.0 / (4.0 - beta)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            crucial_lower_bound(-1.0, 0.5, [0.1])
