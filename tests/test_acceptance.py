"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line (run pytest with
-s to see them inline).  The slow decomposition runs are shared fixtures so
the residual, exact-identity and Hölder-stability criteria reuse one another's
work.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sosreg.calculus import (
    FunctionHandle,
    Modulus,
    holder_seminorm,
    multiindices,
    verify_odd_even_control,
)
from sosreg.counterex import (
    FamilyParams,
    estimate_delta_nu,
    functional,
    gamma_alpha,
    quartic_values,
    witness_pair_ratios,
)
from sosreg.cover import (
    ControlDistanceParams,
    build_cover,
    build_partition,
    verify_slowly_varying,
)
from sosreg.exprlang import Pow, catalog_function, catalog_names, parse_expression
from sosreg.geometry import Ball, ball_points
from sosreg.monotone import monotone_functional
from sosreg.roots import PowerHandle
from sosreg.sos import (
    DecomposeParams,
    decompose,
    delta_sequence,
    implicit_second_derivative,
    root_holder_estimate,
    track_implicit_root,
)

from oracles import fd_partial_richardson


def handle(src, variables=("x",), radius=4.0):
    return FunctionHandle.from_expr(
        parse_expression(src), variables, domain=Ball((0.0,) * len(variables), radius)
    )


def report_line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({detail})")


DECOMP_CASES = {
    "constant": ("4", ("x",), Ball((0.0,), 1.0)),
    "parabola_1d": ("x^2", ("x",), Ball((0.0,), 1.0)),
    "isotropic_2d": ("x^2 + y^2", ("x", "y"), Ball((0.0, 0.0), 0.12)),
    "quartic_2d": ("x^4 + y^4 + 0.1", ("x", "y"), Ball((0.0, 0.0), 0.06)),
}


@pytest.fixture(scope="module")
def decomposition_runs():
    runs = {}
    for name, (src, variables, region) in DECOMP_CASES.items():
        f = handle(src, variables)
        params = DecomposeParams(
            delta=0.25, eta=0.3, region=region, floor=1e-3, tol=1e-6,
            verify_points=3000, estimate_holder=False,
        )
        t0 = time.time()
        rep = decompose(f, params)
        runs[name] = {"f": f, "report": rep, "seconds": time.time() - t0, "src": src}
    return runs


def test_criterion_01_partition_of_unity():
    t0 = time.time()
    worst = 0.0
    cases = [
        (handle("1"), Ball((0.0,), 1.0), 1),
        (handle("x^2"), Ball((0.0,), 1.0), 1),
        (handle("x^2 + y^2", ("x", "y")), Ball((0.0, 0.0), 0.25), 2),
    ]
    for f, region, dim in cases:
        cells = build_cover(f, ControlDistanceParams(0.25), region, floor=1e-3)
        part = build_partition(cells, region)
        pts = ball_points(Ball(center=region.center, radius=0.98 * region.radius), 10_000)
        worst = max(worst, part.check_unity(pts))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report_line(1, "partition-of-unity", ok, f"max |sum Phi^2 - 1| = {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_decomposition_residual(decomposition_runs):
    ok = True
    details = []
    for name, run in decomposition_runs.items():
        rep = run["report"]
        region = rep.params.region
        pts = ball_points(region, 2000)
        sup_f = float(np.max(run["f"].values(pts)))
        tol = 1e-6 * (1.0 + sup_f)
        good = rep.residual_points > 0 and rep.residual_sup <= tol and run["seconds"] < 60.0
        ok = ok and good and rep.passed
        details.append(f"{name}: sup {rep.residual_sup:.1e} <= {tol:.1e}, {run['seconds']:.1f} s")
    report_line(2, "decomposition-residual", ok, "; ".join(details))
    assert ok
    # the report's own pass/fail rule, shared with the CLI
    assert all(run["report"].passed for run in decomposition_runs.values())


def test_criterion_03_case_two_exact_identity(decomposition_runs):
    rep = decomposition_runs["isotropic_2d"]["report"]
    case_two = rep.case_ii
    worst = max(cd.identity_error for cd in case_two) if case_two else math.nan
    samples = rep.params.identity_samples
    ok = bool(case_two) and worst <= 1e-10 and samples >= 1000
    report_line(3, "fiber-split-identity", ok,
                f"{len(case_two)} case II cells, max |f - F - H (y-X)^2| = {worst:.1e} "
                f"at {samples} samples each")
    assert case_two, "the 2D run must produce at least one second-derivative-dominated cell"
    assert worst <= 1e-10
    assert samples >= 1000


def test_criterion_04_odd_even_derivative_controls():
    names = ["flat_exp_sq", "flat_exp", "bump_h", "motzkin_M", "quartic_L"]
    regions = {
        "flat_exp_sq": Ball((0.0,), 1.0),
        "flat_exp": Ball((0.0,), 1.0),
        "bump_h": Ball((0.0,), 1.4),
        "motzkin_M": Ball((0.0, 0.0, 0.0), 1.0),
        "quartic_L": Ball((0.0,) * 4, 1.0),
    }
    ok = True
    details = []
    for name in names:
        f = FunctionHandle.from_def(catalog_function(name))
        rep = verify_odd_even_control(f, regions[name], samples=10_000)
        ok = ok and rep.passed
        worst = max(rep.worst_ratios.values())
        details.append(f"{name}: {len(rep.violations)} violations, worst ratio {worst:.3f}")
    report_line(4, "odd-even-controls", ok, "; ".join(details))
    assert ok


def test_criterion_05_slow_variation():
    cases = [
        (handle("x^4/24"), Ball((0.0,), 1.0), "x^4/24"),
        (FunctionHandle.from_def(catalog_function("flat_exp_sq")), Ball((0.525,), 0.475), "flat profile"),
    ]
    ok = True
    details = []
    for f, region, label in cases:
        for delta in (0.1, 0.25, 0.45):
            rep = verify_slowly_varying(f, ControlDistanceParams(delta), region, samples=10_000)
            ok = ok and rep.passed and rep.worst_ratio <= rep.bound
            details.append(f"{label} d={delta}: worst {rep.worst_ratio:.3f} <= {rep.bound:.3f}")
    report_line(5, "slow-variation", ok, "; ".join(details[:3]) + " ...")
    assert ok


def test_criterion_06_exponent_recursion_sandwich():
    t0 = time.perf_counter()
    seq = delta_sequence(0.4, 0.3, 5)
    elapsed = time.perf_counter() - t0
    lo, hi = 0.8 * 0.5**4 * 0.4, 1.25 * 0.6**4 * 0.4
    assert lo == pytest.approx(0.02)
    assert hi == pytest.approx(0.0648)
    # exact-rational companion of the same recursion
    d, eta = Fraction(2, 5), Fraction(3, 10)
    exact = [d]
    for _ in range(4):
        u = eta * exact[-1] / (1 + exact[-1])
        exact.append(2 * u / (1 - u))
    inside = lo <= seq[-1] <= hi
    agrees = abs(seq[-1] - float(exact[-1])) < 1e-14
    ok = inside and agrees and elapsed < 1e-3
    report_line(6, "exponent-recursion", ok,
                f"delta_4 = {seq[-1]:.6f} in [{lo:.4f}, {hi:.4f}], {elapsed*1e6:.0f} us")
    assert inside and agrees
    assert elapsed < 1e-3


def test_criterion_07_holder_monotone_threshold(capsys, tmp_path):
    from sosreg.cli import main

    t0 = time.time()
    code = main(["counterex", "threshold", "--gamma-alpha", "1",
                 "--report", str(tmp_path / "threshold.json")])
    printed = capsys.readouterr().out
    s0 = float(printed.splitlines()[0].split("=")[-1])
    p = FamilyParams()
    g1 = gamma_alpha(1.0)
    below = functional(p, "T", g1, Modulus.omega(0.6))
    above = functional(p, "T", g1, Modulus.omega(0.75))
    elapsed = time.time() - t0
    flips = (not below.divergent) and above.divergent
    ok = code == 0 and abs(s0 - 0.68629) <= 1e-5 and flips and elapsed < 5.0
    with capsys.disabled():
        report_line(7, "threshold", ok,
                    f"printed {s0}, flip finite@0.6 / divergent@0.75 = {flips}, {elapsed:.1f} s")
    assert abs(s0 - 0.68629) <= 1e-5
    assert flips
    assert elapsed < 5.0


def test_criterion_08_derivative_oracles():
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst_sym = 0.0
    for name in catalog_names():
        fdef = catalog_function(name)
        fh = FunctionHandle.from_def(fdef)
        pts = np.column_stack([rng.uniform(lo, hi, 100) for lo, hi in fdef.sample_box])
        for order in (1, 2, 3, 4):
            for alpha in multiindices(fdef.arity, order):
                sym = fh.derivative_values(pts, alpha)
                fd = fd_partial_richardson(fdef, pts, alpha)
                worst_sym = max(worst_sym, float(np.max(np.abs(sym - fd) / (1.0 + np.abs(sym)))))

    # composition-formula power derivatives against the same oracle on f^gamma
    worst_pow = 0.0
    gamma = 0.5
    power_cases = {
        "flat_exp_sq": ((0.7, 0.95),),
        "flat_exp": ((0.5, 0.95),),
        "bump_h": ((0.65, 0.8),),
        "motzkin_M": ((0.4, 0.9),) * 3,
        "quartic_L": ((0.6, 1.0),) * 4,
    }
    base_calls = {}
    for name, box in power_cases.items():
        fdef = catalog_function(name)
        fh = FunctionHandle.from_def(fdef)
        calls = base_calls[name] = []
        derivative_values = fh.derivative_values
        fh.derivative_values = lambda X, a, memo=None: calls.append(a) or derivative_values(X, a, memo=memo)
        ph = PowerHandle(fh, gamma)
        pts = np.column_stack([rng.uniform(lo, hi, 120) for lo, hi in box])
        pts = pts[fh.values(pts) > 0.1][:100]
        power_def = type(fdef)(
            name=f"{name}_pow", variables=fdef.variables, body=Pow(fdef.body, gamma),
            domain=fdef.domain,
        )
        for order in (1, 2, 3, 4):
            T = ph.derivative_tensor(pts, order)
            for alpha in multiindices(fdef.arity, order):
                direct = T[(slice(None),) + tuple(i for i, p in enumerate(alpha) for _ in range(p))]
                fd = fd_partial_richardson(power_def, pts, alpha)
                worst_pow = max(worst_pow, float(np.max(np.abs(direct - fd) / (1.0 + np.abs(direct)))))
    elapsed = time.time() - t0
    ok = worst_sym <= 1e-5 and worst_pow <= 1e-5 and elapsed < 30.0
    report_line(8, "derivative-oracles", ok,
                f"symbolic vs FD {worst_sym:.1e}, power vs FD {worst_pow:.1e}, {elapsed:.1f} s")
    assert worst_sym <= 1e-5
    assert worst_pow <= 1e-5
    assert elapsed < 30.0
    # one base jet per order: 121 base reads for quartic_L's 69 multi-indices
    assert len(base_calls["quartic_L"]) <= 425


def test_criterion_09_implicit_second_derivatives():
    worst = 0.0
    cases = [
        ("x^3 + s*x - s^2", 0.5, (0.0, 1.0)),
        ("sin(x) + s^2*x - 0.5*s", 0.7, (0.0, 1.0)),
    ]
    for src, xi0, bracket in cases:
        H = handle(src, ("s", "x"))
        root = track_implicit_root(H, [xi0], *bracket)
        d2 = implicit_second_derivative(H, (xi0, root))[0, 0]
        h = 1e-3
        roots = [track_implicit_root(H, [xi0 + k * h], *bracket) for k in (-2, -1, 0, 1, 2)]
        fd = (-roots[0] + 16 * roots[1] - 30 * roots[2] + 16 * roots[3] - roots[4]) / (12 * h * h)
        worst = max(worst, abs(d2 - fd))
    ok = worst <= 1e-6
    report_line(9, "implicit-function-formulas", ok, f"max |formula - FD| = {worst:.1e}")
    assert worst <= 1e-6


def test_criterion_10_monotone_functional_and_witnesses():
    f = handle("x", radius=2.0)
    rep = monotone_functional(
        f, Modulus.omega(0.5), outer_samples=300, inner_samples=64,
        t_min=1e-3, region=Ball((0.5,), 0.5),
    )
    closed_form_ok = abs(rep.estimate - 1.0) <= 1e-3

    p = FamilyParams()
    m = Modulus.omega(0.6)
    ts = 2.0 ** (-np.arange(2.0, 5.6, 0.25))  # spans a full decade of t
    wr = witness_pair_ratios(p, m, ts)
    log_om_psi = np.array([m.log_eval(min(v, 0.0)) for v in p.psi.log(ts)])
    s_shape = p.phi.log(ts / 2) + 4 * np.log(ts) - log_om_psi
    log_om_phit4 = np.array([m.log_eval(min(v, 0.0)) for v in (p.phi.log(ts) + 4 * np.log(ts))])
    t_shape = p.phi.log(gamma_alpha(1.0) * ts) + 4 * np.log(ts) - log_om_phit4
    spread1 = float(np.max(wr["pair1"] - s_shape) - np.min(wr["pair1"] - s_shape))
    spread2 = float(np.max(wr["pair2"] - t_shape) - np.min(wr["pair2"] - t_shape))
    shapes_ok = spread1 <= math.log(10.0) and spread2 <= math.log(10.0)
    ok = closed_form_ok and shapes_ok
    report_line(10, "monotone-functional", ok,
                f"search {rep.estimate:.5f} vs 1.0; witness shape spreads e^{spread1:.2e}, e^{spread2:.2e}")
    assert closed_form_ok
    assert shapes_ok


def test_criterion_11_quartic_gap():
    t0 = time.time()
    rep = estimate_delta_nu(1, c0=3.0, sphere_samples=2000, restarts=20, iterations=300, seed=7)
    sphere = __import__("sosreg.geometry", fromlist=["sphere_points"]).sphere_points(10_000, 4)
    vals = quartic_values(sphere)
    axes = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])
    elapsed = time.time() - t0
    nonneg = float(np.min(vals)) >= -1e-12
    forced_zero = bool(np.all(quartic_values(axes) == 0.0))
    ok = rep.estimate > 0 and rep.stable and nonneg and forced_zero and elapsed < 120.0
    report_line(11, "quartic-gap", ok,
                f"delta_1 = {rep.estimate:.4f} (stable={rep.stable}), sphere min {np.min(vals):.2e}, "
                f"{elapsed:.0f} s")
    assert rep.estimate > 0
    assert rep.stable
    assert nonneg and forced_zero
    assert elapsed < 120.0


def test_criterion_12_root_holder_stability(decomposition_runs):
    t0 = time.time()
    ok = True
    worst_growth = 0.0
    groups_checked = 0
    for name, run in decomposition_runs.items():
        rep = run["report"]
        if rep.empty:
            continue
        n = run["f"].arity
        exponent = rep.deltas[-1]
        region = rep.params.region
        for grp in rep.roots:
            base = root_holder_estimate(grp, exponent, samples=240)
            fine = root_holder_estimate(grp, exponent, samples=960)
            growth = fine.seminorm / base.seminorm - 1.0 if base.seminorm > 0 else 0.0
            worst_growth = max(worst_growth, growth)
            ok = ok and growth < 0.5
            groups_checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report_line(12, "root-holder-stability", ok,
                f"{groups_checked} root groups, worst growth {100 * worst_growth:.1f}% under 4x pairs, "
                f"{elapsed:.1f} s")
    assert groups_checked > 0
    assert ok
    assert elapsed < 60.0
