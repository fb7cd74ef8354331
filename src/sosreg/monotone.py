"""Weak-monotonicity functionals over the two-point ball family.

The central object is the supremum of f(y) / omega(f(x)) over x in the unit
ball and y in B(x/2, |x|/2), the ball having the segment from the origin to
x as a diameter.  Finiteness of this functional for the one-parameter moduli
omega_s classifies a nonnegative function as s-power monotone; holding for
every s < 1 is "nearly monotone", for some s is "Hölder monotone".

Suprema are approximated by nested low-discrepancy grids plus deterministic
coordinate ascent; a "finite" verdict additionally requires stability under
doubling the sample counts and halving the truncation radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import FunctionHandle, Modulus, log_ratios, require_nonnegative
from .errors import DomainError, NonnegativityError
from .geometry import Ball, ball_points
from .reporting import Report

__all__ = [
    "MonotoneReport",
    "monotone_functional",
    "classify_monotonicity",
    "verify_power_bound",
    "MonotonicityClassification",
    "PowerBoundReport",
]

STABILITY_TOLERANCE = 0.05  # "finite" verdict: < 5% change under refinement


@dataclass
class MonotoneReport(Report):
    op = "monotone_functional"
    derived = ("passed",)

    modulus: str
    estimate: float
    log_estimate: float
    maximizing_x: tuple
    maximizing_y: tuple
    outer_samples: int
    inner_samples: int
    t_min: float
    rescale: float
    divergent: bool = False
    witness: tuple | None = None

    @property
    def passed(self) -> bool:
        """The functional is finite: no sampled pair witnessed divergence."""
        return not self.divergent


def _inner_ball_grid(x: np.ndarray, count: int) -> np.ndarray:
    """Nested grid on B(x/2, |x|/2).  In one dimension this is the interval
    (0, x); in higher dimensions a low-discrepancy ball grid."""
    n = x.size
    if n == 1:
        # dyadic-refinable 1-D grid on (0, x): k/(count+1), k = 1..count
        fracs = np.arange(1, count + 1) / (count + 1.0)
        return (fracs * x[0]).reshape(-1, 1)
    return ball_points(Ball(center=tuple(x / 2.0), radius=float(np.linalg.norm(x) / 2.0)), count)


def _log_values(f: FunctionHandle, X: np.ndarray) -> np.ndarray:
    """log f, -inf where f is zero to within the nonnegativity tolerance."""
    with np.errstate(invalid="ignore"):
        logs = f.log_values(X)
    if np.any(np.isnan(logs)):
        vals = f.values(X)
        require_nonnegative(X, vals)
        logs = np.where(np.isnan(logs) & (vals <= 0.0), -np.inf, logs)
    return logs


def _log_ratio(f: FunctionHandle, m: Modulus, scale_log: float, xs: np.ndarray, ys: np.ndarray):
    """log of f(y)/scale / omega(f(x)/scale) for paired sample arrays."""
    log_fy = _log_values(f, ys) - scale_log
    log_fx = _log_values(f, xs) - scale_log
    return log_ratios(log_fy, m.log_eval(np.minimum(log_fx, 0.0)), 1.0)


def monotone_functional(
    f: FunctionHandle,
    m: Modulus,
    outer_samples: int = 200,
    inner_samples: int = 64,
    t_min: float = 1e-3,
    region: Ball | None = None,
    ascent_steps: int = 50,
) -> MonotoneReport:
    """Estimate sup f(y) / omega(f(x)) over x in the region, y in B(x/2,|x|/2).

    f is first rescaled by its sampled supremum so the modulus argument stays
    in [0,1]; the rescaling is reported.  A zero of f at a sampled x with a
    nonvanishing paired f(y) makes the functional infinite and is reported as
    divergence with the witness pair.  A sampled value below -1e-12 (1 + |f|)
    raises NonnegativityError naming its point; values within that tolerance
    count as zeros.
    """
    if t_min <= 0:
        raise DomainError("t_min must be positive")
    region = region or Ball(center=(0.0,) * f.arity, radius=1.0)
    n = f.arity

    xs = ball_points(region, outer_samples, inner_radius=t_min)
    if len(xs) == 0:
        raise DomainError("no outer samples outside the truncation radius")

    fx = f.values(xs)
    require_nonnegative(xs, fx)
    sup_f = float(np.max(fx))
    scale_log = math.log(sup_f) if sup_f > 1.0 else 0.0
    rescale = math.exp(scale_log)

    best_log = -math.inf
    best_pair = (tuple(xs[0]), tuple(xs[0]))
    divergent = False
    witness = None
    for x in xs:
        ys = _inner_ball_grid(x, inner_samples)
        logs = _log_ratio(f, m, scale_log, np.repeat(x[None, :], len(ys), axis=0), ys)
        i = int(np.argmax(logs))
        if logs[i] == math.inf:
            divergent = True
            witness = (tuple(x), tuple(ys[i]))
            continue
        if logs[i] > best_log:
            best_log = logs[i]
            best_pair = (tuple(x), tuple(ys[i]))

    # deterministic ascent from the best grid pair: coordinate moves on x and
    # y plus joint dilations (the ball constraint is dilation invariant)
    x = np.array(best_pair[0])
    y = np.array(best_pair[1])
    step = 0.25 * float(np.linalg.norm(x))

    def feasible(cx, cy):
        if np.linalg.norm(cx - np.asarray(region.center)) > region.radius * (1 + 1e-12):
            return False
        if np.linalg.norm(cx) < t_min:
            return False
        return np.linalg.norm(cy - cx / 2.0) <= np.linalg.norm(cx) / 2.0 * (1 + 1e-12)

    for _ in range(ascent_steps):
        improved = False
        candidates = []
        for idx in (0, 1):
            for axis in range(n):
                for sgn in (1.0, -1.0):
                    cx, cy = x.copy(), y.copy()
                    (cx if idx == 0 else cy)[axis] += sgn * step
                    candidates.append((cx, cy))
        nx = float(np.linalg.norm(x))
        if nx > 0:
            for sgn in (1.0, -1.0):
                lam = 1.0 + sgn * step / nx
                if lam > 0:
                    candidates.append((lam * x, lam * y))
        for cx, cy in candidates:
            if not feasible(cx, cy):
                continue
            val = _log_ratio(f, m, scale_log, cx[None, :], cy[None, :])[0]
            if val > best_log and val < math.inf:
                best_log = val
                x, y = cx, cy
                improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break

    return MonotoneReport(
        modulus=m.name,
        estimate=float(np.exp(best_log)) if best_log < 700 else math.inf,
        log_estimate=float(best_log),
        maximizing_x=tuple(x),
        maximizing_y=tuple(y),
        outer_samples=len(xs),
        inner_samples=inner_samples,
        t_min=t_min,
        rescale=rescale,
        divergent=divergent,
        witness=witness,
    )


@dataclass
class MonotonicityClassification(Report):
    op = "classify_monotonicity"

    s_grid: list
    c_max: float
    estimates: dict = field(default_factory=dict)
    finite: dict = field(default_factory=dict)
    nearly_monotone: bool = False
    holder_monotone: bool = False


def classify_monotonicity(
    f: FunctionHandle,
    s_grid,
    c_max: float = 1e6,
    outer_samples: int = 150,
    inner_samples: int = 48,
    t_min: float = 1e-2,
    region: Ball | None = None,
) -> MonotonicityClassification:
    """Flag each omega_s as finite (<= c_max and refinement-stable) or divergent.

    Nearly monotone = every s in the grid finite; Hölder monotone = some s
    finite.  Refinement doubles both sample counts and halves t_min; the
    nested sampling makes the estimate nondecreasing, so stability means the
    refined estimate grew by less than 5%.
    """
    s_grid = list(s_grid)
    if not s_grid:
        raise DomainError("s_grid must be nonempty")
    out = MonotonicityClassification(s_grid=s_grid, c_max=c_max)
    for s in s_grid:
        m = Modulus.omega(s)
        base = monotone_functional(f, m, outer_samples, inner_samples, t_min, region)
        fine = monotone_functional(f, m, 2 * outer_samples, 2 * inner_samples, t_min / 2.0, region)
        est = fine.log_estimate
        out.estimates[s] = float(np.exp(min(est, 700.0)))
        grow = fine.log_estimate - base.log_estimate
        stable = (not fine.divergent) and (not base.divergent) and grow < math.log(1.0 + STABILITY_TOLERANCE)
        out.finite[s] = bool(stable and est <= math.log(c_max))
    out.nearly_monotone = all(out.finite.values())
    out.holder_monotone = any(out.finite.values())
    return out


@dataclass
class PowerBoundReport(Report):
    op = "verify_power_bound"

    s: float
    s_prime: float
    constants: dict = field(default_factory=dict)
    stable: dict = field(default_factory=dict)


def verify_power_bound(
    f: FunctionHandle,
    s: float,
    s_prime: float,
    m_max: int,
    region: Ball,
    samples: int = 400,
) -> PowerBoundReport:
    """Empirical constants in |grad^m f| <= Gamma * f^((s')^m) for m <= m_max.

    Requires 0 < s' < s < 1 and f <= 1 on the region (callers assert f is
    flat and positive away from the origin; samples with f = 0 but a nonzero
    derivative are a precondition violation).
    """
    if not 0.0 < s_prime < s < 1.0:
        raise DomainError(f"need 0 < s' < s < 1, got s'={s_prime}, s={s}")
    pts = ball_points(region, samples)
    fvals = f.values(pts)
    if np.any(fvals > 1.0 + 1e-12):
        raise DomainError("f must be <= 1 on the region (rescale first)")
    log_f = f.log_values(pts)

    report = PowerBoundReport(s=s, s_prime=s_prime)
    for m in range(1, m_max + 1):
        exponent = s_prime**m

        def worst(points, logs):
            with np.errstate(divide="ignore"):
                ratios = log_ratios(np.log(f.max_entry_values(points, m)), logs, exponent)
            vanishing = (logs == -math.inf) & (ratios == math.inf)
            if np.any(vanishing):
                raise NonnegativityError(
                    f"f vanishes at {points[np.argmax(vanishing)]} with a nonzero order-{m} derivative; "
                    "shrink the region away from the flat point"
                )
            return np.fmax.reduce(ratios, initial=-math.inf)

        base = worst(pts, log_f)
        fine_pts = ball_points(region, 2 * samples)
        fine = worst(fine_pts, f.log_values(fine_pts))
        report.constants[m] = float(np.exp(min(fine, 700.0)))
        report.stable[m] = bool(fine - base < math.log(1.0 + STABILITY_TOLERANCE))
    return report
