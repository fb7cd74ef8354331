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

from .calculus import FunctionHandle, Modulus, log_ratios, max_entries, require_nonnegative
from .errors import DomainError, NonnegativityError
from .geometry import Ball, ball_points, row_norms
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


def _inner_ball_grids(xs: np.ndarray, count: int) -> np.ndarray:
    """Nested grid on every B(x/2, |x|/2), as one (N, count, n) array.  In one
    dimension this is the interval (0, x) at k/(count+1), k = 1..count; in
    higher dimensions the unit ball's low-discrepancy grid, scaled by |x|/2
    and centred at x/2."""
    if xs.shape[1] == 1:
        return (np.arange(1, count + 1) / (count + 1.0) * xs)[:, :, None]
    unit = ball_points(Ball(center=(0.0,) * xs.shape[1], radius=1.0), count)
    return xs[:, None, :] / 2.0 + unit * (row_norms(xs) / 2.0)[:, None, None]


def _log_values(f: FunctionHandle, X: np.ndarray) -> np.ndarray:
    """log f, -inf where f is zero to within the nonnegativity tolerance."""
    with np.errstate(invalid="ignore"):
        logs = f.log_values(X)
    if np.any(np.isnan(logs)):
        vals = f.values(X)
        require_nonnegative(X, vals)
        logs = np.where(np.isnan(logs) & (vals <= 0.0), -np.inf, logs)
    return logs


def _ascent_candidates(x: np.ndarray, y: np.ndarray, step: float) -> tuple:
    """Coordinate moves of x, then of y, by +-step along each axis, then the
    joint dilations of (x, y) by 1 +- step/|x| that stay positive."""
    moves = np.kron(np.eye(x.size), [[step], [-step]])
    nx = float(np.linalg.norm(x))
    lam = 1.0 + np.array([1.0, -1.0]) * step / nx if nx > 0 else np.empty(0)
    lam = lam[lam > 0][:, None]
    return (np.concatenate([x + moves, np.broadcast_to(x, moves.shape), lam * x]),
            np.concatenate([np.broadcast_to(y, moves.shape), y + moves, lam * y]))


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
    in [0,1]; the rescaling is reported.  The outer samples are the first
    `outer_samples` points of the region's nested grid with |x| >= t_min,
    truncated about the origin, where B_x degenerates.  Every outer sample
    and its inner grid are evaluated as one batch; the first best finite pair
    seeds a coordinate ascent that evaluates each step's feasible candidates
    as one batch and moves to the first best of those that improve on it.
    A zero of f at a sampled x with a nonvanishing paired f(y) makes the
    functional infinite and is reported as divergence with the witness pair
    of the last such x.  NaN ratios are skipped.  A sampled value below
    -1e-12 (1 + |f|) raises NonnegativityError naming its point; values
    within that tolerance count as zeros.
    """
    if t_min <= 0:
        raise DomainError("t_min must be positive")
    region = region or Ball(center=(0.0,) * f.arity, radius=1.0)

    # the first outer_samples points of the region's nested grid with
    # |x| >= t_min: B_x shrinks to the origin as x does
    for count in outer_samples * 2 ** np.arange(7):
        grid = ball_points(region, int(count))
        xs = grid[np.linalg.norm(grid, axis=1) >= t_min][:outer_samples]
        if len(xs) == outer_samples:
            break
    if len(xs) == 0:
        raise DomainError("no outer samples outside the truncation radius")

    fx = f.values(xs)
    require_nonnegative(xs, fx)
    sup_f = float(np.max(fx))
    scale_log = math.log(sup_f) if sup_f > 1.0 else 0.0
    rescale = math.exp(scale_log)

    def log_ratio(log_fx, Y):
        """log of f(y)/scale / omega(f(x)/scale) for the points Y, paired
        with log f(x) along the leading axes."""
        log_fy = _log_values(f, Y.reshape(-1, Y.shape[-1])).reshape(Y.shape[:-1]) - scale_log
        log_den = m.log_eval(np.minimum(log_fx - scale_log, 0.0))
        out = log_ratios(log_fy, log_den, 1.0)
        return np.where(np.isnan(out), -math.inf, out)

    ys = _inner_ball_grids(xs, inner_samples)
    logs = log_ratio(_log_values(f, xs)[:, None], ys)
    cols = np.argmax(logs, axis=1)
    row_max = logs[np.arange(len(xs)), cols]
    inf_rows = np.flatnonzero(row_max == math.inf)
    witness = (tuple(xs[inf_rows[-1]]), tuple(ys[inf_rows[-1], cols[inf_rows[-1]]])) if inf_rows.size else None
    row_max[inf_rows] = -math.inf
    j = int(np.argmax(row_max))
    best_log = row_max[j]
    x, y = (xs[j], ys[j, cols[j]]) if best_log > -math.inf else (xs[0], xs[0])

    # deterministic ascent from the best grid pair: coordinate moves on x and
    # y plus joint dilations (the ball constraint is dilation invariant)
    step = 0.25 * float(np.linalg.norm(x))
    for _ in range(ascent_steps):
        cx, cy = _ascent_candidates(x, y, step)
        norm_cx = row_norms(cx)
        ok = ((row_norms(cx - np.asarray(region.center)) <= region.radius * (1 + 1e-12)) & (norm_cx >= t_min)
              & (row_norms(cy - cx / 2.0) <= norm_cx / 2.0 * (1 + 1e-12)))
        vals = log_ratio(_log_values(f, cx[ok]), cy[ok]) if np.any(ok) else np.empty(0)
        better = (vals > best_log) & (vals < math.inf)
        if np.any(better):
            k = int(np.argmax(np.where(better, vals, -math.inf)))
            best_log, x, y = vals[k], cx[ok][k], cy[ok][k]
        else:
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
        divergent=witness is not None,
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
    outer_samples: int = 150,
    inner_samples: int = 48,
    t_min: float = 1e-2,
    region: Ball | None = None,
) -> MonotonicityClassification:
    """Flag each omega_s as finite (<= c_max = 1e6 and refinement-stable) or divergent.

    Nearly monotone = every s in the grid finite; Hölder monotone = some s
    finite.  Refinement is a second run with both sample counts doubled and
    t_min halved; stability means the refined estimate grew by less than 5%.
    The refined estimate can also be lower: in one dimension the inner grids
    k/(count+1) of the two runs are not nested, and each run's ascent may
    stop at a different local maximum.
    """
    s_grid = list(s_grid)
    if not s_grid:
        raise DomainError("s_grid must be nonempty")
    out = MonotonicityClassification(s_grid=s_grid, c_max=1e6)
    for s in s_grid:
        m = Modulus.omega(s)
        base = monotone_functional(f, m, outer_samples, inner_samples, t_min, region)
        fine = monotone_functional(f, m, 2 * outer_samples, 2 * inner_samples, t_min / 2.0, region)
        est = fine.log_estimate
        out.estimates[s] = float(np.exp(min(est, 700.0)))
        grow = fine.log_estimate - base.log_estimate
        stable = (not fine.divergent) and (not base.divergent) and grow < math.log(1.0 + STABILITY_TOLERANCE)
        out.finite[s] = bool(stable and est <= math.log(out.c_max))
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

    One order-m_max jet and one log f are read on 2 * `samples` nested ball
    points; the constants are their suprema, and each is stable when it
    exceeds the supremum over the first `samples` points by less than 5%.
    Requires 0 < s' < s < 1 and f <= 1 on every point read (callers assert
    f is flat and positive away from the origin; samples with f = 0 but a
    nonzero derivative are a precondition violation).
    """
    if not 0.0 < s_prime < s < 1.0:
        raise DomainError(f"need 0 < s' < s < 1, got s'={s_prime}, s={s}")
    pts = ball_points(region, 2 * samples)
    J = f.jet(pts, m_max)
    if np.any(J[0] > 1.0 + 1e-12):
        raise DomainError("f must be <= 1 on the region (rescale first)")
    log_f = f.log_values(pts)

    report = PowerBoundReport(s=s, s_prime=s_prime)
    for m in range(1, m_max + 1):
        with np.errstate(divide="ignore"):
            ratios = log_ratios(np.log(max_entries(J[m])), log_f, s_prime**m)
        vanishing = (log_f == -math.inf) & (ratios == math.inf)
        if np.any(vanishing):
            raise NonnegativityError(
                f"f vanishes at {pts[np.argmax(vanishing)]} with a nonzero order-{m} derivative; "
                "shrink the region away from the flat point"
            )
        base, fine = (np.fmax.reduce(ratios[:n], initial=-math.inf) for n in (samples, 2 * samples))
        report.constants[m] = float(np.exp(min(fine, 700.0)))
        report.stable[m] = bool(fine - base < math.log(1.0 + STABILITY_TOLERANCE))
    return report
