"""Powers of nonnegative functions and square-root regularity checks.

`power_jet` is the one implementation of derivatives of f^gamma: Faa di
Bruno over the set partitions of the derivative slots, where a partition
into m blocks contributes (gamma)_m prod_B f^(gamma/m - 1) D^|B| f.  Each
block carries its share of f^(gamma-m), so the partial products stay finite
on flat bases such as exp(-1/t).  PowerHandle is the jet-backed handle of
f^gamma, and the case-I root pieces of the decomposition use `power_jet`
at 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .calculus import FunctionHandle, _holder_probe, _tensor_layout, log_ratios, max_entries
from .errors import DerivativeError, DomainError
from .exprlang import FunctionDef, Pow
from .geometry import Ball, ball_points
from .reporting import Report

__all__ = [
    "PowerHandle",
    "PowerJetCheckReport",
    "check_power_jet",
    "power_jet",
    "falling_factorial",
    "verify_root_regularity",
    "verify_power_smoothness_chain",
    "RootRegularityReport",
    "PowerChainReport",
]


def falling_factorial(gamma: float, k: int) -> float:
    """gamma (gamma-1) ... (gamma-k+1); the k-th derivative coefficient of t^gamma."""
    out = 1.0
    for j in range(k):
        out *= gamma - j
    return out


@functools.lru_cache(maxsize=None)
def _set_partitions(k: int) -> tuple:
    """The set partitions of the slots 0..k-1, each a tuple of blocks."""
    if k == 0:
        return ((),)
    out = []
    for p in _set_partitions(k - 1):
        out.append(p + ((k - 1,),))
        out.extend(p[:i] + (p[i] + (k - 1,),) + p[i + 1 :] for i in range(len(p)))
    return tuple(out)


def power_jet(J, gamma: float) -> tuple:
    """The jet of f^gamma (gamma > 0) from f's jet J = (f, Df, ..., D^m f),
    shaped as `FunctionHandle.jet` returns it; zero where f <= 0.

    The blocks' tensors sit on their slots of one `np.einsum` outer product;
    every entry then takes the value at its sorted index, so each D^k f^gamma
    is exactly symmetric.
    """
    if gamma <= 0:
        raise DomainError(f"exponent must be positive, got {gamma}")
    pos = ~(J[0] <= 0.0)  # NaN stays NaN
    fp = np.where(pos, J[0], 1.0)
    N = fp.shape[0]
    out = [np.where(pos, fp**gamma, 0.0)]
    for k in range(1, len(J)):
        T = np.zeros_like(J[k], dtype=float)
        for blocks in _set_partitions(k):
            coeff = falling_factorial(gamma, len(blocks))
            if coeff != 0.0:
                share = fp ** (gamma / len(blocks) - 1.0)
                operands = []
                for B in blocks:
                    operands += [share.reshape((N,) + (1,) * len(B)) * J[len(B)], [0, *(s + 1 for s in B)]]
                T += coeff * np.einsum(*operands, list(range(k + 1)))
        flat = T.reshape(N, -1)
        for _, where in _tensor_layout(T.shape[1], k):
            flat[:, where] = flat[:, where[:1]]
        out.append(np.where(pos.reshape((N,) + (1,) * k), T, 0.0))
    return tuple(out)


class PowerHandle(FunctionHandle):
    """f^gamma as a jet-backed handle: values clip f at 0, and each jet maps
    one base jet of its order through `power_jet`.  Derivatives need f > 0
    and stop at the declared order cap."""

    def __init__(self, base: FunctionHandle, gamma: float, order_cap: int = 4):
        if gamma <= 0:
            raise DomainError(f"exponent must be positive, got {gamma}")

        def jet_many(X, order):
            if order > order_cap:
                raise DerivativeError(f"order {order} exceeds the declared cap {order_cap} for this power handle")
            J = base.jet(X, order)
            if order:
                _require_positive(X, J[0])
            return power_jet(J, gamma)

        super().__init__(
            arity=base.arity,
            eval_many=lambda X: np.maximum(base.values(X), 0.0) ** gamma,
            derivative_many_factory=None,
            domain=base.domain,
            label=f"{base.label}^{gamma:g}",
            exact_derivatives=base.exact_derivatives,
            jet_many=jet_many,
        )


@dataclass
class PowerJetCheckReport(Report):
    """`power_jet` of f^gamma against the exact derivatives of the expression
    f^gamma: every entry must agree to the tolerance, relative to 1 + |entry|."""

    op = "power_jet_check"
    derived = ("passed",)

    gamma: float
    order: int
    points: int
    max_abs_derivative: float
    max_relative_exact_deviation: float
    tolerance: float = 1e-5

    @property
    def passed(self) -> bool:
        return self.max_relative_exact_deviation <= self.tolerance


def check_power_jet(fdef: FunctionDef, gamma: float, order: int, pts) -> PowerJetCheckReport:
    """Order-`order` tensors of PowerHandle(f, gamma) against those of the
    expression Pow(f, gamma), at the points where f > 1e-12."""
    f = FunctionHandle.from_def(fdef)
    pts = pts[f.values(pts) > 1e-12]
    direct = PowerHandle(f, gamma, order_cap=max(order, 4)).derivative_tensor(pts, order)
    exact = FunctionHandle.from_expr(Pow(fdef.body, gamma), fdef.variables).derivative_tensor(pts, order)
    return PowerJetCheckReport(
        gamma, order, len(pts), float(np.max(np.abs(direct))),
        float(np.max(np.abs(direct - exact) / (1.0 + np.abs(direct)))))


def _require_positive(X, fvals) -> None:
    if np.any(fvals <= 0.0):
        i = int(np.argmin(fvals))
        raise DomainError(f"power derivatives need f > 0; f({X[i].tolist()}) = {fvals[i]}")


# ---------------------------------------------------------------------------
# Square-root regularity
# ---------------------------------------------------------------------------


@dataclass
class RootRegularityReport(Report):
    op = "root_regularity"

    order: int
    estimates: dict
    stable: dict
    best_exponent: float | None
    truncated: bool


def verify_root_regularity(
    f: FunctionHandle,
    s: float,
    M: int,
    delta_search,
    region: Ball,
    samples: int = 250,
) -> RootRegularityReport:
    """Largest exponent with a refinement-stable order-M seminorm of sqrt(f).

    The square root is a PowerHandle of f; `truncated` flags f <= 1e-12 on
    the region, and an exponent whose samples meet f <= 0 reads unstable, as
    does one whose seminorm grows by more than 50% under pair doubling.  The
    derivatives are read once, at 2 * `samples` pairs; the coarse seminorm
    takes the first `samples` of them, which are the family at `samples`.
    Every exponent reuses the read.
    """
    if not (1.0 - 1.0 / (2.0 * M)) < s <= 1.0:
        raise DomainError(f"need s in (1 - 1/(2M), 1], got s={s} for M={M}")
    truncated = bool(np.any(f.values(ball_points(region, 256)) <= 1e-12))
    root = PowerHandle(f, 0.5, order_cap=max(M, 4))

    estimates, stable, best, estimate = {}, {}, None, None
    for dlt in sorted(delta_search):
        try:
            estimate = estimate or _holder_probe(root, M, region, 2 * samples)
            coarse, fine = estimate(dlt, samples), estimate(dlt)
        except DomainError:
            stable[dlt] = False
            continue
        estimates[dlt] = fine
        ok = math.isfinite(fine.seminorm) and fine.seminorm <= coarse.seminorm * 1.5 + 1e-12
        stable[dlt] = bool(ok)
        if ok:
            best = float(dlt)
    return RootRegularityReport(
        order=M, estimates=estimates, stable=stable, best_exponent=best, truncated=truncated
    )


@dataclass
class PowerChainReport(Report):
    op = "power_smoothness_chain"

    m_max: int
    s: float
    derivative_constants: dict
    power_sup: dict
    consistent: bool


def verify_power_smoothness_chain(
    f: FunctionHandle,
    gamma_grid,
    m_max: int,
    region: Ball,
    samples: int = 300,
    s: float = 0.9,
) -> PowerChainReport:
    """Check |grad^m f| <= C f^s empirically, then boundedness of grad^m(f^gamma).

    One order-m_max jet of f serves the constants and every exponent's
    `power_jet`; the power derivatives need f > 0 on the samples.

    Consistency means: whenever the derivative-power constants are finite and
    stable, the power derivatives stay bounded, by 1e6, on the sampled region
    for every exponent in the grid.
    """
    pts = ball_points(region, samples)
    log_f = f.log_values(pts)
    J = f.jet(pts, m_max)
    constants: dict = {}
    for m in range(1, m_max + 1):
        with np.errstate(divide="ignore"):
            logd = np.log(max_entries(J[m]))
        best = np.fmax.reduce(log_ratios(logd, log_f, s), initial=-math.inf)
        constants[m] = math.exp(best) if best < 700 else math.inf

    _require_positive(pts, J[0])
    power_sup: dict = {}
    for gamma in gamma_grid:
        P = power_jet(J, float(gamma))
        power_sup[float(gamma)] = {
            m: float(np.fmax.reduce(max_entries(P[m]), initial=0.0)) for m in range(1, m_max + 1)
        }

    premise = all(math.isfinite(c) for c in constants.values())
    conclusion = all(v <= 1e6 for sup in power_sup.values() for v in sup.values())
    return PowerChainReport(
        m_max=m_max,
        s=s,
        derivative_constants=constants,
        power_sup=power_sup,
        consistent=(not premise) or conclusion,
    )
