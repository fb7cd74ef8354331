"""Powers of nonnegative functions and square-root regularity checks.

PowerHandle evaluates derivatives of f^gamma through the composition formula
for grad^M(psi o f): the partition coefficients are generated by recursive
differentiation (each partial-derivative step either raises the order of the
outer derivative or bumps one inner factor), never from a closed formula, so
they are consistent with the chain rule by construction.  Outer derivatives
use d^k/dt^k t^gamma = gamma (gamma-1) ... (gamma-k+1) t^(gamma-k); terms
are combined in log space so flat bases do not overflow f^(gamma-m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import FunctionHandle, holder_seminorm, log_ratios
from .errors import DerivativeError, DomainError
from .geometry import Ball, ball_points

__all__ = [
    "PowerHandle",
    "power_derivative",
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


def _composition_terms(alpha: tuple) -> dict:
    """Terms of grad^alpha (psi o f) as {(m, sorted inner multi-indices): coeff}.

    Built by applying one partial derivative at a time: differentiating
    psi^(m)(f) * prod D^beta f either bumps m and appends the new first-order
    factor, or raises one existing inner factor by the axis.
    """
    n = len(alpha)
    terms = {(0, ()): 1.0}
    for axis in range(n):
        for _ in range(alpha[axis]):
            new: dict = {}
            e = tuple(1 if i == axis else 0 for i in range(n))
            for (m, betas), coeff in terms.items():
                # chain-rule bump of the outer derivative
                key = (m + 1, tuple(sorted(betas + (e,))))
                new[key] = new.get(key, 0.0) + coeff
                # product-rule bump of each inner factor
                for i, beta in enumerate(betas):
                    raised = tuple(b + (1 if j == axis else 0) for j, b in enumerate(beta))
                    rest = betas[:i] + betas[i + 1 :]
                    key = (m, tuple(sorted(rest + (raised,))))
                    new[key] = new.get(key, 0.0) + coeff
            terms = new
    return terms


@dataclass
class PowerHandle:
    """f^gamma with derivative access up to a declared order cap."""

    base: FunctionHandle
    gamma: float
    order_cap: int = 4
    _term_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.gamma <= 0:
            raise DomainError(f"exponent must be positive, got {self.gamma}")

    @property
    def arity(self) -> int:
        return self.base.arity

    def value(self, x) -> float:
        return float(self.base.value(x) ** self.gamma)

    def values(self, X) -> np.ndarray:
        return np.maximum(self.base.values(X), 0.0) ** self.gamma

    def derivative_values(self, X, alpha) -> np.ndarray:
        alpha = tuple(int(a) for a in alpha)
        order = sum(alpha)
        if order == 0:
            return self.values(X)
        if order > self.order_cap:
            raise DerivativeError(
                f"order {order} exceeds the declared cap {self.order_cap} for this power handle"
            )
        X = np.atleast_2d(np.asarray(X, dtype=float))
        fvals = self.base.values(X)
        if np.any(fvals <= 0.0):
            i = int(np.argmin(fvals))
            raise DomainError(f"power derivatives need f > 0; f({X[i].tolist()}) = {fvals[i]}")
        if alpha not in self._term_cache:
            self._term_cache[alpha] = _composition_terms(alpha)
        terms = self._term_cache[alpha]

        log_f = np.log(fvals)
        inner_cache: dict = {}

        def inner(beta):
            if beta not in inner_cache:
                inner_cache[beta] = self.base.derivative_values(X, beta)
            return inner_cache[beta]

        total = np.zeros(X.shape[0])
        for (m, betas), coeff in terms.items():
            s_m = falling_factorial(self.gamma, m)
            if s_m == 0.0 or coeff == 0.0:
                continue
            # signed log-space product: coeff * s_m * f^(gamma-m) * prod D^beta f
            sign = np.full(X.shape[0], math.copysign(1.0, coeff * s_m))
            log_term = np.full(X.shape[0], math.log(abs(coeff * s_m)))
            log_term += (self.gamma - m) * log_f
            alive = np.ones(X.shape[0], dtype=bool)
            for beta in betas:
                vals = inner(beta)
                alive &= vals != 0.0
                with np.errstate(divide="ignore"):
                    log_term += np.where(alive, np.log(np.abs(np.where(vals != 0, vals, 1.0))), 0.0)
                sign *= np.where(vals < 0, -1.0, 1.0)
            contrib = np.where(alive, sign * np.exp(np.where(alive, log_term, 0.0)), 0.0)
            total += contrib
        return total

    def derivative(self, x, alpha) -> float:
        return float(self.derivative_values(np.atleast_2d(np.asarray(x, dtype=float)), alpha)[0])

    def as_function_handle(self, domain: Ball | None = None) -> FunctionHandle:
        domain = domain or self.base.domain

        def factory(alpha):
            def d_many(X):
                return self.derivative_values(X, alpha)

            return d_many

        return FunctionHandle(
            arity=self.arity,
            eval_many=self.values,
            derivative_many_factory=factory,
            domain=domain,
            label=f"{self.base.label}^{self.gamma:g}",
            exact_derivatives=self.base.exact_derivatives,
        )


def power_derivative(p: PowerHandle, x, alpha) -> float:
    """Evaluate D^alpha (f^gamma) at x through the composition formula."""
    return p.derivative(x, alpha)


# ---------------------------------------------------------------------------
# Square-root regularity
# ---------------------------------------------------------------------------


@dataclass
class RootRegularityReport:
    order: int
    estimates: dict
    stable: dict
    best_exponent: float | None
    truncated: bool

    def as_dict(self) -> dict:
        return {
            "op": "root_regularity",
            "order": self.order,
            "estimates": {f"{k:g}": v.as_dict() for k, v in self.estimates.items()},
            "stable": {f"{k:g}": bool(v) for k, v in self.stable.items()},
            "best_exponent": self.best_exponent,
            "truncated": self.truncated,
        }


def verify_root_regularity(
    f: FunctionHandle,
    s: float,
    M: int,
    delta_search,
    region: Ball,
    samples: int = 250,
    floor: float = 1e-12,
) -> RootRegularityReport:
    """Largest exponent with a refinement-stable order-M seminorm of sqrt(f).

    The square root is evaluated through the power handle; regions touching
    zeros of f are truncated away automatically (noted in the report).
    Growth under pair doubling beyond 50% marks an exponent unstable.
    """
    if not (1.0 - 1.0 / (2.0 * M)) < s <= 1.0:
        raise DomainError(f"need s in (1 - 1/(2M), 1], got s={s} for M={M}")
    pts = ball_points(region, 256)
    vals = f.values(pts)
    truncated = bool(np.any(vals <= floor))
    root = PowerHandle(f, 0.5, order_cap=max(M, 4)).as_function_handle(domain=region)

    estimates: dict = {}
    stable: dict = {}
    best = None
    for dlt in sorted(delta_search):
        try:
            coarse = holder_seminorm(root, M, dlt, region, samples=samples)
            fine = holder_seminorm(root, M, dlt, region, samples=2 * samples)
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
class PowerChainReport:
    m_max: int
    s: float
    derivative_constants: dict
    power_sup: dict
    consistent: bool

    def as_dict(self) -> dict:
        return {
            "op": "power_smoothness_chain",
            "m_max": self.m_max,
            "s": float(self.s),
            "derivative_constants": {str(k): float(v) for k, v in self.derivative_constants.items()},
            "power_sup": {f"{k:g}": {str(m): float(v) for m, v in d.items()} for k, d in self.power_sup.items()},
            "consistent": self.consistent,
        }


def verify_power_smoothness_chain(
    f: FunctionHandle,
    gamma_grid,
    m_max: int,
    region: Ball,
    samples: int = 300,
    s: float = 0.9,
    bound_cap: float = 1e6,
) -> PowerChainReport:
    """Check |grad^m f| <= C f^s empirically, then boundedness of grad^m(f^gamma).

    Consistency means: whenever the derivative-power constants are finite and
    stable, the power derivatives stay bounded on the sampled region for
    every exponent in the grid.
    """
    pts = ball_points(region, samples)
    log_f = f.log_values(pts)
    constants: dict = {}
    for m in range(1, m_max + 1):
        with np.errstate(divide="ignore"):
            logd = np.log(f.max_entry_values(pts, m))
        best = np.fmax.reduce(log_ratios(logd, log_f, s), initial=-math.inf)
        constants[m] = math.exp(best) if best < 700 else math.inf

    power_sup: dict = {}
    for gamma in gamma_grid:
        ph = PowerHandle(f, float(gamma), order_cap=m_max).as_function_handle()
        power_sup[float(gamma)] = {
            m: float(np.fmax.reduce(ph.max_entry_values(pts, m), initial=0.0)) for m in range(1, m_max + 1)
        }

    premise = all(math.isfinite(c) for c in constants.values())
    conclusion = all(
        v <= bound_cap for sup in power_sup.values() for v in sup.values()
    )
    return PowerChainReport(
        m_max=m_max,
        s=s,
        derivative_constants=constants,
        power_sup=power_sup,
        consistent=(not premise) or conclusion,
    )
