"""Counterexample family laboratory.

Builds the five-variable family  f(W, t) = phi(t) L(W) + psi(t) +
phi(r) h_rho(t/r),  r = |W|, around the quartic form L(w,x,y,z) =
w^4 + x^2 y^2 + y^2 z^2 + z^2 x^2 - 2 w x y z, evaluates the three
monotonicity functionals

    R(g) = sup_t (psi/phi)(t) phi(g t) / omega(psi(t)),
    S(g) = sup_t phi(g t) t^4 / omega(psi(t)),
    T(g) = sup_t phi(g t) t^4 / omega(phi(t) t^4),

tests the two-sided control of the weak-monotonicity functional by R, S, T,
the failure criterion for sums of squares of C^(2,beta) functions, and the
distance of L from sums of squares of quadratic forms on the unit sphere.

All functionals are evaluated in log space on dyadic grids (the profiles
underflow double precision long before the grids bottom out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import FunctionHandle, Modulus
from .cover import _transition
from .errors import DomainError
from .exprlang import catalog_function
from .geometry import Ball, as_points, sphere_points
from .reporting import Report

__all__ = [
    "LogProfile",
    "FamilyParams",
    "FunctionalReport",
    "build_family",
    "functional",
    "gamma_alpha",
    "holder_monotone_threshold",
    "threshold_report",
    "ThresholdReport",
    "monotone_scan",
    "ScanReport",
    "monotone_bounds",
    "witness_pair_ratios",
    "boundary_pair_supremum",
    "sos_failure_criterion",
    "estimate_delta_nu",
    "crucial_lower_bound",
    "DeltaNuReport",
    "quartic_values",
]


# ---------------------------------------------------------------------------
# Profiles with exact log-space evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogProfile:
    """A positive profile on (0, 1] with closed-form log evaluation."""

    name: str
    log_fn: object  # callable t -> log value (vectorized)

    def log(self, t):
        return self.log_fn(np.asarray(t, dtype=float))

    def __call__(self, t):
        return np.exp(self.log(t))

    @staticmethod
    def flat_exp_sq() -> "LogProfile":
        return LogProfile("flat_exp_sq", lambda t: -1.0 / t**2)

    @staticmethod
    def power_tail(s_prime: float) -> "LogProfile":
        """psi(t) = phi(t/2)^(1/s') t^(4/s') for phi = flat_exp_sq."""
        if not 0.0 < s_prime < 1.0:
            raise DomainError(f"s_prime must lie in (0,1), got {s_prime}")
        inv = 1.0 / s_prime

        def log_fn(t):
            return -4.0 * inv / t**2 + 4.0 * inv * np.log(np.abs(t))

        return LogProfile(f"power_tail[{s_prime:g}]", log_fn)

    @staticmethod
    def exact_sos_boundary(beta: float) -> "LogProfile":
        """psi = phi^(4/beta) t^(16/beta): the boundary case of the failure test."""
        inv = 1.0 / beta

        def log_fn(t):
            return -4.0 * inv / t**2 + 16.0 * inv * np.log(np.abs(t))

        return LogProfile(f"sos_boundary[{beta:g}]", log_fn)


@dataclass
class FamilyParams:
    """Parameters of the counterexample family.

    phi is exp(-1/t^2), a class attribute and not a field; psi defaults to
    the smooth closed-form tail phi(t/2)^(1/s') t^(4/s'); the plateau h_rho
    is 1 on [0, rho] and vanishes beyond 1; the radial coupling is the
    identity (the h argument is t/r).
    """

    phi = LogProfile.flat_exp_sq()

    s_prime: float = 0.5
    rho_plateau: float = 0.5
    psi: LogProfile = None

    def __post_init__(self):
        if not 0.0 < self.rho_plateau < 1.0:
            raise DomainError(f"rho_plateau must lie in (0,1), got {self.rho_plateau}")
        if self.psi is None:
            self.psi = LogProfile.power_tail(self.s_prime)
        self.check_tail()

    def check_tail(self):
        """psi(t) = o(phi(t) t^4) on the grid t = 2^(-k/2), k = 1..17, in log space."""
        t_grid = 2.0 ** (-np.arange(0.5, 9.0, 0.5))
        gap = self.psi.log(t_grid) - (self.phi.log(t_grid) + 4.0 * np.log(t_grid))
        if not (np.all(np.diff(gap) < 1e-9) and gap[-1] < gap[0] - math.log(10.0)):
            raise DomainError(
                "psi must be o(phi(t) t^4) as t -> 0; the sampled log gap does not decrease"
            )


def quartic_values(W) -> np.ndarray:
    """L on an (N, 4) batch."""
    W = as_points(W, 4)
    w, x, y, z = W[:, 0], W[:, 1], W[:, 2], W[:, 3]
    return w**4 + x**2 * y**2 + y**2 * z**2 + z**2 * x**2 - 2.0 * w * x * y * z


def _plateau_log(u: np.ndarray, rho: float) -> np.ndarray:
    """log h_rho(u) with h_rho = 1 on [0, rho], 0 outside (-1, 1)."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.full(u.shape, -np.inf)
    out[u <= rho] = 0.0
    mid = (u > rho) & (u < 1.0)
    with np.errstate(divide="ignore"):
        out[mid] = np.log(_transition((1.0 - u[mid]) / (1.0 - rho)))
    return out


def family_log_values(p: FamilyParams, X) -> np.ndarray:
    """log f on an (N, 5) batch of (w, x, y, z, t), exact for tiny values."""
    X = as_points(X, 5)
    W, t = X[:, :4], X[:, 4]
    r = np.linalg.norm(W, axis=1)
    L = np.maximum(quartic_values(W), 0.0)
    with np.errstate(all="ignore"):
        term1 = np.where((np.abs(t) > 0) & (L > 0), p.phi.log(np.where(t != 0, t, 1.0)) + np.log(np.where(L > 0, L, 1.0)), -np.inf)
        term2 = np.where(np.abs(t) > 0, p.psi.log(np.where(t != 0, t, 1.0)), -np.inf)
        ratio = np.where(r > 0, np.abs(t) / np.where(r > 0, r, 1.0), np.inf)
        term3 = np.where(r > 0, p.phi.log(np.where(r > 0, r, 1.0)) + _plateau_log(ratio, p.rho_plateau), -np.inf)
    stacked = np.stack([term1, term2, term3])
    top = np.max(stacked, axis=0)
    safe = top > -np.inf
    out = np.full(X.shape[0], -np.inf)
    if np.any(safe):
        out[safe] = top[safe] + np.log(np.sum(np.exp(stacked[:, safe] - top[safe]), axis=0))
    return out


def build_family(p: FamilyParams) -> FunctionHandle:
    """FunctionHandle on R^5 for the family: the expression body, with exact
    derivatives, and exact log-space evaluation.

    Only the default profile psi = power_tail(s') has an expression body;
    another psi raises DomainError.
    """
    psi = LogProfile.power_tail(p.s_prime).name
    if p.psi.name != psi:
        raise DomainError(f"build_family needs the default profiles phi = flat_exp_sq and psi = {psi}; "
                          f"got psi = {p.psi.name}")
    body = catalog_function("family_f", {"s_prime": p.s_prime, "rho": p.rho_plateau}).body
    return FunctionHandle.from_expr(
        body, ("w", "x", "y", "z", "t"), domain=Ball(center=(0.0,) * 5, radius=1.5), label="family_f",
        log_eval_many=lambda X: family_log_values(p, X),
    )


# ---------------------------------------------------------------------------
# The three functionals
# ---------------------------------------------------------------------------


@dataclass
class FunctionalReport(Report):
    op = "functional"

    name: str
    gamma: float
    modulus: str
    log_sup: float
    sup: float
    argmax_t: float
    divergent: bool
    t_min: float


_T_MIN = 10 ** (-2.5)  # floor of the dyadic t grids of the functionals and criteria


def _dyadic_grid(t_min: float, per_octave: int = 8) -> np.ndarray:
    """2^(-k/per_octave) for k = 0, 1, ... down to the first whole octave
    at or below t_min; a smaller t_min extends the same grid."""
    k = math.ceil(-math.log2(t_min)) * per_octave
    return 2.0 ** (-np.arange(0, k + 1) / per_octave)


def _functional_logs(p: FamilyParams, name: str, gamma: float, m: Modulus, t_grid: np.ndarray):
    log_t = np.log(t_grid)
    if name == "R":
        vals = p.psi.log(t_grid) - p.phi.log(t_grid) + p.phi.log(gamma * t_grid)
        args = p.psi.log(t_grid)
    elif name == "S":
        vals = p.phi.log(gamma * t_grid) + 4.0 * log_t
        args = p.psi.log(t_grid)
    elif name == "T":
        vals = p.phi.log(gamma * t_grid) + 4.0 * log_t
        args = p.phi.log(t_grid) + 4.0 * log_t
    else:
        raise DomainError(f"unknown functional {name!r}; expected R, S or T")
    return vals - m.log_eval(np.minimum(args, 0.0))


def functional(p: FamilyParams, name: str, gamma: float, m: Modulus) -> FunctionalReport:
    """Grid supremum of R, S or T in log space on the dyadic grid down to
    t = 10^-2.5, with a divergence verdict.

    Divergent means the log-supremum grows by more than log 10 when the
    grid floor is divided by 4.  Only that finer grid is evaluated: the
    reported grid is its prefix down to the floor.
    """
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    grid = _dyadic_grid(_T_MIN)
    fine = _functional_logs(p, name, gamma, m, _dyadic_grid(float(grid[-1]) / 4.0))
    logs = fine[: len(grid)]
    i = int(np.argmax(logs))
    divergent = float(np.max(fine)) > logs[i] + math.log(10.0)
    return FunctionalReport(
        name=name,
        gamma=gamma,
        modulus=m.name,
        log_sup=float(logs[i]),
        sup=float(np.exp(min(logs[i], 700.0))),
        argmax_t=float(grid[i]),
        divergent=bool(divergent),
        t_min=float(np.min(grid)),
    )


def gamma_alpha(alpha: float) -> float:
    """(1 + sqrt(1 + alpha^2)) / (2 alpha)."""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return (1.0 + math.sqrt(1.0 + alpha * alpha)) / (2.0 * alpha)


def holder_monotone_threshold() -> float:
    """s0 = gamma_1^(-2) = ((1+sqrt(2))/2)^(-2), the exponent at which the
    T-functional of the flat_exp_sq profile flips between finite and
    divergent at gamma = gamma_1."""
    return gamma_alpha(1.0) ** (-2.0)


@dataclass
class ThresholdReport(Report):
    """s0 = gamma_alpha^(-2) and, when verified, the T(gamma_alpha) functional
    just below and above it; a verification fails without s0 in (0, 1)."""

    op = "holder_monotone_threshold"
    derived = ("in_unit_interval", "passed")

    gamma: float
    s0: float
    printed: str
    flip: dict | None = None

    @property
    def in_unit_interval(self) -> bool:
        return 0.0 < self.s0 < 1.0

    @property
    def passed(self) -> bool:
        return self.flip is None or self.flip["flips"]


def threshold_report(alpha: float, verify_flip: bool = False) -> ThresholdReport:
    """The threshold of gamma_alpha, optionally checked to separate a finite T
    functional of the default family at s0 - 0.08629 from a divergent one at
    s0 + 0.06371."""
    g = gamma_alpha(alpha)
    out = ThresholdReport(gamma=g, s0=g ** (-2.0), printed=f"{g ** (-2.0):.5f}")
    if verify_flip and out.in_unit_interval:
        low, high = (functional(FamilyParams(), "T", g, Modulus.omega(s))
                     for s in (max(out.s0 - 0.08629, 1e-3), min(out.s0 + 0.06371, 0.999)))
        out.flip = {"below": low, "above": high, "flips": not low.divergent and high.divergent}
    elif verify_flip:
        out.flip = {"below": None, "above": None, "flips": False}
    return out


@dataclass
class ScanReport(Report):
    """S(1/2) and T(gamma_1) across s beside the SOS failure verdict: a sweep
    that measures and passes once it completes."""

    op = "monotone_scan"
    derived = ("passed",)

    header: list
    rows: list
    passed = True


def monotone_scan(p: FamilyParams, beta: float, s_values) -> ScanReport:
    """One row (s, beta, rho, S, T, SOS verdict, monotone verdict) per s."""
    sos_verdict = sos_failure_criterion(p, beta)["verdict"]
    rows = []
    for s in s_values:
        S, T = (functional(p, name, g, Modulus.omega(s)) for name, g in (("S", 0.5), ("T", gamma_alpha(1.0))))
        rows.append([round(s, 10), beta, p.rho_plateau, S.sup, T.sup, sos_verdict,
                     "divergent" if (S.divergent or T.divergent) else "finite"])
    return ScanReport(header=["s", "beta", "rho", "S", "T", "verdictSOS", "verdictMonotone"], rows=rows)


# ---------------------------------------------------------------------------
# Two-sided monotonicity bounds
# ---------------------------------------------------------------------------


def witness_pair_ratios(p: FamilyParams, m: Modulus, t_grid):
    """log f(Q)/omega(f(P)) for the two analytic boundary pairs, W along the
    unit direction (1, 1, 1, 1)/2.

    Pair 1: P = (0, t), Q = (W, t/2) with |W| = t/2 (the S(1/2) shape).
    Pair 2: P = (W, |W|), Q = (W/2, (1/2 + 1/sqrt 2)|W|) (the T(gamma_1) shape).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    direction = np.full(4, 0.5)

    P1 = np.concatenate([np.zeros((len(t_grid), 4)), t_grid[:, None]], axis=1)
    Q1 = np.concatenate([np.outer(t_grid / 2.0, direction), (t_grid / 2.0)[:, None]], axis=1)
    g1 = 0.5 + 1.0 / math.sqrt(2.0)
    P2 = np.concatenate([np.outer(t_grid, direction), t_grid[:, None]], axis=1)
    Q2 = np.concatenate([np.outer(t_grid / 2.0, direction), (g1 * t_grid)[:, None]], axis=1)
    return {key: family_log_values(p, Q) - m.log_eval(np.minimum(family_log_values(p, P), 0.0))
            for key, P, Q in (("pair1", P1, Q1), ("pair2", P2, Q2))}


def boundary_pair_supremum(p: FamilyParams, m: Modulus) -> dict:
    """Supremum of f(Q)/omega(f(P)) restricted to boundary pairs with V
    parallel to W: P = (r w_hat, t), Q on the circle
    (z - r/2)^2 + (u - t/2)^2 = (r^2 + t^2)/4 in the (w_hat, t) plane.

    The samples are 6 sphere points w_hat, the ratios r/t in 0, 1/4, 1/2,
    1, 2, 4, 48 angles on the circle and the dyadic t grid down to 10^-2.5,
    6 points per octave.  The P and the Q are evaluated as one batch each;
    the reported pair is the first best in (direction, ratio, angle, t)
    order, NaN samples are skipped.
    """
    ts = _dyadic_grid(_T_MIN, per_octave=6)
    ratios = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    thetas = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    dirs = sphere_points(6, 4)

    # every (direction, ratio, angle, t) at once, dropping the P outside the unit ball
    r = ratios[:, None] * ts
    R = np.sqrt(r**2 + ts**2)
    keep = R <= 1.0
    t = np.broadcast_to(ts, r.shape)
    P = np.concatenate([r[None, :, :, None] * dirs[:, None, None, :],
                        np.broadcast_to(t[None, :, :, None], (len(dirs), *r.shape, 1))], axis=-1)
    z = r[:, None, :] / 2.0 + R[:, None, :] / 2.0 * np.cos(thetas)[:, None]
    u = t[:, None, :] / 2.0 + R[:, None, :] / 2.0 * np.sin(thetas)[:, None]
    Q = np.concatenate([z[None, ..., None] * dirs[:, None, None, None, :],
                        np.broadcast_to(u[None, ..., None], (len(dirs), *u.shape, 1))], axis=-1)
    keep_p = np.broadcast_to(keep, P.shape[:-1])
    keep_q = np.broadcast_to(keep[:, None, :], Q.shape[:-1])
    omega_p = np.zeros(P.shape[:-1])
    omega_p[keep_p] = m.log_eval(np.minimum(family_log_values(p, P[keep_p]), 0.0))
    logs = np.full(Q.shape[:-1], -math.inf)
    logs[keep_q] = family_log_values(p, Q[keep_q]) - np.broadcast_to(omega_p[:, :, None, :], logs.shape)[keep_q]
    logs[np.isnan(logs)] = -math.inf

    k = np.unravel_index(np.argmax(logs), logs.shape)
    found = logs[k] > -math.inf
    return {"log_sup": logs[k], "P": P[k[:2] + k[3:]] if found else None, "Q": Q[k] if found else None,
            "sup": np.exp(min(logs[k], 700.0))}


def monotone_bounds(p: FamilyParams, m: Modulus, delta: float) -> dict:
    """Evaluate the lower functionals S(1/2), T(gamma_1), the upper
    functionals R(1+d), S(1/2+d), T(gamma_rho+d), all down to t = 10^-2.5,
    and an independent boundary-pair estimate of the weak-monotonicity
    functional; report whether lower <= estimate <= upper holds up to
    fitted constants."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0,1), got {delta}")
    g1 = gamma_alpha(1.0)
    g_rho = gamma_alpha(p.rho_plateau)
    lower = {
        "S(1/2)": functional(p, "S", 0.5, m),
        f"T({g1:.5f})": functional(p, "T", g1, m),
    }
    upper = {
        f"R(1+{delta:g})": functional(p, "R", 1.0 + delta, m),
        f"S(1/2+{delta:g})": functional(p, "S", 0.5 + delta, m),
        f"T({g_rho:.5f}+{delta:g})": functional(p, "T", g_rho + delta, m),
    }
    out = {"op": "monotone_bounds", "modulus": m.name, "delta": delta, "lower": lower, "upper": upper,
           "divergent": any(v.divergent for v in (*lower.values(), *upper.values()))}
    if out["divergent"]:
        return {**out, "sandwich_holds": None}
    est = boundary_pair_supremum(p, m)
    c_fit = est["log_sup"] - max(v.log_sup for v in lower.values())
    C_fit = est["log_sup"] - max(v.log_sup for v in upper.values())
    # sandwich up to fitted constants: both fits within a factor 10^3
    return {**out, "estimate": est, "fitted_log_c_lower": c_fit, "fitted_log_C_upper": C_fit,
            "sandwich_holds": abs(c_fit) <= 3.0 * math.log(10.0) and abs(C_fit) <= 3.0 * math.log(10.0)}


# ---------------------------------------------------------------------------
# Failure criterion for sums of squares of C^(2,beta) functions
# ---------------------------------------------------------------------------


def sos_failure_criterion(p: FamilyParams, beta: float) -> dict:
    """Verdict on limsup psi(t) / (phi(t)^(4/beta) t^(16/beta)) as t -> 0.

    Ratio decreasing to 0 (in log space, across the dyadic grid down to
    t = 10^-2.5) certifies
    that the family is not a finite sum of squares of C^(2,beta) functions;
    ratio growing without bound means the test does not trigger.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    grid = _dyadic_grid(_T_MIN)
    log_ratio = p.psi.log(grid) - (4.0 / beta) * p.phi.log(grid) - (16.0 / beta) * np.log(grid)
    # judge the asymptotic regime: the tail of the grid past the ratio's peak
    peak = int(np.argmax(log_ratio))
    tail = log_ratio[peak:]
    drop = tail[-1] - tail[0]
    if len(tail) >= 3 and drop < -math.log(10.0) and np.all(np.diff(tail) < 1e-9):
        verdict = "fails-SOS"
    elif np.argmin(log_ratio) < len(log_ratio) - 1 and (
        log_ratio[-1] - np.min(log_ratio) > math.log(10.0)
    ) and np.all(np.diff(log_ratio[np.argmin(log_ratio):]) > -1e-9):
        verdict = "does-not-trigger"
    else:
        verdict = "inconclusive"
    return {"op": "sos_failure_criterion", "beta": beta, "verdict": verdict, "log_ratio_first": log_ratio[0],
            "log_ratio_peak": log_ratio[peak], "log_ratio_last": log_ratio[-1], "t_min": np.min(grid)}


# ---------------------------------------------------------------------------
# Distance of L from sums of squares of quadratic forms
# ---------------------------------------------------------------------------

_SYM_IDX = np.array([(i, j) for i in range(4) for j in range(i, 4)])  # 10 free coefficients


def _monomials(W: np.ndarray) -> np.ndarray:
    """Phi (P, 10): W_i W_j per coefficient i <= j, doubled off the diagonal,
    so that a quadratic form with coefficients theta_l is Q_l = Phi theta_l."""
    i, j = _SYM_IDX.T
    return W[:, i] * W[:, j] * np.where(i == j, 1.0, 2.0)


def _misfit(theta: np.ndarray, Phi: np.ndarray, L: np.ndarray) -> tuple:
    """(r, q): the misfit r = L - sum_l Q_l^2 at the samples and the forms q (nu, P)."""
    q = theta.reshape(-1, 10) @ Phi.T
    return L - np.sum(q * q, axis=0), q


def _smoothed(theta: np.ndarray, tau: float, Phi: np.ndarray, L: np.ndarray, grad: bool = False):
    """The descent target at scale tau, an annealed softmax of m = r^2:
    max m + tau log mean exp((m - max m) / tau).  With grad, also its exact
    gradient, Phi^T (-4 softmax(m / tau) r q_l) for each theta_l."""
    r, q = _misfit(theta, Phi, L)
    m = r * r
    top = m.max()
    e = np.exp((m - top) / tau)
    mean = e.sum() / e.size + 1e-300
    val = top + tau * math.log(mean)
    if not grad:
        return val
    weight = e / (e.size * mean)  # d val / d m
    return val, ((-4.0 * weight * r * q) @ Phi).ravel()


def _descend(theta, tau, Phi, L, c0: float, iterations: int) -> tuple:
    """(theta, stalled) after the descent of one restart of
    `estimate_delta_nu` from theta at softmax scale tau."""
    step = 0.1
    stalled = True
    i = 0
    while i < iterations:
        if i and i % 40 == 0:
            tau = max(tau * 0.4, 1e-9)
            step = max(step, 1e-3)
        val, grad = _smoothed(theta, tau, Phi, L, grad=True)
        gn = np.linalg.norm(grad)
        if gn == 0:
            break
        start = step
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
        # a failed search from the reset step would repeat until the next anneal
        i += 1 if improved or step != start else 40 - i % 40
    return theta, stalled


@dataclass
class DeltaNuReport(Report):
    op = "estimate_delta_nu"
    derived = ("passed",)

    nu: int
    estimate: float
    pointwise_inf: float
    restart_values: list
    stable: bool
    coefficient_cap: float
    sphere_samples: int
    stalled: bool

    @property
    def passed(self) -> bool:
        """nu = 0, or a positive distance that is stable across restarts."""
        return self.nu == 0 or (self.estimate > 0 and self.stable)


def estimate_delta_nu(
    nu: int,
    c0: float = 3.0,
    sphere_samples: int = 2000,
    restarts: int = 20,
    iterations: int = 300,
    seed: int = 7,
) -> DeltaNuReport:
    """Lower-bound estimate of the sup-distance of L from sums of nu squares
    of quadratic forms on the unit sphere.

    Multi-start projected gradient descent over nu symmetric 4x4 coefficient
    matrices (10*nu parameters, box |coef| <= c0) minimizing the max over
    sphere samples of the squared misfit.  Each step follows the exact
    gradient of a softmax-smoothed max (`_smoothed`) with a halving line
    search; the softmax scale is annealed by 0.4 every 40 steps.  A search
    that fails from the reset step 1e-6 leaves theta, the scale, the
    gradient and the start step as they were, so every step up to the next
    anneal would repeat the same failed search: those steps are skipped,
    which changes no iterate and no result.  The reported estimate is the
    square root of the best achieved max.
    pointwise_inf records the minimum |L - sum Q^2| over samples at the best
    parameters, which vanishes on the coordinate axes where the quartic
    itself vanishes.
    """
    if nu < 0 or nu > 4:
        raise DomainError(f"nu must lie in 0..4, got {nu}")
    if c0 <= 0:
        raise DomainError("coefficient cap must be positive")
    W = sphere_points(sphere_samples, 4)
    L = quartic_values(W)

    if nu == 0:
        diff = np.abs(L)
        return DeltaNuReport(
            nu=0,
            estimate=float(np.max(diff)),
            pointwise_inf=float(np.min(diff)),
            restart_values=[float(np.max(diff))],
            stable=True,
            coefficient_cap=c0,
            sphere_samples=sphere_samples,
            stalled=False,
        )

    Phi = _monomials(W)

    def sup_misfit(theta):
        return float(np.max(_misfit(theta, Phi, L)[0] ** 2))

    def run_restart(ridx: int):
        theta = np.random.default_rng(seed + 1000 * ridx).uniform(-0.5, 0.5, size=10 * nu)
        theta, stalled = _descend(theta, max(sup_misfit(theta) / 5.0, 1e-6), Phi, L, c0, iterations)
        return sup_misfit(theta), theta, stalled

    results = [run_restart(i) for i in range(restarts)]
    values = sorted(math.sqrt(v) for v, _, _ in results)
    # stable: the best value is independently reproduced by other restarts
    stable = sum(1 for v in values if v <= values[0] * 1.2 + 1e-300) >= min(3, len(values))
    best_theta = min(results, key=lambda r: r[0])[1]
    return DeltaNuReport(
        nu=nu,
        estimate=float(values[0]),
        pointwise_inf=float(np.min(np.abs(_misfit(best_theta, Phi, L)[0]))),
        restart_values=[float(v) for v in values],
        stable=bool(stable),
        coefficient_cap=c0,
        sphere_samples=sphere_samples,
        stalled=all(st for _, _, st in results),
    )


def crucial_lower_bound(delta_nu_est: float, beta: float, tau_grid) -> list:
    """Tabulate delta_nu^(2/(4-beta)) * tau^(-beta/(8-2beta)) over tau_grid:
    the required blowup of the C^(2,beta)-norm of any nu-term square
    decomposition of L + tau as tau -> 0, up to the constant of the bound."""
    if delta_nu_est <= 0:
        raise DomainError("delta_nu estimate must be positive")
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    amp = delta_nu_est ** (2.0 / (4.0 - beta))
    expo = -beta / (8.0 - 2.0 * beta)
    return [(float(tau), float(amp * tau**expo)) for tau in tau_grid]
