"""Sum-of-squares decomposition via per-cell square roots and fiber reduction.

Every cell of a control-distance cover contributes either the direct root
Phi_nu * sqrt(f) (cell value comparable to rho^(4+2d)) or, in the
second-derivative-dominated case, the exact split

    f(xi, y) = F(xi) + H(xi, y) * (y - X(xi))^2

along the top Hessian eigendirection, where X is the fiberwise minimizer,
H(xi, y) = int_0^1 (1-t) d^2_y f(xi, (1-t)X+ty) dt (no leading 1/2, so the
identity is exact), and the reduced profile F of one fewer variable is
decomposed recursively with a smaller Hölder exponent from the two-parameter
recursion.  One `FiberSplit` (built by `reduced_profile`) holds a cell's
split and is its root (y - X) sqrt(H), whose derivatives are read from f's
line series.  Roots are grouped by cover color class into finitely many functions
g_l with f = sum g_l^2 on the truncated region.

Cells decompose independently; assembly and reporting are deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .calculus import (
    FunctionHandle, HolderEstimate, _series_layout, _tensor_layout, directional_hessian_plus_values, log_ratios,
)
from .cover import (
    DEFAULT_CELL_SCALE,
    RADIUS_PROBE,
    ControlDistanceParams,
    CoverCell,
    Partition,
    _scatter,
    build_cover,
    build_partition,
    color_classes,
    control_distance_values,
    control_terms,
)
from .errors import (
    BoundaryRootError,
    ClassificationError,
    ConvergenceError,
    DomainError,
    QuadratureError,
    SosregError,
)
from .geometry import Ball, as_points, ball_points, sphere_points
from .reporting import Report
from .roots import power_jet

__all__ = [
    "delta_sequence",
    "check_differential_inequalities",
    "classify_cells",
    "reduced_profile",
    "FiberSplit",
    "decompose",
    "verify_decomposition",
    "root_holder_estimate",
    "DecomposeParams",
    "DecompositionReport",
    "CellDecomposition",
    "DiffIneqReport",
    "VerificationReport",
    "MinimizerProfile",
    "track_implicit_root",
    "implicit_second_derivative",
]


# ---------------------------------------------------------------------------
# Exponent recursion
# ---------------------------------------------------------------------------


def delta_sequence(delta: float, eta: float, n: int) -> list:
    """[d_0, ..., d_(n-1)] with d_0 = delta and
    d_(k+1)/(2+d_(k+1)) = eta * d_k/(1+d_k); closed form d_(k+1) = 2u/(1-u).

    Strictly decreasing for eta < 1/2.  The endpoint 1/2 is accepted here
    (the recursion is well defined there); the decomposition parameters
    enforce the strict bound.
    """
    if not 0.0 < delta <= 0.5:
        raise DomainError(f"delta must lie in (0, 1/2], got {delta}")
    if not 0.0 < eta <= 0.5:
        raise DomainError(f"eta must lie in (0, 1/2], got {eta}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    seq = [float(delta)]
    for _ in range(n - 1):
        u = eta * seq[-1] / (1.0 + seq[-1])
        seq.append(2.0 * u / (1.0 - u))
    return seq


# ---------------------------------------------------------------------------
# Differential inequalities
# ---------------------------------------------------------------------------


@dataclass
class DiffIneqReport(Report):
    op = "differential_inequalities"
    derived = ("passed",)

    delta: float
    eta: float
    quartic_constant: float
    hessian_constant: float
    quartic_stable: bool
    hessian_stable: bool
    samples: int

    @property
    def passed(self) -> bool:
        """Both constants are refinement-stable, which requires them finite, on a non-empty sample."""
        return self.samples > 0 and self.quartic_stable and self.hessian_stable


def check_differential_inequalities(
    f: FunctionHandle, delta: float, eta: float, region: Ball, samples: int = 600
) -> DiffIneqReport:
    """Empirical constants in |grad^4 f| <= C f^(d/(2+d)) and
    [directional Hessian]_+ <= C f^eta, with a refinement-stability flag.

    One batch of 2 * `samples` nested ball points is evaluated; the reported
    constants are its suprema, and the coarse ones it is checked against are
    the suprema over its first `samples` points."""
    pts = ball_points(region, 2 * samples)
    with np.errstate(divide="ignore"):
        log_f = np.log(np.maximum(f.values(pts), 0.0))
        log_q = np.log(f.max_entry_values(pts, 4))
        log_h = np.log(directional_hessian_plus_values(f, pts))
    ratios = (log_ratios(log_q, log_f, delta / (2.0 + delta)), log_ratios(log_h, log_f, eta))

    def constants(n):
        sups = (np.fmax.reduce(r[:n], initial=-np.inf) for r in ratios)
        return tuple(math.exp(b) if b < 700 else math.inf for b in sups)

    base, fine = constants(samples), constants(2 * samples)

    def stable(a, b):
        return math.isfinite(a) and math.isfinite(b) and (b == 0.0 or b <= a * 1.05 + 1e-12)

    return DiffIneqReport(delta=delta, eta=eta, quartic_constant=fine[0], hessian_constant=fine[1],
                          quartic_stable=stable(base[0], fine[0]), hessian_stable=stable(base[1], fine[1]),
                          samples=2 * samples)


# ---------------------------------------------------------------------------
# Implicit function helpers (Newton tracking and derivatives by line series)
# ---------------------------------------------------------------------------


def _bracketed_newton(step, y, g, g1, lo, hi, tol: float, max_iter: int) -> tuple:
    """Safeguarded Newton with bisection, for a batch of roots of g at once.

    Point i has the bracket [lo_i, hi_i], with g < 0 below its root and
    g > 0 above it, and starts at y_i, where g and g1 = g' were evaluated.
    Each iteration moves the bracket end on g's side to the iterate, then
    takes the Newton step, or bisects when that step is not finite, leaves
    the open bracket or has g' <= 0.  `step(live, y_live)` returns (g, g')
    at the iterates of the points `live` still moving: one call per
    iteration.  A point stops once |g| <= tol, or, still above tol, once
    its Newton step rounds to its iterate or its bracket holds no float
    strictly inside; the others stop after `max_iter` iterations.  Returns
    (y, the last g of each point), so |g| > tol marks the points that did
    not converge.
    """
    y, lo, hi, last = (np.array(a, dtype=float) for a in (y, lo, hi, g))
    live = np.arange(len(y))
    for _ in range(max_iter):
        todo = np.abs(g) > tol
        live, g, g1 = live[todo], g[todo], g1[todo]
        if live.size == 0:
            break
        yl = y[live]
        neg = g < 0
        lo[live] = np.where(neg, yl, lo[live])
        hi[live] = np.where(neg, hi[live], yl)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = yl - g / g1
        a, b = lo[live], hi[live]
        bad = ~np.isfinite(newton) | (newton <= a) | (newton >= b) | (g1 <= 0)
        y[live] = np.where(bad, 0.5 * (a + b), newton)
        if bad.any():
            # yl is a bracket end, so a Newton correction below rounding is
            # bad, as is every step in a bracket with no float inside; such
            # points cannot move any more
            stuck = ((newton == yl) & (g1 > 0)) | (np.nextafter(a, b) >= b)
            y[live[stuck]] = yl[stuck]
            live = live[~stuck]
            if live.size == 0:
                break
        g, g1 = step(live, y[live])
        last[live] = g
    return y, last


def track_implicit_root(
    H: FunctionHandle, x_prime, lo: float, hi: float, tol: float = 1e-13
) -> float:
    """Root y of H(x', y) = 0 on [lo, hi] by `_bracketed_newton`, started at
    the midpoint with H negated when it falls across the bracket.

    Requires a sign change of H(x', .) across the bracket; raises
    ConvergenceError when |H| > tol after MinimizerProfile.max_iter
    iterations or once the iterate stops moving.
    """
    x_prime = tuple(float(v) for v in np.atleast_1d(x_prime))

    def at(ys):
        """(H, H_y) at the points (x', y), from one degree-1 series along y."""
        return H.line_series(np.column_stack([np.tile(x_prime, (len(ys), 1)), ys]), np.eye(H.arity)[-1], 1)

    ends = sorted((lo, hi))
    mid = 0.5 * (lo + hi)
    h, dh = at(np.array([*ends, mid]))
    for end, h_end in zip(ends, h):
        if h_end == 0.0:
            return end
    if h[0] * h[1] > 0:
        raise BoundaryRootError(f"no sign change of H on [{lo}, {hi}] at x'={x_prime}")
    sign = 1.0 if h[0] < 0 else -1.0
    y, last = _bracketed_newton(lambda _, ys: tuple(sign * v for v in at(ys)), [mid], sign * h[2:], sign * dh[2:],
                               ends[:1], ends[1:], tol, MinimizerProfile.max_iter)
    if abs(last[0]) > tol:
        raise ConvergenceError(
            f"no root of H to |H| <= {tol} at x'={x_prime} on [{lo}, {hi}]: last |H| = {abs(float(last[0]))}"
        )
    return float(y[0])


def implicit_second_derivative(H: FunctionHandle, point) -> np.ndarray:
    """Hessian of the implicit function h, H(x', h(x')) = 0 with y the last coordinate, at
    (x', h(x')), from H's line series by the graph-slope rule of `FiberSplit.jet`: along each
    ray j of `_jet_layout(n - 1, 2)`, u = (j, 0) and e the last axis, h has the slope
    X_1 = -c_1(u) / c_1(e) and, w = u + X_1 e, the curvature X_2 = -2 c_2(w) / c_1(e), which
    `_jet_of_series` interpolates."""
    P, k = as_points(point, H.arity), H.arity - 1
    if k == 0:  # no x': the zero set is a point
        return np.zeros((0, 0))
    rays = _jet_layout(k, 2)[0]
    e = np.eye(H.arity)[-1]
    u = np.concatenate([rays, np.zeros((len(rays), 1))], axis=1)
    c1 = H.line_series(P, np.concatenate([u, e[None]]), 1)[1]
    X1 = -c1[:-1] / c1[-1]
    c2 = H.line_series(P, u[:, None] + X1[..., None] * e, 2)[2]
    return _jet_of_series([None, X1, -c2 / c1[-1]], k)[1][0]


# ---------------------------------------------------------------------------
# Rotated access to a handle
# ---------------------------------------------------------------------------


def rotation_with_last_axis(theta: np.ndarray) -> np.ndarray:
    """Orthonormal matrix whose last column is the unit vector theta
    (Householder reflection; identity when theta is already the last axis)."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    e = np.zeros(n)
    e[-1] = 1.0
    v = e - theta
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return np.eye(n)
    v = v / nv
    return np.eye(n) - 2.0 * np.outer(v, v)


class _RotatedFrame:
    """f in coordinates v with x = base + R v, the fiber direction the last coordinate,
    r = R[:, -1] in x: point maps, values and fiber series; it builds no rotated tensor."""

    def __init__(self, f: FunctionHandle, base: np.ndarray, R: np.ndarray):
        self.f = f
        self.base = np.asarray(base, dtype=float)
        self.R = np.asarray(R, dtype=float)
        self.n = f.arity

    def to_global(self, V) -> np.ndarray:
        return self.base + as_points(V, self.n) @ self.R.T

    def to_local(self, X) -> tuple:
        """(xi, y) with x = base + R (xi, y): the inverse of `to_global`."""
        V = (as_points(X, self.n) - self.base) @ self.R
        return V[:, :-1], V[:, -1]

    def values(self, V) -> np.ndarray:
        return self.f.values(self.to_global(V))

    def fiber(self, V) -> tuple:
        """(d_y f, d_y^2 f) at the points: c_1 and 2 c_2 of one degree-2
        `line_series` of f along the fiber direction r; no tensor is built."""
        _, c1, c2 = self.f.line_series(self.to_global(V), self.R[:, -1], 2)
        return c1, 2.0 * c2


# ---------------------------------------------------------------------------
# Cell classification
# ---------------------------------------------------------------------------


@dataclass
class CellDecomposition:
    """A case-II cell: its control distance rho, its axis, its `FiberSplit`
    and the split's identity error, and above one variable its remainder
    profile's report.  A case-I cell has no record: its root is Phi_nu sqrt(f)."""

    cell: CoverCell
    rho: float
    axis: tuple
    split: "FiberSplit"
    identity_error: float
    sub_report: "DecompositionReport | None" = None

    def as_dict(self) -> dict:
        return {"nu": self.cell.nu, "axis": self.axis, "h_lower_ok": self.split.h_ok,
                "identity_error": self.identity_error, "recursive": self.sub_report is not None,
                "quad_nodes": self.split.nodes, "tables": self.split.sampled_tables()}


def classify_cells(f: FunctionHandle, cells: list, delta: float, c: float) -> tuple:
    """The cells' cases, control distances and axes, from one order-4 jet of f at their centers.

    A cell is case I when f(center) >= c * rho^(4+2d), rho the largest of the
    value, Hessian and quartic terms; otherwise it is case II and its axis is
    the top Hessian eigendirection, signed so that its first non-negligible
    component is positive.  A case-II cell must have the Hessian term as the
    active maximum in rho; otherwise the fourth-derivative term dominates,
    which the pipeline's normalization is supposed to prevent, and a
    ClassificationError signals the inconsistency.

    Returns (case_one (N,) bool, rho (N,), axes (N, n)); every row has an
    axis, and `decompose` reads those of the case-II rows.
    """
    fval, _, H, _, D4 = f.jet(np.array([cell.center for cell in cells]), 4)
    eigvals, eigvecs = np.linalg.eigh(H)
    terms = control_terms(fval, eigvals[:, -1], np.max(np.abs(D4), axis=(1, 2, 3, 4)), delta)
    rho = np.max(terms, axis=1)
    case_one = np.maximum(fval, 0.0) >= c * rho ** (4.0 + 2.0 * delta)
    bad = np.flatnonzero(~case_one & (terms[:, 1] < rho * (1.0 - 1e-9)))
    if bad.size:
        i = int(bad[0])
        raise ClassificationError(
            f"cell {cells[i].nu}: case II with a non-dominant Hessian term "
            f"(terms f/hess/quartic = {tuple(terms[i])}); the fourth-derivative term dominates, "
            "which signals a missing normalization upstream"
        )
    axes = eigvecs[:, :, -1]
    first = np.argmax(np.abs(axes) > 1e-12, axis=1)
    axes = axes * np.where(axes[np.arange(len(axes)), first] < 0, -1.0, 1.0)[:, None]
    return case_one, rho, axes


# ---------------------------------------------------------------------------
# Fiber minimizer
# ---------------------------------------------------------------------------


class MinimizerProfile:
    """Newton-tracked fiberwise minimizer X(xi) over a cell cross-section.

    Solves g = d_y f(xi, y) = 0 on the fiber bracket [-halfwidth, halfwidth] by
    `_bracketed_newton`, starting every solve at the center's root X(0), the predictor step of
    numerical continuation.  The first solve request solves the center first, from y = 0, with
    no memo slot and nothing added to `unconverged`; a 0-dim cross-section's one problem is the
    center's, solved from y = 0.  Each Newton iteration reads g and g' = d_y^2 f of the points
    still above `g_tol` from one degree-2 line series of f (`frame.fiber`); the bracket ends and
    the start share one call, which ends the solve where X is constant.  Where f is itself a
    reduced profile, that series is read from f's parent along a few directions, so no level's
    solve builds a derivative tensor.  A missing sign change means the
    minimum sits on the bracket boundary, which indicates the case split
    constant c was chosen too large.  The points the solver leaves above
    `g_tol`, after `max_iter` iterations or once they cannot move, keep their
    last iterate and are added to `unconverged`, a running count over every
    solve request of this profile.

    The last `memo_size` solved batches are kept by the exact bytes of xi: a batch
    asked again (a profile's values after its control distances, say) gets a copy
    of its solution and adds its stalled count again, with no fiber call.  A 0-dim
    cross-section's batch is solved as one row.  The memo and the start make a
    profile unsafe to share between threads.
    """

    max_iter = 80
    memo_size = 4

    def __init__(self, frame: _RotatedFrame, halfwidth: float, g_tol: float, cell_nu: int):
        self.frame = frame
        self.halfwidth = float(halfwidth)
        self.g_tol = float(g_tol)
        self.cell_nu = cell_nu
        self.unconverged = 0
        self._memo: dict = {}
        self._start = None  # the center's root, solved by the first `_newton`

    def solve_many(self, Xi) -> np.ndarray:
        """Vectorized safeguarded Newton across a batch of cross-sections."""
        Xi = as_points(Xi, self.frame.n - 1)
        N, k = Xi.shape
        if N == 0:
            return np.empty(0)
        rows = N if k else 1  # every row of a 0-dim cross-section is the same problem
        key = (rows, k, Xi.tobytes())
        self._memo[key] = self._memo.pop(key, None) or self._newton(Xi[:rows])
        if len(self._memo) > self.memo_size:
            del self._memo[next(iter(self._memo))]
        y, stalled = self._memo[key]
        self.unconverged += stalled * (N // rows)
        return np.tile(y, N // rows)

    def _newton(self, Xi: np.ndarray) -> tuple:
        """(y, the count of points left above `g_tol`) of one batch, started at the center's root."""
        N, k = Xi.shape
        if self._start is None:  # solve the center first, from y = 0, unless it is the only problem (k = 0)
            self._start = 0.0
            self._start = float(self._newton(np.zeros((1, k)))[0][0]) if k else 0.0
        w = self.halfwidth
        starts = np.repeat([-w, w, self._start], N)[:, None]
        g, g2 = self.frame.fiber(np.concatenate([np.tile(Xi, (3, 1)), starts], axis=1))
        if np.any(g[:N] > self.g_tol) or np.any(g[N : 2 * N] < -self.g_tol):
            raise BoundaryRootError(
                f"cell {self.cell_nu}: fiber minimum on the bracket boundary "
                "(case split constant c too large)"
            )
        y, last = _bracketed_newton(
            lambda live, y_live: self.frame.fiber(np.concatenate([Xi[live], y_live[:, None]], axis=1)),
            np.full(N, self._start), g[2 * N :], g2[2 * N :], np.full(N, -w), np.full(N, w), self.g_tol, self.max_iter,
        )
        return y, int(np.count_nonzero(np.abs(last) > self.g_tol))


# ---------------------------------------------------------------------------
# The case-II fiber split
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _fiber_rule(nodes: int) -> tuple:
    """(t, (1 - t) w): the n-node Gauss-Legendre rule on [0, 1] with the
    fiber factor's weight (1 - t) folded in."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (t + 1.0)
    rule = (t, (1.0 - t) * (0.5 * w))
    for a in rule:
        a.flags.writeable = False  # shared by every caller through the cache
    return rule


def _quadrature_points(Xi: np.ndarray, Y: np.ndarray, X: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The points (xi, (1 - t) X + t y) of every node t, nodes fastest: (N * nodes, n)."""
    ys = (1.0 - t)[None, :] * X[:, None] + t[None, :] * Y[:, None]
    return np.concatenate([np.repeat(Xi, len(t), axis=0), ys.reshape(-1, 1)], axis=1)


def _fiber_factor(frame: _RotatedFrame, Xi, Y, X: np.ndarray, nodes: int) -> np.ndarray:
    """H(xi, y) = int_0^1 (1-t) d^2_y f(xi, (1-t) X(xi) + t y) dt by the
    n-node Gauss-Legendre rule, X the minimizer at xi (without a leading 1/2,
    so that f = F + H * (y - X)^2 holds exactly)."""
    Xi = as_points(Xi, frame.n - 1)
    Y = np.atleast_1d(np.asarray(Y, dtype=float))
    t, tw = _fiber_rule(nodes)
    return frame.fiber(_quadrature_points(Xi, Y, X, t))[1].reshape(len(Xi), nodes) @ tw


_BLOCK = 8192  # points per fiber solve of a reduced profile; bounds the parent's series passes


def _blocks(N: int) -> list:
    """Slices of at most _BLOCK points covering a batch of N (one empty slice for N = 0)."""
    return [slice(i, i + _BLOCK) for i in range(0, max(N, 1), _BLOCK)]


@functools.lru_cache(maxsize=None)
def _jet_layout(k: int, order: int) -> tuple:
    """(rays, per order m (rows, weights, denominator, index)): a jet to `order`
    from the series along the rays, the order-m partials weights @ c_m[rows] /
    denominator, each flat tensor entry its partial's row in `index`.  The rays
    are `_series_layout`'s directions j, each once as its primitive j / g, so
    c_m(j) = g^m c_m(j / g) and the weights are its numerators times g^m."""
    rays: dict = {}
    per_order = []
    for m in range(1, order + 1):
        J, numerators, denominator, _ = _series_layout(k, m)
        J = J.astype(int)
        g = np.gcd.reduce(J, axis=1)
        index = np.empty(k**m, dtype=int)
        for row, (_, where) in enumerate(_tensor_layout(k, m)):
            index[where] = row
        rows = [rays.setdefault(tuple(j // gj), len(rays)) for j, gj in zip(J, g)]
        per_order.append((rows, numerators * g**m, denominator, index))
    return np.array(list(rays), dtype=float), per_order


def _jet_of_series(c: list, k: int) -> list:
    """[D f, ..., D^m f] of an N-point batch in k variables, m = len(c) - 1, from f's
    series coefficients c[1..m] along the rays of `_jet_layout(k, m)`, each (rays, N):
    each order's partials by `_jet_layout`'s weights, each flat tensor entry its partial's."""
    _, per_order = _jet_layout(k, len(c) - 1)
    return [(weights @ c[m][rows] / denominator)[index].T.reshape((c[m].shape[1],) + (k,) * m)
            for m, (rows, weights, denominator, index) in enumerate(per_order, 1)]


def _reduced_profile_handle(
    frame: _RotatedFrame,
    minimizer: MinimizerProfile,
    k: int,
    radius: float,
    label: str,
) -> FunctionHandle:
    """F(xi) = f(xi, X(xi)) as a jet-backed handle over the (k-dim) cross-section,
    read by its own `line_series` up to degree 4 from f's at the graph point
    p = Phi(xi); the minimizer solves a batch read again (values, then jet) once.

    Along r, with u = R[:, :k] r and e = R[:, -1], one degree-2 series of f along
    u, u + e and e gives c_0, c_1 = c_1(u) (f_e = 0 on the graph) and c_2 =
    c_2(u) - f_ue^2 / (4 c_2(e)), f_ue = c_2(u + e) - c_2(u) - c_2(e).  One more
    along w = u + X_1 e (X_1 = -f_ue / (2 c_2(e)), X's slope) gives c_3 = c_3(w),
    and to degree 4, along w + e, w - e and e as well, c_4 = c_4(w) - f_wwe^2 /
    (16 c_2(e)), f_wwe = c_3(w + e) - c_3(w - e) - 2 c_3(e).  A jet reads w +- e
    only along the rays its order-4 partials use.  An O(t^j) error in X moves F
    only at O(t^2j), so X_2 enters only there and X_3 never (Taylor-mode
    differentiation of an implicit function; Griewank & Walther, Evaluating
    Derivatives, ch. 13).  The w are one per point, and a parent profile answers
    by this same rule, so no level builds a derivative tensor.  The jet of
    orders 1..4 is one such read along the rays of `_jet_layout`.  Batches are
    solved in blocks of at most _BLOCK points.
    """
    R = frame.R

    def graph(Xi):
        return frame.to_global(np.concatenate([Xi, minimizer.solve_many(Xi)[:, None]], axis=1))

    def series_block(Xi, rs, degree, quartic):
        # F's series along rs (D, N, k), each (D, N); c_4 is corrected along rs[quartic] alone
        u = rs @ R[:, :k].T
        D, e, P = len(u), np.broadcast_to(R[:, -1], (1,) + u.shape[1:]), graph(Xi)
        c = frame.f.line_series(P, np.concatenate([u, u + e, e]), min(degree, 2))
        out = [c[m][:D] for m in range(min(degree, 1) + 1)]
        if degree >= 2:
            ce, fue = c[2][2 * D], c[2][D : 2 * D] - c[2][:D] - c[2][2 * D]
            out.append(c[2][:D] - fue**2 / (4.0 * ce))
        if degree >= 3:
            w = u - (fue / (2.0 * ce))[..., None] * e
            q = w[quartic]
            c = frame.f.line_series(P, np.concatenate([w, q + e, q - e, e] if degree == 4 else [w]), degree)
            out.append(c[3][:D])
        if degree == 4:
            fwwe = c[3][D : D + len(q)] - c[3][D + len(q) : -1] - 2.0 * c[3][-1]
            out.append(np.array(c[4][:D]))
            out[4][quartic] -= fwwe**2 / (16.0 * ce)
        return out

    def line_series(Xi, r, degree, quartic=slice(None)):
        if degree > 4:
            raise DomainError(f"reduced profile supports derivative orders <= 4, got {degree}")
        N = len(Xi)
        rs = r if r.ndim == 3 else np.broadcast_to(r.reshape(-1, 1, k), (r.size // k, N, k))
        parts = [series_block(Xi[b], rs[:, b], degree, quartic) for b in _blocks(N)]
        return [np.concatenate(c, axis=1).reshape(rs.shape[:-1] if r.ndim > 1 else (N,)) for c in zip(*parts)]

    def jet_many(Xi, order):
        if order == 0:
            return [eval_many(Xi)]
        rays, per_order = _jet_layout(k, order)
        c = line_series(Xi, rays, order, sorted(set(per_order[-1][0])))  # c_4 only where order 4 reads it
        return [c[0][0], *_jet_of_series(c, k)]

    def eval_many(Xi):
        return np.concatenate([frame.f.values(graph(Xi[b])) for b in _blocks(len(Xi))])

    return FunctionHandle(
        arity=k,
        eval_many=eval_many,
        derivative_many_factory=None,
        jet_many=jet_many,
        domain=Ball(center=(0.0,) * k, radius=radius),
        label=label,
        exact_derivatives=False,
        line_series=line_series,
    )


class FiberSplit:
    """The case-II split f = F(xi) + H(xi, y) (y - X(xi))^2 of one cell, and
    its root piece w = (y - X(xi)) sqrt(H(xi, y)).

    (xi, y) are the coordinates of `frame`, y along the cell's axis.  X is
    the fiber minimizer (`minimizer`), H the fiber factor by the `nodes`-node
    rule, and F the reduced profile f(xi, X(xi)): a jet-backed handle over
    the cross-section, or for a 1-D cell the constant f(X), clamped at 0.
    `h_ok` records whether H kept its lower bound on the samples that chose
    `nodes`.  Built by :func:`reduced_profile`; every method asks the
    minimizer once per batch, and it solves only batches not in its memo.
    Every method reads f by values and line series alone, so none builds a
    derivative tensor of f.
    """

    def __init__(self, cell: CoverCell, minimizer: MinimizerProfile, nodes: int, F, h_ok: bool):
        self.cell = cell
        self.frame = minimizer.frame
        self.minimizer = minimizer
        self.nodes = nodes
        self.F = F
        self.h_ok = h_ok

    def H(self, Xi, Y, X=None) -> np.ndarray:
        """H at the points (Xi, Y); X is the minimizer at Xi when the caller
        has solved it already, and is solved here otherwise."""
        if X is None:
            X = self.minimizer.solve_many(Xi)
        return _fiber_factor(self.frame, Xi, Y, X, self.nodes)

    def _F_values(self, Xi: np.ndarray, X: np.ndarray) -> np.ndarray:
        """F at Xi from the minimizer values X already solved there."""
        if self.frame.n == 1:
            return np.full(len(Xi), self.F)
        return self.frame.values(np.concatenate([Xi, X[:, None]], axis=1))

    def weights(self, X) -> np.ndarray:
        Xi, Y = self.frame.to_local(X)
        Xstar = self.minimizer.solve_many(Xi)
        return (Y - Xstar) * np.sqrt(np.maximum(self.H(Xi, Y, Xstar), 0.0))

    def read(self, level: _Level, at: slice) -> np.ndarray:
        return self.weights(level.X[level.ids[at]])

    def jet(self, X) -> tuple:
        """(w, Dw, D^2 w) in x, from one fiber solve and three line series of f along the
        rays j of `_jet_layout(n, 2)`, interpolated by `_jet_of_series`.

        With e = R[:, -1], b = j . e and u = j - b e, the graph point gives X's slope
        X_1 = -f_ue / (2 c_2(e)) and curvature X_2 = -f_wwe / (2 c_2(e)) along j, w = u + X_1 e
        (f_ue, f_wwe as in `_reduced_profile_handle`).  Node i moves along V_i = u + ((1 - t_i)
        X_1 + t_i b) e, so H = sum_i tw_i f_yy(Psi_i) has the series h_0 = sum tw_i 2 c_2(e),
        h_1 = sum tw_i Df_yy[V_i] and h_2 = sum tw_i (D^2 f_yy[V_i, V_i] / 2 + 3 c_3(e) (1 - t_i) X_2),
        where Df_yy[V] = c_3(V + e) + c_3(V - e) - 2 c_3(V) and D^2 f_yy[V, V] = 2 (c_4(V + e) +
        c_4(V - e) - 2 c_4(V) - 2 c_4(e)).  With r the series of sqrt(H) (zero where h_0 <= 0)
        and s = y - X, w = s sqrt(H) has c_1 = s r_1 + (b - X_1) r_0 and c_2 = s r_2 + (b - X_1)
        r_1 - X_2 r_0 / 2: Taylor-mode differentiation of an implicit function (Griewank &
        Walther, Evaluating Derivatives, ch. 13), with no tensor of f built at any level.
        """
        Xi, Y = self.frame.to_local(X)
        N, n, M = len(Y), self.frame.n, self.nodes
        f, e = self.frame.f, self.frame.R[:, -1]
        t, tw = _fiber_rule(M)
        Xstar = self.minimizer.solve_many(Xi)
        rays = _jet_layout(n, 2)[0]
        D, b = len(rays), rays @ e
        u = np.broadcast_to((rays - b[:, None] * e)[:, None], (D, N, n))
        P = self.frame.to_global(np.column_stack([Xi, Xstar]))
        c = f.line_series(P, np.concatenate([u, u + e, np.broadcast_to(e, (1, N, n))]), 2)[2]
        fyy = 2.0 * c[-1]
        X1 = -(c[D:-1] - c[:D] - c[-1]) / fyy
        w = u + X1[..., None] * e
        c = f.line_series(P, np.concatenate([w + e, w - e, np.broadcast_to(e, (1, N, n))]), 3)[3]
        X2 = -(c[:D] - c[D:-1] - 2.0 * c[-1]) / fyy
        V = (u[:, :, None] + ((1.0 - t) * X1[..., None] + t * b[:, None, None])[..., None] * e).reshape(D, N * M, n)
        Q = self.frame.to_global(_quadrature_points(Xi, Y, Xstar, t))  # nodes fastest
        _, _, c2, c3, c4 = f.line_series(Q, np.concatenate([V + e, V - e, V, np.broadcast_to(e, (1, N * M, n))]), 4)

        def quad(a, weights=tw):  # the rule's sum over each point's nodes
            return a.reshape(a.shape[:-1] + (N, M)) @ weights

        def even(a):  # a(V + e) + a(V - e) - 2 a(V)
            return a[:D] + a[D : 2 * D] - 2.0 * a[2 * D : 3 * D]

        h0, h1 = quad(2.0 * c2[-1]), quad(even(c3))
        h2 = quad(even(c4) - 2.0 * c4[-1]) + quad(3.0 * c3[-1], (1.0 - t) * tw) * X2
        pos = h0 > 0.0
        r0 = np.sqrt(np.where(pos, h0, 0.0))
        half = np.where(pos, 0.5 / np.where(pos, r0, 1.0), 0.0)  # 1 / (2 r_0), zero where H <= 0
        r1 = h1 * half
        r2 = (h2 - r1**2) * half
        s, slope = Y - Xstar, b[:, None] - X1
        return (s * r0, *_jet_of_series([None, s * r1 + slope * r0, s * r2 + slope * r1 - 0.5 * X2 * r0], n))

    def identity_error(self, samples: int) -> float:
        """Max of |f - F - H (y - X)^2| over `samples` points of the cell
        (the exactness check), on one fiber solve."""
        pts = ball_points(Ball(center=self.cell.center, radius=0.98 * self.cell.radius), samples)
        Xi, Y = self.frame.to_local(pts)
        Xstar = self.minimizer.solve_many(Xi)
        h = self.H(Xi, Y, Xstar)
        recon = self._F_values(Xi, Xstar) + h * (Y - Xstar) ** 2
        return float(np.max(np.abs(self.frame.f.values(pts) - recon)))

    def sampled_tables(self) -> dict:
        """Tables of the minimizer X, reduced profile F and fiber factor H on
        9-point grids over the cell, with shape metadata, for serialized reports."""
        resolution = 9
        k = self.frame.n - 1
        r = 0.9 * self.cell.radius
        if k == 0:
            Xi = np.zeros((1, 0))
        elif k == 1:
            Xi = np.linspace(-r, r, resolution).reshape(-1, 1)
        else:
            Xi = ball_points(Ball(center=(0.0,) * k, radius=r), resolution)
        ys = np.linspace(-r, r, resolution)
        X = self.minimizer.solve_many(Xi)
        F = self._F_values(Xi, X)
        M = len(ys)
        H = self.H(np.tile(Xi, (M, 1)), np.repeat(ys, Xi.shape[0]), np.tile(X, M)).reshape(M, Xi.shape[0])
        return {"xi_shape": Xi.shape, "xi": Xi, "fiber_grid": ys, "X": X, "F": F, "H_shape": H.shape, "H": H}


def reduced_profile(
    f: FunctionHandle,
    cell: CoverCell,
    axis,
    rho: float,
    delta: float,
    quad_nodes: int = 32,
) -> FiberSplit:
    """The case-II split of a cell along the unit direction `axis`.

    The fiber Newton solves stop at |f_y| <= 1e-12 * rho^(2+2d) and start at
    the minimizer over the cell's center, solved once (`MinimizerProfile`).  On 16
    cell samples and one fiber solve, H's node count is chosen: the smallest
    n in 2, 4, ..., `quad_nodes` (the cap, last) whose rule agrees with the
    one before it (the 1-node rule for n = 2) to a relative 1e-9 in the sup
    norm; QuadratureError is raised if none does.  h_ok records whether
    those values keep H >= (1/4) rho^(2+2d) (the lower bound matching the
    unhalved H normalization).
    """
    R = rotation_with_last_axis(np.asarray(axis, dtype=float))
    frame = _RotatedFrame(f, np.asarray(cell.center), R)
    g_tol = 1e-12 * rho ** (2.0 + 2.0 * delta)
    minimizer = MinimizerProfile(frame, halfwidth=cell.radius, g_tol=g_tol, cell_nu=cell.nu)
    k = f.arity - 1

    if k > 0:
        xi_pts = ball_points(Ball(center=(0.0,) * k, radius=0.9 * cell.radius), 16)
    else:
        xi_pts = np.zeros((8, 0))
    y_pts = np.linspace(-0.9 * cell.radius, 0.9 * cell.radius, len(xi_pts))
    X = minimizer.solve_many(xi_pts)
    prev, n, err = _fiber_factor(frame, xi_pts, y_pts, X, 1), 1, math.inf
    while n < quad_nodes:
        n = min(2 * n, quad_nodes)
        h_vals = _fiber_factor(frame, xi_pts, y_pts, X, n)
        err = float(np.max(np.abs(h_vals - prev))) / (np.max(np.abs(h_vals)) + 1e-30)
        if err <= 1e-9:
            break
        prev = h_vals
    else:
        raise QuadratureError(
            f"cell {cell.nu}: fiber factor quadrature mismatch {err:.3e} at {n} nodes, the cap (quad_nodes)"
        )
    h_floor = 0.25 * rho ** (2.0 + 2.0 * delta)
    h_ok = bool(np.all(h_vals >= h_floor * (1.0 - 1e-6)))

    if k > 0:
        F = _reduced_profile_handle(frame, minimizer, k, cell.radius, label=f"{f.label}|cell{cell.nu}")
    else:
        F = max(float(frame.values(minimizer.solve_many(np.zeros((1, 0)))[:, None])[0]), 0.0)
    return FiberSplit(cell, minimizer, n, F, h_ok)


# ---------------------------------------------------------------------------
# Root pieces and grouped roots
# ---------------------------------------------------------------------------


class _CaseIPiece:
    """w = sqrt(f) on every case-I cell; a level fills it once, at each row some bump reaches."""

    def __init__(self, f: FunctionHandle):
        self.f = f

    def read(self, level: _Level, at: slice) -> np.ndarray:
        if self not in level.reads:
            rows = np.flatnonzero(level.tot > 0)
            level.reads[self] = np.empty(len(level.X))
            level.reads[self][rows] = np.sqrt(np.maximum(self.f.values(level.X[rows]), 0.0))
        return level.reads[self][level.ids[at]]

    def jet(self, X) -> tuple:
        """(w, Dw, D^2 w) from f's order-2 jet; zero where f <= 0."""
        return power_jet(self.f.jet(X, 2), 0.5)


class _ConstPiece:
    """w = sqrt(F) for the constant reduced profile F of a 1-D case-II cell, clamped at 0."""

    def __init__(self, value: float):
        self.root = math.sqrt(max(float(value), 0.0))

    def read(self, level: _Level, at: slice) -> float:
        return self.root

    def jet(self, X) -> tuple:
        N, n = X.shape
        return np.full(N, self.root), np.zeros((N, n)), np.zeros((N, n, n))


class _LiftedPiece:
    """Root `index` of a case-II cell's sub-report, lifted through the cell's frame.  The cell's
    lifted pieces share their hits, so a level reads them on one sub-level of all `roots` at xi,
    where each piece evaluates its own sub-root."""

    def __init__(self, frame: _RotatedFrame, roots: list, index: int):
        self.frame, self.roots, self.index = frame, roots, index

    def read(self, level: _Level, at: slice) -> np.ndarray:
        if id(self.roots) not in level.reads:
            level.reads[id(self.roots)] = _Level(self.roots, self.frame.to_local(level.X[level.ids[at]])[0])
        sub = level.reads[id(self.roots)]
        return sub.dense(self.index, self.roots[self.index].eval_many(sub.X, sub, self.index))

    def jet(self, X) -> tuple:
        """The sub-root's jet at the frame's xi, pulled back to x through R[:, :-1]."""
        P = self.frame.R[:, :-1]
        w, w1, w2 = self.roots[self.index].jet(self.frame.to_local(X)[0])
        return w, w1 @ P.T, P @ w2 @ P.T


class _Level:
    """One read of a batch X by the root groups `roots` of a partition level: one `chi_pairs`, its
    S = sum_mu chi_mu^2, and one gather over `ChiPairs.starts` of every group's live hits (chi > 0,
    S > 0) in group order, by cell within a group: their positions `hits` in the pairs, points `ids`,
    `chi` and sqrt(S) `root_s`.  Member m of the groups owns hits cuts[m]:cuts[m + 1], group k's
    members start at first[k].  `reads` holds what the groups' pieces share, filled by the first
    `read` that needs it.  A group read alone is a level of its own."""

    def __init__(self, roots: list, X: np.ndarray):
        self.roots, self.X, self.reads = roots, X, {}
        self.pairs = pairs = roots[0].partition.chi_pairs(X)
        self.tot = roots[0].partition.sum_chi_sq(X, pairs)
        cells = np.concatenate([g.cells for g in roots])
        a = pairs.starts[cells]
        n = pairs.starts[cells + 1] - a
        hits = np.repeat(a - np.cumsum(n) + n, n) + np.arange(n.sum())
        live = ((pairs.chi > 0) & (self.tot[pairs.idx] > 0))[hits]
        self.hits = hits[live]
        self.ids, self.chi = pairs.idx[self.hits], pairs.chi[self.hits]
        self.root_s = np.sqrt(self.tot)[self.ids]
        member = np.repeat(np.arange(len(cells)), n)[live]
        self.cuts = np.searchsorted(member, np.arange(len(cells) + 1)).tolist()
        self.first = np.cumsum([0] + [len(g.members) for g in roots]).tolist()

    def span(self, k: int) -> slice:
        """Group k's hits."""
        return slice(self.cuts[self.first[k]], self.cuts[self.first[k + 1]])

    def runs(self, k: int) -> list:
        """(piece, slice of hits) of each run of group k's members that share a piece and have hits."""
        cuts, m = self.cuts, self.first[k]
        return [(piece, slice(cuts[m + a], cuts[m + b])) for piece, a, b in self.roots[k].runs
                if cuts[m + b] > cuts[m + a]]

    def dense(self, k: int, g: np.ndarray) -> np.ndarray:
        """Group k's values g at its hits spread over the batch, zero elsewhere."""
        return _scatter(self.ids[self.span(k)], g, len(self.X))


class RootGroup:
    """One square-root function g_l: a color class of cells sharing a bump
    partition, each contributing Phi_nu times its per-cell weight.

    Supports within the group are pairwise disjoint, so g_l(x) = sum_nu Phi_nu(x) w_nu(x) has a
    single active term per point, and g_l is read at the group's own hits only.  A group is built
    once: `members` is the tuple of (cell index nu, piece) sorted by cell, `cells` their cells and
    `runs` the (piece, first, end) ranges of consecutive members sharing a piece, so the members
    sharing one (every case-I cell) are read by one `read(level, at)`, w at the hits `at` of a
    `_Level`; a piece's `jet(X)` is (w, Dw, D^2 w).  Points are read by `geometry.as_points`.
    """

    def __init__(self, label: str, partition: Partition, members: list, scale: float = 1.0):
        self.label = label
        self.partition = partition
        self.members = tuple(sorted(members, key=lambda m: m[0]))
        self.cells = np.array([nu for nu, _ in self.members], dtype=int)
        pieces = [piece for _, piece in self.members]
        new = [m for m in range(len(pieces)) if m == 0 or pieces[m] is not pieces[m - 1]]
        self.runs = [(pieces[a], a, b) for a, b in zip(new, new[1:] + [len(pieces)])]
        self.scale = float(scale)

    @property
    def arity(self) -> int:
        return self.partition.dim

    def eval_many(self, X, level: _Level | None = None, k: int = 0) -> np.ndarray:
        """g on a batch.  Alone it reads X by a `_Level` of this group only and returns g at every
        point.  As group k of `level`, a pass over X, it returns scale * chi w / sqrt(S) at its own
        hits `level.span(k)` only."""
        alone = level is None
        level = level or _Level([self], as_points(X, self.arity))
        at = level.span(k)
        w = np.empty(at.stop - at.start)
        for piece, run in level.runs(k):
            w[run.start - at.start : run.stop - at.start] = piece.read(level, run)
        g = self.scale * (level.chi[at] * w / level.root_s[at])
        return level.dense(k, g) if alone else g

    def jet(self, X) -> tuple:
        """(g, Dg, D^2 g) on an (N, n) batch: shapes (N,), (N, n), (N, n, n).

        g = scale * chi_nu w_nu / sqrt(S) at the group's own live hits, at most one per point
        since the members' supports are disjoint, with S = sum_mu chi_mu^2 over every cell.
        One `_Level` reads the batch; each piece gives its (w, Dw, D^2 w) at its hits, and
        `Partition.quotient_jet` differentiates the quotient there from the level's
        `chi_pairs` and places each hit's row at its point.  Points the group does not reach
        get zeros.
        """
        X = as_points(X, self.arity)
        N, n = X.shape
        level = _Level([self], X)
        g = level.dense(0, self.eval_many(X, level))
        H = len(level.hits)
        w0, w1, w2 = np.empty(H), np.empty((H, n)), np.empty((H, n, n))
        for piece, at in level.runs(0):
            w0[at], w1[at], w2[at] = piece.jet(X[level.ids[at]])
        return (g,) + self.partition.quotient_jet(X, level.pairs, level.tot, level.hits, (w0, w1, w2), self.scale)

    def __call__(self, X):
        return self.eval_many(X)


# ---------------------------------------------------------------------------
# Decomposition driver
# ---------------------------------------------------------------------------


@dataclass
class DecomposeParams:
    """Parameters of `decompose`: the Hölder exponent delta and the recursion's
    eta, the cover scale s (case split constant c = s^2/8), the control
    distance floor, the residual tolerance and the sample counts of its
    checks; the residual check samples max(verify_points, 512) points.  A
    case-II remainder profile is decomposed with the next delta, on the
    cell's ball, and with these fields rescaled per level: verify_points // 4
    (at least 256), identity_samples // 4 (at least 100), ineq_samples // 8
    (at least 60) and estimate_holder off."""

    delta: float
    eta: float
    region: Ball
    s: float = DEFAULT_CELL_SCALE
    floor: float = 1e-3
    tol: float = 1e-6
    max_cells: int = 200_000
    verify_points: int = 2000
    normalize: bool = True
    strict_inequalities: bool = False
    identity_samples: int = 1000
    estimate_holder: bool = True
    ineq_samples: int = 600

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise DomainError(f"delta must lie in (0, 1/2), got {self.delta}")
        if not 0.0 < self.eta < 0.5:
            raise DomainError(f"eta must lie in (0, 1/2), got {self.eta}")

    @property
    def c(self) -> float:
        """The case split constant s^2/8."""
        return self.s**2 / 8.0


@dataclass
class DecompositionReport:
    """A decomposition of one level.  `cells` is the cover's `CoverCell` list, in
    order; the columns `case_one` and `rho` hold each cell's case and control
    distance, and `case_ii` the `CellDecomposition` of each case-II cell, in cell
    order.  `roots` are the groups g_l and `holder` their Hölder estimates."""

    params: DecomposeParams
    deltas: list
    value_scale: float
    cells: list = field(default_factory=list)
    case_one: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    rho: np.ndarray = field(default_factory=lambda: np.zeros(0))
    case_ii: list = field(default_factory=list)
    roots: list = field(default_factory=list)
    partition: Partition | None = None
    inequalities: DiffIneqReport | None = None
    residual_sup: float = math.nan
    residual_mean: float = math.nan
    residual_points: int = 0
    identity_error: float = 0.0
    boundary_excluded_fraction: float = 0.0
    boundary_sup_f: float = 0.0
    probe_sup_f: float = 0.0
    holder: dict = field(default_factory=dict)
    recursion_depth: int = 0
    warnings: list = field(default_factory=list)
    empty: bool = False

    @property
    def residual_bound(self) -> float:
        """tol * (1 + sup f), sup f taken over the region's probe grid."""
        return self.params.tol * (1.0 + self.probe_sup_f)

    @property
    def passed(self) -> bool:
        """The pass/fail rule: residuals were measured and stay within residual_bound."""
        return self.residual_points > 0 and self.residual_sup <= self.residual_bound

    @property
    def case_counts(self) -> dict:
        return {"I": len(self.cells) - len(self.case_ii), "II": len(self.case_ii)}

    def sum_of_squares(self, X) -> np.ndarray:
        """sum_l g_l(x)^2 on points read by `geometry.as_points` with the region's dim.  One pass per
        level (`_Level`) reads each batch's bumps and pieces once, and one bincount adds the squares
        of all groups' hits in group order, so each point's sum is that of adding g_l^2 group by group."""
        X = as_points(X, self.params.region.dim)
        if not self.roots:
            return np.zeros(len(X))
        level = _Level(self.roots, X)
        g = np.concatenate([root.eval_many(X, level, k) for k, root in enumerate(self.roots)])
        return _scatter(level.ids, g**2, len(X))

    def as_dict(self) -> dict:
        """Every field but the objects params, roots and partition, with `cells`
        as columns (center, radius, color, case and rho, row nu) that take in
        `case_one` and `rho`, plus the cell and case counts, one summary per
        root group and the pass rule."""
        out = {"op": "decompose"}
        out.update((fd.name, getattr(self, fd.name)) for fd in fields(self)
                   if fd.name not in ("params", "roots", "partition", "case_one", "rho"))
        out.update(
            cells={"center": np.array([c.center for c in self.cells]), "radius": [c.radius for c in self.cells],
                   "color": [c.color for c in self.cells], "case": np.where(self.case_one, "I", "II"),
                   "rho": self.rho},
            cell_count=len(self.cells),
            case_counts=self.case_counts,
            root_groups=[{"label": g.label, "members": len(g.members), "scale": g.scale} for g in self.roots],
            residual_bound=self.residual_bound,
            passed=self.passed,
        )
        return out


def decompose(f: FunctionHandle, params: DecomposeParams) -> DecompositionReport:
    """Decompose a nonnegative function into a finite sum of squares.

    Builds the control-distance cover and squared partition, emits per-cell
    roots by the case dichotomy, recursively decomposes case II remainder
    profiles over one fewer variable with the next exponent of the recursion,
    and groups roots by color class.  Residuals, the exact-identity check and
    Hölder estimates of the grouped roots are evaluated before returning.  The boundary
    probe's control distances are read first, once: the cover's radius probe is their prefix.
    """
    n = f.arity
    deltas = delta_sequence(params.delta, params.eta, max(n, 1))
    report = DecompositionReport(params=params, deltas=deltas, value_scale=1.0)

    ineq = check_differential_inequalities(
        f, params.delta, params.eta, params.region, samples=params.ineq_samples
    )
    report.inequalities = ineq
    if params.strict_inequalities and not ineq.passed:
        raise SosregError(
            "differential inequalities failed and strict mode is on: "
            f"C4={ineq.quartic_constant:g} (stable={ineq.quartic_stable}), "
            f"CH={ineq.hessian_constant:g} (stable={ineq.hessian_stable})"
        )

    a = 1.0
    if params.normalize and math.isfinite(ineq.quartic_constant) and ineq.quartic_constant > 1.0:
        a = ineq.quartic_constant ** (-(2.0 + params.delta) / 2.0)
    report.value_scale = a
    g = f.rescaled(a) if a != 1.0 else f
    root_scale = 1.0 / math.sqrt(a)

    cdp = ControlDistanceParams(delta=params.delta, variant="full")
    # boundary layer bookkeeping on a probe grid, whose prefix is the cover's radius probe
    probe = ball_points(params.region, max(params.verify_points, RADIUS_PROBE))
    rho_probe = control_distance_values(g, probe, cdp)
    cells = build_cover(g, cdp, params.region, s=params.s, floor=params.floor, max_cells=params.max_cells,
                        rho_probe=rho_probe[:RADIUS_PROBE])
    excluded = rho_probe < params.floor
    f_probe = f.values(probe)
    report.boundary_excluded_fraction = float(np.mean(excluded))
    report.boundary_sup_f = float(np.max(f_probe[excluded])) if np.any(excluded) else 0.0
    report.probe_sup_f = float(np.max(f_probe))

    if not cells:
        report.empty = True
        report.warnings.append("region entirely below the control-distance floor; empty cover")
        return report

    partition = build_partition(cells, region=params.region)
    report.cells, report.partition = color_classes(cells), partition

    case_one, rho, axes = classify_cells(g, cells, params.delta, params.c)
    report.case_one, report.rho = case_one, rho
    colors = np.array([cell.color for cell in cells])
    case_one_piece = _CaseIPiece(g)
    groups: dict = {  # label -> [(cell index nu, piece)]
        f"caseI:{c}": [(nu, case_one_piece) for nu in np.flatnonzero(case_one & (colors == c)).tolist()]
        for c in np.flatnonzero(np.bincount(colors[case_one])).tolist()
    }

    def add_member(key_parts, nu, piece):
        groups.setdefault(":".join(str(k) for k in key_parts), []).append((nu, piece))

    for nu in np.flatnonzero(~case_one).tolist():
        cell, r, axis = cells[nu], float(rho[nu]), axes[nu]
        split = reduced_profile(g, cell, axis, r, params.delta)
        if not split.h_ok:
            report.warnings.append(f"cell {nu}: fiber factor fell below its lower bound")
        add_member(("caseII", cell.color), nu, split)

        k = n - 1
        sub_report = None
        if k == 0:
            add_member(("rem", cell.color, "const"), nu, _ConstPiece(split.F))
        else:
            sub_params = replace(
                params,
                # one step of the exponent recursion per recursion level
                delta=delta_sequence(params.delta, params.eta, 2)[1],
                region=Ball(center=(0.0,) * k, radius=cell.radius),
                verify_points=max(256, params.verify_points // 4),
                identity_samples=max(100, params.identity_samples // 4),
                estimate_holder=False,
                ineq_samples=max(60, params.ineq_samples // 8),
            )
            sub_report = decompose(split.F, sub_params)
            for j, sub in enumerate(sub_report.roots):
                add_member(("rem", cell.color, sub.label), nu, _LiftedPiece(split.frame, sub_report.roots, j))
            if sub_report.empty:
                report.warnings.append(f"cell {nu}: remainder profile entirely below the floor; dropped")
        identity_error = split.identity_error(params.identity_samples) / max(a, 1e-300)
        report.case_ii.append(CellDecomposition(cell, r, tuple(axis), split, identity_error, sub_report))

    report.roots = [RootGroup(label, partition, groups[label], root_scale) for label in sorted(groups)]
    report.recursion_depth = max([0, *(1 + cd.sub_report.recursion_depth for cd in report.case_ii if cd.sub_report)])
    report.identity_error = max([0.0, *(cd.identity_error for cd in report.case_ii)])

    # residual statistics on the truncated probe grid
    live = probe[~excluded]
    if live.size:
        recon = report.sum_of_squares(live)
        res = np.abs(f_probe[~excluded] - recon)
        report.residual_sup = float(np.max(res))
        report.residual_mean = float(np.mean(res))
        report.residual_points = int(len(live))
    else:
        report.warnings.append("verification grid entirely inside the floor region")
        report.residual_points = 0
    for cd in report.case_ii:
        if cd.split.minimizer.unconverged:
            m = cd.split.minimizer
            report.warnings.append(
                f"cell {cd.cell.nu}: {m.unconverged} fiber Newton solves stopped above "
                f"g_tol after {m.max_iter} iterations"
            )

    if params.estimate_holder and report.roots:
        exponent = deltas[-1]
        for grp in report.roots:
            report.holder[grp.label] = root_holder_estimate(grp, exponent)
    return report


@functools.lru_cache(maxsize=None)
def _probe_layout(n: int) -> tuple:
    """(ring, ring_dirs, offsets): one cell's probe, scaled to the unit ball.  Ring
    anchor a is ring[a] = frac * ring_dirs[a], fractions 0.45..0.9 fastest along 8
    directions (2 in 1-D); `offsets` are the 16 roam anchors."""
    dirs = sphere_points(8, n) if n > 1 else np.array([[1.0], [-1.0]])
    ring_dirs = np.repeat(dirs, 4, axis=0)
    layout = (np.tile([0.45, 0.6, 0.75, 0.9], len(dirs))[:, None] * ring_dirs, ring_dirs,
              ball_points(Ball(center=(0.0,) * n, radius=1.0), 16))
    for a in layout:
        a.flags.writeable = False  # shared by every caller through the cache
    return layout


def root_holder_estimate(
    group: RootGroup, exponent: float, samples: int = 150
) -> HolderEstimate:
    """Order-2 Hölder seminorm estimate of a grouped root, sampled on its support.

    The pair family is fixed per cell: radially aligned pairs anchored on the
    bump transition ring (ring fractions 0.45..0.9 of the radius along 8
    directions) at a dyadic ladder of separations r/4..r/32.  The k-th of the
    `samples` pairs finishes one cell's 128 (2-D) probe pairs before moving to
    the next cell; laps after the first re-anchor at low-discrepancy points of
    the cell, so quadrupling the count refines (never reshuffles) the family.

    Cells are visited worst-first by the measured max |D^2 g| entry over their
    ring anchors inside the region, so a coarse budget already probes the
    extremal cells.  Pairs with an endpoint outside `partition.region` are left
    out: the cover is truncated at the region's edge and f = sum g^2 is only
    claimed inside it.  Derivatives are exact (RootGroup.jet), each probe point
    read once: the ring anchors' jets are those of the first-lap pair starts,
    and one more read takes the pair ends and later laps' starts.  `sup_norms`
    are the maxima of |g|, |Dg| and |D^2 g| entries over the kept pairs'
    endpoints and `pair_count` counts the pairs kept.
    """
    partition = group.partition
    n = partition.dim
    region = partition.region

    def inside(P):
        return np.ones(len(P), dtype=bool) if region is None else region.contains(P)

    ring, ring_dirs, offsets = _probe_layout(n)
    sep_fracs = np.array([0.25, 0.125, 0.0625, 0.03125])

    # worst-first order: max |D^2 g| over each cell's in-region ring anchors
    nus = group.cells
    anchors = (partition.centers[nus][:, None, :] + partition.radii[nus][:, None, None] * ring).reshape(-1, n)
    keep = inside(anchors)
    anchor_jet = group.jet(anchors[keep])
    worst = np.zeros(len(anchors))
    worst[keep] = np.max(np.abs(anchor_jet[2]), axis=(1, 2))
    order = np.argsort(-worst.reshape(len(nus), -1).max(axis=1), kind="stable")

    # pair k probes cell k // probe_len (cycling), ring anchor a with separations
    # fastest; laps after the first roam the cell with low-discrepancy anchors
    k = np.arange(samples)
    probe_len = len(ring) * len(sep_fracs)
    pos = order[(k // probe_len) % len(nus)]
    lap = k // (probe_len * len(nus))
    a = (k % probe_len) // len(sep_fracs)
    first = lap == 0
    anchor = pos * len(ring) + a
    center, radius = partition.centers[nus[pos]], partition.radii[nus[pos]]
    ys = np.where(first[:, None], anchors[anchor], center + 0.9 * radius[:, None] * offsets[lap % len(offsets)])
    seps = sep_fracs[k % len(sep_fracs)] * radius
    zs = ys + seps[:, None] * ring_dirs[a]
    kept = np.where(first, keep[anchor], inside(ys)) & inside(zs)
    ys, zs, seps, first, anchor = ys[kept], zs[kept], seps[kept], first[kept], anchor[kept]
    P = len(ys)
    if P == 0:
        return HolderEstimate(order=2, exponent=exponent, sup_norms=[0.0, 0.0, 0.0], seminorm=0.0,
                              pair_count=0, min_separation=math.nan)

    # rows of [anchor jet; fresh jet at [later-lap starts; zs]] for [ys; zs]
    A, R = int(np.count_nonzero(keep)), int(np.count_nonzero(~first))
    at = np.concatenate([np.where(first, np.cumsum(keep)[anchor] - 1, A + np.cumsum(~first) - 1), A + R + np.arange(P)])
    fresh = group.jet(np.concatenate([ys[~first], zs]))
    g, d1, d2 = (np.concatenate(v)[at] for v in zip(anchor_jet, fresh))
    sup_norms = [float(np.max(np.abs(v))) for v in (g, d1, d2)]
    quot = np.max(np.abs(d2[:P] - d2[P:]), axis=(1, 2)) / seps**exponent
    i = int(np.argmax(quot))
    return HolderEstimate(
        order=2,
        exponent=exponent,
        sup_norms=sup_norms,
        seminorm=float(quot[i]),
        pair_count=P,
        min_separation=float(np.min(seps)),
        worst_pair=(tuple(ys[i]), tuple(zs[i])),
    )


@dataclass
class VerificationReport(Report):
    """Residuals of a decomposition on an independent grid, judged by the
    decomposition's own residual_bound."""

    op = "verify_decomposition"
    derived = ("passed",)

    grid_points: int
    evaluated_points: int
    excluded_points: int
    residual_bound: float
    empty: bool = False
    residual_sup: float = math.nan
    residual_mean: float = math.nan
    holder: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Some grid point was evaluated and the residuals stay within residual_bound."""
        return not self.empty and self.residual_sup <= self.residual_bound


def verify_decomposition(f: FunctionHandle, report: DecompositionReport, grid) -> VerificationReport:
    """Residual statistics of |f - sum g_l^2| over grid points with
    rho >= floor, plus Hölder estimates of each root at order 2 and the
    last recursion exponent.  The grid is read by `geometry.as_points` with
    f's arity."""
    grid = as_points(grid, f.arity)
    g = f.rescaled(report.value_scale) if report.value_scale != 1.0 else f
    rho = control_distance_values(g, grid, ControlDistanceParams(delta=report.params.delta, variant="full"))
    live = grid[rho >= report.params.floor]
    out = VerificationReport(grid_points=len(grid), evaluated_points=len(live), excluded_points=len(grid) - len(live),
                             residual_bound=report.residual_bound, empty=not len(live))
    if len(live):
        res = np.abs(f.values(live) - report.sum_of_squares(live))
        out.residual_sup, out.residual_mean = float(np.max(res)), float(np.mean(res))
        out.holder = report.holder
    return out
