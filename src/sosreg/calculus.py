"""Numerical differential calculus on function handles.

FunctionHandle wraps a scalar function of n variables with derivative access
by multi-index, backed either by exact derivatives of an expression tree
(symbolic below SERIES_ORDER, Taylor series from it on) or by a jet function
that returns every derivative tensor up to an order at once (powers of a
handle, the reduced profiles of the fiber split).  On top of it sit moduli of
continuity, Hölder seminorm estimation, flatness tests, the
positive directional-Hessian part, and checkers for the pointwise
odd-by-even derivative controls and the Taylor-difference interpolation
bound used by the decomposition machinery.

All operations are pure; reported maxima use deterministic reduction order
with ties resolved by the lexicographically smallest sample point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DerivativeError, DomainError, NonnegativityError
from .exprlang import (
    DerivativeTable, EvalMemo, Expr, FunctionDef, differentiate, evaluate, has_conditionals, read_counts,
    taylor_series,
)
from .geometry import Ball, as_points, ball_points, row_norms, sphere_points
from .reporting import Report

__all__ = [
    "FunctionHandle",
    "Modulus",
    "HolderEstimate",
    "log_ratios",
    "max_entries",
    "holder_seminorm",
    "directional_hessian_plus_values",
    "require_nonnegative",
    "verify_odd_even_control",
    "verify_interpolation_bound",
    "is_flat",
    "multiindices",
]

def multiindices(n: int, order: int) -> list:
    """All multi-indices alpha in Z_+^n with |alpha| = order, lexicographic."""
    if n == 1:
        return [(order,)]
    out = []
    for head in range(order, -1, -1):
        for tail in multiindices(n - 1, order - head):
            out.append((head,) + tail)
    return out


@functools.lru_cache(maxsize=None)
def _tensor_layout(n: int, order: int) -> tuple:
    """The multi-indices of one order, each with the positions of its entries
    in the row-major flattened (n,)*order symmetric tensor."""
    where: dict = {alpha: [] for alpha in multiindices(n, order)}
    for flat, idx in enumerate(np.ndindex(*(n,) * order)):
        where[tuple(int(c) for c in np.bincount(idx, minlength=n))].append(flat)
    return tuple(where.items())


# Expression handles read derivatives of this order and above from one Taylor
# series pass per batch, and lower orders from symbolic tables.  On family_f
# the order-4 table grows a 57-node body into 15,163 nodes; building, planning
# and evaluating it took 0.35 s per fresh handle on a 516-point batch, against
# 35-68 ms for the order-4 pass.  Orders 1 and 2 feed the decomposition's case
# split, fiber solves and roots, and on the small batches those read again and
# again the tables are faster: an order-2 read of x^2+y^2+z^2 on 4 to 40
# points took 0.09-0.11 ms against 0.12-0.13 ms by series.
SERIES_ORDER = 3


@functools.lru_cache(maxsize=None)
def _series_layout(n: int, order: int) -> tuple:
    """Directions, interpolation matrix and row of each multi-index for the
    Taylor-series pass of one order.

    The directions are the multi-indices j with |j| = order.  The top
    coefficient of f(x + t j) is sum_alpha D^alpha f(x) j^alpha / alpha! over
    |alpha| = order; the inverse map, rows in `multiindices` order, is
    computed exactly in rationals and returned as integer numerators over one
    common denominator (54 at order 3, 384 at order 4), so integer top
    coefficients give exact partials.  Its condition number is at most 17.7
    for n <= 5 and order <= 4.
    """
    J = multiindices(n, order)
    m = len(J)
    # Gauss-Jordan on [P | I] with P[j][alpha] = j^alpha
    rows = [
        [Fraction(math.prod(b**a for a, b in zip(alpha, j))) for alpha in J] + [Fraction(int(r == c)) for c in range(m)]
        for r, j in enumerate(J)
    ]
    for c in range(m):
        p = next(r for r in range(c, m) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(m):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [a - f * b if b else a for a, b in zip(rows[r], rows[c])]
    inverse = [[math.prod(map(math.factorial, alpha)) * x for x in row[m:]] for alpha, row in zip(J, rows)]
    denominator = math.lcm(*(x.denominator for row in inverse for x in row))
    numerators = np.array([[int(x * denominator) for x in row] for row in inverse], dtype=float)
    directions = np.array(J, dtype=float)
    numerators.setflags(write=False)
    directions.setflags(write=False)
    return directions, numerators, float(denominator), {alpha: k for k, alpha in enumerate(J)}


class _OrderPartials:
    """Batch memo of an order whose partials come all at once: they are
    filled by the first read of the batch, as rows in `multiindices` order
    (a Taylor-series pass) or as one symmetric tensor (a jet-backed handle)."""

    __slots__ = ("partials",)

    def __init__(self):
        self.partials = None


def jet_line_series(J, directions: np.ndarray) -> list:
    """[c_0, ..., c_m] of f(x + t r) contracted from the jet J = (f, Df, ..., D^m f) of an
    N-point batch: c_k = D^k f[r, ..., r] / k!, each (N,) for one direction r (n,) and
    (D, N) for D directions (D, n) or for D directions per point (D, N, n)."""
    N, n = len(J[0]), directions.shape[-1]
    r = directions if directions.ndim == 3 else directions.reshape(-1, 1, n)
    shape = directions.shape[:-1] + (N,) if directions.ndim < 3 else directions.shape[:-1]
    rk, out = np.ones(r.shape[:2] + (1,)), []
    for k, T in enumerate(J):
        out.append(np.sum(T.reshape(N, -1) * rk, axis=-1).reshape(shape) / math.factorial(k))
        rk = (rk[..., None] * r[..., None, :]).reshape(r.shape[:2] + (-1,))
    return out


def max_entries(T: np.ndarray) -> np.ndarray:
    """Max absolute entry of each point's tensor in a batch (N, n, ..., n)."""
    return np.max(np.abs(T), axis=tuple(range(1, T.ndim)), initial=0.0)


class FunctionHandle:
    """Evaluable scalar function on a ball with derivative access by multi-index.

    Construct via :meth:`from_def` or :meth:`from_expr`, or on the constructor
    with a jet function `jet_many(X, order)` that returns every derivative
    tensor up to `order` at once, in place of the per-multi-index
    `derivative_many_factory` (roots.PowerHandle, the reduced profiles of the
    fiber split).  Every method evaluates a batch and reads its points by
    `geometry.as_points` with the handle's arity.  :meth:`jet` gives
    (f, Df, ..., D^m f) as full symmetric tensors; `gradient_values`,
    `hessian_values` and `max_entry_values` are views of one order of it.
    Multi-index backends fill each tensor from `derivative_values`, once per
    multi-index; the multi-indices of one order on one batch share the memo
    of `batch_memo(order)`, which the first read fills: an EvalMemo of the
    order's symbolic derivatives below SERIES_ORDER, the partials of one
    Taylor-series pass from it on, and one jet's tensor for jet-backed
    handles.  :meth:`line_series` reads f along lines, shared by the batch or one
    per point, with no tensor where the handle has a `line_series` of its own:
    one series pass for an expression, the scaled series of its base for a
    `rescaled` handle, and two directional reads of the parent up to degree 4
    for a reduced profile, whose jet is itself read by series.  A jet-backed
    handle without one (PowerHandle) contracts its jet.
    `exact_derivatives` is False where derivatives are exact only off a seam
    set or come through a numerical solve; `holder_seminorm` then spaces its
    pairs wider.  The function a handle represents never changes, but
    expression handles grow a private derivative table and per-order batch
    plans, so one handle must not be used from several threads at once.
    """

    def __init__(
        self,
        arity: int,
        eval_many,
        derivative_many_factory,
        domain: Ball,
        log_eval_many=None,
        label: str = "f",
        exact_derivatives: bool = True,
        jet_many=None,
        batch_memo=None,
        line_series=None,
    ):
        if (derivative_many_factory is None) == (jet_many is None):
            raise ValueError("give exactly one of derivative_many_factory and jet_many")
        self.arity = arity
        self._eval_many = eval_many
        self._derivative_factory = derivative_many_factory
        self._jet_many = jet_many
        self._batch_memo = batch_memo
        self._line_series = line_series
        self._derivative_cache: dict = {}
        self.domain = domain
        self._log_eval_many = log_eval_many
        self.label = label
        self.exact_derivatives = exact_derivatives

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_expr(
        body: Expr,
        variables: tuple,
        domain: Ball | None = None,
        label: str = "f",
        log_eval_many=None,
    ) -> "FunctionHandle":
        """Handle of an expression with exact derivatives; `log_eval_many`, if given, computes log f.

        Orders below SERIES_ORDER are symbolic: D^alpha f differentiates along
        the axes in order, one `differentiate` call per differentiated axis on
        the derivative of the preceding axes.  Every call shares the handle's
        DerivativeTable, so a derivative is built once per handle.  Such an
        order's batch memo is an EvalMemo of the read counts of all its
        multi-indices' expressions, built on first use.

        A `line_series` is one `taylor_series` pass of the simplified body with
        each variable [x_i, r_i, None, ...], r_i one entry per direction, or per
        direction and point.  Orders from SERIES_ORDER on are the top
        coefficients of one pass per batch along the order's multi-index
        directions, interpolated to the partials by `_series_layout`, held by
        their batch memo (a read without one runs its own pass).  Values walk
        the body as written (`evaluate`), so c_0 can differ from them in the
        last bit where simplifying reassociates it (x*(y*z), no catalog body).
        The series agree with the symbolic derivatives to about 1e-13 of each
        point's largest entry.
        A direction whose series is not finite (a real power of a zero base)
        spoils only the partials it shares support with: at (0, 0.5),
        x^2.5 + y^4 reads D^(0,4) = 24 but NaN for D^(1,3) = 0.
        """
        variables = tuple(variables)
        n = len(variables)
        domain = domain or Ball(center=(0.0,) * n, radius=1.0)
        table = DerivativeTable()
        exprs: dict = {(0,) * n: body}
        plans: dict = {}
        series_plan: list = []  # the simplified body and its read counts

        def expr_of(alpha):
            # not recursive: a self-referencing closure would leave the
            # handle's table to the cyclic garbage collector
            got = exprs[(0,) * n]
            for k, p in enumerate(alpha):
                if p:
                    head = alpha[: k + 1] + (0,) * (n - k - 1)
                    if head not in exprs:
                        exprs[head] = differentiate(got, variables[k], p, table=table)
                    got = exprs[head]
            return got

        def line_series(X, directions, degree):
            if not series_plan:
                root = table.simplify(body)
                series_plan.extend((root, read_counts([root])))
            if directions.ndim == 2:  # shared by every point
                directions = directions[:, None, :]
            r, shape = np.moveaxis(directions, -1, 0), np.broadcast_shapes(directions.shape[:-1], X.shape[:1])
            env = {v: ([X[:, i], r[i]] + [None] * (degree - 1))[: degree + 1] for i, v in enumerate(variables)}
            return [np.broadcast_to(0.0 if c is None else c, shape)
                    for c in taylor_series(series_plan[0], env, degree, EvalMemo(series_plan[1]))]

        def series_rows(X, order):
            directions, numerators, denominator, _ = _series_layout(n, order)
            top = line_series(X, directions, order)[order]
            rows = (numerators @ top) / denominator
            bad = ~np.isfinite(top).all(axis=0)
            if bad.any():  # keep 0 * NaN of directions outside a partial's support
                w = numerators[:, :, None]
                with np.errstate(invalid="ignore"):
                    rows[:, bad] = np.where(w != 0.0, w * top[:, bad], 0.0).sum(axis=1) / denominator
            return rows

        def derivative_factory(alpha):
            alpha = tuple(alpha)
            order = sum(alpha)
            if order >= SERIES_ORDER:
                row = _series_layout(n, order)[3][alpha]

                def d_many(X, memo=None):
                    if memo is None:
                        memo = batch_memo(order)
                    if memo.partials is None:
                        memo.partials = series_rows(np.asarray(X, dtype=float), order)
                    return memo.partials[row].copy()

                return d_many
            expr = expr_of(alpha)

            def d_many(X, memo=None):
                X = np.asarray(X, dtype=float)
                vals = evaluate(expr, {v: X[:, i] for i, v in enumerate(variables)}, memo=memo)
                return np.broadcast_to(np.asarray(vals, dtype=float), (X.shape[0],)).copy()

            return d_many

        def batch_memo(order):
            if order >= SERIES_ORDER:
                return _OrderPartials()
            if order not in plans:
                plans[order] = read_counts([expr_of(a) for a in multiindices(n, order)])
            return EvalMemo(plans[order])

        return FunctionHandle(
            arity=n,
            eval_many=derivative_factory((0,) * n),
            derivative_many_factory=derivative_factory,
            domain=domain,
            log_eval_many=log_eval_many,
            label=label,
            exact_derivatives=not has_conditionals(body),
            batch_memo=batch_memo,
            line_series=line_series,
        )

    @staticmethod
    def from_def(fdef: FunctionDef) -> "FunctionHandle":
        return FunctionHandle.from_expr(fdef.body, fdef.variables, domain=fdef.domain, label=fdef.name)

    # -- evaluation ---------------------------------------------------------

    def values(self, X) -> np.ndarray:
        return self._eval_many(as_points(X, self.arity))

    def log_values(self, X) -> np.ndarray:
        """log f on the given points; -inf where f vanishes."""
        X = as_points(X, self.arity)
        if self._log_eval_many is not None:
            return self._log_eval_many(X)
        with np.errstate(divide="ignore"):
            return np.log(self.values(X))

    def derivative_values(self, X, alpha, memo=None) -> np.ndarray:
        """D^alpha f on an (N, n) batch; `memo` is the batch memo of
        `batch_memo(|alpha|)` when the caller evaluates a whole order."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.arity:
            raise DerivativeError(f"multi-index {alpha} does not match arity {self.arity}")
        if sum(alpha) == 0:
            return self.values(X)
        X = as_points(X, self.arity)
        if self._jet_many is not None:
            axes = tuple(i for i, p in enumerate(alpha) for _ in range(p))
            memo = memo or _OrderPartials()
            if memo.partials is None:
                memo.partials = self._jet_many(X, len(axes))[-1]
            return memo.partials[(slice(None),) + axes]
        if alpha not in self._derivative_cache:
            self._derivative_cache[alpha] = self._derivative_factory(alpha)
        d_many = self._derivative_cache[alpha]
        return d_many(X) if memo is None else d_many(X, memo)

    def derivative_tensor(self, X, order: int) -> np.ndarray:
        """All order-`order` partials as one symmetric (N, n, ..., n) tensor; f itself at order 0."""
        X = as_points(X, self.arity)
        if order == 0:
            return self.values(X)
        if self._jet_many is not None:
            return self._jet_many(X, order)[order]
        T = np.empty((X.shape[0], self.arity**order))
        memo = self.batch_memo(order)
        for alpha, where in _tensor_layout(self.arity, order):
            T[:, where] = self.derivative_values(X, alpha, memo=memo)[:, None]
        return T.reshape((X.shape[0],) + (self.arity,) * order)

    def jet(self, X, order: int) -> tuple:
        """(f, Df, ..., D^order f) on an (N, n) batch, shapes (N,), (N, n), (N, n, n), ..."""
        X = as_points(X, self.arity)
        if self._jet_many is not None:
            return tuple(self._jet_many(X, order))
        return tuple(self.derivative_tensor(X, m) for m in range(order + 1))

    def line_series(self, X, directions, degree: int) -> list:
        """[c_0, ..., c_degree] of f(x + t r) on an (N, n) batch, each (N,) for one direction
        r (n,) and (D, N) for D directions (D, n) or for D directions per point (D, N, n);
        c_k = D^k f[r, ..., r] / k!.  The handle's own `line_series` answers where it has
        one (one series pass for an expression, directional reads of the parent for a
        reduced profile; coefficients may be read-only views); otherwise `jet_line_series`
        contracts the handle's jet."""
        X = as_points(X, self.arity)
        r = np.asarray(directions, dtype=float)
        if self._line_series is not None:
            return self._line_series(X, r, degree)
        return jet_line_series(self.jet(X, degree), r)

    @property
    def jet_backed(self) -> bool:
        return self._jet_many is not None

    def gradient_values(self, X) -> np.ndarray:
        return self.derivative_tensor(X, 1)

    def hessian_values(self, X) -> np.ndarray:
        return self.derivative_tensor(X, 2)

    def max_entry_values(self, X, order: int) -> np.ndarray:
        """Max absolute derivative-tensor entry of the given order, pointwise."""
        return max_entries(self.derivative_tensor(X, order))

    def batch_memo(self, order: int):
        """A fresh memo shared by all multi-indices of one order on one batch, or None."""
        if self._jet_many is not None:
            return _OrderPartials()
        return None if self._batch_memo is None else self._batch_memo(order)

    def rescaled(self, value_scale: float) -> "FunctionHandle":
        """Handle for value_scale * f (derivatives scale linearly), labelled "a*label"."""
        a = float(value_scale)
        if a <= 0:
            raise ValueError("value_scale must be positive")

        def eval_many(X):
            return a * self._eval_many(X)

        derivative_factory = jet_many = None
        if self._jet_many is not None:

            def jet_many(X, order):
                return [a * T for T in self._jet_many(X, order)]

        else:

            def derivative_factory(alpha):
                def d_many(X, memo=None):
                    return a * self.derivative_values(X, alpha, memo=memo)

                return d_many

        log_many = None
        if self._log_eval_many is not None:

            def log_many(X):
                return math.log(a) + self._log_eval_many(X)

        return FunctionHandle(
            arity=self.arity,
            eval_many=eval_many,
            derivative_many_factory=derivative_factory,
            domain=self.domain,
            log_eval_many=log_many,
            label=f"{a:g}*{self.label}",
            exact_derivatives=self.exact_derivatives,
            jet_many=jet_many,
            batch_memo=self._batch_memo,
            line_series=lambda X, r, degree: [a * c for c in self.line_series(X, r, degree)],
        )


# ---------------------------------------------------------------------------
# Moduli of continuity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Modulus:
    """Modulus of continuity on [0,1] from the one-parameter scale, or a table.

    kind s = 1 gives t*(1 + ln(1/t)); 0 < s < 1 gives t^s; s = 0 gives
    1/(1 + ln(1/t)).  The s = 1 and s = 0 members are dual: their product is
    exactly t.  A custom table is piecewise log-linear between its nodes and
    continues the first segment's log-log slope below the first node.  Every
    member is written once, in log space (`log_eval`, scalar or array);
    `eval(t)` is exp(log_eval(log t)) for t > 0 and 0 at t = 0.
    """

    s: float | None = None
    table: tuple | None = None

    def __post_init__(self):
        if (self.s is None) == (self.table is None):
            raise ValueError("specify exactly one of s or table")
        if self.s is not None and not 0.0 <= self.s <= 1.0:
            raise ValueError(f"modulus kind s must lie in [0,1], got {self.s}")
        if self.table is not None:
            ts = [p[0] for p in self.table]
            ws = [p[1] for p in self.table]
            if ts != sorted(ts) or ws != sorted(ws):
                raise ValueError("table must be nondecreasing in t and omega")
            if not math.isclose(ts[-1], 1.0) or not math.isclose(ws[-1], 1.0):
                raise ValueError("table must reach omega(1) = 1")

    @staticmethod
    def omega(s: float) -> "Modulus":
        return Modulus(s=float(s))

    @staticmethod
    def from_table(points) -> "Modulus":
        return Modulus(table=tuple((float(t), float(w)) for t, w in points))

    @property
    def name(self) -> str:
        return f"omega_{self.s:g}" if self.s is not None else "omega_table"

    def eval(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"modulus argument must lie in [0,1], got {t}")
        return 0.0 if t == 0.0 else math.exp(self.log_eval(math.log(t)))

    def log_eval(self, log_t):
        """log omega(t) from log t, elementwise on a scalar or an array (a
        scalar gives a float); log t = -inf gives -inf, so arguments far
        beyond double-precision range still work."""
        x = np.asarray(log_t, dtype=float)
        if np.any(x > 0.0):
            raise DomainError(f"modulus argument must lie in [0,1], got exp({np.max(x)})")
        with np.errstate(invalid="ignore"):
            if self.s is None:
                log_ts, log_ws = np.log(self.table).T
                out = np.interp(x, log_ts, log_ws)
                if len(log_ts) >= 2:
                    slope = (log_ws[1] - log_ws[0]) / (log_ts[1] - log_ts[0])
                    out = np.where(x <= log_ts[0], log_ws[0] + slope * (x - log_ts[0]), out)
            elif self.s == 1.0:
                out = x + np.log1p(-x)
            elif self.s == 0.0:
                out = -np.log1p(-x)
            else:
                out = self.s * x
        out = np.where(x == -np.inf, -np.inf, out)
        return float(out) if out.ndim == 0 else out


def log_ratios(log_num, log_den, exponent: float) -> np.ndarray:
    """Elementwise log(num / den^exponent) from log num and log den, exponent > 0.

    0/0 and 0/x give -inf, x/0 gives +inf and NaN stays NaN; take suprema
    with `np.fmax.reduce`, which skips NaN samples.
    """
    log_num = np.asarray(log_num, dtype=float)
    with np.errstate(invalid="ignore"):
        out = log_num - exponent * np.asarray(log_den, dtype=float)
    return np.where(log_num == -np.inf, -np.inf, out)


# ---------------------------------------------------------------------------
# Hölder seminorm estimation
# ---------------------------------------------------------------------------


@dataclass
class HolderEstimate(Report):
    order: int
    exponent: float
    sup_norms: list
    seminorm: float
    pair_count: int
    min_separation: float
    worst_pair: tuple | None = None


def _pair_set(region: Ball, samples: int, h_min: float) -> tuple:
    """Deterministic nested pair family (y_i, z_i) with |y - z| >= h_min.

    Candidate k pairs anchor k mod 48 of a fixed low-discrepancy set with
    direction 7k + level (mod 32) at radius max(h_min, 2^-(level mod 12) R),
    level = k // 48, reflected through the anchor when it leaves the region;
    the first `samples` of the first 100 samples + 1001 candidates that stay
    inside and h_min apart are kept, so more samples extend the family.
    """
    anchors = ball_points(region, 48)
    dirs = sphere_points(32, region.dim) if region.dim > 1 else np.array([[1.0], [-1.0]] * 16)
    center = np.asarray(region.center)
    limit = 100 * samples + 1001
    count = min(2 * samples + len(anchors), limit)
    while True:
        k = np.arange(count)
        level = k // len(anchors)
        ys = anchors[k % len(anchors)]
        d = dirs[(k * 7 + level) % len(dirs)]
        r = np.maximum(h_min, 2.0 ** (-(level % 12)) * region.radius)[:, None]
        zs = ys + r * d
        out = row_norms(zs - center) > region.radius
        zs[out] = ys[out] - r[out] * d[out]
        kept = np.flatnonzero((row_norms(zs - center) <= region.radius)
                              & (row_norms(zs - ys) >= h_min * (1 - 1e-12)))[:samples]
        if len(kept) == samples or count == limit:
            return ys[kept], zs[kept]
        count = min(2 * count, limit)


# Default smallest pair separation at order 1 for handles whose derivatives
# are exact only off a seam set: a pair closer than this that straddles a seam
# reads the jump across it, not the Hölder modulus.  It doubles per order.
_SEAM_H_MIN = 1e-2


def holder_seminorm(
    f: FunctionHandle,
    order: int,
    exponent: float,
    region: Ball,
    samples: int = 400,
) -> HolderEstimate:
    """Sampled Hölder seminorm of the order-`order` derivatives on the region.

    Returns the max over pair samples (y, z), |y-z| >= h_min, of
    max_{|alpha|=order} |D^a f(y) - D^a f(z)| / |y-z|^exponent, together with
    sup norms of all lower-order derivatives.  h_min is 1e-7 for exact
    derivatives and _SEAM_H_MIN * 2^(order-1) otherwise.  The sup norms are
    read by one jet at the first max(64, samples) nested ball points, the
    pair tensors by one read at the first `samples` pairs of `_pair_set`, so
    more samples extend both families.  The true seminorm is a limsup;
    callers should check stability under sample refinement.
    """
    return _holder_probe(f, order, region, samples)(exponent)


def _holder_probe(f: FunctionHandle, order: int, region: Ball, samples: int):
    """Every read of `holder_seminorm`, none of which an exponent changes: the
    sup norms by one jet at the first max(64, samples) ball points, and the
    pair tensors by one read at the stacked ends [ys; zs] of the first
    `samples` pairs; and its estimate as a function of the exponent and of a
    pair count, which takes the first `pairs` pairs (all by default), the
    family of `holder_seminorm` at that many samples."""
    if region.dim != f.arity:
        raise DomainError("region dimension does not match function arity")
    sup_norms = []
    for ell, T in enumerate(f.jet(ball_points(region, max(64, samples)), order)):
        vals = max_entries(T)
        if not np.all(np.isfinite(vals)):
            raise DerivativeError(f"derivative of order {ell} evaluated non-finite on region")
        sup_norms.append(float(np.max(vals)))
    h_min = _SEAM_H_MIN * 2.0 ** (order - 1) if not f.exact_derivatives else 1e-7
    ys, zs = _pair_set(region, samples, h_min)
    sep = np.linalg.norm(ys - zs, axis=1)
    Ty, Tz = np.split(f.derivative_tensor(np.concatenate([ys, zs]), order), 2)

    def estimate(exponent: float, pairs: int = samples) -> HolderEstimate:
        if pairs < 2:
            raise DomainError("need at least 2 pair samples")
        if not 0.0 < exponent <= 1.0:
            raise DomainError(f"Hölder exponent must lie in (0,1], got {exponent}")
        best, worst, kept = 0.0, None, sep[:pairs]
        for alpha in multiindices(f.arity, order):
            at = (slice(pairs),) + tuple(i for i, p in enumerate(alpha) for _ in range(p))
            quot = np.abs(Ty[at] - Tz[at]) / kept**exponent
            i = int(np.argmax(quot))
            if quot[i] > best:
                best = float(quot[i])
                worst = (tuple(ys[i]), tuple(zs[i]))
        return HolderEstimate(order=order, exponent=exponent, sup_norms=list(sup_norms), seminorm=best,
                              pair_count=len(kept), min_separation=float(np.min(kept)), worst_pair=worst)

    return estimate


# ---------------------------------------------------------------------------
# Directional Hessian positive part
# ---------------------------------------------------------------------------


def directional_hessian_plus_values(f: FunctionHandle, X) -> np.ndarray:
    """Positive part of the largest Hessian eigenvalue at each point.

    Equals the supremum over unit directions of the positive part of the
    second directional derivative.
    """
    X = as_points(X, f.arity)
    return _hessian_plus(f.hessian_values(X), X)


def _hessian_plus(H: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Positive part of the largest eigenvalue of each Hessian H at X."""
    finite = np.all(np.isfinite(H), axis=(1, 2))
    if not np.all(finite):
        raise DerivativeError(f"Hessian evaluated non-finite at {tuple(X[np.argmin(finite)].tolist())}")
    return np.maximum(np.linalg.eigvalsh(H)[:, -1], 0.0)


# ---------------------------------------------------------------------------
# Odd-by-even derivative control
# ---------------------------------------------------------------------------


@dataclass
class LineInequalityReport(Report):
    """Worst ratios for the coordinate-line derivative controls.

    Lines 1..3 are |f'| <= (8/3) f^(3/4) + (8/3) f^(1/2) |f''|^(1/2),
    |f'''| <= 8 f^(1/4) + 8 |f''|^(1/2), and -f'' <= (5/3) f^(1/2); the two
    `plus` variants use the positive part of f'' with constants 8 and 24.
    The n-dimensional gradient forms are reported with empirical constants.
    """

    op = "odd_even_control"
    derived = ("passed",)

    rescale: float
    worst_ratios: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    gradient_constants: dict = field(default_factory=dict)
    samples: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations


def require_nonnegative(X: np.ndarray, vals: np.ndarray) -> None:
    """NonnegativityError naming the first point where f < -1e-12 (1 + |f|);
    values within that tolerance count as zeros."""
    neg = vals < -1e-12 * (1.0 + np.abs(vals))
    if np.any(neg):
        i = int(np.argmax(neg))
        raise NonnegativityError(f"f = {vals[i]:.6g} < 0 at the sampled point {tuple(X[i].tolist())}")


def verify_odd_even_control(
    f: FunctionHandle, region: Ball, samples: int = 2000
) -> LineInequalityReport:
    """Check the odd-by-even derivative controls for a nonnegative function.

    The function is divided by M = 1.05 * max(1, sup f, sup |d^4 f| along
    coordinate lines) so the checked function g = f / M satisfies g <= 1 and
    |g''''| <= 1 on the sampled region, as the controls require; M is
    estimated on an enlarged sample set and reported.  The samples are read
    by one order-3 jet, the enlarged set by one order-4 jet.
    """
    pts = ball_points(region, samples)
    wide = ball_points(Ball(center=region.center, radius=min(1.5 * region.radius, f.domain.radius)), 2 * samples)

    J = f.jet(pts, 3)
    require_nonnegative(pts, J[0])

    def axis_lines(T):
        """(N, n) pure derivatives along each axis: the diagonal of each point's tensor."""
        return np.einsum(T, [0] + [1] * (T.ndim - 1), [0, 1])

    J_wide = f.jet(wide, 4)
    sup_f = float(np.max(np.abs(J_wide[0])))
    sup_f4 = float(np.max(np.abs(axis_lines(J_wide[4]))))
    M = 1.05 * max(1.0, sup_f, sup_f4)

    g = np.maximum(J[0] / M, 0.0)
    lines = [axis_lines(T) / M for T in J[1:]]
    report = LineInequalityReport(rescale=M, samples=len(pts))

    def record(name, lhs, rhs):
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(lhs <= 0, 0.0, lhs / np.where(rhs > 0, rhs, np.inf))
        i = int(np.argmax(ratio))
        report.worst_ratios[name] = float(ratio[i])
        if ratio[i] > 1.0 + 1e-9:
            report.violations.append({"line": name, "point": [float(v) for v in pts[i]], "ratio": float(ratio[i])})

    for axis in range(f.arity):
        g1, g2, g3 = (L[:, axis] for L in lines)
        g2p = np.maximum(g2, 0.0)
        tag = f"axis{axis}"
        record(f"{tag}.first_odd", np.abs(g1), (8.0 / 3.0) * g ** 0.75 + (8.0 / 3.0) * np.sqrt(g) * np.sqrt(np.abs(g2)))
        record(f"{tag}.third_odd", np.abs(g3), 8.0 * g ** 0.25 + 8.0 * np.sqrt(np.abs(g2)))
        record(f"{tag}.second_lower", -g2, (5.0 / 3.0) * np.sqrt(g))
        record(f"{tag}.first_odd_plus", np.abs(g1), 8.0 * g ** 0.75 + (8.0 / 3.0) * np.sqrt(g) * np.sqrt(g2p))
        record(f"{tag}.third_odd_plus", np.abs(g3), 24.0 * g ** 0.25 + 8.0 * np.sqrt(g2p))

    # n-dimensional forms: report empirical constants, no pass/fail
    grad = np.linalg.norm(J[1], axis=1) / M
    hess_max = max_entries(J[2]) / M
    third_max = max_entries(J[3]) / M
    hplus = _hessian_plus(J[2], pts) / M
    with np.errstate(invalid="ignore", divide="ignore"):
        c1 = grad / (g ** 0.75 + np.sqrt(g) * np.sqrt(hess_max))
        c3 = third_max / (g ** 0.25 + np.sqrt(hess_max))
        c2 = hess_max / (hplus + np.sqrt(g))
    for name, arr in (("gradient", c1), ("third", c3), ("hessian_by_plus_part", c2)):
        arr = arr[np.isfinite(arr)]
        report.gradient_constants[name] = float(np.max(arr)) if arr.size else 0.0
    return report


# ---------------------------------------------------------------------------
# Interpolation bound for intermediate derivatives
# ---------------------------------------------------------------------------


@dataclass
class InterpolationReport(Report):
    op = "interpolation_bound"
    derived = ("passed",)

    m: int
    k: int
    diameter: float
    max_grad_m: float
    taylor_difference_max: float
    max_grad_k: float
    constant: float
    samples: int
    pairs: int

    @property
    def passed(self) -> bool:
        """The constant is finite: the two-term control holds with some C."""
        return math.isfinite(self.constant)


def verify_interpolation_bound(
    f: FunctionHandle, B: Ball, m: int, k: int, samples: int = 200, pairs: int = 1000
) -> InterpolationReport:
    """Empirical constant in the two-term control of |grad^m f| on a ball.

    Computes max_z |grad^m f(z)|, the maximum over sampled pairs (t1, t2) of
    the order-(m-1) Taylor difference
    |f(t1) - sum_{j<m} [(t1-t2).grad]^j f(t2) / j!|, from one values batch at
    the t1 and one jet at the distinct t2 (the pair family's anchors),
    and max |grad^k f|; reports the smallest constant C with
    max |grad^m f| <= C * (T / ell^m + T^(1-m/k) * Mk^(m/k)), ell = diameter.
    """
    if m < 1 or k < m:
        raise DomainError(f"need k >= m >= 1, got m={m}, k={k}")
    pts = ball_points(B, max(samples, 16))
    max_m = float(np.max(f.max_entry_values(pts, m)))
    max_k = float(np.max(f.max_entry_values(pts, k)))

    t1s, t2s = _pair_set(B, pairs, h_min=0.0)
    anchors, which = np.unique(t2s, axis=0, return_inverse=True)
    v = t1s - t2s
    acc = f.values(t1s)
    for j, T in enumerate(f.jet(anchors, m - 1)):
        T = T[which]
        for _ in range(j):
            T = np.einsum("p...i,pi->p...", T, v)
        acc = acc - T / math.factorial(j)
    taylor_max = float(np.fmax.reduce(np.abs(acc), initial=0.0))

    ell = 2.0 * B.radius
    denom = taylor_max / ell**m
    if max_k > 0 and taylor_max > 0:
        denom += taylor_max ** (1.0 - m / k) * max_k ** (m / k)
    constant = 0.0 if max_m == 0 else (math.inf if denom == 0 else max_m / denom)
    return InterpolationReport(
        m=m,
        k=k,
        diameter=ell,
        max_grad_m=max_m,
        taylor_difference_max=taylor_max,
        max_grad_k=max_k,
        constant=constant,
        samples=len(pts),
        pairs=len(t1s),
    )


# ---------------------------------------------------------------------------
# Flatness
# ---------------------------------------------------------------------------


@dataclass
class FlatnessReport(Report):
    op = "is_flat"

    flat: bool
    n_max: int
    failures: list
    derivative_flat: bool | None = None


_FLAT_FLOOR = 1e-14


def is_flat(
    f: FunctionHandle,
    n_max: int = 8,
    t_grid=None,
    check_derivatives: bool = False,
) -> FlatnessReport:
    """Monotone-decay test for vanishing to infinite order at the origin.

    For each N <= n_max checks that t -> t^(-N) * max_dirs |f(t*dir)| is
    nonincreasing along the descending grid within the 1e-14 noise floor,
    over +-1 in one variable and 4 sphere points otherwise.  Optionally
    repeats for all first partial derivatives.  The points t*dir of every t
    are read as one batch, by one values read and one gradient read.
    """
    if t_grid is None:
        t_grid = [2.0 ** (-j) for j in range(1, 11)]
    t_grid = [float(t) for t in t_grid]
    if any(t2 >= t1 for t1, t2 in zip(t_grid, t_grid[1:])):
        raise DomainError("t_grid must be strictly descending")
    if not f.domain.contains(np.zeros(f.arity), slack=1e-12):
        raise DomainError("origin must be interior to the domain")

    dirs = np.array([[1.0], [-1.0]]) if f.arity == 1 else sphere_points(4, f.arity)
    P = np.concatenate([t * dirs for t in t_grid])

    def profile(vals):
        return np.max(np.abs(vals).reshape(len(t_grid), len(dirs)), axis=1)

    def check(vals):
        fails = []
        for N in range(1, n_max + 1):
            seq = vals / np.array(t_grid) ** N
            up = np.flatnonzero(seq[1:] > seq[:-1] * (1 + 1e-9) + _FLAT_FLOOR) + 1
            if up.size:
                fails.append({"N": N, "t": t_grid[up[0]], "value": float(seq[up[0]])})
        return fails

    failures = check(profile(f.values(P)))
    deriv_flat = None
    if check_derivatives:
        deriv_flat = True
        grad = f.gradient_values(P)
        for axis in range(f.arity):
            fails = check(profile(grad[:, axis]))
            if fails:
                deriv_flat = False
                failures.extend({"derivative_axis": axis, **fl} for fl in fails)
    return FlatnessReport(
        flat=not any("derivative_axis" not in fl for fl in failures),
        n_max=n_max,
        failures=failures,
        derivative_flat=deriv_flat,
    )
