"""Control distance, slow variation, ball covers and squared partitions.

The control distance attached to a nonnegative function f and an exponent
delta is the pointwise maximum of f^(1/(4+2d)), the positive directional
Hessian part to the power 1/(2+2d), and (in the full variant) the max
fourth-derivative entry to the power 1/(2d).  Cells of the cover are balls
of radius s * rho(center); the squared bumps chi_nu / sqrt(sum chi^2) give a
partition of unity with sum of squares exactly one on the covered region.

Cover construction is sequential and deterministic (greedy order matters);
partition evaluation is vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import FunctionHandle, _hessian_plus, directional_hessian_plus_values, max_entries
from .errors import CoverBudgetError, CoverageHoleError, DomainError
from .geometry import Ball, as_points, ball_grid, ball_points, sphere_points
from .reporting import Report

__all__ = [
    "ControlDistanceParams",
    "CoverCell",
    "Partition",
    "ChiPairs",
    "control_distance_values",
    "verify_slowly_varying",
    "build_cover",
    "build_partition",
    "color_classes",
    "SlowVariationReport",
]

DEFAULT_CELL_SCALE = 1.0 / 200.0
MAX_PAIRS = 2**27  # candidate pairs one listing may hold: a chi_pairs batch or a colouring block
_BLOCK_PAIRS = 2**14  # candidate pairs one block lists: a build_cover acceptance batch or a color_classes block
RADIUS_PROBE = 512  # build_cover's radius probe: the first points of the region's nested `ball_points`
_read_probes: dict = {}  # (f, p, region) -> rho at its radius probe, read by `decompose` for its next build_cover


class _Buckets:
    """Which items may lie near a point: items with a reach, hashed into cubes.

    The cube side is the largest reach.  Item i is entered in every cube that
    meets the box |y - p_i|_inf <= reach_i, at most 3^n cubes (4^n where
    rounding splits a box), so memory is O(items 3^n) however far apart the
    items lie.  A cube's key mixes its coordinates' ranks among those the
    items reach on each axis; where the mixed key could pass 2^62, the key so
    far is first replaced by its rank among its values, so no key overflows
    int64.  A query looks up the one cube of each point: `pairs` returns a
    superset of the (query, item) pairs with |x - p_i| <= reach_i,
    query-major, and each caller keeps its own exact test.
    """

    def __init__(self, points: np.ndarray, reach: np.ndarray):
        self.side = side = float(np.max(reach))
        first = np.floor((points - reach[:, None]) / side)
        span = np.floor((points + reach[:, None]) / side) - first
        steps = np.arange(int(np.max(span)) + 1)
        offsets = np.array(list(np.ndindex((len(steps),) * points.shape[1])))
        # the key of cube first_i + offsets[k] of item i, and whether item i reaches it
        key, valid = np.zeros((len(points), len(offsets)), dtype=np.int64), True
        self.tables, size = [], 1
        for d in range(points.shape[1]):
            reached = first[:, d, None] + steps
            axis, folded = np.sort(reached, axis=None), None
            axis = axis[np.r_[True, axis[1:] != axis[:-1]]]  # np.unique, without importing numpy.ma
            if size * len(axis) > 2**62:
                folded, inverse = np.unique(key, return_inverse=True)
                key, size = inverse.reshape(key.shape), len(folded)
            key = key * len(axis) + np.searchsorted(axis, reached)[:, offsets[:, d]]
            valid = valid & (offsets[:, d] <= span[:, d, None])
            size *= len(axis)
            self.tables.append((axis, folded))
        item, k = np.nonzero(valid)
        key = key[item, k]
        order = np.argsort(key)
        self.items, key = item[order], key[order]
        cuts = np.flatnonzero(np.diff(key)) + 1
        self.keys = key[np.concatenate([[0], cuts])]
        self.starts = np.concatenate([[0], cuts, [len(key)]])

    def counts(self, X: np.ndarray) -> tuple:
        """(start, count): where the items entered in each point's cube begin
        in `items`, and how many there are."""
        key, found = np.zeros(len(X), dtype=np.int64), np.ones(len(X), dtype=bool)
        for (axis, folded), col in zip(self.tables, np.floor(X / self.side).T):
            if folded is not None:
                key, found = _rank(folded, key, found)
            a, found = _rank(axis, col, found)
            key = key * len(axis) + a
        at, found = _rank(self.keys, key, found)
        start = self.starts[at]
        return start, np.where(found, self.starts[at + 1] - start, 0)

    def pairs(self, X: np.ndarray) -> tuple:
        """(query, item) index arrays of the items entered in each point's cube;
        raises CoverBudgetError, before allocating them, above MAX_PAIRS pairs."""
        start, count = self.counts(X)
        total = int(count.sum())
        if total > MAX_PAIRS:
            raise CoverBudgetError(f"bucket index would list {total} candidate pairs, over the budget of "
                                   f"{MAX_PAIRS}; raise floor or shrink the region", count=total)
        query = np.repeat(np.arange(len(X)), count)
        return query, self.items[np.arange(len(query)) + np.repeat(start - np.cumsum(count) + count, count)]


def _rank(table: np.ndarray, values: np.ndarray, found: np.ndarray) -> tuple:
    """Positions of the values in a sorted table, and found cleared where a value is absent."""
    at = np.searchsorted(table, values).clip(max=len(table) - 1)
    return at, found & (table[at] == values)


def _distances(A: np.ndarray, a: np.ndarray, B: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.norm(A[a] - B[b], axis=1), bit for bit.  Below 8 columns the
    norm adds the squares in order, as this sum a column at a time does.  Each
    column is gathered by np.take and subtracted on its own, which is several
    times faster on the many short rows of chi_pairs and color_classes and
    never holds the gathered (C, n) rows."""
    if A.shape[1] >= 8:
        return np.linalg.norm(np.take(A, a, axis=0) - np.take(B, b, axis=0), axis=1)
    for d in range(A.shape[1]):
        diff = np.take(A[:, d], a) - np.take(B[:, d], b)
        sq = diff * diff if d == 0 else sq + diff * diff
    return np.sqrt(sq)


@dataclass(frozen=True)
class ControlDistanceParams:
    """Exponent and variant of the control distance.

    variant "full" uses all three terms; "reduced" drops the fourth-derivative
    term (the two-term distance that drives the slow-variation estimate).

    The distance itself only needs delta > 0; the decomposition pipeline
    additionally restricts to delta < 1/2 when it consumes these parameters.
    """

    delta: float
    variant: str = "full"

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
        if self.variant not in ("full", "reduced"):
            raise DomainError(f"variant must be 'full' or 'reduced', got {self.variant!r}")


@dataclass
class CoverCell(Report):
    nu: int
    center: tuple
    radius: float
    color: int | None = None


def control_terms(fvals, hess_plus, quartic, delta: float) -> np.ndarray:
    """(N, k) terms of the control distance: f_+^(1/(4+2d)), (lambda_+)_+^(1/(2+2d))
    for the top Hessian eigenvalue lambda_+ and, when `quartic` (max |D^4 f|) is
    given, quartic^(1/2d)."""
    terms = [np.maximum(fvals, 0.0) ** (1.0 / (4.0 + 2.0 * delta)),
             np.maximum(hess_plus, 0.0) ** (1.0 / (2.0 + 2.0 * delta))]
    if quartic is not None:
        terms.append(quartic ** (1.0 / (2.0 * delta)))
    return np.stack(terms, axis=1)


def control_distance_values(f: FunctionHandle, X, p: ControlDistanceParams) -> np.ndarray:
    """max{ f^(1/(4+2d)), [directional Hessian]_+^(1/(2+2d)), |grad^4 f|^(1/2d) }
    on a batch of points (the last term in the full variant only)."""
    if f.jet_backed:  # one jet holds every order; an expression handle's jet would add orders 1 and 3
        X = as_points(X, f.arity)
        J = f.jet(X, 4 if p.variant == "full" else 2)
        fvals, hess_plus, quartic = J[0], _hessian_plus(J[2], X), max_entries(J[4]) if p.variant == "full" else None
    else:
        fvals, hess_plus = f.values(X), directional_hessian_plus_values(f, X)
        quartic = f.max_entry_values(X, 4) if p.variant == "full" else None
    rho = np.max(control_terms(fvals, hess_plus, quartic, p.delta), axis=1)
    if not np.all(np.isfinite(rho)):
        raise DomainError("control distance evaluated non-finite")
    return rho


# ---------------------------------------------------------------------------
# Slow variation
# ---------------------------------------------------------------------------


@dataclass
class SlowVariationReport(Report):
    op = "slow_variation"
    derived = ("passed",)

    delta: float
    bound: float
    worst_ratio: float
    violations: list
    pairs: int
    rescale: float

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_slowly_varying(
    f: FunctionHandle,
    p: ControlDistanceParams,
    region: Ball,
    samples: int = 2000,
) -> SlowVariationReport:
    """Check |r(x) - r(y)| <= (1/2)^(1/(4+2d)) r(x) for |x-y| <= r(x)/200.

    Uses the reduced (two-term) distance.  f is divided by the sampled sup of
    its fourth derivative entries (when above one) so the normalized function
    satisfies the |grad^4| <= 1 hypothesis; the factor is reported.
    """
    n = f.arity
    xs = ball_points(region, samples)
    sup4 = float(np.max(f.max_entry_values(xs, 4)))
    if not math.isfinite(sup4):
        raise DomainError("fourth derivative unbounded on region; cannot rescale")
    M = max(1.0, 1.05 * sup4)
    g = f.rescaled(1.0 / M)
    reduced = ControlDistanceParams(delta=p.delta, variant="reduced")

    rx = control_distance_values(g, xs, reduced)
    dirs = sphere_points(max(16, samples // 8), n) if n > 1 else np.array([[1.0], [-1.0]])
    fracs = np.linspace(0.1, 1.0, 7)
    bound = 0.5 ** (1.0 / (4.0 + 2.0 * p.delta))

    k = np.arange(len(xs))
    ys = xs + (fracs[k % len(fracs)] * (rx / 200.0))[:, None] * dirs[k % len(dirs)]
    ry = control_distance_values(g, ys, reduced)
    kept = ~(rx <= 0)
    ratio = np.abs(rx - ry)[kept] / rx[kept]
    worst = float(np.fmax.reduce(ratio, initial=0.0))
    violations = [
        {"x": [float(v) for v in xs[i]], "y": [float(v) for v in ys[i]], "ratio": float(r)}
        for i, r in zip(k[kept], ratio)
        if r > bound * (1 + 1e-12)
    ]
    pair_count = int(np.count_nonzero(kept))
    return SlowVariationReport(
        delta=p.delta, bound=bound, worst_ratio=worst, violations=violations, pairs=pair_count, rescale=M
    )


# ---------------------------------------------------------------------------
# Cover construction
# ---------------------------------------------------------------------------


def build_cover(
    f: FunctionHandle,
    p: ControlDistanceParams,
    region: Ball,
    s: float = DEFAULT_CELL_SCALE,
    floor: float = 1e-3,
    max_cells: int = 200_000,
) -> list:
    """Greedy ball cover of {x in region : rho(x) >= floor} with radii s*rho.

    Candidate centers on a regular grid are sorted by rho descending and
    accepted when not already within half the radius of an accepted cell, a
    constructive stand-in for a bounded-overlap cube decomposition.  Batches
    of at most max(1, _BLOCK_PAIRS // (2m + 1)^n) consecutive free candidates,
    m the lattice half-width of the first's box (the widest), are decided by
    one gather of the later candidates within half of each member's radius
    and one ordered pass over the pairs inside the batch, so the cells are
    those of the one-at-a-time greedy loop, bit for bit.  Above max_cells
    cells it raises CoverBudgetError with count max_cells + 1.  The grid
    spacing is half the smallest radius s*rho above the floor on the radius
    probe, the region's first RADIUS_PROBE `ball_points`, which it reads
    unless its caller left their values in `_read_probes`.
    """
    rho_probe = _read_probes.pop((f, p, region), None)  # taken first: no entry outlives the call
    if not 0.0 < s <= DEFAULT_CELL_SCALE + 1e-15:
        raise DomainError(f"cell scale s must lie in (0, 1/200], got {s}")
    if floor <= 0:
        raise DomainError("floor must be positive")
    n = region.dim

    if rho_probe is None:  # probe to learn the radius range on the region
        rho_probe = control_distance_values(f, ball_points(region, RADIUS_PROBE), p)
    live = rho_probe[rho_probe >= floor]
    if live.size == 0:
        return []
    r_min_est = s * max(float(np.min(live)), floor)

    spacing = min(r_min_est / 2.0, region.radius)  # keeps the ball's center on the grid
    per_axis = int(math.ceil(2.0 * region.radius / spacing)) + 1
    if per_axis**n > 64 * max_cells + 4096:
        raise CoverBudgetError(
            f"candidate grid of {per_axis ** n} points exceeds the budget; raise floor or max_cells",
            count=per_axis**n,
        )
    cand = ball_grid(region, per_axis)

    rho = np.empty(len(cand))
    chunk = 200_000
    for i in range(0, len(cand), chunk):
        rho[i : i + chunk] = control_distance_values(f, cand[i : i + chunk], p)
    keep = rho >= floor
    cand, rho = cand[keep], rho[keep]
    order = np.lexsort(tuple(cand[:, i] for i in range(n)) + (-rho,))
    cand, rho = cand[order], rho[order]

    # slot holds each lattice point's place in order, -1 off the candidates;
    # a batch's members are the first free candidates among the next
    # _BLOCK_PAIRS in order, so a scan never reads more than that
    step = 2.0 * region.radius / (per_axis - 1)
    lattice = np.rint((cand - (np.asarray(region.center) - region.radius)) / step).astype(np.int64)
    slot = np.full((per_axis,) * n, -1, dtype=np.int32)
    slot[tuple(lattice.T)] = np.arange(len(cand))
    slot, strides = slot.ravel(), per_axis ** np.arange(n - 1, -1, -1)
    free = np.ones(len(cand), dtype=bool)
    accepted, count, i = [np.empty(0, dtype=np.int64)], 0, 0
    while i < len(cand):
        window = np.flatnonzero(free[i : i + _BLOCK_PAIRS]) + i
        if not len(window):
            i += _BLOCK_PAIRS
            continue
        m = int(s * float(rho[window[0]]) / 2.0 / step) + 1  # the batch's widest box: rho descends
        members = window[: max(1, _BLOCK_PAIRS // (2 * m + 1) ** n)]
        width = min(2 * m + 1, per_axis)
        offsets = np.indices((width,) * n).reshape(n, -1).T
        lat = lattice[members]
        lo = np.maximum(lat - m, 0)
        inside = np.all(offsets <= (np.minimum(lat + m, per_axis - 1) - lo)[:, None, :], axis=2)
        owner, k = np.nonzero(inside)  # member-major
        near = slot[(lo @ strides)[owner] + (offsets @ strides)[k]]
        later = near > members[owner]
        owner, near = owner[later], near[later]
        covers = _distances(cand, near, cand, members[owner]) <= (s * rho[members] / 2.0)[owner]
        owner, near = owner[covers], near[covers]
        at = np.searchsorted(members, near).clip(max=len(members) - 1)
        mutual = members[at] == near
        taken = [False] * len(members)
        for a, b in zip(owner[mutual].tolist(), at[mutual].tolist()):
            if not taken[a]:  # pairs come member by member, so a is decided here
                taken[b] = True
        keep = ~np.array(taken)
        free[near[keep[owner]]] = False
        accepted.append(members[keep])
        count += len(accepted[-1])
        if count > max_cells:
            raise CoverBudgetError(
                f"cover exceeded {max_cells} cells (floor {floor} too small for this region)",
                count=max_cells + 1,
            )
        i = int(members[-1]) + 1
    accepted = np.concatenate(accepted)
    return [CoverCell(nu=nu, center=tuple(x), radius=r)
            for nu, (x, r) in enumerate(zip(cand[accepted].tolist(), (s * rho[accepted]).tolist()))]


# ---------------------------------------------------------------------------
# Partition of unity
# ---------------------------------------------------------------------------


def _transition(v: np.ndarray) -> np.ndarray:
    """Smooth step q(v) = E(v) / (E(v) + E(1-v)), E(v) = exp(-1/v) for v > 0."""
    with np.errstate(all="ignore"):
        ev = np.where(v > 0, np.exp(-1.0 / np.where(v > 0, v, 1.0)), 0.0)
        e1 = np.where(1 - v > 0, np.exp(-1.0 / np.where(1 - v > 0, 1 - v, 1.0)), 0.0)
        den = ev + e1
        return np.where(den > 0, ev / np.where(den > 0, den, 1.0), 0.0)


def bump_profile(u: np.ndarray) -> np.ndarray:
    """Radial bump profile: 1 for u <= 1/2, 0 for u >= 1, smooth between."""
    u = np.asarray(u, dtype=float)
    return np.where(u <= 0.5, 1.0, np.where(u >= 1.0, 0.0, _transition(2.0 * (1.0 - u))))


def bump_jet(u: np.ndarray) -> tuple:
    """(b, b', b'') of the bump profile b = bump_profile in closed form.

    On 1/2 < u < 1, b(u) = q(v) with v = 2(1 - u) and q(v) = sigmoid(s(v)),
    s(v) = 1/(1-v) - 1/v, so q' = q(1-q) s' and q'' = q(1-q)((1-2q) s'^2 + s'');
    the derivatives vanish identically outside that interval.
    """
    u = np.asarray(u, dtype=float)
    b = bump_profile(u)
    mid = (u > 0.5) & (u < 1.0)
    v = np.where(mid, 2.0 * (1.0 - u), 0.5)
    s = 1.0 / (1.0 - v) - 1.0 / v
    e = np.exp(-np.abs(s))
    q = np.where(s >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    qq = e / (1.0 + e) ** 2  # q (1 - q) without cancellation
    s1 = 1.0 / (1.0 - v) ** 2 + 1.0 / v**2
    s2 = 2.0 / (1.0 - v) ** 3 - 2.0 / v**3
    # chain rule through v = 2(1 - u): d/du = -2 d/dv
    b1 = np.where(mid, -2.0 * qq * s1, 0.0)
    b2 = np.where(mid, 4.0 * qq * ((1.0 - 2.0 * q) * s1**2 + s2), 0.0)
    return b, b1, b2


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise outer products of two (N, n) batches."""
    return a[:, :, None] * b[:, None, :]


def _scatter(idx: np.ndarray, rows: np.ndarray, N: int) -> np.ndarray:
    """Sums of the hit rows rows[h] by point idx[h] into N rows: one bincount, which
    adds in hit order as np.add.at into zeros does, so the sums are bitwise the same."""
    m = math.prod(rows.shape[1:])
    flat = idx if rows.ndim == 1 else (idx[:, None] * m + np.arange(m)).ravel()
    out = np.bincount(flat, weights=rows.ravel(), minlength=N * m)
    return out.astype(float, copy=False).reshape((N,) + rows.shape[1:])  # float also with no hits


class ChiPairs:
    """Bump values of one point batch, stored sparsely and cell-major.

    Hit h pairs point idx[h] with cell cell[h] and holds chi[h] = chi_cell(x_idx); hits are
    sorted by cell, then point, so cell nu's hits are the range starts[nu]:starts[nu + 1] of the
    ndarray `starts`, by which one gather of a level's pass (`sos._Level`) lists every root group's
    hits.  As a sequence over the cells, entry nu is that range's (point indices, chi values),
    empty where no point hits the cell.
    """

    def __init__(self, idx: np.ndarray, cell: np.ndarray, chi: np.ndarray, n_cells: int):
        self.idx, self.cell, self.chi = idx, cell, chi
        self.starts = np.concatenate([[0], np.cumsum(np.bincount(cell, minlength=n_cells))])

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, nu: int) -> tuple:
        a, b = self.starts[nu], self.starts[nu + 1]
        return self.idx[a:b], self.chi[a:b]

    def __iter__(self):
        return (self[nu] for nu in range(len(self)))


class Partition:
    """Squared partition of unity subordinate to a cover.

    Phi_nu = chi_nu / sqrt(sum_mu chi_mu^2) with chi_nu the radial bump of the
    cell, so sum Phi_nu^2 = 1 identically on the covered region.  The batch
    readers read their points by `geometry.as_points` with the partition's dim.
    """

    def __init__(self, cells: list, region: Ball | None = None):
        if not cells:
            raise DomainError("cannot build a partition over an empty cover")
        self.cells = list(cells)
        self.region = region
        self.centers = np.array([c.center for c in self.cells])
        self.radii = np.array([c.radius for c in self.cells])
        self.index = _Buckets(self.centers, self.radii * (1.0 + 1e-9))

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def chi_pairs(self, X) -> ChiPairs:
        """The bump values chi_nu(x) of every (point, cell) hit of one batch.

        One vectorised pass: the partition's bucket index lists candidate
        (point, cell) pairs, the pairs with |x - c_nu| <= r_nu are kept and
        sorted stably by cell, and the bump is evaluated once on all of them.
        The result is the single geometric pass every evaluation reuses;
        indexed by a cell it gives that cell's sorted point indices and chi
        values.
        """
        X = as_points(X, self.dim)
        idx, cell = self.index.pairs(X)
        u = _distances(X, idx, self.centers, cell) / self.radii[cell]
        inside = np.flatnonzero(u <= 1.0)
        # a stable sort of cell indices of at most 16 bits is a radix sort
        hits = inside[np.argsort(cell[inside].astype(np.min_scalar_type(len(self.cells) - 1)), kind="stable")]
        return ChiPairs(idx[hits], cell[hits], bump_profile(u[hits]), len(self.cells))

    def chi_jets(self, X, idx, cell) -> tuple:
        """chi_cell at the points X[idx] with its gradient and Hessian in x.

        Hit-wise arrays of shapes (H,), (H, n), (H, n, n) for chi = b(|x - c| / r):
        D chi = b' e / r and D^2 chi = b'' e e^T / r^2 + b' (I - e e^T) / (r |x - c|)
        with e the unit vector from the cell center.
        """
        diff = X[idx] - self.centers[cell]
        r = self.radii[cell]
        dist = np.linalg.norm(diff, axis=1)
        b, b1, b2 = bump_jet(dist / r)
        safe = np.where(dist > 0, dist, 1.0)  # b' = 0 near the center
        e = diff / safe[:, None]
        ee = e[:, :, None] * e[:, None, :]
        d1 = (b1 / r)[:, None] * e
        d2 = (b2 / r**2)[:, None, None] * ee + (b1 / (r * safe))[:, None, None] * (np.eye(self.dim) - ee)
        return b, d1, d2

    def sqrt_quotient_jet(self, pairs: ChiPairs, chi_jets: tuple, tot, P, dP, d2P, scale: float) -> tuple:
        """(Dq, D^2 q) of q = scale * P / sqrt(S), S = sum_mu chi_mu^2, on one batch.

        (P, dP, d2P) is the numerator's jet, `pairs` the batch's chi_pairs,
        `chi_jets` their hit-wise bump jets (`chi_jets` at pairs.idx, pairs.cell)
        and `tot` the batch's S.  S is differentiated from those bump jets; the
        quotient uses the logarithmic derivatives DS/S and D^2 S/S, which stay
        finite where a lone bump tail covers the point.  Points outside the
        cover get zeros.
        """
        N = len(tot)
        chi, d1, d2 = chi_jets
        dS = _scatter(pairs.idx, 2.0 * chi[:, None] * d1, N)
        d2S = _scatter(pairs.idx, 2.0 * (_outer(d1, d1) + chi[:, None, None] * d2), N)
        covered = tot > 0
        S = np.where(covered, tot, 1.0)
        q = np.where(covered, scale / np.sqrt(S), 0.0)
        L1 = dS / S[:, None]
        L2 = d2S / S[:, None, None]
        # D S^(-1/2) = S^(-1/2) (-L1/2), D^2 S^(-1/2) = S^(-1/2) (3/4 L1 L1^T - L2/2)
        Dq = q[:, None] * (dP - 0.5 * P[:, None] * L1)
        D2q = q[:, None, None] * (
            d2P
            - 0.5 * (_outer(dP, L1) + _outer(L1, dP))
            + P[:, None, None] * (0.75 * _outer(L1, L1) - 0.5 * L2)
        )
        return Dq, D2q

    def chi(self, nu: int, X) -> np.ndarray:
        X = as_points(X, self.dim)
        u = np.linalg.norm(X - self.centers[nu], axis=1) / self.radii[nu]
        return bump_profile(u)

    def sum_chi_sq(self, X, pairs: ChiPairs | None = None) -> np.ndarray:
        X = as_points(X, self.dim)
        pairs = pairs if pairs is not None else self.chi_pairs(X)
        return _scatter(pairs.idx, pairs.chi**2, X.shape[0])

    def phi(self, nu: int, X) -> np.ndarray:
        X = as_points(X, self.dim)
        tot = self.sum_chi_sq(X)
        chi = self.chi(nu, X)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(chi > 0, chi / np.sqrt(np.where(tot > 0, tot, 1.0)), 0.0)

    def check_unity(self, X) -> float:
        """Max |sum Phi^2 - 1| on the points, 0 on an empty batch; raises on a coverage hole."""
        X = as_points(X, self.dim)
        pairs = self.chi_pairs(X)
        tot = self.sum_chi_sq(X, pairs)
        if np.any(tot == 0.0):
            i = int(np.argmin(tot))
            raise CoverageHoleError(f"no bump covers the point {X[i].tolist()}")
        acc = _scatter(pairs.idx, pairs.chi**2 / tot[pairs.idx], len(X))
        return float(np.max(np.abs(acc - 1.0), initial=0.0))

    def observe_overlap(self, X) -> int:
        """The most bumps that cover one of the points."""
        X = as_points(X, self.dim)
        counts = np.bincount(self.chi_pairs(X).idx, minlength=X.shape[0])
        return int(np.max(counts, initial=0))


def build_partition(cells: list, region: Ball | None = None) -> Partition:
    """Partition of unity with bumps chi_nu (value 1 on the inner half ball,
    support inside the cell ball), normalized so the squares sum to one."""
    return Partition(cells, region=region)


def partition_derivative_report(partition: Partition, per_cell_samples: int = 64, max_cells: int = 40) -> dict:
    """Sup of |D^alpha Phi_nu| * r_nu^|alpha| over all |alpha| = 1 and all |alpha| = 2.

    Exact derivatives at `per_cell_samples` points in the ball of radius
    0.98 r_nu around each of at most `max_cells` evenly spaced cells: the
    bump jet of chi_nu (`Partition.chi_jets`) through the quotient step
    Phi_nu = chi_nu / sqrt(sum chi^2) (`Partition.sqrt_quotient_jet`).  The
    scaled sup should be bounded by a constant independent of the cell.
    """
    picked = np.arange(0, len(partition.cells), max(1, len(partition.cells) // max_cells))[:max_cells]
    X = np.concatenate([
        ball_points(Ball(center=tuple(partition.centers[nu]), radius=0.98 * partition.radii[nu]), per_cell_samples)
        for nu in picked
    ])
    nus = np.repeat(picked, per_cell_samples)
    pairs = partition.chi_pairs(X)
    chi, d_chi, d2_chi = partition.chi_jets(X, np.arange(len(X)), nus)
    hit_jets = partition.chi_jets(X, pairs.idx, pairs.cell)
    d1, d2 = partition.sqrt_quotient_jet(pairs, hit_jets, partition.sum_chi_sq(X, pairs), chi, d_chi, d2_chi, 1.0)
    r = partition.radii[nus]
    return {
        "scaled_sup_order1": float(np.max(np.max(np.abs(d1), axis=1) * r)),
        "scaled_sup_order2": float(np.max(np.max(np.abs(d2), axis=(1, 2)) * r**2)),
        "cells_checked": len(picked),
    }


# ---------------------------------------------------------------------------
# Color classes with pairwise disjoint triples
# ---------------------------------------------------------------------------


def color_classes(cells: list) -> list:
    """Greedy coloring of the "tripled balls intersect" graph.

    Cells i and j are neighbours when |c_i - c_j| < 3 (r_i + r_j).  Cells are
    colored in the given order, each with the smallest color no earlier
    neighbour holds; colors set before the call are ignored and overwritten.
    A bucket index with reach 3 (r_i + r_max) counts each cell's candidates;
    consecutive blocks of cells, each of at most _BLOCK_PAIRS candidates or of
    one cell, list theirs and keep as CSR lists each cell's earlier
    neighbours, whose colors are final.  So the memory is one block's and the
    colors are those of one pass over all pairs.  Within each class the balls
    of triple radius are pairwise disjoint.  Returns the cells, ordered as
    given, with their color fields set.
    """
    if not cells:
        return cells
    centers = np.array([c.center for c in cells])
    radii = np.array([c.radius for c in cells])
    colors = np.empty(len(cells), dtype=int)
    index = _Buckets(centers, 3.0 * (radii + np.max(radii)) * (1.0 + 1e-9))
    listed = np.concatenate([[0], np.cumsum(index.counts(centers)[1])])  # candidates before each cell
    a = 0
    while a < len(cells):
        b = max(a + 1, int(np.searchsorted(listed, listed[a] + _BLOCK_PAIRS, side="right")) - 1)
        i, j = index.pairs(centers[a:b])
        earlier = j < i + a
        i, j = i[earlier] + a, j[earlier]
        near = _distances(centers, i, centers, j) < 3.0 * (radii[i] + radii[j])
        rows, cols = i[near] - a, j[near]
        starts = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=b - a))]).tolist()
        for k in range(b - a):
            used = set(colors[cols[starts[k] : starts[k + 1]]].tolist())
            color = 0
            while color in used:
                color += 1
            colors[a + k] = color
        a = b
    for cell, color in zip(cells, colors.tolist()):
        cell.color = color
    return cells
