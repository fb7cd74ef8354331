"""Independent oracles used by the tests.

Deliberately separate from the library's own numerics: extended-precision
composed central differences for derivative checks, brute-force pair and
grid searches for suprema, and plain quadrature.  Nothing here imports the
routines it is used to check, except where an oracle says which library
routine it takes as given.  `fd_handle` puts nested central differences
behind the public FunctionHandle constructor, for tests that pass a
differenced function to the library's handle consumers.
"""

from __future__ import annotations

import numpy as np

from sosreg.calculus import FunctionHandle
from sosreg.cover import bump_profile, bump_slopes
from sosreg.errors import DerivativeError
from sosreg.exprlang import evaluate
from sosreg.geometry import Ball, ball_points, sphere_points
from sosreg.roots import power_jet

_OFFS = np.array([-2, -1, 1, 2], dtype=np.longdouble)
_COEF = np.array([1, -8, 8, -1], dtype=np.longdouble) / np.longdouble(12)


def fd_partial_ld(fdef, X, alpha, h=2e-3):
    """Composed 5-point first-derivative stencils in extended precision."""
    X = np.atleast_2d(np.asarray(X))
    h = np.longdouble(h)
    stencil = [(np.zeros(X.shape[1], dtype=np.longdouble), np.longdouble(1))]
    for axis, p in enumerate(alpha):
        for _ in range(p):
            new = []
            for base, w in stencil:
                for o, cf in zip(_OFFS, _COEF):
                    b = base.copy()
                    b[axis] += o * h
                    new.append((b, w * cf / h))
            stencil = new
    P = np.array([b for b, _ in stencil])
    W = np.array([w for _, w in stencil])
    pts = (X[:, None, :].astype(np.longdouble) + P[None, :, :]).reshape(-1, X.shape[1])
    env = {v: pts[:, i] for i, v in enumerate(fdef.variables)}
    vals = np.asarray(evaluate(fdef.body, env), dtype=np.longdouble)
    vals = np.broadcast_to(vals, (pts.shape[0],))
    return vals.reshape(X.shape[0], -1) @ W


def fd_partial_richardson(fdef, X, alpha, h=2e-3):
    """Richardson-extrapolated version of fd_partial_ld (leading h^4 removed)."""
    coarse = fd_partial_ld(fdef, X, alpha, h)
    fine = fd_partial_ld(fdef, X, alpha, h / 2)
    return ((16 * fine - coarse) / np.longdouble(15)).astype(float)


def fd_callable_partial(fn, X, alpha, h=1e-3):
    """Same composed stencils for a plain vectorized callable, in float64."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    stencil = [(np.zeros(X.shape[1]), 1.0)]
    for axis, p in enumerate(alpha):
        for _ in range(p):
            new = []
            for base, w in stencil:
                for o, cf in zip(_OFFS.astype(float), _COEF.astype(float)):
                    b = base.copy()
                    b[axis] += o * h
                    new.append((b, w * cf / h))
            stencil = new
    P = np.array([b for b, _ in stencil])
    W = np.array([w for _, w in stencil])
    pts = (X[:, None, :] + P[None, :, :]).reshape(-1, X.shape[1])
    return np.asarray(fn(pts), dtype=float).reshape(X.shape[0], -1) @ W


# 4th-order-accurate central stencils for pure derivatives of order 1..4
_STENCILS = {
    1: ((-2, -1, 1, 2), (1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12)),
    3: ((-3, -2, -1, 1, 2, 3), (1.0 / 8, -1.0, 13.0 / 8, -13.0 / 8, 1.0, -1.0 / 8)),
    4: ((-3, -2, -1, 0, 1, 2, 3), (-1.0 / 6, 2.0, -13.0 / 2, 28.0 / 3, -13.0 / 2, 2.0, -1.0 / 6)),
}


def fd_step(order: int) -> float:
    """Step schedule for order-p central stencils: h = 1e-3 * 2^(p-1)."""
    return 1e-3 * 2.0 ** (order - 1)


def fd_stencil(alpha, step) -> tuple:
    """Offsets (m, n) and weights (m,) of the nested central stencil for D^alpha.

    Each differentiated axis applies the 4th-order accurate stencil of its
    order p with spacing step(p);
    D^alpha g(x) ~= sum_i weights[i] * g(x + offsets[i]).
    """
    n = len(alpha)
    offsets = [np.zeros(n)]
    weights = [1.0]
    for axis, p in enumerate(alpha):
        if p == 0:
            continue
        offs, coefs = _STENCILS[p]
        h = step(p)
        new_offsets, new_weights = [], []
        for base, wt in zip(offsets, weights):
            for o, cf in zip(offs, coefs):
                shifted = base.copy()
                shifted[axis] += o * h
                new_offsets.append(shifted)
                new_weights.append(wt * cf / h**p)
        offsets, weights = new_offsets, new_weights
    return np.array(offsets), np.array(weights)


def fd_handle(fn, arity: int, domain: Ball | None = None, vectorized: bool = False, label: str = "f") -> FunctionHandle:
    """Handle of a plain callable whose derivatives are nested central
    differences on the `fd_step` schedule.

    fn takes a 1-D point array (or an (N, n) array when vectorized=True).
    Per-axis derivative orders up to 4 are supported.
    """
    domain = domain or Ball(center=(0.0,) * arity, radius=1.0)

    def eval_many(X):
        X = np.asarray(X, dtype=float)
        if vectorized:
            return np.asarray(fn(X), dtype=float)
        return np.array([float(fn(x)) for x in X])

    def derivative_factory(alpha):
        alpha = tuple(alpha)
        if any(a > 4 for a in alpha):
            raise DerivativeError(
                f"finite-difference backend supports per-axis order <= 4, got {alpha}"
            )
        obs, wts = fd_stencil(alpha, fd_step)

        def d_many(X):
            X = np.asarray(X, dtype=float)
            pts = (X[:, None, :] + obs[None, :, :]).reshape(-1, arity)
            vals = eval_many(pts).reshape(X.shape[0], -1)
            return vals @ wts

        return d_many

    return FunctionHandle(
        arity=arity,
        eval_many=eval_many,
        derivative_many_factory=derivative_factory,
        domain=domain,
        label=label,
        exact_derivatives=False,
    )


def brute_pair_seminorm(values_fn, lo, hi, n_grid, exponent):
    """Brute-force Hölder quotient max of a scalar derivative field on a
    1-D product grid of pairs."""
    xs = np.linspace(lo, hi, n_grid)
    vals = np.asarray(values_fn(xs.reshape(-1, 1)), dtype=float)
    best = 0.0
    for i in range(n_grid):
        d = np.abs(vals - vals[i])
        sep = np.abs(xs - xs[i])
        mask = sep > 0
        best = max(best, float(np.max(d[mask] / sep[mask] ** exponent)))
    return best


def brute_direction_hessian_plus(hessian, n_dirs=1000, seed=5, polish_iters=200):
    """Max over unit directions of the positive quadratic form part.

    Random directions alone undershoot by percents in dimension four, so the
    best sampled direction is polished by shifted power iteration (still an
    eigensolver-free path)."""
    H = np.asarray(hessian, dtype=float)
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_dirs, H.shape[0]))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    vals = np.einsum("pi,ij,pj->p", dirs, H, dirs)
    v = dirs[int(np.argmax(vals))]
    shift = np.linalg.norm(H, ord="fro") + 1.0
    M = H + shift * np.eye(H.shape[0])
    for _ in range(polish_iters):
        v = M @ v
        v /= np.linalg.norm(v)
    return max(0.0, float(v @ H @ v))


def running_max_monotone_1d(fn, s, lo, hi, t_min, scale, n_grid=400_001, extra=()):
    """The omega_s-monotone functional of a positive 1-D profile on [lo, hi], 0 <= lo.

    In one dimension B_x = [0, x], so sup_{y in B_x} f(y) is a running maximum
    over one fine grid of (0, hi], here joined with the points `extra` (the
    exact minima of a profile whose dips are narrower than the grid spacing).
    Returns max over the grid's x in [lo, hi] with x >= t_min of
    M(x) / omega_s(f(x)) for f / scale, omega_s(t) = t^s, in log space.
    """
    if not 0.0 < s < 1.0 or lo < 0.0:
        raise ValueError("the oracle covers 0 < s < 1 on a region in [0, inf)")
    xs = np.union1d(np.linspace(0.0, hi, n_grid)[1:], np.asarray(extra, dtype=float))
    with np.errstate(divide="ignore", over="ignore"):
        log_f = np.log(np.asarray(fn(xs), dtype=float)) - np.log(scale)
    keep = (xs >= lo) & (xs >= t_min)
    return float(np.exp(np.max(np.maximum.accumulate(log_f)[keep] - s * log_f[keep])))


def pair_set_loop(region, samples, h_min):
    """The pair family of `calculus._pair_set` built one candidate at a time:
    anchor k mod 48, direction 7k + level mod 32, radius max(h_min,
    2^-(level mod 12) R) with level = k // 48, reflected through the anchor
    when it leaves the region, kept when inside and at least h_min apart;
    candidates stop after 100 samples + 1001."""
    n = region.dim
    anchors = ball_points(region, 48)
    dirs = sphere_points(32, n) if n > 1 else np.array([[1.0], [-1.0]] * 16)
    ys, zs = [], []
    k = level = 0
    while len(ys) < samples:
        y = anchors[k % len(anchors)]
        d = dirs[(k * 7 + level) % len(dirs)]
        r = max(h_min, 2.0 ** (-(level % 12)) * region.radius)
        z = y + r * d
        if not region.contains(z):
            z = y - r * d
        if region.contains(z) and np.linalg.norm(z - y) >= h_min * (1 - 1e-12):
            ys.append(y)
            zs.append(z)
        k += 1
        if k % len(anchors) == 0:
            level += 1
        if k > 100 * samples + 1000:
            break
    return np.array(ys).reshape(-1, n), np.array(zs).reshape(-1, n)


def root_holder_two_reads(group, exponent, samples):
    """The order-2 root Hölder probe of `sos.root_holder_estimate`, built one
    pair at a time and read in two batches: one `group.jet` at the in-region
    ring anchors c + r (f d), whose max |D^2 g| entries order the cells
    worst-first, and one at the stacked ends [ys; zs] of the kept pairs.

    A cell's probe is (direction d, ring fraction f, separation s) for 8
    directions (2 in 1-D), f in 0.45..0.9 and s in r/4..r/32, s fastest.
    Pair k probes cell k // len(probe) of that order (cycling); its start is
    the ring anchor c + r (f d) on the first lap and c + 0.9 r o_lap, o the
    16 roam offsets of the unit ball, on later laps, and its end is the start
    plus s d.  A pair is kept when both ends lie in the partition's region.
    Returns the estimate's fields and the two reads' row counts.
    """
    part = group.partition
    n = part.dim
    dirs = sphere_points(8, n) if n > 1 else np.array([[1.0], [-1.0]])
    fracs, seps = (0.45, 0.6, 0.75, 0.9), (0.25, 0.125, 0.0625, 0.03125)
    offsets = ball_points(Ball(center=(0.0,) * n, radius=1.0), 16)
    region = part.region

    def inside(P):
        return np.ones(len(P), dtype=bool) if region is None else region.contains(P)

    ring = [(d, f) for d in dirs for f in fracs]
    anchors = np.array([part.centers[nu] + part.radii[nu] * (f * d) for nu in group.cells for d, f in ring])
    keep = inside(anchors)
    d2 = np.zeros(len(anchors))
    if np.any(keep):
        d2[keep] = np.max(np.abs(group.jet(anchors[keep])[2]), axis=(1, 2))
    score = [max(d2[i * len(ring):(i + 1) * len(ring)]) for i in range(len(group.cells))]
    order = sorted(range(len(group.cells)), key=lambda i: -score[i])

    probe = [(d, f, s) for d in dirs for f in fracs for s in seps]
    ys, zs, sep, roam = [], [], [], []
    for k in range(samples):
        nu = group.cells[order[(k // len(probe)) % len(order)]]
        lap = k // (len(probe) * len(order))
        d, f, s = probe[k % len(probe)]
        c, r = part.centers[nu], part.radii[nu]
        y = c + r * (f * d) if lap == 0 else c + 0.9 * r * offsets[lap % len(offsets)]
        ys.append(y)
        zs.append(y + (s * r) * d)
        sep.append(s * r)
        roam.append(lap > 0)
    ys, zs = np.array(ys).reshape(-1, n), np.array(zs).reshape(-1, n)
    kept = inside(ys) & inside(zs)
    ys, zs, sep = ys[kept], zs[kept], np.array(sep)[kept]
    out = {"pair_count": len(ys), "anchor_rows": int(np.count_nonzero(keep)),
           "roam_starts": int(np.count_nonzero(np.array(roam, dtype=bool)[kept]))}
    if not len(ys):
        return dict(out, sup_norms=[0.0, 0.0, 0.0], seminorm=0.0, min_separation=float("nan"), worst_pair=None)
    jet = group.jet(np.concatenate([ys, zs]))
    P = len(ys)
    quot = np.max(np.abs(jet[2][:P] - jet[2][P:]), axis=(1, 2)) / sep**exponent
    i = int(np.argmax(quot))
    return dict(out, sup_norms=[float(np.max(np.abs(v))) for v in jet], seminorm=float(quot[i]),
                min_separation=float(np.min(sep)), worst_pair=(tuple(ys[i]), tuple(zs[i])))


def chi_jets(partition, X, idx, cell):
    """chi_cell at the points X[idx] with its gradient and Hessian in x, as full tensors.

    Hit-wise arrays of shapes (H,), (H, n), (H, n, n) for chi = b(|x - c| / r):
    D chi = b' e / r and D^2 chi = b'' e e^T / r^2 + b' (I - e e^T) / (r |x - c|)
    with e the unit vector from the cell center.  The profile b and its slopes
    b', b'' (zero off the band 1/2 < u < 1) are the library's `cover.bump_profile`
    and `cover.bump_slopes`.
    """
    diff = X[idx] - partition.centers[cell]
    r = partition.radii[cell]
    dist = np.linalg.norm(diff, axis=1)
    u = dist / r
    band = (u > 0.5) & (u < 1.0)
    b1, b2 = np.zeros(len(u)), np.zeros(len(u))
    b1[band], b2[band] = bump_slopes(u[band])
    safe = np.where(dist > 0, dist, 1.0)  # b' = 0 near the center
    e = diff / safe[:, None]
    ee = e[:, :, None] * e[:, None, :]
    d1 = (b1 / r)[:, None] * e
    d2 = (b2 / r**2)[:, None, None] * ee + (b1 / (r * safe))[:, None, None] * (np.eye(X.shape[1]) - ee)
    return bump_profile(u), d1, d2


def sqrt_quotient_jet(idx, jets, tot, P, dP, d2P, scale):
    """(Dq, D^2 q) of q = scale * P / sqrt(S), S = sum_mu chi_mu^2, on one batch.

    (P, dP, d2P) is the numerator's jet at every point, `jets` the full bump jets
    (`chi_jets`) of every hit, hit h at the point idx[h], and `tot` the batch's S.
    DS and D^2 S are summed from those jets by np.add.at; the quotient uses the
    logarithmic derivatives DS/S and D^2 S/S.  Points outside the cover get zeros.
    """
    N, n = dP.shape
    chi, d1, d2 = jets
    dS, d2S = np.zeros((N, n)), np.zeros((N, n, n))
    np.add.at(dS, idx, 2.0 * chi[:, None] * d1)
    np.add.at(d2S, idx, 2.0 * (d1[:, :, None] * d1[:, None, :] + chi[:, None, None] * d2))
    covered = tot > 0
    S = np.where(covered, tot, 1.0)
    q = np.where(covered, scale / np.sqrt(S), 0.0)
    L1, L2 = dS / S[:, None], d2S / S[:, None, None]

    def outer(a, b):
        return a[:, :, None] * b[:, None, :]

    Dq = q[:, None] * (dP - 0.5 * P[:, None] * L1)
    D2q = q[:, None, None] * (d2P - 0.5 * (outer(dP, L1) + outer(L1, dP))
                              + P[:, None, None] * (0.75 * outer(L1, L1) - 0.5 * L2))
    return Dq, D2q


def root_jet_by_tensors(group, X):
    """(g, Dg, D^2 g) of a root group g = scale * P / sqrt(S), P = sum_nu chi_nu w_nu over
    its members, composed from full tensors.

    Every (point, cell) hit of the partition's `chi_pairs` gets its full bump jet
    (`chi_jets`).  The members' hits with chi > 0 and S > 0 add chi w, by the
    Leibniz rule with each piece's own (w, Dw, D^2 w), into P by np.add.at, and
    `sqrt_quotient_jet` differentiates S and the quotient.  The pieces' jets are
    the library's.
    """
    part = group.partition
    X = np.asarray(X, dtype=float).reshape(-1, part.dim)
    N, n = X.shape
    pairs = part.chi_pairs(X)
    tot = np.zeros(N)
    np.add.at(tot, pairs.idx, pairs.chi**2)
    jets = chi_jets(part, X, pairs.idx, pairs.cell)
    P, dP, d2P = np.zeros(N), np.zeros((N, n)), np.zeros((N, n, n))
    live = (pairs.chi > 0) & (tot[pairs.idx] > 0)
    pieces = {id(piece): piece for _, piece in group.members}
    for key, piece in pieces.items():
        cells = [nu for nu, p in group.members if id(p) == key]
        h = np.flatnonzero(live & np.isin(pairs.cell, cells))
        if not len(h):
            continue
        w0, w1, w2 = piece.jet(X[pairs.idx[h]])
        c0, c1, c2 = (c[h] for c in jets)
        np.add.at(P, pairs.idx[h], c0 * w0)
        np.add.at(dP, pairs.idx[h], c1 * w0[:, None] + c0[:, None] * w1)
        np.add.at(d2P, pairs.idx[h], c2 * w0[:, None, None] + c1[:, :, None] * w1[:, None, :]
                  + w1[:, :, None] * c1[:, None, :] + c0[:, None, None] * w2)
    g = np.where(tot > 0, group.scale * P / np.sqrt(np.where(tot > 0, tot, 1.0)), 0.0)
    return (g,) + sqrt_quotient_jet(pairs.idx, jets, tot, P, dP, d2P, group.scale)


def _pull(T, P, axes):
    """Contract each of the last `axes` axes of the batch T (N, ..., n) with
    P, of shape (n, k) or (N, n, k): out[..., i, j] = T[..., a, b] P[a, i] P[b, j]."""
    N, n, k = T.shape[0], P.shape[-2], P.shape[-1]
    for _ in range(axes):
        T = (T.reshape(N, -1, n) @ P).reshape(T.shape[:-1] + (k,))
        T = np.moveaxis(T, -1, T.ndim - axes)
    return T


def _times(a, T):
    """a (N, *L) times T (N, k, ..., k): the (N, *L, k, ..., k) outer products."""
    lead = a.ndim - 1
    return a.reshape(a.shape + (1,) * (T.ndim - 1)) * T.reshape(T.shape[:1] + (1,) * lead + T.shape[1:])


def _sym3(c, X2):
    """c_i X2_jl + c_j X2_il + c_l X2_ij for c (N, *L, k) and X2 (N, k, k)."""
    t = _times(c, X2)
    return t + np.swapaxes(t, -3, -2) + np.moveaxis(t, -3, -1)


def _compose(U, P, Xs, j):
    """D^j (u o Phi) for Phi(xi) = (xi, X(xi)) and j <= 3, by Faa di Bruno.

    U[m] is D^m u at Phi(xi), shape (N, *L, n, ..., n) with y the last
    coordinate; P = D Phi is (N, n, k) and D^m Phi = e_y X_m for m >= 2, with
    Xs = [X_2, ...] the higher derivatives of X known so far.  The term
    u_y X_j is left out while X_j is unknown, which is how X_j is solved for.
    """
    out = _pull(U[j], P, j)
    if j == 3:
        out = out + _sym3(_pull(U[2][..., -1], P, 1), Xs[0])
    if 2 <= j <= len(Xs) + 1:
        out = out + _times(U[1][..., -1], Xs[j - 2])
    return out


def _implicit_jet(U, order):
    """P = D Phi and [X_2, ..., X_order] of X(xi) defined by u(xi, X(xi)) = 0,
    from u's jet U (U[0] is not read): differentiating u o Phi = 0 j times
    gives u_y X_j = -(the other terms of D^j (u o Phi))."""
    uy = U[1][:, -1]
    N, k = uy.shape[0], U[1].shape[1] - 1
    P = np.concatenate([np.broadcast_to(np.eye(k), (N, k, k)), (-U[1][:, :k] / uy[:, None])[:, None, :]], axis=1)
    Xs = []
    for j in range(2, order + 1):
        rest = _compose(U, P, Xs, j)
        Xs.append(-rest / uy.reshape((N,) + (1,) * (rest.ndim - 1)))
    return P, Xs


def profile_jet_by_tensors(splits, Xi, order):
    """(F, DF, ..., D^order F), order <= 4, of the reduced profile of splits[-1]
    composed from full derivative tensors.

    The parent's jet at the graph points Phi(xi) = (xi, X(xi)) is rotated into
    the split's frame; on the graph f_y vanishes, so DF = f_xi o Phi and
    D^m F = D^(m-1) (f_xi o Phi) by Faa di Bruno on Phi, X's derivatives
    coming from differentiating f_y o Phi = 0.  `splits` is the chain of
    splits whose profiles are each the next one's parent, outermost first:
    the outermost parent's jet is its handle's own, and every inner parent's
    is composed here in turn.  Only the minimizers' solves are the library's.
    """
    *outer, split = splits
    assert not outer or split.frame.f is outer[-1].F
    frame, k = split.frame, Xi.shape[1]
    X = frame.to_global(np.concatenate([Xi, split.minimizer.solve_many(Xi)[:, None]], axis=1))
    J = profile_jet_by_tensors(outer, X, order) if outer else frame.f.jet(X, order)
    J = [J[0]] + [_pull(T, frame.R, m) for m, T in enumerate(J[1:], 1)]
    F = [J[0]]
    if order >= 1:
        F.append(J[1][:, :k])
    if order >= 2:
        P, Xs = _implicit_jet([None] + [T[:, -1] for T in J[2:]], order - 1)
        G = [None] + [T[:, :k] for T in J[2:]]
        F += [_compose(G, P, Xs, j) for j in range(1, order)]
    return F


def rotated_jet(frame, V, order):
    """f's jet at the points V of a split's frame, each tensor rotated into the frame (R^T D^2 f R, ...)."""
    J = frame.f.jet(frame.to_global(V), order)
    return [J[0]] + [_pull(T, frame.R, m) for m, T in enumerate(J[1:], 1)]


def fiber_jet_by_tensors(split, X):
    """(w, Dw, D^2 w) in x of a case-II root w = (y - X(xi)) sqrt(H(xi, y)), composed from
    f's full order-4 tensors at the graph and quadrature points, rotated into the split's frame
    (`rotated_jet`).

    DX and D^2 X come from differentiating f_y(xi, X(xi)) = 0 (`_implicit_jet`).  With
    Psi_i(xi, y) = (xi, (1 - t_i) X(xi) + t_i y), H = sum_i tw_i f_yy o Psi_i, so DH = sum_i
    tw_i DPsi_i^T D f_yy and D^2 H = sum_i tw_i (DPsi_i^T D^2 f_yy DPsi_i + (1 - t_i) d_y f_yy
    D^2 X on the xi block), tw_i = (1 - t_i) times the Gauss-Legendre weight on [0, 1].
    sqrt(H) is taken by the library's `roots.power_jet` (zero where H <= 0), and the
    minimizer's solves and node count are the split's.  The jet is rotated back to x by R.
    """
    frame, R = split.frame, split.frame.R
    Xi, Y = frame.to_local(X)
    N, k = Xi.shape
    t, weights = np.polynomial.legendre.leggauss(split.nodes)
    t = 0.5 * (t + 1.0)
    tw = (1.0 - t) * (0.5 * weights)
    Xstar = split.minimizer.solve_many(Xi)
    ys = (1.0 - t)[None, :] * Xstar[:, None] + t[None, :] * Y[:, None]
    nodes = np.concatenate([np.repeat(Xi, len(t), axis=0), ys.reshape(-1, 1)], axis=1)
    J = rotated_jet(frame, np.concatenate([np.column_stack([Xi, Xstar]), nodes]), 4)
    P, (X2,) = _implicit_jet([None, J[2][:N, -1], J[3][:N, -1]], 2)
    DX = P[:, -1]
    DPsi = np.zeros((N, len(t), k + 1, k + 1))
    DPsi[..., :k, :k] = np.eye(k)
    DPsi[..., -1, :k] = (1.0 - t)[:, None] * DX[:, None, :]
    DPsi[..., -1, -1] = t
    DPsi = DPsi.reshape(-1, k + 1, k + 1)
    phi0, phi1, phi2 = (T[N:, ..., -1, -1] for T in J[2:])  # f_yy and its jet at the nodes
    H0 = phi0.reshape(N, -1) @ tw
    H1 = np.tensordot(_pull(phi1, DPsi, 1).reshape(N, len(t), k + 1), tw, axes=(1, 0))
    H2 = np.tensordot(_pull(phi2, DPsi, 2).reshape(N, len(t), k + 1, k + 1), tw, axes=(1, 0))
    H2[:, :k, :k] += (phi1[:, -1].reshape(N, -1) @ ((1.0 - t) * tw))[:, None, None] * X2
    q0, q1, q2 = power_jet((H0, H1, H2), 0.5)
    s = Y - Xstar
    ds = np.concatenate([-DX, np.ones((N, 1))], axis=1)
    w2 = ds[:, :, None] * q1[:, None, :] + q1[:, :, None] * ds[:, None, :] + s[:, None, None] * q2
    w2[:, :k, :k] -= q0[:, None, None] * X2
    return s * q0, (ds * q0[:, None] + s[:, None] * q1) @ R.T, R @ w2 @ R.T
