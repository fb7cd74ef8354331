"""Balls, grids and deterministic low-discrepancy sampling shared by all modules."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DomainError


def as_points(X, dim: int) -> np.ndarray:
    """X as an (N, dim) batch: a 1-D array is N points when dim == 1 and one point
    otherwise.  Any other shape raises DomainError."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2:
        X = X.reshape(-1, 1) if dim == 1 else X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != dim:
        raise DomainError(f"expected points of dimension {dim}, got an array of shape {X.shape}")
    return X


@dataclass(frozen=True)
class Ball:
    """Closed ball B(center, radius) in R^n."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))
        if self.radius <= 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, x, slack: float = 0.0) -> np.ndarray:
        """Whether each point of x, read by `as_points`, lies in the ball widened by slack."""
        return np.linalg.norm(as_points(x, self.dim) - np.asarray(self.center), axis=-1) <= self.radius + slack


def _primes(count: int) -> list:
    """The first `count` primes, by trial division."""
    out: list = []
    k = 2
    while len(out) < count:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


def _radical_inverse(n: int, base: int) -> np.ndarray:
    """Van der Corput points 0..n-1 in the given base: the base-b digits of
    the index mirrored about the radix point, least significant digit first."""
    k = np.arange(n)
    out = np.zeros(n)
    weight = 1.0 / base
    while np.any(k > 0):
        k, digit = np.divmod(k, base)
        out += digit * weight
        weight /= base
    return out


@functools.lru_cache(maxsize=32)
def halton(n: int, dim: int) -> np.ndarray:
    """First n points of the unscrambled Halton sequence in [0,1)^dim.

    Coordinate i is the radical inverse of the point index in the i-th prime
    base, starting at index 0 (the origin).  Unscrambled so that prefixes are
    nested: halton(2n)[:n] == halton(n).  Column-major, as scipy's
    qmc.Halton returns it: downstream einsum contractions over the point
    axis run several times faster on this layout.  The last 32 (n, dim) are
    memoized, so the array is read-only: copy it to write.
    """
    points = np.stack([_radical_inverse(n, b) for b in _primes(dim)]).T
    points.flags.writeable = False  # shared by every caller through the cache
    return points


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded as `np.linalg.norm` rounds one vector
    (a dot product, not an axis sum): a batch reproduces a loop bit for bit."""
    return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])


def ball_points(ball: Ball, n: int) -> np.ndarray:
    """Deterministic low-discrepancy points in the ball.

    Points are taken from a Halton sequence in the bounding cube and filtered,
    so doubling n yields a superset of the previous point set.
    """
    c = np.asarray(ball.center)
    dim = ball.dim
    m = max(4 * n, 16)
    while True:
        cube = halton(m, dim)
        cand = c + (2.0 * cube - 1.0) * ball.radius
        mask = np.linalg.norm(cand - c, axis=1) <= ball.radius
        if mask.sum() >= n:
            return cand[mask][:n]
        m *= 2


def sphere_points(n: int, dim: int) -> np.ndarray:
    """n low-discrepancy points on the unit sphere S^(dim-1): clipped Halton points mapped
    through the normal quantile (stdlib NormalDist.inv_cdf, Wichura's AS241), normalised."""
    u = halton(n, dim)
    g = np.vectorize(NormalDist().inv_cdf, otypes=[float])(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    return g / norms[:, None]


def ball_grid(ball: Ball, per_axis: int) -> np.ndarray:
    """Regular grid over the bounding cube, restricted to the ball."""
    c = np.asarray(ball.center)
    axes = [np.linspace(ci - ball.radius, ci + ball.radius, per_axis) for ci in c]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.linalg.norm(pts - c, axis=1) <= ball.radius
    return pts[keep]
