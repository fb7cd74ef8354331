import numpy as np
import pytest

from sosreg.errors import DomainError
from sosreg import geometry
from sosreg.geometry import Ball, halton, sphere_points


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_halton_matches_scipy_unscrambled(dim):
    qmc = pytest.importorskip("scipy.stats").qmc
    for n in (0, 1, 7, 1000, 8192):
        got, ref = halton(n, dim), qmc.Halton(d=dim, scramble=False).random(n)
        assert np.array_equal(got, ref)
        # the memory layout matters too: einsum over points is faster column-major
        assert got.strides == ref.strides


def test_halton_prefixes_nested():
    assert np.array_equal(halton(64, 3)[:32], halton(32, 3))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_ball_points_prefixes_nested(dim):
    # the cover's radius probe is the first 512 points of decompose's boundary probe
    region = Ball(tuple(0.1 * np.arange(1, dim + 1)), 0.03)
    first = geometry.ball_points(region, 512)
    for n in (512, 513, 750, 2000, 3000):
        assert np.array_equal(geometry.ball_points(region, n)[:512], first)


def test_halton_is_memoized_read_only():
    a = halton(100, 3)
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
    assert np.array_equal(halton(100, 3), a)


@pytest.mark.parametrize(("n", "dim"), [(2000, 4), (10000, 4), (8, 2), (32, 3)])
def test_sphere_points_match_the_ndtri_construction(n, dim):
    ndtri = pytest.importorskip("scipy.special").ndtri
    g = ndtri(np.clip(halton(n, dim), 1e-12, 1 - 1e-12))
    ref = g / np.linalg.norm(g, axis=1)[:, None]
    got = sphere_points(n, dim)
    assert np.allclose(got, ref, rtol=0, atol=1e-15)
    assert np.allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-15)


def test_as_points_reads_one_rule():
    assert np.array_equal(geometry.as_points([0.5, 2.0], 1), [[0.5], [2.0]])
    assert np.array_equal(geometry.as_points([0.5, 2.0], 2), [[0.5, 2.0]])
    assert np.array_equal(geometry.as_points(0.5, 1), [[0.5]])
    assert geometry.as_points(np.zeros((3, 0)), 0).shape == (3, 0)
    for X, dim in (([[0.1, 0.2, 5.0]], 2), ([[0.1]], 2), ([0.5, 2.0], 3), (np.zeros((2, 2, 2)), 2)):
        with pytest.raises(DomainError, match=f"dimension {dim}"):
            geometry.as_points(X, dim)


def test_ball_contains_reads_points_by_the_rule():
    assert np.array_equal(Ball((0.0,), 1.0).contains([0.5, 2.0]), [True, False])
    assert np.array_equal(Ball((0.0, 0.0), 1.0).contains([0.6, 0.8]), [True])
    assert np.array_equal(Ball((0.0, 0.0), 1.0).contains([[0.6, 0.8], [0.8, 0.8]]), [True, False])
    with pytest.raises(DomainError):
        Ball((0.0, 0.0), 1.0).contains([[0.1, 0.2, 0.3]])
