import numpy as np
import pytest

from sosreg.geometry import halton, sphere_points


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


@pytest.mark.parametrize(("n", "dim"), [(2000, 4), (10000, 4), (8, 2), (32, 3)])
def test_sphere_points_match_the_ndtri_construction(n, dim):
    ndtri = pytest.importorskip("scipy.special").ndtri
    g = ndtri(np.clip(halton(n, dim), 1e-12, 1 - 1e-12))
    ref = g / np.linalg.norm(g, axis=1)[:, None]
    got = sphere_points(n, dim)
    assert np.allclose(got, ref, rtol=0, atol=1e-15)
    assert np.allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-15)
