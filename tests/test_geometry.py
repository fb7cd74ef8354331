import numpy as np
import pytest

from sosreg.geometry import halton


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
