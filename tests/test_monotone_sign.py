"""monotone_functional on functions that take negative values: an error naming
the first sampled point below -1e-12 (1 + |f|), and values within that
tolerance read as zeros."""

import numpy as np
import pytest

from sosreg.calculus import FunctionHandle, Modulus
from sosreg.errors import NonnegativityError
from sosreg.exprlang import parse_expression
from sosreg.geometry import Ball
from sosreg.monotone import monotone_functional


def handle(src):
    return FunctionHandle.from_expr(parse_expression(src), ("x",), domain=Ball((0.0,), 3.0))


def values_handle(values):
    def no_jet(X, order):
        raise AssertionError("the functional reads values only")

    return FunctionHandle(1, lambda X: values(X[:, 0]), None, Ball((0.5,), 1.0), jet_many=no_jet)


def test_sign_changing_on_the_default_ball():
    # f = x is negative on half of B(0, 1); the old loop skipped those samples and read 1.0
    with pytest.raises(NonnegativityError, match=r"f = -\S+ < 0 at the sampled point \(-"):
        monotone_functional(handle("x"), Modulus.omega(0.5), outer_samples=50)


def test_negative_inner_samples():
    # (x - 0.3)^3 + 0.001 < 0 for x < 0.2; the old loop read estimate 0.0 on B(0.5, 0.5)
    f = handle("(x-0.3)^3 + 0.001")
    with pytest.raises(NonnegativityError, match="< 0 at the sampled point"):
        monotone_functional(f, Modulus.omega(0.5), region=Ball((0.5,), 0.5))
    # the same cubic, outer samples kept above its root: the inner grid on (0, x) still meets it
    with pytest.raises(NonnegativityError, match="< 0 at the sampled point"):
        monotone_functional(f, Modulus.omega(0.5), 50, 16, region=Ball((0.625,), 0.375), t_min=0.26)


def test_roundoff_negatives_count_as_zeros():
    exact = monotone_functional(values_handle(lambda t: np.maximum(t - 0.5, 0.0)), Modulus.omega(0.5), 60, 16,
                                region=Ball((0.5,), 0.5))
    noisy = monotone_functional(values_handle(lambda t: np.where(t < 0.5, -1e-15, t - 0.5)), Modulus.omega(0.5),
                                60, 16, region=Ball((0.5,), 0.5))
    assert exact.estimate > 0
    assert (noisy.estimate, noisy.maximizing_x, noisy.maximizing_y, noisy.divergent) == \
        (exact.estimate, exact.maximizing_x, exact.maximizing_y, exact.divergent)
