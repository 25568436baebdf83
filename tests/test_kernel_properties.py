"""Property tests for the Bessel-backed kernel blocks: the rows of a block
can be partitioned freely, and the scalar entry point is a 1x1 view of the
block path."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pikfnn import kernels
from pikfnn.errors import UnsupportedKernelError
from pikfnn.kernels import SpaceTimePoint, eval_kernel, kernel_block
from pikfnn.registry import list_kernel_ids, parse_kernel_id


def _times(family, n, m):
    if not family.operator.is_time_dependent:
        return None, None
    return np.linspace(1.0, 2.0, n), np.zeros(m)


def _reaches_bessel(family):
    """Whether kernel_block of the family evaluates J, Y, I or K."""
    dim = family.operator.dim
    T, TAU = _times(family, 1, 1)
    with mock.patch.object(kernels, "bessel_block", wraps=kernels.bessel_block) as plain, \
            mock.patch.object(kernels, "spherical_bessel_block",
                              wraps=kernels.spherical_bessel_block) as spherical:
        try:
            kernel_block(family, np.full((1, dim), 0.3), np.zeros((1, dim)), T, TAU)
        except UnsupportedKernelError:  # T-complete and elastic families
            return False
    return plain.called or spherical.called


BESSEL_IDS = [ident for ident in list_kernel_ids() if _reaches_bessel(parse_kernel_id(ident))]


def test_catalog_has_bessel_families():
    # 2D and 3D, steady and time-dependent, all four Bessel kinds
    assert len(BESSEL_IDS) >= 20
    assert "time-radial-trefftz:heat:2d?k=1" in BESSEL_IDS
    assert "radial-trefftz:modified-helmholtz-power:3d?k=1&n=1" in BESSEL_IDS


coords = arrays(float, st.tuples(st.integers(2, 9), st.just(3)),
                elements=st.floats(-1.0, 1.0))


@pytest.mark.parametrize("ident", BESSEL_IDS)
@settings(max_examples=20, deadline=None)
@given(X=coords, S=arrays(float, st.tuples(st.integers(1, 4), st.just(3)),
                          elements=st.floats(2.0, 3.0)),
       split=st.integers(0, 9))
def test_rows_partition_freely(ident, X, S, split):
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    X, S = X[:, :dim], S[:, :dim]  # sources sit away from the field points
    n, m = len(X), len(S)
    split = min(split, n)
    T, TAU = _times(family, n, m)
    whole = kernel_block(family, X, S, T, TAU, real=False)
    if T is None:
        halves = [kernel_block(family, X[:split], S, real=False),
                  kernel_block(family, X[split:], S, real=False)]
    else:
        halves = [kernel_block(family, X[:split], S, T[:split], TAU, real=False),
                  kernel_block(family, X[split:], S, T[split:], TAU, real=False)]
    assert np.array_equal(np.concatenate(halves), whole)
    for i in range(n):
        for j in range(m):
            if T is None:
                value = eval_kernel(family, X[i], S[j])
            else:
                value = eval_kernel(family, SpaceTimePoint(X[i], T[i]),
                                    SpaceTimePoint(S[j], TAU[j]))
            assert abs(value - whole[i, j]) <= 1e-14 * abs(whole[i, j])
