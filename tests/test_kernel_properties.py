"""Property tests for the Bessel-backed and Kelvin kernel blocks: the rows
of a block can be partitioned freely, and the blocks agree with the scalar
formulas (the scalar entry points are 1x1 views of the block path)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pikfnn import kernels
from pikfnn.benchmarks import BUILTINS
from pikfnn.errors import UnsupportedKernelError
from pikfnn.geometry import CollocationSet, SourceSet
from pikfnn.kernels import SpaceTimePoint, eval_kernel, kernel_block
from pikfnn.network import assemble
from pikfnn.operators import OperatorSpec
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


def _evaluations_reach_bessel(family):
    """Whether kernel_block, kernel_gradient_block or kernel_operator_block of
    the family (and tcomplete_member_block on every member of a T-complete
    family) evaluates J, Y, I or K."""
    dim = family.operator.dim
    X = np.array([[0.3] * dim, [-0.6] * dim])
    S = np.zeros((1, dim))
    normals = np.full((2, dim), 1.0 / math.sqrt(dim))
    T, TAU = _times(family, 2, 1)
    calls = [lambda: kernel_block(family, X, S, T, TAU),
             lambda: kernels.kernel_gradient_block(family, X, S, normals, T, TAU),
             lambda: kernels.kernel_operator_block(family, X, S)]
    if family.kind == kernels.T_COMPLETE:
        calls += [lambda index=index: kernels.tcomplete_member_block(family, index, X)
                  for index in kernels.tcomplete_members(family)]
    with mock.patch.object(kernels, "bessel_block", wraps=kernels.bessel_block) as plain, \
            mock.patch.object(kernels, "spherical_bessel_block",
                              wraps=kernels.spherical_bessel_block) as spherical:
        for call in calls:
            try:
                call()
            except UnsupportedKernelError:  # no such path for this family
                pass
    return plain.called or spherical.called


@pytest.mark.parametrize("ident", list_kernel_ids())
def test_construction_loads_bessel_table_iff_kernels_use_it(ident):
    # the scipy.special import belongs to problem set-up, not to the first
    # kernel call, and a family without Bessel kernels must not pay for it
    with mock.patch.object(kernels, "load_bessel_table",
                           wraps=kernels.load_bessel_table) as load:
        family = parse_kernel_id(ident)
    assert load.called == _evaluations_reach_bessel(family)


def test_exponential_kernels_leave_bessel_table_alone():
    # example4's 3D modified-Helmholtz fundamental solution is exp(-kr)/(4 pi r)
    with mock.patch.object(kernels, "load_bessel_table") as load:
        setup = BUILTINS["example4"](seed=0)
    assert all(ident.startswith("fundamental:modified-helmholtz:3d")
               for ident in setup.kernel_ids)
    assert not load.called
    with mock.patch.object(kernels, "load_bessel_table") as load:
        BUILTINS["example9"](seed=0)
    assert load.called


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


# ---------------------------------------------------------------------------
# Kelvin blocks: the plane-strain elastic kernels

ELASTIC_IDS = [ident for ident in list_kernel_ids()
               if parse_kernel_id(ident).kind in (kernels.ELASTO_DISP, kernels.ELASTO_TRAC)]
ELASTIC_OP = OperatorSpec("elastostatic", 2, nu=0.3, shear=384615.0)


def _kelvin_reference(op, l, k, x, s, normal=None):
    """Displacement (or, with a normal, traction) kernel component (l, k),
    1-based, at one point pair, written with scalar math."""
    nu, mu = op.nu, op.shear
    dx = (x[0] - s[0], x[1] - s[1])
    r = math.sqrt(dx[0] * dx[0] + dx[1] * dx[1])
    rl, rk = dx[l - 1] / r, dx[k - 1] / r
    delta = 1.0 if l == k else 0.0
    if normal is None:
        return (1.0 / (8.0 * math.pi * mu * (1.0 - nu))) * (
            (3.0 - 4.0 * nu) * math.log(1.0 / r) * delta + rl * rk)
    rn = (dx[0] * normal[0] + dx[1] * normal[1]) / r
    nl, nk = normal[l - 1], normal[k - 1]
    return (1.0 / (4.0 * math.pi * (1.0 - nu) * r)) * (
        ((1.0 - 2.0 * nu) * delta + 2.0 * rl * rk) * rn
        + (1.0 - 2.0 * nu) * (rl * nk - rk * nl))


def _kelvin_gradient_reference(op, l, k, j, x, s):
    """d/dx_j of the Kelvin displacement component (l, k), 1-based."""
    nu, mu = op.nu, op.shear
    dx = (x[0] - s[0], x[1] - s[1])
    r = math.sqrt(dx[0] * dx[0] + dx[1] * dx[1])
    rl, rk, rj = dx[l - 1] / r, dx[k - 1] / r, dx[j - 1] / r
    delta = 1.0 if l == k else 0.0
    dlj = 1.0 if l == j else 0.0
    dkj = 1.0 if k == j else 0.0
    return (1.0 / (8.0 * math.pi * mu * (1.0 - nu))) * (
        -(3.0 - 4.0 * nu) * delta * rj / r + (dlj * rk + dkj * rl - 2.0 * rl * rk * rj) / r)


def _close(block, reference):
    # 1e-14 relative to the largest component of each point pair's tensor
    scale = np.abs(reference).reshape(reference.shape[0], reference.shape[1], -1).max(axis=2)
    scale = scale.reshape(scale.shape + (1,) * (reference.ndim - 2))
    return np.all(np.abs(block - reference) <= 1e-14 * scale)


points2 = arrays(float, st.tuples(st.integers(1, 6), st.just(2)),
                 elements=st.floats(-1.0, 1.0))
sources2 = arrays(float, st.tuples(st.integers(1, 4), st.just(2)),
                  elements=st.floats(2.0, 3.0))
angles = st.lists(st.floats(0.0, 2.0 * math.pi), min_size=6, max_size=6)


@settings(max_examples=50, deadline=None)
@given(X=points2, S=sources2, theta=angles)
def test_elastic_blocks_match_scalar_formulas(X, S, theta):
    n, m = len(X), len(S)
    normals = np.column_stack([np.cos(theta[:n]), np.sin(theta[:n])])
    U = kernels.elastic_block(ELASTIC_OP, X, S)
    T = kernels.elastic_block(ELASTIC_OP, X, S, normals=normals)
    G = kernels.elastic_gradient_block(ELASTIC_OP, X, S)
    assert U.shape == T.shape == (n, m, 2, 2) and G.shape == (n, m, 2, 2, 2)
    ref_u, ref_t, ref_g = np.empty(U.shape), np.empty(T.shape), np.empty(G.shape)
    for a in range(n):
        for b in range(m):
            for l in (1, 2):
                for k in (1, 2):
                    ref_u[a, b, l - 1, k - 1] = _kelvin_reference(ELASTIC_OP, l, k, X[a], S[b])
                    ref_t[a, b, l - 1, k - 1] = _kelvin_reference(
                        ELASTIC_OP, l, k, X[a], S[b], normal=normals[a])
                    for j in (1, 2):
                        ref_g[a, b, l - 1, k - 1, j - 1] = _kelvin_gradient_reference(
                            ELASTIC_OP, l, k, j, X[a], S[b])
    assert _close(U, ref_u)
    assert _close(T, ref_t)
    assert _close(G, ref_g)


@pytest.mark.parametrize("ident", ELASTIC_IDS)
@settings(max_examples=30, deadline=None)
@given(X=arrays(float, st.tuples(st.integers(2, 9), st.just(2)),
                elements=st.floats(-1.0, 1.0)),
       S=sources2, theta=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=9, max_size=9),
       kinds=st.lists(st.sampled_from("DN"), min_size=9, max_size=9),
       comps=st.lists(st.sampled_from([1, 2]), min_size=9, max_size=9),
       split=st.integers(1, 8))
def test_elastic_rows_partition_freely(ident, X, S, theta, kinds, comps, split):
    family = parse_kernel_id(ident)
    n = len(X)
    split = min(split, n - 1)
    normals = np.column_stack([np.cos(theta[:n]), np.sin(theta[:n])])
    kinds = np.asarray(kinds[:n])
    normals[kinds == "D"] = np.nan

    def rows(sl):
        return CollocationSet(X[sl], kinds[sl], np.zeros(len(X[sl])), normals=normals[sl],
                              components=comps[:n][sl])

    sources = SourceSet(S)
    whole = assemble([family], sources, rows(slice(None))).entries
    halves = [assemble([family], sources, rows(slice(None, split))).entries,
              assemble([family], sources, rows(slice(split, None))).entries]
    assert whole.shape == (n, 2 * len(S))
    assert np.array_equal(np.concatenate(halves), whole)
