"""Property tests for the Bessel-backed, Kelvin and time kernel blocks: the
rows of a block can be partitioned freely, the blocks agree with the scalar
formulas (the scalar entry points are 1x1 views of the block path), every
block that sees only the pair geometry is bit-identical under reflections
(the Kelvin blocks up to a signed permutation of their components, the
T-complete members up to a signed member), and the unmasked time kernels
equal their masked gather/scatter form bit for bit."""

import contextlib
import math
import os
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pikfnn import kernels
from pikfnn.errors import UnsupportedKernelError
from pikfnn.geometry import CollocationSet, SourceSet, pairwise_sq_dist
from pikfnn.kernels import SpaceTimePoint, eval_kernel, kernel_block
from pikfnn.network import assemble
from pikfnn.operators import OperatorSpec, structural_fn
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


@contextlib.contextmanager
def _scipy_unimportable():
    """Any import of scipy or scipy.special inside raises ImportError; the
    modules an earlier test imported are put back afterwards."""
    names = ("scipy", "scipy.special")
    saved = {name: sys.modules[name] for name in names if name in sys.modules}
    sys.modules.update(dict.fromkeys(names))
    try:
        yield
    finally:
        for name in names:
            del sys.modules[name]
        sys.modules.update(saved)


def _evaluate_everything(family):
    """kernel_block, kernel_gradient_block and governing_applied_block of the
    family, every member value and gradient of a T-complete family, and the
    Kelvin blocks of an elastic one; returns how many of them ran."""
    dim = family.operator.dim
    X = np.array([[0.3] * dim, [-0.6] * dim, [1.7] * dim, [0.0] * dim])
    S = np.full((1, dim), 2.5)
    normals = np.full((4, dim), 1.0 / math.sqrt(dim))
    T, TAU = _times(family, 4, 1)
    calls = [lambda: kernel_block(family, X, S, T, TAU),
             lambda: kernels.kernel_gradient_block(family, X, S, normals, T, TAU),
             lambda: kernels.governing_applied_block(family, family.operator, X, S)]
    if family.kind in (kernels.ELASTO_DISP, kernels.ELASTO_TRAC):
        calls += [lambda: kernels.elastic_traction_block(family.operator, X, S, normals),
                  lambda: kernels.elastic_gradient_block(family.operator, X, S)]
    if family.kind == kernels.T_COMPLETE:
        for index in kernels.tcomplete_members(family):
            calls += [lambda index=index: kernels.tcomplete_member_block(family, index, X),
                      lambda index=index: kernels.tcomplete_member_gradient_block(
                          family, index, X)]
    evaluated = 0
    for call in calls:
        try:
            assert np.all(np.isfinite(call()))
            evaluated += 1
        except UnsupportedKernelError:  # no such path for this family
            pass
    return evaluated


# power pieces at n = 0-3 and T-complete families of degree 0-3, in 2D and
# 3D: the Bessel orders they evaluate run from -1 to 6, integer and spherical
_ORDER_VARIANTS = [
    f"{cls}:{kind}:{dim}d?k=1&n={n}"
    for cls, kind, dims in (
        ("fundamental", "helmholtz-power", (2, 3)),
        ("fundamental", "modified-helmholtz-power", (2, 3)),
        ("fundamental-real", "helmholtz-power", (2,)),
        ("radial-trefftz", "helmholtz-power", (2, 3)),
        ("radial-trefftz", "modified-helmholtz-power", (2, 3)))
    for dim in dims for n in range(4)] + [
    f"t-complete:{kind}:{dim}d?k=1&m={m}"
    for kind in ("helmholtz", "modified-helmholtz") for dim in (2, 3) for m in range(4)] + [
    f"t-complete:{kind}:2d?k=1&n={n}&m={m}"
    for kind in ("helmholtz-power", "modified-helmholtz-power")
    for n in (1, 2) for m in range(4)]


@pytest.mark.parametrize("ident", list(dict.fromkeys(list_kernel_ids() + _ORDER_VARIANTS)))
def test_evaluations_load_no_scipy(ident):
    # every kernel, Bessel functions of any order included, is evaluated in
    # numpy: construction and every evaluation path run with scipy
    # unimportable
    with _scipy_unimportable():
        family = parse_kernel_id(ident)
        assert _evaluate_everything(family) >= 1


def test_package_source_never_names_scipy():
    # no import of scipy, lazy or not, is left anywhere in the package
    package = os.path.dirname(kernels.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                assert "scipy" not in fh.read(), name


coords = arrays(float, st.tuples(st.integers(2, 9), st.just(3)),
                elements=st.floats(-1.0, 1.0))


def _governing(family):
    """The governing operator of a family's interior-residual rows in these
    tests: a Helmholtz operator for a 2D or 3D steady family, so the rows
    take the closed-form Laplacian, and the family's own operator otherwise."""
    op = family.operator
    if op.is_time_dependent or op.dim == 4:  # 4D has the Laplace operator only
        return op
    return OperatorSpec("helmholtz", op.dim, k=1.3)


def _rows_of(T, TAU, rows):
    """The time arguments of a block over the given rows (none if steady)."""
    return () if T is None else (T[rows], TAU)


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
    normals = (X + 2.0) / np.linalg.norm(X + 2.0, axis=1)[:, None]
    blocks = [lambda rows: kernel_block(family, X[rows], S, *_rows_of(T, TAU, rows))]
    if dim == 3:
        blocks += [lambda rows: kernels.kernel_gradient_block(
                       family, X[rows], S, normals[rows], *_rows_of(T, TAU, rows)),
                   lambda rows: kernels.governing_applied_block(
                       family, _governing(family), X[rows], S, *_rows_of(T, TAU, rows))]
    for block in blocks:
        whole = block(slice(None))
        halves = [block(slice(None, split)), block(slice(split, None))]
        assert np.array_equal(np.concatenate(halves), whole)
    whole = blocks[0](slice(None))
    for i in range(n):
        for j in range(m):
            if T is None:
                value = eval_kernel(family, X[i], S[j])
            else:
                value = eval_kernel(family, SpaceTimePoint(X[i], T[i]),
                                    SpaceTimePoint(S[j], TAU[j]))
            assert value == whole[i, j]


def test_eval_kernel_is_kernel_block_on_every_catalog_id():
    # the scalar entry point is a 1x1 view of the block path, bit for bit;
    # T-complete and elastic families have no scalar kernel value
    rng = np.random.default_rng(9)
    for ident in list_kernel_ids():
        family = parse_kernel_id(ident)
        if family.kind in (kernels.T_COMPLETE, kernels.ELASTO_DISP, kernels.ELASTO_TRAC):
            continue
        dim = family.operator.dim
        X, S = rng.uniform(-1.0, 1.0, (5, dim)), rng.uniform(2.0, 3.0, (3, dim))
        T, TAU = _times(family, 5, 3)
        block = kernel_block(family, X, S, T, TAU)
        for i, j in np.ndindex(block.shape):
            x, s = (X[i], S[j]) if T is None else (SpaceTimePoint(X[i], T[i]),
                                                   SpaceTimePoint(S[j], TAU[j]))
            assert eval_kernel(family, x, s) == block[i, j], ident


@pytest.mark.parametrize("ident,form", [
    ("fundamental:laplace:3d", lambda r: 1.0 / (4.0 * math.pi * r)),
    ("fundamental:laplace:4d", lambda r: 1.0 / (4.0 * math.pi ** 2 * r * r))])
def test_steady_blocks_read_the_geometry_r2(ident, form):
    # a steady kernel takes r^2 from geometry's one rule, as the time kernels
    # do; coordinates of very different sizes make the order of the sum show
    rng = np.random.default_rng(3)
    dim = parse_kernel_id(ident).operator.dim
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=dim)
    X, S = rng.standard_normal((40, dim)) * scales, rng.standard_normal((30, dim)) * scales
    block = kernel_block(parse_kernel_id(ident), X, S)
    assert _bitwise_equal(block, form(np.sqrt(pairwise_sq_dist(X, S))))


def _reflections(family):
    """The coordinate maps that leave the family's kernel unchanged: negating
    one coordinate, unless a convection-diffusion drift e^{-v . dx / 2D}
    reads the direction of dx, and in 2D the swap of the two axes, unless the
    kernel is a harmonic sum (e^{-c(a^2 - b^2)} cos(2cab) is not symmetric in
    a and b) or the drift velocity's components differ."""
    op = family.operator
    maps = []
    if not any(op.velocity):
        for axis in range(op.dim):
            flip = np.ones(op.dim)
            flip[axis] = -1.0
            maps.append(lambda a, flip=flip: a * flip)
    if op.dim == 2 and family.kind != kernels.HARMONIC and len(set(op.velocity)) <= 1:
        maps.append(lambda a: a[:, ::-1])
    return maps


# every family whose kernel sees a pair through its geometry alone (all but
# the T-complete and elastic ones) and has a reflection; the 3D drift
# families have none
PAIR_IDS = [ident for ident in list_kernel_ids()
            if parse_kernel_id(ident).kind not in (
                kernels.T_COMPLETE, kernels.ELASTO_DISP, kernels.ELASTO_TRAC)
            and _reflections(parse_kernel_id(ident))]


def _pair_blocks(family, X, S, normals, T, TAU):
    """Every block of a family whose entries see only the pair geometry."""
    out = [kernel_block(family, X, S, T, TAU),
           kernels.kernel_time_derivative_block(family, X, S, T, TAU),
           kernels.governing_applied_block(family, _governing(family), X, S, T, TAU)]
    if family.operator.kind != "structural-diffusion":  # which has no gradient
        out.append(kernels.kernel_gradient_block(family, X, S, normals, T, TAU))
    return out


@pytest.mark.parametrize("ident", PAIR_IDS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_pair_blocks_are_bitwise_invariant_under_reflection(ident, seed):
    # negating one coordinate of the points, sources and normals, and in 2D
    # swapping the two axes, leaves every block bit for bit as it was: r^2
    # and every sum over coordinates are added in index order, and each term
    # is the same product up to sign
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    rng = np.random.default_rng(seed)
    X, S = rng.uniform(-1.0, 1.0, (6, dim)), rng.uniform(-3.0, 3.0, (4, dim))
    normals = rng.normal(size=X.shape)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    T, TAU = _times(family, 6, 4)
    base = _pair_blocks(family, X, S, normals, T, TAU)
    for f in _reflections(family):
        moved = _pair_blocks(family, f(X), f(S), f(normals), T, TAU)
        assert all(_bitwise_equal(a, b) for a, b in zip(base, moved))


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
    T = -kernels.elastic_traction_block(ELASTIC_OP, X, S, normals)
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


def _kelvin_blocks(X, S, normals):
    return (kernels.elastic_block(ELASTIC_OP, X, S),
            kernels.elastic_gradient_block(ELASTIC_OP, X, S),
            kernels.elastic_traction_block(ELASTIC_OP, X, S, normals))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_kelvin_blocks_map_exactly_under_reflection(seed):
    # moving points, sources and normals together by x_a -> -x_a changes
    # each block by the signs s_l s_k (s_l s_k s_j for the gradient), and
    # the axis swap permutes its indices, bit for bit: the pair geometry
    # and each sum over the two coordinates are added in index order, and a
    # two-term sum commutes
    rng = np.random.default_rng(seed)
    X, S = rng.uniform(-1.0, 1.0, (6, 2)), rng.uniform(-3.0, 3.0, (4, 2))
    normals = rng.normal(size=X.shape)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    base = _kelvin_blocks(X, S, normals)
    for flip in ([-1.0, 1.0], [1.0, -1.0]):
        s = np.array(flip)
        lk = np.multiply.outer(s, s)
        signs = (lk, np.multiply.outer(lk, s), lk)
        moved = _kelvin_blocks(X * s, S * s, normals * s)
        assert all(_bitwise_equal(b * sign, m) for b, sign, m in zip(base, signs, moved))
    swapped = _kelvin_blocks(X[:, ::-1], S[:, ::-1], normals[:, ::-1])
    permuted = (base[0][..., ::-1, ::-1], base[1][..., ::-1, ::-1, ::-1],
                base[2][..., ::-1, ::-1])
    assert all(_bitwise_equal(p, m) for p, m in zip(permuted, swapped))


# ---------------------------------------------------------------------------
# T-complete members: R(rho) cos(m theta) or sin(m theta) in 2D, times
# P_v^m(cos phi) in 3D

TCOMPLETE_IDS = [ident.replace("m=2", "m=3") for ident in list_kernel_ids()
                 if parse_kernel_id(ident).kind == kernels.T_COMPLETE]


def _tcomplete_image(index, axis):
    """(sign, parity) with member (v, m, parity)(F x) = sign * member (v, m,
    parity')(x), F negating axis 0, 1 or 2 or, for "swap", exchanging the 2D
    axes: x1 -> -x1 sends theta to pi - theta, x2 -> -x2 sends it to
    -theta, the swap to pi/2 - theta (cos and sin trade places at odd m),
    and x3 -> -x3 sends cos phi to -cos phi, so P_v^m takes (-1)^(v + m)."""
    v, m, parity = index
    odd = 1 if parity == "sin" else 0
    if axis == 0:
        return (-1) ** (m + odd), parity
    if axis == 1:
        return (-1) ** odd, parity
    if axis == 2:
        return (-1) ** (v + m), parity
    if m % 2 == 0:
        return (-1) ** (m // 2 + odd), parity
    return (-1) ** (m // 2), "cos" if odd else "sin"


@pytest.mark.parametrize("ident", TCOMPLETE_IDS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_tcomplete_members_map_to_signed_members_under_reflection(ident, seed):
    # value and gradient blocks at F X against +-1 times a member of the
    # same (v, m) at X (its gradient times F).  x2 -> -x2 and x3 -> -x3 keep
    # rho, cos phi and sin phi and negate theta or cos phi exactly, so they
    # map bit for bit; x1 -> -x1 and the swap round theta, which moved the
    # blocks by at most 6.0e-15 of their largest entry over 40 seeds at m = 3
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, (8, dim))
    for axis in list(range(dim)) + (["swap"] if dim == 2 else []):
        F = np.eye(dim)[::-1] if axis == "swap" else np.diag(
            np.where(np.arange(dim) == axis, -1.0, 1.0))
        for index in kernels.tcomplete_members(family):
            sign, parity = _tcomplete_image(index, axis)
            image = index[:2] + (parity,)
            moved = (kernels.tcomplete_member_block(family, index, X @ F),
                     kernels.tcomplete_member_gradient_block(family, index, X @ F))
            expected = (sign * kernels.tcomplete_member_block(family, image, X),
                        sign * kernels.tcomplete_member_gradient_block(family, image, X) @ F)
            for got, want in zip(moved, expected):
                if axis in (1, 2):
                    assert np.array_equal(got, want), (axis, index)
                else:
                    assert np.abs(got - want).max() <= 5e-14 * np.abs(want).max(), (axis, index)


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


# ---------------------------------------------------------------------------
# time kernels: np.where form against the masked gather/scatter form it replaced,
# on squared distances summed coordinate by coordinate in index order (the
# order geometry.pairwise_sq_dist uses)

def _ordered_sq_dist(x, s):
    d = x - s
    q = d[..., 0] * d[..., 0]
    for i in range(1, d.shape[-1]):
        q = q + d[..., i] * d[..., i]
    return q


def _masked_heat_like(q, dtg, kdiff, dim):
    out = np.zeros(np.broadcast_shapes(np.shape(q), np.shape(dtg)))
    active = dtg > 0.0
    if not np.any(active):
        return out
    q_a = np.broadcast_to(q, out.shape)[active]
    dt_a = np.broadcast_to(dtg, out.shape)[active]
    denom = 4.0 * kdiff * dt_a
    vals = np.exp(-q_a / denom) / (math.pi * denom) ** (0.5 * dim)
    out[active] = vals
    return out


def _masked_heat_time_derivative(op, X, S, T, TAU):
    q = _ordered_sq_dist(X[:, None, :], S[None, :, :])
    dt = T[:, None] - TAU[None, :]
    G = _masked_heat_like(q, dt, op.k, op.dim)
    out = np.zeros_like(G)
    active = dt > 0.0
    out[active] = G[active] * (q[active] / (4.0 * op.k * dt[active] ** 2)
                               - 0.5 * op.dim / dt[active])
    return out


def _masked_structural(op, x, t, s, tau):
    gfun, _ = structural_fn(op.structural_t, op.alpha)
    ffun, _ = structural_fn(op.structural_x, op.beta)
    q = _ordered_sq_dist(ffun(x), ffun(s))
    dtg = np.broadcast_to(gfun(t) - gfun(tau), q.shape)
    return _masked_heat_like(q, dtg, op.diffusion, op.dim)


def _masked_wave_and_trefftz(family, X, S, T, TAU):
    op, dim = family.operator, family.operator.dim
    r2 = _ordered_sq_dist(X[:, None, :], S[None, :, :])
    r, dt = np.sqrt(r2), T[:, None] - TAU[None, :]
    out = np.zeros(r.shape)
    if family.kind == kernels.TIME_FUNDAMENTAL:  # wave
        active = op.c1 * dt > r
        with np.errstate(invalid="ignore"):
            vals = (1.0 / (2.0 * math.pi * op.c1 * np.sqrt((op.c1 * dt) ** 2 - r2))
                    if dim == 2 else np.broadcast_to(1.0 / (4.0 * math.pi * r), r.shape))
        out[active] = vals[active]
        return out
    active = dt > 0.0
    dta, ra = dt[active], r[active]
    radial = kernels.bessel_block("j", 0, ra) if dim == 2 else np.sinc(ra / math.pi)
    out[active] = (np.exp(-op.k * dta) if op.kind == "heat" else
                   np.cos(op.c1 * dta) + np.sin(op.c1 * dta) / op.c1) * radial
    return out


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


def _space_time_block(seed, sign, dim, n=7, m=5):
    """Points in [0.5, 2.5]^dim and positive times whose differences
    T - TAU are of one sign pattern; the mixed and non-positive patterns
    include exact zeros (t = tau)."""
    rng = np.random.default_rng(seed)
    X = 0.5 + 2.0 * rng.random((n, dim))
    S = 0.5 + 2.0 * rng.random((m, dim))
    TAU = 1.0 + rng.random(m)
    T = {"mixed": 1.0 + rng.random(n),
         "nonpositive": 1.0 - rng.random(n),
         "positive": 2.0 + rng.random(n)}[sign]
    if sign != "positive":
        T[0] = TAU.min()
    return X, S, T, TAU


blocks = dict(seed=st.integers(0, 2 ** 32 - 1),
              sign=st.sampled_from(["mixed", "nonpositive", "positive"]),
              dim=st.sampled_from([2, 3]))


@settings(max_examples=40, deadline=None)
@given(**blocks)
def test_heat_blocks_match_masked_form_bitwise(seed, sign, dim):
    X, S, T, TAU = _space_time_block(seed, sign, dim)
    op = OperatorSpec("heat", dim, k=0.37)
    family = kernels.KernelFamily("time-fundamental", op)
    dt = T[:, None] - TAU[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = kernel_block(family, X, S, T, TAU)
        rate = kernels.kernel_time_derivative_block(family, X, S, T, TAU)
    reference = _masked_heat_like(_ordered_sq_dist(X[:, None, :], S[None, :, :]), dt, op.k, dim)
    assert _bitwise_equal(values, reference)
    assert _bitwise_equal(rate, _masked_heat_time_derivative(op, X, S, T, TAU))
    if sign == "nonpositive":
        assert not values.any() and not rate.any()


@pytest.mark.parametrize("ident", ["time-fundamental:wave:2d?c1=1.3",
                                   "time-fundamental:wave:3d?c1=1.3",
                                   "time-radial-trefftz:heat:2d?k=0.7",
                                   "time-radial-trefftz:heat:3d?k=0.7",
                                   "time-radial-trefftz:wave:2d?c1=1.3",
                                   "time-radial-trefftz:wave:3d?c1=1.3"])
@settings(max_examples=20, deadline=None)
@given(seed=blocks["seed"], sign=blocks["sign"])
def test_wave_and_trefftz_blocks_match_masked_form_bitwise(ident, seed, sign):
    family = parse_kernel_id(ident)
    X, S, T, TAU = _space_time_block(seed, sign, family.operator.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = kernel_block(family, X, S, T, TAU)
    assert _bitwise_equal(values, _masked_wave_and_trefftz(family, X, S, T, TAU))


@settings(max_examples=40, deadline=None)
@given(seed=blocks["seed"], sign=blocks["sign"],
       maps=st.sampled_from([("power", "power"), ("identity", "exp"), ("power", "log")]))
def test_structural_block_matches_masked_form_bitwise(seed, sign, maps):
    X, S, T, TAU = _space_time_block(seed, sign, 2)
    op = OperatorSpec("structural-diffusion", 2, diffusion=0.8, alpha=0.7,
                      beta=1.3, structural_t=maps[0], structural_x=maps[1])
    family = kernels.KernelFamily("time-fundamental", op)
    # the maps act on the point sets; the reference applies them to every pair
    x, t, s, tau = X[:, None, :], T[:, None], S[None, :, :], TAU[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = kernels._time_form(family, *kernels._time_pairs(family, X, S, T, TAU),
                                   kernels.VALUE)
        values = kernel_block(family, X, S, T, TAU)
    reference = _masked_structural(op, x, t, s, tau)
    assert _bitwise_equal(block, reference)
    assert _bitwise_equal(values, reference)


def _peak_bytes(fn):
    """Peak of the memory fn allocates through Python and numpy, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("block", ["values", "time-derivative"])
def test_heat_blocks_allocate_at_most_five_block_sizes(block):
    # a (300, 400) 3D heat block builds no (n, m, dim) tensor and no chain of
    # full-size temporaries: its peak stays within 5 blocks of float64
    X, S, T, TAU = _space_time_block(7, "mixed", 3, n=300, m=400)
    family = kernels.KernelFamily("time-fundamental", OperatorSpec("heat", 3, k=0.37))
    fn = kernel_block if block == "values" else kernels.kernel_time_derivative_block
    assert _peak_bytes(lambda: fn(family, X, S, T, TAU)) <= 5 * 300 * 400 * 8
