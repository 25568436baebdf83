"""Tests for the batched finite-difference oracle: row partitions, its
independence from the analytic operator code (and theirs from it), its
sensitivity to a perturbed kernel, and the T-complete member blocks it
drives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from pikfnn import kernels, network, operators, runner
from pikfnn.geometry import CollocationSet, SourceSet
from pikfnn.kernels import (
    eval_tcomplete_member,
    kernel_block,
    tcomplete_member_block,
    tcomplete_members,
)
from pikfnn.operators import (
    OperatorSpec,
    steady_operator_fd_block,
    time_operator_fd_block,
)
from pikfnn.network import assemble
from pikfnn.registry import list_kernel_ids, parse_kernel_id
from pikfnn.runner import build_verify_entries, verify_kernels
from pikfnn.special_functions import assoc_legendre, bessel_i, bessel_j

ORACLE_IDS = [ident for ident in list_kernel_ids()
              if parse_kernel_id(ident).kind not in (kernels.ELASTO_DISP, kernels.ELASTO_TRAC)]


def _case(family, radii, directions, times):
    """(fn, X, T) as the verify-kernels checks build them; T is None for
    steady operators.  T-complete cases use the family's last member."""
    op = family.operator
    dirs = directions[:, :op.dim] / np.linalg.norm(directions[:, :op.dim], axis=1)[:, None]
    if family.kind == kernels.T_COMPLETE:
        index = tcomplete_members(family)[-1]
        return (lambda P: tcomplete_member_block(family, index, P)), radii[:, None] * dirs, None
    if not op.is_time_dependent:
        S = np.zeros((1, op.dim))
        return (lambda P: np.real(kernel_block(family, P, S)[:, 0])), radii[:, None] * dirs, None
    positive = op.kind == operators.STRUCTURAL_DIFFUSION
    s = np.full((1, op.dim), 3.0 if positive else 0.0)
    tau = [0.1 if positive else (0.0 if op.kind == operators.WAVE else -1.5)]
    T = times + radii / op.c1 + 1.0 if op.kind == operators.WAVE else times + positive
    return (lambda P, Tp: kernel_block(family, P, s, Tp, tau)[:, 0]), \
        s + radii[:, None] * dirs, T


def _oracle(family, fn, X, T):
    if T is None:
        return steady_operator_fd_block(family.operator, fn, X)
    return time_operator_fd_block(family.operator, fn, X, T)


@pytest.mark.parametrize("ident", ORACLE_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_block_oracle_rows_partition_freely(ident, data):
    n = data.draw(st.integers(1, 6), label="n")
    split = data.draw(st.integers(0, n), label="split")
    unit = st.floats(0.5, 2.0)
    radii = np.array(data.draw(st.lists(unit, min_size=n, max_size=n), label="radii"))
    times = np.array(data.draw(st.lists(unit, min_size=n, max_size=n), label="times"))
    direction = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda v: math.hypot(v[0], v[1]) > 0.1)
    directions = np.array(data.draw(st.lists(direction, min_size=n, max_size=n),
                                    label="directions"))
    family = parse_kernel_id(ident)
    fn, X, T = _case(family, radii, directions, times)
    whole = _oracle(family, fn, X, T)
    parts = [_oracle(family, fn, X[rows], None if T is None else T[rows])
             for rows in (slice(None, split), slice(split, None))]
    assert np.array_equal(np.concatenate(parts), whole)


def _sq(P):
    return np.einsum("ni,ni->n", P, P)


# (operator, fn, exact result): 5-point differences are exact on polynomials
# of degree <= 5, so these agree up to the stencil's roundoff, about
# eps * sum|weights| * |f|: at most 1e-7 relative for the steps fd_step picks.
CLOSED_FORMS = [
    (OperatorSpec("helmholtz", 3, k=2.0), _sq, lambda X, T: 6.0 + 4.0 * _sq(X)),
    (OperatorSpec("convection-diffusion", 2, k=0.5, diffusion=1.5, velocity=(0.3, -0.2)),
     lambda P: P[:, 0] ** 2 + P[:, 0] * P[:, 1],
     lambda X, T: 3.0 + 0.3 * (2.0 * X[:, 0] + X[:, 1]) - 0.2 * X[:, 0]
     - 0.5 * (X[:, 0] ** 2 + X[:, 0] * X[:, 1])),
    (OperatorSpec("biharmonic", 3), lambda P: _sq(P) ** 2, lambda X, T: 120.0 + 0.0 * T),
    (OperatorSpec("helmholtz-power", 2, k=1.5, power_n=1), _sq,
     lambda X, T: 8.0 * 1.5 ** 2 + 1.5 ** 4 * _sq(X)),
    (OperatorSpec("heat", 2, k=0.5), lambda P, T: T * T + _sq(P), lambda X, T: 2.0 * T - 2.0),
    (OperatorSpec("wave", 3, c1=2.0), lambda P, T: T ** 3 + _sq(P),
     lambda X, T: 6.0 * T - 24.0),
    # F(x) = x^1.5, G(t) = t^0.5: (1/F') d/dx ((1/F') d/dx F^2) = 2, u_t/G' = 1
    (OperatorSpec("structural-diffusion", 2, diffusion=0.7, alpha=0.5, beta=1.5,
                  structural_t="power", structural_x="power"),
     lambda P, T: P[:, 0] ** 3 + np.sqrt(T), lambda X, T: 1.0 - 1.4 + 0.0 * T),
]


@pytest.mark.parametrize("op,fn,exact", CLOSED_FORMS, ids=[c[0].kind for c in CLOSED_FORMS])
def test_block_oracle_matches_closed_forms(op, fn, exact):
    X = np.array([[0.3, 0.4, 1.2], [2.0, 1.0, 0.5], [0.7, 1.3, 0.9]])[:, :op.dim]
    T = np.array([1.0, 2.0, 1.5])
    if op.is_time_dependent:
        res = time_operator_fd_block(op, fn, X, T)
    else:
        res = steady_operator_fd_block(op, fn, X)
    expect = exact(X, T)
    assert np.all(np.abs(res - expect) <= 1e-6 * np.maximum(np.abs(expect), 1.0)), res - expect


# The scalar loop the block oracle replaced, for operators applied once.
# There it does the same arithmetic on the same coordinates, so the block
# oracle must reproduce it bit for bit.

def _loop_d1(fn, x, i, h):
    xp = list(x)
    vals = []
    for off in (-2, -1, 1, 2):
        xp[i] = x[i] + off * h
        vals.append(fn(xp))
    return (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)


def _loop_d2(fn, x, i, h):
    xp = list(x)
    vals = []
    for off in (-2, -1, 0, 1, 2):
        xp[i] = x[i] + off * h
        vals.append(fn(xp))
    return (-vals[0] + 16.0 * vals[1] - 30.0 * vals[2] + 16.0 * vals[3] - vals[4]) / (12.0 * h * h)


def _loop_laplacian(fn, x, h):
    return sum(_loop_d2(fn, x, i, h) for i in range(len(x)))


def _loop_oracle(op, fn, x, t):
    x = [float(v) for v in x]
    h = 1e-4 * max(1.0, math.sqrt(sum(v * v for v in x)))
    if t is None:
        lap = _loop_laplacian(fn, x, h)
        if op.kind == "laplace":
            return lap
        if op.kind == "helmholtz":
            return lap + op.k ** 2 * fn(x)
        if op.kind == "modified-helmholtz":
            return lap - op.k ** 2 * fn(x)
        conv = sum(op.velocity[i] * _loop_d1(fn, x, i, h) for i in range(len(x)))
        return op.diffusion * lap + conv - op.k * fn(x)
    ht = 1e-4 * max(1.0, abs(t))
    lap = _loop_laplacian(lambda pt: fn(pt, t), x, h)
    ft = [fn(x, t + k * ht) for k in (-2, -1, 0, 1, 2)]
    if op.kind == "heat":
        return (ft[0] - 8.0 * ft[1] + 8.0 * ft[3] - ft[4]) / (12.0 * ht) - op.k * lap
    utt = (-ft[0] + 16.0 * ft[1] - 30.0 * ft[2] + 16.0 * ft[3] - ft[4]) / (12.0 * ht * ht)
    return utt - op.c1 ** 2 * lap


SINGLE_IDS = [ident for ident in ORACLE_IDS if parse_kernel_id(ident).operator.kind in (
    "laplace", "helmholtz", "modified-helmholtz", "convection-diffusion", "heat", "wave")]


@pytest.mark.parametrize("ident", SINGLE_IDS)
def test_block_oracle_reproduces_scalar_loop(ident):
    rng = np.random.default_rng(4)
    family = parse_kernel_id(ident)
    fn, X, T = _case(family, rng.uniform(0.5, 2.0, 6), rng.normal(size=(6, 4)),
                     rng.uniform(0.5, 2.0, 6))
    block = _oracle(family, fn, X, T)
    if T is None:
        loop = [_loop_oracle(family.operator, lambda pt: fn(np.asarray([pt]))[0], x, None)
                for x in X]
    else:
        loop = [_loop_oracle(family.operator,
                             lambda pt, tv: fn(np.asarray([pt]), np.asarray([tv]))[0], x, t)
                for x, t in zip(X, T)]
    assert block.tolist() == loop


def test_block_oracle_merges_coincident_points():
    # 3D biharmonic: the three Richardson steps of the nested stencil read
    # 169 distinct lattice points per row, not 3 * 16 * 16 = 768
    sizes = []

    def fn(P):
        sizes.append(len(P))
        return np.ones(len(P))

    steady_operator_fd_block(OperatorSpec("biharmonic", 3), fn, np.ones((4, 3)))
    assert sizes == [4 * 169]


def test_nested_levels_apply_once_per_lattice_point(monkeypatch):
    # 3D biharmonic: per Richardson step, the inner Laplacian is one batched
    # application at the 13 distinct sites the outer one reads (the origin
    # once, +-1 and +-2 along each axis), and the outer one is applied at
    # the origin: 3 * (1 + 13) site applications
    op = OperatorSpec("biharmonic", 3)
    X = np.ones((4, 3))
    steady_operator_fd_block(op, lambda P: np.ones(len(P)), X)  # trace the lattice
    _, (moves, gathers) = operators._lattice(op, 3)
    for inner, outer in gathers:
        assert len(moves) == 13 and sorted(outer.ravel()) == list(range(13))
    applied = []
    laplacian = operators._fd_laplacian

    def counted(u, o, h, dim):
        out = laplacian(u, o, h, dim)
        applied.append(out.shape)
        return out

    monkeypatch.setattr(operators, "_fd_laplacian", counted)
    steady_operator_fd_block(op, lambda P: np.ones(len(P)), X)
    assert applied == [(13, 4), (1, 4)] * 3
    assert sum(rows for rows, _ in applied) == 3 * (1 + 13)


LATTICE_CASES = [
    (OperatorSpec("helmholtz", 2, k=1.0), lambda P: np.cos(P[:, 0]) * np.exp(P[:, 1])),
    (OperatorSpec("helmholtz", 2, k=2.5), lambda P: np.cos(P[:, 0]) * np.exp(P[:, 1])),
    (OperatorSpec("biharmonic", 3), lambda P: np.exp(-_sq(P))),
    (OperatorSpec("poly-laplace", 2, power_n=2), lambda P: np.sin(P[:, 0] + 2.0 * P[:, 1])),
    (OperatorSpec("wave", 2, c1=1.5), lambda P, T: np.sin(P[:, 0] - 1.5 * T) + _sq(P) * T),
]


def test_lattice_cache_cold_and_warm_agree():
    X = np.array([[0.3, 0.4, 1.2], [2.0, 1.0, 0.5], [0.7, 1.3, 0.9]])
    T = np.array([1.0, 2.0, 1.5])

    def run(op, fn):
        if op.is_time_dependent:
            return time_operator_fd_block(op, fn, X[:, :op.dim], T)
        return steady_operator_fd_block(op, fn, X[:, :op.dim])

    operators._lattice.cache_clear()
    cold = [run(op, fn) for op, fn in LATTICE_CASES]
    warm = [run(op, fn) for op, fn in LATTICE_CASES]
    assert operators._lattice.cache_info().misses == len(LATTICE_CASES)
    assert operators._lattice.cache_info().hits == len(LATTICE_CASES)
    for a, b in zip(cold, warm):
        assert a.tolist() == b.tolist()


def _tcomplete_loop(family, n_points, seed):
    """The T-complete check as one oracle call per member, on the draws
    verify-kernels makes."""
    op = family.operator
    worst = 0.0
    members = tcomplete_members(family)
    per = max(2, n_points // len(members))
    d, r = runner._sample_shell(np.random.default_rng(seed), len(members) * per, op.dim)
    for index, X in zip(members, np.split(r[:, None] * d, len(members))):
        def fn(P, index=index):
            return tcomplete_member_block(family, index, P)

        worst = max(worst, runner._worst(steady_operator_fd_block(op, fn, X), fn(X)))
    return worst


TCOMPLETE_IDS = [ident for ident in ORACLE_IDS
                 if parse_kernel_id(ident).kind == kernels.T_COMPLETE]


@pytest.mark.parametrize("ident", TCOMPLETE_IDS)
def test_tcomplete_check_is_one_oracle_call(ident, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return steady_operator_fd_block(*args, **kwargs)

    monkeypatch.setattr(runner, "steady_operator_fd_block", counted)
    entries = [e for e in build_verify_entries(ident) if e[0] == ident]
    for seed in (0, 12345):
        calls.clear()
        (row,), _ = verify_kernels(entries=entries, n_points=100, seed=seed)
        assert len(calls) == 1
        assert row.max_residual == _tcomplete_loop(parse_kernel_id(ident), 100, seed)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 300), dim=st.integers(2, 4), seed=st.integers(0, 2 ** 63))
def test_sample_shell_draws_unit_directions_and_shell_radii(n, dim, seed):
    d, r = runner._sample_shell(np.random.default_rng(seed), n, dim)
    assert d.shape == (n, dim) and r.shape == (n,)
    assert np.all((r >= 0.5) & (r <= 2.0))
    assert np.all(np.abs(np.linalg.norm(d, axis=1) - 1.0) <= 1e-15)
    again = runner._sample_shell(np.random.default_rng(seed), n, dim)
    assert np.array_equal(d, again[0]) and np.array_equal(r, again[1])


NESTED_ENTRIES = [entry for entry in build_verify_entries()
                  if parse_kernel_id(entry[0]).operator.kind
                  in (operators.BIHARMONIC,) + operators.POWER_KINDS]


def test_nested_entries_pass_at_seeds_0_to_7():
    # biharmonic, poly-Laplace and the other power kinds: the operators the
    # three-step Richardson oracle applies, at their unchanged tolerance
    assert len(NESTED_ENTRIES) == 24
    assert all(tol == 1e-4 for _, _, tol in NESTED_ENTRIES)
    for seed in range(8):
        rows, ok = verify_kernels(entries=NESTED_ENTRIES, seed=seed)
        assert ok, [(r.name, r.max_residual) for r in rows if not r.passed]


@pytest.mark.parametrize("ident,x", [
    ("harmonic:biharmonic:3d", [1.9339819874033743, 0.21882839044811073, -0.4196054265413999]),
    ("harmonic:biharmonic:2d", [0.4070067804098922, -1.9151508201169378]),
    ("harmonic:biharmonic:2d", [-0.41058725129470774, 1.9278683001420396]),
])
def test_nested_oracle_resolves_wide_step_points(ident, x):
    # points near |x| = 2, where fd_step doubles h: with the steps h and 2h
    # alone the h^6 term left residuals of 1.1e-4 to 1.6e-4 here (tol 1e-4);
    # lap^2 of r^2 H is exactly 0 for a harmonic H
    family = parse_kernel_id(ident)
    S = np.zeros((1, family.operator.dim))

    def fn(P):
        return kernel_block(family, P, S)[:, 0]

    X = np.array([x])
    res = steady_operator_fd_block(family.operator, fn, X) / np.maximum(np.abs(fn(X)), 1.0)
    assert abs(res[0]) <= 1e-5


def test_oracle_independent_of_analytic_operators(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the FD oracle used analytic operator code")

    for name in ("governing_applied_block", "kernel_gradient_block", "_gradient_block",
                 "_origin_laplacian", "_eigenvalue", "elastic_gradient_block",
                 "kernel_time_derivative_block"):
        monkeypatch.setattr(kernels, name, forbidden)
        monkeypatch.setattr(runner, name, forbidden, raising=False)
    rows, _ = verify_kernels(n_points=10)
    assert len(rows) == len(build_verify_entries())
    assert all(math.isfinite(r.max_residual) for r in rows)


STEADY_IDS = [ident for ident in ORACLE_IDS
              if not parse_kernel_id(ident).operator.is_time_dependent
              and parse_kernel_id(ident).kind != kernels.T_COMPLETE]


@pytest.mark.parametrize("ident", STEADY_IDS)
def test_analytic_rows_independent_of_oracle(ident, monkeypatch):
    # the other direction: value, Neumann and interior-residual rows of every
    # steady family assemble with the FD oracle unreachable
    def forbidden(*args, **kwargs):
        raise AssertionError("analytic rows used the FD oracle")

    for name in ("steady_operator_fd_block", "time_operator_fd_block"):
        monkeypatch.setattr(operators, name, forbidden)
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    rng = np.random.default_rng(2)
    X = rng.uniform(-1.0, 1.0, size=(9, dim))
    normals = rng.normal(size=X.shape)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    colloc = CollocationSet(X, ["D", "N", "R"] * 3, np.zeros(9), normals=normals)
    sources = SourceSet(rng.uniform(2.0, 3.0, size=(4, dim)))
    governing = [OperatorSpec("laplace", dim)]
    if dim < 4:
        governing += [OperatorSpec("helmholtz", dim, k=0.8),
                      OperatorSpec("modified-helmholtz", dim, k=0.9)]
    for gov in governing:
        mtx = assemble([family], sources, colloc, gov)
        assert np.all(np.isfinite(mtx.entries))


TIME_IDS = [ident for ident in ORACLE_IDS if parse_kernel_id(ident).operator.is_time_dependent]


@pytest.mark.parametrize("ident", TIME_IDS)
def test_initial_rate_rows_independent_of_oracle(ident, monkeypatch):
    # initial rows tagged 1 take the closed-form time derivative: no FD
    # oracle, and no kernel values beyond those of the rows tagged 0
    def forbidden(*args, **kwargs):
        raise AssertionError("analytic rows used the FD oracle")

    for name in ("steady_operator_fd_block", "time_operator_fd_block"):
        monkeypatch.setattr(operators, name, forbidden)
    value_rows = []

    def values(family, X, *args):
        value_rows.append(len(X))
        return kernel_block(family, X, *args)

    monkeypatch.setattr(network, "kernel_block", values)
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, size=(6, dim))
    T = rng.uniform(5.0, 6.0, size=6)
    sources = SourceSet(rng.uniform(2.0, 3.0, size=(4, dim)), times=rng.uniform(0.0, 1.0, 4))
    colloc = CollocationSet(X, ["I"] * 6, np.zeros(6), times=T, components=[0, 1] * 3)
    mtx = assemble([family], sources, colloc)
    assert value_rows == [3]
    assert np.all(np.isfinite(mtx.entries))
    assert np.array_equal(mtx.entries[1::2], kernels.kernel_time_derivative_block(
        family, X[1::2], sources.points, T[1::2], sources.times))


# Delta^2 |x|^2 = 0, so the quadratic perturbation cannot show under
# biharmonic and poly-Laplace operators; every other entry must flag it.
SENSITIVE = [ident for ident in ORACLE_IDS if parse_kernel_id(ident).operator.kind not in (
    operators.BIHARMONIC, operators.POLY_LAPLACE)]


@pytest.mark.parametrize("ident", SENSITIVE)
def test_perturbed_kernel_fails_its_entry(ident, monkeypatch):
    entries = [e for e in build_verify_entries(ident) if e[0] == ident]
    (row,), _ = verify_kernels(entries=entries, n_points=20)
    assert row.passed

    block, member = runner.kernel_block, runner.tcomplete_member_block
    monkeypatch.setattr(runner, "kernel_block",
                        lambda family, X, *a, **kw: block(family, X, *a, **kw)
                        + 1e-3 * _sq(np.asarray(X))[:, None])
    monkeypatch.setattr(runner, "tcomplete_member_block",
                        lambda family, index, X: member(family, index, X) + 1e-3 * _sq(X))
    (row,), ok = verify_kernels(entries=entries, n_points=20)
    assert not ok and not row.passed


def _member_reference(family, index, x):
    """The T-complete member formula at one point, with scalar functions."""
    v, m, parity = index
    op = family.operator
    if op.dim == 2:
        rho = math.hypot(x[0], x[1])
        theta = math.atan2(x[1], x[0])
        ang = math.cos(m * theta) if parity == "cos" else math.sin(m * theta)
        n = op.power_n
        if op.kind in ("laplace", "poly-laplace"):
            return rho ** (m + 2 * n) * ang
        if op.kind == "biharmonic":
            return rho ** (m + 2) * ang
        if op.kind in ("helmholtz", "helmholtz-power"):
            return (op.k * rho) ** n * bessel_j(m + n, op.k * rho) * ang
        return (op.k * rho) ** n * bessel_i(m + n, op.k * rho) * ang
    rho = math.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
    pvm = assoc_legendre(v, m, x[2] / rho)
    theta = math.atan2(x[1], x[0])
    ang = math.cos(m * theta) if parity == "cos" else math.sin(m * theta)
    radial = {"laplace": rho ** v, "biharmonic": rho ** (v + 2),
              "helmholtz": float(sc.spherical_jn(v, op.k * rho)),
              "modified-helmholtz": float(sc.spherical_in(v, op.k * rho))}[op.kind]
    return radial * pvm * ang


@pytest.mark.parametrize("ident", [
    "t-complete:laplace:2d?m=3", "t-complete:helmholtz:2d?k=1.3&m=3",
    "t-complete:modified-helmholtz-power:2d?k=1.1&n=1&m=2",
    "t-complete:laplace:3d?m=3", "t-complete:helmholtz:3d?k=1.3&m=2",
    "t-complete:modified-helmholtz:3d?k=1.1&m=2", "t-complete:biharmonic:3d?m=2",
])
def test_tcomplete_member_block_matches_scalar(ident):
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    X = np.random.default_rng(8).uniform(-2.0, 2.0, size=(40, dim))
    for index in tcomplete_members(family):
        block = tcomplete_member_block(family, index, X)
        for x, value in zip(X, block):
            assert value == eval_tcomplete_member(family, index, x)
            ref = _member_reference(family, index, x)
            assert abs(value - ref) <= 1e-13 * max(abs(ref), 1.0), (index, x)


def test_tcomplete_member_block_at_origin():
    family = parse_kernel_id("t-complete:laplace:3d?m=2")
    origin = np.zeros((1, 3))
    values = [tcomplete_member_block(family, index, origin)[0]
              for index in tcomplete_members(family)]
    assert values[0] == 1.0 and all(v == 0.0 for v in values[1:])
