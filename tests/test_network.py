import functools
import json
import math
import os
import tempfile
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pikfnn import geometry, kernels, network
from pikfnn.benchmarks import BUILTINS
from pikfnn.errors import ConditioningError, ConfigurationError, SingularityError
from pikfnn.geometry import (
    CollocationSet,
    SourceSet,
    gen_boundary,
    load_nodes,
    save_nodes,
)
from pikfnn.kernels import KernelFamily, eval_elasticity_kernel, eval_kernel, kernel_block
from pikfnn.network import (
    DesignMatrix,
    PikfnnModel,
    _solve_upper,
    assemble,
    family_width,
    fit_particular_weights,
    forward,
    forward_displacement,
    forward_stress,
    load_model,
    residual,
    save_model,
)
from pikfnn.operators import OperatorSpec, steady_operator_fd_block
from pikfnn.registry import parse_kernel_id
from pikfnn.runner import run_benchmark


def laplace_family(dim=2):
    return KernelFamily("fundamental", OperatorSpec("laplace", dim))


def test_one_by_one_matrix_value():
    colloc = CollocationSet([[1.0, 0.0]], ["D"], [0.0])
    sources = SourceSet([[3.0, 0.0]])
    mtx = assemble([laplace_family()], sources, colloc)
    assert mtx.shape == (1, 1)
    assert mtx.entries[0, 0] == pytest.approx(-math.log(2.0) / (2 * math.pi), abs=1e-12)
    assert mtx.entries[0, 0] == pytest.approx(-0.11031782), "-ln(2)/2pi"


def test_two_family_column_count():
    # nonhomogeneous setups double the hidden layer (two families)
    n = 40
    boundary, normals = gen_boundary("sphere", n, r=1.0)
    colloc = CollocationSet(boundary, ["D"] * n, np.zeros(n),
                            normals=normals)
    sources = SourceSet(gen_boundary("sphere", n, r=3.0)[0])
    fams = [KernelFamily("fundamental", OperatorSpec("modified-helmholtz", 3, k=1.0)),
            KernelFamily("fundamental", OperatorSpec("modified-helmholtz", 3, k=math.sqrt(3)))]
    mtx = assemble(fams, sources, colloc)
    assert mtx.shape == (n, 2 * n)


def test_empty_family_list_errors():
    colloc = CollocationSet([[1.0, 0.0]], ["D"], [0.0])
    with pytest.raises(ConfigurationError):
        assemble([], SourceSet([[3.0, 0.0]]), colloc)


def test_dim_mismatch_errors():
    colloc = CollocationSet([[1.0, 0.0]], ["D"], [0.0])
    with pytest.raises(ConfigurationError):
        assemble([laplace_family(dim=3)], SourceSet([[3.0, 0.0, 0.0]]), colloc)


@pytest.mark.parametrize("dim, source_dim", [(2, 3), (3, 2)])
def test_sources_of_another_dimension_are_rejected(dim, source_dim):
    colloc = CollocationSet(np.full((1, dim), 0.5), ["D"], [0.0])
    sources = SourceSet(np.full((1, source_dim), 3.0))
    with pytest.raises(ConfigurationError, match=f"source dim {source_dim} != collocation"):
        assemble([laplace_family(dim)], sources, colloc)
    with pytest.raises(ConfigurationError, match=f"sources have dim {source_dim}, model"):
        PikfnnModel([laplace_family(dim)], sources, dim)


def test_singularity_propagates():
    colloc = CollocationSet([[1.0, 0.0]], ["D"], [0.0])
    with pytest.raises((SingularityError, Exception)):
        assemble([laplace_family()], SourceSet([[1.0, 0.0]]), colloc)


def test_assemble_deterministic():
    boundary, _ = gen_boundary("circle", 16, r=1.0)
    colloc = CollocationSet(boundary, ["D"] * 16, np.zeros(16))
    sources = SourceSet(gen_boundary("circle", 16, r=3.0)[0])
    fam = KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=5.0))
    a = assemble([fam], sources, colloc).entries
    b = assemble([fam], sources, colloc).entries
    assert np.array_equal(a, b)


def test_forward_linearity_and_matrix_consistency():
    rng = np.random.default_rng(2)
    n = 12
    boundary, _ = gen_boundary("circle", n, r=1.0)
    colloc = CollocationSet(boundary, ["D"] * n, np.zeros(n))
    sources = SourceSet(gen_boundary("circle", n, r=3.0)[0])
    fam = laplace_family()
    mtx = assemble([fam], sources, colloc)
    model = PikfnnModel([fam], sources, 2, weights=rng.normal(size=n))
    out = forward(model, colloc.points)
    # matrix path and point path agree
    assert np.max(np.abs(out - mtx.entries @ model.weights)) <= 1e-12
    # zero weights -> zero output; doubling weights doubles outputs
    z = PikfnnModel([fam], sources, 2, weights=np.zeros(n))
    assert np.all(forward(z, colloc.points) == 0.0)
    d = PikfnnModel([fam], sources, 2, weights=2.0 * model.weights)
    assert np.allclose(forward(d, colloc.points), 2.0 * out, rtol=1e-14)
    # superposition
    q = rng.normal(size=n)
    m2 = PikfnnModel([fam], sources, 2, weights=model.weights + q)
    mq = PikfnnModel([fam], sources, 2, weights=q)
    assert np.allclose(forward(m2, colloc.points),
                       out + forward(mq, colloc.points), rtol=1e-12, atol=1e-15)


def test_single_neuron_forward_value():
    sources = SourceSet([[0.0, 0.0]])
    fam = laplace_family()
    model = PikfnnModel([fam], sources, 2, weights=np.array([2.0]))
    x = np.array([[math.e, 0.0]])
    assert forward(model, x)[0] == pytest.approx(-1.0 / math.pi, rel=1e-14)


def test_residual_values():
    mtx = DesignMatrix(entries=np.array([[2.0]]), row_kinds=np.asarray(["D"]))
    model = PikfnnModel([laplace_family()], SourceSet([[3.0, 0.0]]), 2,
                        weights=np.array([1.0]))
    assert residual(model, mtx, [4.0]) == pytest.approx([-2.0])
    assert residual(model, mtx, [2.0]) == pytest.approx([0.0])
    with pytest.raises(ConfigurationError):
        residual(model, mtx, [1.0, 2.0])


def test_forward_field_satisfies_pde_for_any_weights():
    # the kernels carry the physics: any weight vector solves the PDE
    rng = np.random.default_rng(7)
    n = 20
    sources = SourceSet(gen_boundary("circle", n, r=3.0)[0])
    op = OperatorSpec("helmholtz", 2, k=2.0)
    fam = KernelFamily("fundamental-real", op)
    model = PikfnnModel([fam], sources, 2, weights=rng.normal(size=n))
    X = []
    for _ in range(20):
        th = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0.0, 0.9)
        X.append([r * math.cos(th), r * math.sin(th)])
    X = np.array(X)
    res = steady_operator_fd_block(op, lambda P: forward(model, P), X)
    assert np.all(np.abs(res) <= 1e-5 * np.maximum(np.abs(forward(model, X)), 1.0))


def test_neumann_rows_use_normal_gradient():
    fam = laplace_family(dim=3)
    boundary, normals = gen_boundary("sphere", 10, r=1.0)
    colloc = CollocationSet(boundary, ["N"] * 10, np.zeros(10),
                            normals=normals)
    sources = SourceSet(gen_boundary("sphere", 10, r=2.5)[0])
    mtx = assemble([fam], sources, colloc)
    # d/dn (1/(4 pi |x-s|)) with radial normal at |x|=1
    i, j = 3, 5
    x = colloc.points[i]
    s = sources.points[j]
    d = x - s
    r = np.linalg.norm(d)
    expect = float((-d / (4 * math.pi * r ** 3)) @ colloc.normals[i])
    assert mtx.entries[i, j] == pytest.approx(expect, rel=1e-12)


def test_interior_residual_rows_apply_operator():
    op = OperatorSpec("helmholtz", 2, k=1.0)
    fam = KernelFamily("fundamental-real", op, shift=0.5)
    pts = np.array([[0.2, -0.1], [0.4, 0.3]])
    colloc = CollocationSet(pts, ["R", "R"], np.zeros(2))
    sources = SourceSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
    mtx = assemble([fam], sources, colloc)

    # cross-check one entry against FD application of (lap + k^2)
    def fn(P):
        return kernel_block(fam, P, sources.points[1:2])[:, 0]

    fd = steady_operator_fd_block(op, fn, pts[:1], h=2e-3)[0]
    assert mtx.entries[0, 1] == pytest.approx(fd, rel=1e-5)


def test_interior_residual_rows_of_a_time_family_take_the_row_times():
    # heat family k = 0.5 under the heat operator k0 = 0.2: (L0 G) = (k - k0)/k dG/dt,
    # at each row's own time (these rows raised DomainError without the times)
    fam = parse_kernel_id("time-fundamental:heat:2d?k=0.5")
    pts, times = np.array([[0.2, -0.1], [0.4, 0.3]]), np.array([1.0, 1.5])
    sources = SourceSet(np.array([[1.5, 0.0], [0.0, -1.5]]), times=np.array([0.0, 0.5]))
    colloc = CollocationSet(pts, ["R", "R"], np.zeros(2), times=times)
    mtx = assemble([fam], sources, colloc, governing=OperatorSpec("heat", 2, k=0.2))
    rate = kernels.kernel_time_derivative_block(fam, pts, sources.points, times, sources.times)
    assert np.array_equal(mtx.entries, 0.6 * rate) and np.all(rate != 0.0)


def test_tcomplete_assembly_width():
    fam = KernelFamily("t-complete", OperatorSpec("laplace", 2), tcomplete_max_order=4)
    boundary, _ = gen_boundary("circle", 12, r=1.0)
    colloc = CollocationSet(boundary, ["D"] * 12, np.zeros(12))
    src = SourceSet(np.zeros((0, 2)))
    assert family_width(fam, src) == 9
    mtx = assemble([fam], src, colloc)
    assert mtx.shape == (12, 9)
    # first column is the constant member
    assert np.allclose(mtx.entries[:, 0], 1.0)


def test_tcomplete_neumann_rows():
    # Laplace members rho cos(theta) = x and rho^2 sin(2 theta) = 2xy in 2D,
    # rho P_1^0(cos phi) = z in 3D: their normal derivatives are closed form
    for dim, shape, checks in (
            (2, "circle", {1: lambda p, n: n[:, 0],
                           4: lambda p, n: 2.0 * (p[:, 1] * n[:, 0] + p[:, 0] * n[:, 1])}),
            (3, "sphere", {1: lambda p, n: n[:, 2]})):
        fam = KernelFamily("t-complete", OperatorSpec("laplace", dim), tcomplete_max_order=2)
        pts, nms = gen_boundary(shape, 12, r=1.5)
        colloc = CollocationSet(np.vstack([pts, pts]), ["D"] * 12 + ["N"] * 12,
                                np.zeros(24), normals=np.vstack([nms, nms]))
        mtx = assemble([fam], SourceSet(np.zeros((0, dim))), colloc)
        assert np.allclose(mtx.entries[:12, 0], 1.0)
        assert np.allclose(mtx.entries[12:, 0], 0.0, atol=1e-9)
        for col, flux in checks.items():
            assert np.allclose(mtx.entries[12:, col], flux(pts, nms), rtol=0, atol=1e-8)
    bad = CollocationSet(pts, ["D"] * 11 + ["R"], np.zeros(12))
    with pytest.raises(ConfigurationError):
        assemble([fam], SourceSet(np.zeros((0, 3))), bad)


TCOMPLETE_GRADIENTS = os.path.join(os.path.dirname(__file__), "data",
                                   "tcomplete_gradient_reference.txt")


def test_tcomplete_gradients_match_reference_table():
    # 40-digit mpmath derivatives of the members' own definitions, at random
    # points, near and at the origin and on the 3D polar axis: within 1e-13
    # of max(1, |grad|) (measured worst 2.2e-15)
    count = 0
    with open(TCOMPLETE_GRADIENTS) as fh:
        for line in fh:
            ident, v, m, parity, *numbers = line.split()
            family = parse_kernel_id(ident)
            dim = family.operator.dim
            x = np.array([[float(c) for c in numbers[:dim]]])
            expected = np.array([float(c) for c in numbers[dim:]])
            got = kernels.tcomplete_member_gradient_block(family, (int(v), int(m), parity), x)
            scale = max(1.0, np.abs(expected).max())
            assert np.all(np.abs(got[0] - expected) <= 1e-13 * scale), line
            count += 1
    assert count >= 900


def _fd_neumann_rows(family, P, normals):
    """The Neumann rows as assembly took them before the closed form:
    central differences of the member values with h = 1e-6 max(1, |x|)."""
    dim = P.shape[1]
    h = 1e-6 * np.maximum(1.0, np.linalg.norm(P, axis=1))
    shifts = np.eye(dim)[:, None, :] * h[None, :, None]
    stencil = np.concatenate([P + shifts, P - shifts]).reshape(-1, dim)
    out = []
    for index in kernels.tcomplete_members(family):
        up, dn = kernels.tcomplete_member_block(family, index, stencil).reshape(2, dim, len(P))
        out.append(sum((up[a] - dn[a]) / (2.0 * h) * normals[:, a] for a in range(dim)))
    return np.column_stack(out)


@pytest.mark.parametrize("ident", [
    "t-complete:laplace:2d?m=4", "t-complete:poly-laplace:2d?n=1&m=3",
    "t-complete:biharmonic:2d?m=3", "t-complete:helmholtz:2d?k=1.5&m=5",
    "t-complete:modified-helmholtz:2d?k=1.5&m=5", "t-complete:helmholtz-power:2d?k=1.5&n=2&m=3",
    "t-complete:modified-helmholtz-power:2d?k=1.5&n=1&m=3", "t-complete:laplace:3d?m=4",
    "t-complete:biharmonic:3d?m=3", "t-complete:helmholtz:3d?k=1.5&m=5",
    "t-complete:modified-helmholtz:3d?k=1.5&m=5"])
def test_tcomplete_neumann_rows_match_finite_differences(ident):
    # the closed-form Neumann rows agree with the central differences they
    # replace, to the differences' accuracy (eps |f| / h, h = 1e-6: measured
    # worst 1.6e-8 of max(1, |row|)), at random points and near the
    # origin; on the 3D polar
    # axis the differences themselves lose digits, and the table above gates
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    rng = np.random.default_rng(3)
    P = np.concatenate([rng.uniform(-2.0, 2.0, (60, dim)), rng.uniform(-1e-7, 1e-7, (6, dim)),
                        np.zeros((1, dim))])
    normals = rng.normal(size=P.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    colloc = CollocationSet(P, ["N"] * len(P), np.zeros(len(P)), normals=normals)
    rows = assemble([family], SourceSet(np.zeros((0, dim))), colloc).entries
    fd = _fd_neumann_rows(family, P, normals)
    assert np.all(np.abs(rows - fd) <= 1e-7 * np.maximum(1.0, np.abs(fd)))


def test_elastic_assembly_and_postprocessing():
    op = OperatorSpec("elastostatic", 2, nu=0.3, shear=100.0)
    fam = KernelFamily("elasto-disp", op)
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    kinds = ["D", "D", "N", "N"]
    normals = np.array([[np.nan, np.nan], [np.nan, np.nan], [1.0, 0.0], [1.0, 0.0]])
    comps = [1, 2, 1, 2]
    colloc = CollocationSet(pts, kinds, np.zeros(4), normals=normals, components=comps)
    sources = SourceSet(np.array([[5.0, 5.0], [-5.0, 4.0], [0.0, -6.0]]))
    mtx = assemble([fam], sources, colloc)
    assert mtx.shape == (4, 6)
    model = PikfnnModel([fam], sources, 2, weights=np.array([1.0, -2.0, 0.5, 0.0, 3.0, 1.0]))
    disp = forward_displacement(model, [[0.5, 0.5]])
    assert disp.shape == (1, 2)
    # stresses from analytic gradients match FD differentiation of displacement
    x0 = np.array([0.5, 0.5])
    h = 1e-6
    grad = np.zeros((2, 2))
    for j in range(2):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        dp = forward_displacement(model, [xp])[0]
        dm = forward_displacement(model, [xm])[0]
        grad[:, j] = (dp - dm) / (2 * h)
    eps = 0.5 * (grad + grad.T)
    lam = 2 * 100.0 * 0.3 / 0.4
    sig_fd = [lam * np.trace(eps) + 2 * 100.0 * eps[0, 0],
              lam * np.trace(eps) + 2 * 100.0 * eps[1, 1],
              2 * 100.0 * eps[0, 1]]
    sig = forward_stress(model, [x0])[0]
    assert sig == pytest.approx(sig_fd, rel=1e-6)


def test_elastic_traction_rows_match_displacement_gradient():
    # traction rows times the weights are the field's own traction
    # sigma(grad u) . n, with grad u by central differences of the
    # displacement and Hooke's law written out here; a sign slip reads ~2
    mu, nu = 100.0, 0.3
    fam = KernelFamily("elasto-disp", OperatorSpec("elastostatic", 2, nu=nu, shear=mu))
    rng = np.random.default_rng(11)
    angles = rng.uniform(0.0, 2.0 * math.pi, 6)
    sources = SourceSet(5.0 * np.column_stack([np.cos(angles), np.sin(angles)]))
    model = PikfnnModel([fam], sources, 2, weights=rng.uniform(-2.0, 2.0, 12))
    n = 40
    P = rng.uniform(-1.0, 1.0, (n, 2))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    comps = rng.integers(1, 3, n)
    colloc = CollocationSet(P, ["N"] * n, np.zeros(n), normals=normals, components=comps)
    assembled = assemble([fam], sources, colloc).entries @ model.weights
    h = 1e-6
    grad = np.empty((n, 2, 2))  # grad[i, l, j] = d u_l / d x_j
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        grad[:, :, j] = (forward_displacement(model, P + step)
                         - forward_displacement(model, P - step)) / (2 * h)
    eps = 0.5 * (grad + grad.transpose(0, 2, 1))
    lam = 2 * mu * nu / (1 - 2 * nu)
    sigma = lam * (eps[:, 0, 0] + eps[:, 1, 1])[:, None, None] * np.eye(2) + 2 * mu * eps
    traction = np.einsum("ilj,ij->il", sigma, normals)
    assert assembled == pytest.approx(traction[np.arange(n), comps - 1], rel=1e-6)


def test_elastic_rows_need_component_tags(tmp_path):
    # a node file has no component column, so its rows carry tag 0; they
    # must not silently constrain u_1
    op = OperatorSpec("elastostatic", 2, nu=0.3, shear=100.0)
    fam = KernelFamily("elasto-disp", op)
    sources = SourceSet(np.array([[5.0, 5.0], [-5.0, 4.0]]))
    path = tmp_path / "plate.txt"
    save_nodes(str(path), CollocationSet([[0.0, 0.0], [1.0, 0.0]], ["D", "N"], [0.0, 0.0],
                                         normals=[[np.nan, np.nan], [1.0, 0.0]]))
    colloc = load_nodes(str(path))
    with pytest.raises(ConfigurationError, match="component"):
        assemble([fam], sources, colloc)
    # forward() evaluates untagged Dirichlet rows; forward_displacement
    # gives both components
    model = PikfnnModel([fam], sources, 2, weights=np.array([1.0, -2.0, 0.5, 3.0]))
    with pytest.raises(ConfigurationError, match="component"):
        forward(model, [[0.5, 0.5]])
    disp = forward_displacement(model, [[0.5, 0.5], [-1.0, 2.0]])
    for x, u in zip([[0.5, 0.5], [-1.0, 2.0]], disp):
        for l in (1, 2):
            expect = sum(w * eval_elasticity_kernel(fam, l, k, x, s)
                         for s, pair in zip(sources.points, model.weights.reshape(-1, 2))
                         for k, w in zip((1, 2), pair))
            assert u[l - 1] == pytest.approx(expect, rel=1e-13)


def test_complex_split_mode():
    # opt-in complex mode: real/imaginary columns double the weight vector
    op = OperatorSpec("helmholtz", 2, k=2.0)
    fam = KernelFamily("fundamental", op, complex_split=True)
    n = 16
    boundary, _ = gen_boundary("circle", n, r=1.0)
    colloc = CollocationSet(boundary, ["D"] * n, np.zeros(n))
    sources = SourceSet(gen_boundary("circle", n, r=3.0)[0])
    assert family_width(fam, sources) == 2 * n
    mtx = assemble([fam], sources, colloc)
    assert mtx.shape == (n, 2 * n)
    # columns are the real and imaginary parts of the Hankel-form kernel
    i, j = 4, 7
    v = eval_kernel(fam, colloc.points[i], sources.points[j])
    assert mtx.entries[i, j] == pytest.approx(v.real, rel=1e-14)
    assert mtx.entries[i, n + j] == pytest.approx(v.imag, rel=1e-14)
    # any weight vector still yields a PDE solution (both parts solve it)
    rng = np.random.default_rng(3)
    model = PikfnnModel([fam], sources, 2, weights=rng.normal(size=2 * n))
    X = np.array([[0.3, -0.2]])
    res = steady_operator_fd_block(op, lambda P: forward(model, P), X)[0]
    assert abs(res) <= 1e-5 * max(abs(forward(model, X)[0]), 1.0)


@pytest.mark.parametrize("ident", ["fundamental:helmholtz:2d?k=3&split=1",
                                   "fundamental:helmholtz:3d?k=3&split=1",
                                   "fundamental:helmholtz:2d?k=3&shift=0.6&split=1"])
def test_complex_split_neumann_and_residual_rows_keep_both_parts(ident):
    # Neumann and interior-residual rows of a split family carry the normal
    # derivative and the Laplacian of both parts of the kernel, as central
    # differences of each part give them
    fam = parse_kernel_id(ident)
    dim = fam.operator.dim
    rng = np.random.default_rng(11)
    X = rng.uniform(-1.0, 1.0, size=(4, dim))
    S = rng.uniform(2.0, 3.0, size=(3, dim))
    normals = rng.normal(size=(4, dim))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    laplace = OperatorSpec("laplace", dim)
    colloc = CollocationSet(np.vstack([X, X]), ["N"] * 4 + ["R"] * 4, np.zeros(8),
                            normals=np.vstack([normals, np.full((4, dim), np.nan)]))
    entries = assemble([fam], SourceSet(S), colloc, governing=laplace).entries
    m, h = len(S), 1e-5
    for part, cols in ((np.real, slice(None, m)), (np.imag, slice(m, None))):
        flux = sum(normals[:, [i]] * (part(kernel_block(fam, X + h * e, S))
                                      - part(kernel_block(fam, X - h * e, S))) / (2.0 * h)
                   for i, e in enumerate(np.eye(dim)))
        lap = np.column_stack([steady_operator_fd_block(
            laplace, lambda P, s=s: part(kernel_block(fam, P, s[None]))[:, 0], X, h=2e-3)
            for s in S])
        for rows, expect in ((slice(None, 4), flux), (slice(4, None), lap)):
            assert np.abs(expect).max() > 1e-2
            assert np.abs(entries[rows, cols] - expect).max() <= 1e-6 * np.abs(expect).max()


def test_initial_velocity_rows():
    # wave-type initial operator I = [1, d/dt]: component-1 rows carry the
    # kernel time derivative
    import math

    op = OperatorSpec("wave", 2, c1=1.3)
    fam = KernelFamily("time-radial-trefftz", op)
    pts = np.array([[0.4, 0.1], [0.4, 0.1]])
    colloc = CollocationSet(pts, ["I", "I"], np.zeros(2),
                            times=np.zeros(2), components=[0, 1])
    sources = SourceSet(np.array([[1.5, 0.0]]), times=np.array([-2.0]))
    mtx = assemble([fam], sources, colloc)
    r = float(np.linalg.norm(pts[0] - sources.points[0]))
    dt = 2.0
    from pikfnn.special_functions import bessel_j
    j0 = bessel_j(0, r)
    value = (math.cos(op.c1 * dt) + math.sin(op.c1 * dt) / op.c1) * j0
    deriv = (-op.c1 * math.sin(op.c1 * dt) + math.cos(op.c1 * dt)) * j0
    assert mtx.entries[0, 0] == pytest.approx(value, rel=1e-12)
    assert mtx.entries[1, 0] == pytest.approx(deriv, rel=1e-6)


@pytest.mark.parametrize("ident", ["time-radial-trefftz:wave:2d?c1=1.3",
                                   "fundamental:laplace:2d", "t-complete:laplace:2d?m=2"])
def test_initial_rows_reject_other_component_tags(ident):
    # I = [1, d/dt]: a tag other than 0 or 1 names no row of the operator
    colloc = CollocationSet(np.array([[0.4, 0.1], [0.2, -0.3]]), ["I", "I"], np.zeros(2),
                            times=np.zeros(2), components=[0, 2])
    sources = SourceSet(np.array([[1.5, 0.0]]), times=np.array([-2.0]))
    with pytest.raises(ConfigurationError, match="component tag 0 .* or 1"):
        assemble([parse_kernel_id(ident)], sources, colloc)


@pytest.mark.parametrize("ident", ["fundamental:laplace:2d", "t-complete:laplace:2d?m=2"])
def test_time_independent_families_have_zero_initial_rate_rows(ident):
    # a kernel that does not depend on t has d/dt = 0: component-1 initial
    # rows are zero, component-0 rows take the values of Dirichlet rows
    pts = np.array([[0.4, 0.1], [0.4, 0.1]])
    sources = SourceSet(np.array([[1.5, 0.0]]), times=np.array([-2.0]))
    family = parse_kernel_id(ident)
    initial = assemble([family], sources, CollocationSet(pts, ["I", "I"], np.zeros(2),
                                                         times=np.zeros(2), components=[0, 1]))
    dirichlet = assemble([family], sources, CollocationSet(pts[:1], ["D"], np.zeros(1)))
    assert np.array_equal(initial.entries[0], dirichlet.entries[0])
    assert dirichlet.entries[0].any() and not initial.entries[1].any()


def test_model_serialization_roundtrip(tmp_path):
    n = 8
    sources = SourceSet(gen_boundary("circle", n, r=3.0)[0])
    fam = KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=math.sqrt(200)))
    rng = np.random.default_rng(0)
    model = PikfnnModel([fam], sources, 2, weights=rng.normal(size=n))
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    assert back.dim == 2
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.sources.points, sources.points)
    pts = rng.normal(size=(5, 2)) * 0.3
    assert np.array_equal(forward(back, pts), forward(model, pts))


def test_weight_length_validation():
    sources = SourceSet([[3.0, 0.0]])
    model = PikfnnModel([laplace_family()], sources, 2, weights=np.zeros(5))
    with pytest.raises(ConfigurationError):
        forward(model, [[0.0, 0.0]])


_TIMED_POOL = ("time-fundamental:heat:{d}d?k=0.5", "time-radial-trefftz:wave:{d}d?c1=1.3")
_STEADY_POOL = ("fundamental:laplace:{d}d", "fundamental:modified-helmholtz:{d}d?k=1.5&shift=0.25",
                "radial-trefftz:helmholtz:{d}d?k=2")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(1, 12), timed=st.booleans(),
       data=st.data())
def test_model_round_trip_is_bit_identical(dim, n, timed, data):
    # save_model then load_model: the same families, and sources, times and
    # weights bit for bit (-0.0 and subnormals included)
    pool = _TIMED_POOL if timed else _STEADY_POOL
    idents = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    families = [parse_kernel_id(ident.format(d=dim)) for ident in idents]
    points = data.draw(arrays(float, (n, dim), elements=_FINITE))
    times = data.draw(arrays(float, n, elements=_FINITE)) if timed else None
    sources = SourceSet(points, times=times)
    width = sum(family_width(f, sources) for f in families)
    model = PikfnnModel(families, sources, dim,
                        weights=data.draw(arrays(float, width, elements=_FINITE)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, model)
        back = load_model(path)
    assert back.families == families and back.dim == dim
    pairs = [(back.sources.points, points), (back.weights, model.weights)]
    if timed:
        pairs.append((back.sources.times, times))
    else:
        assert back.sources.times is None
    for got, want in pairs:
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# a model file as earlier versions wrote it: its sources also carry the
# "enhanced" and "delay_dt" keys, which nothing reads
_OLD_MODEL_FILE = """{
 "dim": 2,
 "kernels": [
  "time-fundamental:heat:2d?k=0.5",
  "time-radial-trefftz:wave:2d?c1=1.3"
 ],
 "sources": {
  "points": [[0.1, -0.0], [0.3333333333333333, 2.5e-310]],
  "times": [-0.25, 0.14285714285714285],
  "enhanced": true,
  "delay_dt": 0.25
 },
 "weights": [1.0, -0.3333333333333333, 5e-324, -0.0]
}"""


def test_model_file_with_source_flags_loads_bit_for_bit(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(_OLD_MODEL_FILE)
    model = load_model(path)
    assert model.families == [parse_kernel_id("time-fundamental:heat:2d?k=0.5"),
                              parse_kernel_id("time-radial-trefftz:wave:2d?c1=1.3")]
    assert model.dim == 2
    for got, want in [(model.sources.points, [[0.1, -0.0], [1 / 3, 2.5e-310]]),
                      (model.sources.times, [-0.25, 1 / 7]),
                      (model.weights, [1.0, -1 / 3, 5e-324, -0.0])]:
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want).tobytes()
    # saved again, the file keeps every value and drops the two flags
    save_model(tmp_path / "again.json", model)
    doc = json.loads((tmp_path / "again.json").read_text())
    assert doc == {key: value for key, value in json.loads(_OLD_MODEL_FILE).items()
                   if key != "sources"} | {"sources": {
                       "points": [[0.1, -0.0], [1 / 3, 2.5e-310]],
                       "times": [-0.25, 1 / 7]}}


# row-block assembly: the rows of each kind are evaluated in blocks of
# geometry._BLOCK_ENTRIES entries; each case has about two blocks of rows per
# kind, so subsets fall on both sides of one block
PARTITION_CASES = [  # (family, row kinds, governing operator of the R rows)
    ("fundamental:modified-helmholtz:2d?k=1.5&shift=0.25", "DNIR",  # steady radial
     OperatorSpec("laplace", 2)),
    ("time-fundamental:heat:3d?k=0.5", "DNIR", OperatorSpec("heat", 3, k=0.2)),
    ("t-complete:helmholtz:3d?k=1.5&m=5", "DNI", None),
    ("elasto-trac:2d?nu=0.3&mu=2", "DN", None),
]


@functools.cache
def _partition_problem(ident, kinds, governing):
    """(family, sources, collocation rows, whole design matrix, rows per block)."""
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    rng = np.random.default_rng(7)
    timed = family.operator.is_time_dependent
    sources = SourceSet(rng.uniform(1.5, 3.0, (256, dim)) * rng.choice([-1.0, 1.0], (256, dim)),
                        times=rng.uniform(0.0, 2.0, 256) if timed else None)
    per_block = geometry._BLOCK_ENTRIES // family_width(family, sources)
    n = 2 * per_block * len(kinds) + 5
    normals = rng.standard_normal((n, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    elastic = family.kind in (kernels.ELASTO_DISP, kernels.ELASTO_TRAC)
    colloc = CollocationSet(rng.uniform(-1.0, 1.0, (n, dim)), rng.choice(list(kinds), n),
                            np.zeros(n), normals=normals,
                            times=rng.uniform(1.0, 2.0, n) if timed else None,
                            components=rng.integers(1, 3, n) if elastic else rng.integers(0, 2, n))
    whole = assemble([family], sources, colloc, governing=governing).entries
    return family, sources, colloc, whole, per_block


def _rows(colloc, rows):
    return CollocationSet(colloc.points[rows], colloc.kinds[rows], colloc.values[rows],
                          normals=colloc.normals[rows],
                          times=None if colloc.times is None else colloc.times[rows],
                          components=colloc.components[rows])


@pytest.mark.parametrize("ident, kinds, governing", PARTITION_CASES)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_assembled_rows_partition_freely(ident, kinds, governing, seed, data):
    # any subset of the rows, in any order, assembles to those rows of the
    # whole design matrix bit for bit
    family, sources, colloc, whole, per_block = _partition_problem(ident, kinds, governing)
    assert len(colloc) > 2 * per_block > 1 and set(colloc.kinds) == set(kinds)
    size = data.draw(st.one_of(st.integers(1, 3), st.integers(1, len(colloc)),
                               st.integers(per_block - 1, per_block + 2)))
    rows = np.random.default_rng(seed).permutation(len(colloc))[:size]
    part = assemble([family], sources, _rows(colloc, rows), governing=governing).entries
    assert part.shape == (size, whole.shape[1])
    assert part.tobytes() == whole[rows].tobytes()


def test_first_non_finite_entry_is_named_across_row_blocks():
    # the finiteness check runs block by block, in row order
    rng = np.random.default_rng(3)
    sources = SourceSet(rng.uniform(2.0, 3.0, (512, 2)))
    per_block = geometry._BLOCK_ENTRIES // 512
    points = rng.uniform(-1.0, 1.0, (3 * per_block, 2))
    marked = points[[per_block + 5, 2 * per_block + 1], 0]

    def poisoned(family, P, S, T, TAU):  # NaN at (per_block + 5, 7) and a later row
        vals = kernel_block(family, P, S, T, TAU)
        for x, column in zip(marked, (7, 2)):
            vals[P[:, 0] == x, column] = np.nan
        return vals

    colloc = CollocationSet(points, ["D"] * len(points), np.zeros(len(points)))
    with mock.patch.object(network, "kernel_block", poisoned):
        with pytest.raises(SingularityError, match=f"row {per_block + 5}, column 7$"):
            assemble([laplace_family()], sources, colloc)


@functools.cache
def _trained_model(name):
    return run_benchmark(name, seed=0).model


@pytest.mark.parametrize("name", ["example2", "example5"])
def test_forward_allocates_one_design_matrix_and_row_blocks(name):
    # forward on 5 000 points builds the (5 000, width) design matrix once and
    # evaluates the kernels over row blocks; whole-block kernel evaluation
    # peaked at 8.0 (example2) and 3.1 (example5) design-matrix sizes
    model = _trained_model(name)
    rng = np.random.default_rng(1)
    n = 5000
    if name == "example2":  # the unit disk
        r, theta = np.sqrt(rng.random(n)), 2.0 * np.pi * rng.random(n)
        points, times = np.column_stack([r * np.cos(theta), r * np.sin(theta)]), None
    else:  # the torus (R, r) = (2, 0.5) at t = 100
        theta, phi = 2.0 * np.pi * rng.random(n), 2.0 * np.pi * rng.random(n)
        rho = 2.0 + 0.5 * np.sqrt(rng.random(n)) * np.cos(phi)
        points = np.column_stack([rho * np.cos(theta), rho * np.sin(theta),
                                  0.5 * np.sqrt(rng.random(n)) * np.sin(phi)])
        times = np.full(n, 100.0)
    forward(model, points[:10], times=None if times is None else times[:10])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        forward(model, points, times=times)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * model.width * 8


# ---------------------------------------------------------------------------
# annihilator pre-fit: the regularized solve, driven with chosen blocks

EPS = np.finfo(float).eps


def _prefit(f, *blocks):
    """fit_particular_weights with one chain family per given block B_i.  Row
    i sits at x = (i, 0), and the mocked governing block of family i returns
    the rows of B_i it is asked for."""
    families = [types.SimpleNamespace(kind="chain", complex_split=False, block=B)
                for B in blocks]
    points = np.column_stack([np.arange(len(f)), np.zeros(len(f))])

    def governing_block(family, governing, X, S, T, TAU):
        return family.block[X[:, 0].astype(int)]

    with mock.patch.object(network, "governing_applied_block", governing_block), \
            mock.patch.object(network, "family_width", lambda fam, _: fam.block.shape[1]):
        return fit_particular_weights(families, SourceSet([[0.0, 0.0]]), points, f, None)


def _matrix(seed, m, n, log_cond):
    """m x n matrix of rank min(m, n), condition number 10**log_cond, and an
    overall scale of 1e-3..1e3."""
    rng = np.random.default_rng(seed)
    k = min(m, n)
    U, _ = np.linalg.qr(rng.standard_normal((m, k)))
    V, _ = np.linalg.qr(rng.standard_normal((n, k)))
    s = np.logspace(0.0, -log_cond, k)
    return (U * s) @ V.T * 10.0 ** rng.uniform(-3.0, 3.0), rng


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), extra=st.integers(0, 8),
       log_cond=st.floats(0.0, 6.0))
def test_prefit_matches_lstsq_on_full_column_rank(seed, n, extra, log_cond):
    # f in the range of B, as the pre-fit's source term is.  lstsq's own
    # forward error is about cond * eps, so above cond ~ 1e5 the bound
    # follows it rather than a flat 1e-10
    B, rng = _matrix(seed, n + extra, n, log_cond)
    f = B @ rng.standard_normal(n)
    q, rms, _ = _prefit(f, B)
    ref, *_ = np.linalg.lstsq(B, f, rcond=None)
    tol = max(1e-10, 4.0 * 10.0 ** log_cond * EPS)
    assert np.linalg.norm(q - ref) <= tol * np.linalg.norm(ref)
    assert rms == pytest.approx(np.sqrt(np.mean((B @ q - f) ** 2)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 12), extra=st.integers(1, 8),
       log_cond=st.floats(0.0, 3.0))
def test_prefit_residual_on_wide_matrices(seed, m, extra, log_cond):
    # more neurons than rows: every f is reproducible, the weights are the
    # D-scaled minimum-norm ones.  Above cond ~ 1e4 the residual itself is
    # rounding, eps cond |f|, for either solver
    B, rng = _matrix(seed, m, m + extra, log_cond)
    f = rng.standard_normal(m)
    q, _, _ = _prefit(f, B)
    ref, *_ = np.linalg.lstsq(B, f, rcond=None)
    assert np.all(np.isfinite(q))
    assert np.linalg.norm(B @ q - f) <= np.linalg.norm(B @ ref - f) + 1e-12 * np.linalg.norm(f)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), extra=st.integers(0, 8),
       log_cond=st.floats(0.0, 6.0))
@example(seed=444176, n=1, extra=1, log_cond=0.0)  # 3 x 2: 13 times lstsq's weights at a = 3 eps
def test_prefit_with_a_duplicated_column(seed, n, extra, log_cond):
    # exactly dependent neurons, f in the range of B as the source term is
    B, rng = _matrix(seed, n + extra + 1, n, log_cond)
    B = np.column_stack([B, B[:, rng.integers(n)]])
    f = B @ rng.standard_normal(n + 1)
    q, _, _ = _prefit(f, B)
    ref, *_ = np.linalg.lstsq(B, f, rcond=None)
    assert np.all(np.isfinite(q))
    assert np.linalg.norm(B @ q - f) <= np.linalg.norm(B @ ref - f) + 1e-12 * np.linalg.norm(f)
    assert np.linalg.norm(q) <= 2.0 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed", range(5))
def test_prefit_amplification_reports_cancelling_weights(seed):
    # a repeated column with f outside the range of B: the Tikhonov term is
    # at rounding level, so the weights blow up while the fit rms stays
    # near lstsq's; the amplification max_j |q_j| |B_j| / |f| shows it
    B, rng = _matrix(seed, 12, 6, 2.0)
    B = np.column_stack([B, B[:, 2]])
    f = rng.standard_normal(12)
    q, rms, amplification = _prefit(f, B)
    assert amplification == pytest.approx(
        np.max(np.abs(q) * np.linalg.norm(B, axis=0)) / np.linalg.norm(f))
    assert amplification > 1e6
    ref, *_ = np.linalg.lstsq(B, f, rcond=None)
    assert rms <= 1.1 * np.sqrt(np.mean((B @ ref - f) ** 2))
    # the same B with f in its range: no cancellation
    assert _prefit(B @ rng.standard_normal(7), B)[2] < 1e2


def test_prefit_gives_zero_weights_to_an_all_zero_block():
    # a chain family that already solves L0 contributes an all-zero block
    B, rng = _matrix(3, 9, 4, 2.0)
    f = rng.standard_normal(9)
    q, _, _ = _prefit(f, B, np.zeros((9, 3)))
    assert np.all(np.isfinite(q)) and np.all(q[4:] == 0.0)
    assert np.allclose(q[:4], np.linalg.lstsq(B, f, rcond=None)[0], rtol=1e-10)
    q, rms, _ = _prefit(f, np.zeros((9, 3)))
    assert np.all(q == 0.0) and rms == pytest.approx(np.sqrt(np.mean(f ** 2)))


@pytest.mark.parametrize("where", ["block", "source"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prefit_names_first_non_finite_row(where, bad):
    B, rng = _matrix(4, 8, 3, 1.0)
    f = rng.standard_normal(8)
    if where == "block":
        B[5, 2] = bad
        B[6, 0] = bad
    else:
        f[5] = bad
    with pytest.raises(ConditioningError, match="row 5 "):
        _prefit(f, B)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_back_substitution_matches_solve(n):
    # R a view with a wider row stride, as in the pre-fit
    rng = np.random.default_rng(n)
    R = np.linalg.qr(rng.standard_normal((n + 5, n + 1)), mode="r")
    c = rng.standard_normal(n)
    y = _solve_upper(R[:n, :n], c)
    reference = np.linalg.solve(R[:n, :n], c)
    assert np.linalg.norm(y - reference) <= 1e-12 * np.linalg.norm(reference)


def test_prefit_allocates_at_most_three_stacked_matrices():
    # 300 rows x 400 sources of a 3D heat chain: the blocks are written into
    # the stacked (700, 401) matrix, not copied and scaled around it
    rng = np.random.default_rng(11)
    X, S = rng.uniform(0.0, 2.0, (300, 3)), rng.uniform(0.0, 2.0, (400, 3))
    T, TAU = 1.0 + rng.random(300), rng.random(400) - 1.0
    chain = [KernelFamily("time-fundamental", OperatorSpec("heat", 3, k=0.3))]
    governing = OperatorSpec("heat", 3, k=0.2)
    f = rng.standard_normal(300)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit_particular_weights(chain, SourceSet(S, times=TAU), X, f, governing, T)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (300 + 400) * 401 * 8


class _Captured(Exception):
    pass


@pytest.fixture(scope="module")
def prefit_args():
    """The fit_particular_weights arguments of example4 and example5 at seed
    0, captured as the built-ins make the call."""
    args = {}
    for name in ("example4", "example5"):
        def capture(*call, name=name):
            args[name] = call
            raise _Captured

        with mock.patch.object(network, "fit_particular_weights", capture), \
                pytest.raises(_Captured):
            BUILTINS[name](seed=0)
    return args


@pytest.mark.parametrize("name", ["example4", "example5"])
def test_prefit_chain_columns_equal_the_whole_governing_block(prefit_args, name):
    # written over row blocks, each chain family's columns of the stacked
    # matrix are governing_applied_block on all rows at once, bit for bit
    chain, sources, points, f, governing, times = prefit_args[name]
    M = network._prefit_matrix(chain, sources, points, f, governing, times)
    start = 0
    for fam in chain:
        whole = np.real(kernels.governing_applied_block(fam, governing, points, sources.points,
                                                        times, sources.times))
        assert np.array_equal(M[:len(f), start:start + whole.shape[1]], whole)
        start += whole.shape[1]
    assert start == M.shape[1] - 1
    assert np.array_equal(M[:len(f), -1], f) and not M[len(f):].any()


@pytest.mark.parametrize("name", ["example4", "example5"])
def test_prefit_writes_the_chain_in_row_blocks(prefit_args, name):
    # until the QR, the pre-fit holds the stacked matrix and row-block
    # temporaries only: at most 12 blocks of 2^16 entries beyond the matrix
    # (full-size chain blocks took 17 on example4 and 56 on example5)
    peaks = []

    def qr(M, mode):
        peaks.append(tracemalloc.get_traced_memory()[1] - base - M.nbytes)
        raise _Captured

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with mock.patch.object(np.linalg, "qr", qr), pytest.raises(_Captured):
            fit_particular_weights(*prefit_args[name])
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 12 * geometry._BLOCK_ENTRIES * 8
