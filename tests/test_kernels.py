import math

import numpy as np
import pytest

from pikfnn import kernels, operators
from pikfnn.errors import (
    DomainError,
    RangeOverflowError,
    SingularityError,
    UnsupportedKernelError,
)
from pikfnn.kernels import (
    KernelFamily,
    SpaceTimePoint,
    eval_elasticity_kernel,
    eval_kernel,
    eval_kernel_gradient,
    eval_tcomplete_member,
    governing_applied_block,
    kernel_block,
    tcomplete_member_block,
    tcomplete_members,
)
from pikfnn.operators import (
    OperatorSpec,
    high_order_coeffs,
    steady_operator_fd_block,
    time_operator_fd_block,
)
from pikfnn.registry import list_kernel_ids, parse_kernel_id
from pikfnn.special_functions import bessel_k, bessel_y

RNG = np.random.default_rng(20240810)


def fund(op_kind, dim, **kw):
    return KernelFamily("fundamental", OperatorSpec(op_kind, dim, **kw))


# ---------------------------------------------------------------------------
# table values (frozen from the 40-digit oracle)

def test_fundamental_laplace_values():
    assert eval_kernel(fund("laplace", 2), (1.0, 0.0), (0.0, 0.0)) == 0.0
    assert eval_kernel(fund("laplace", 3), (1, 0, 0), (0, 0, 0)) == pytest.approx(
        1.0 / (4 * math.pi), abs=1e-15)
    assert eval_kernel(fund("laplace", 4), (1, 0, 0, 0), (0, 0, 0, 0)) == pytest.approx(
        1.0 / (4 * math.pi ** 2), abs=1e-15)


def test_fundamental_modified_helmholtz_value():
    # K_0(1)/(2 pi); the oracle gives 0.067008120508497135
    got = eval_kernel(fund("modified-helmholtz", 2, k=1.0), (1, 0), (0, 0))
    assert got == pytest.approx(bessel_k(0, 1.0) / (2 * math.pi), abs=1e-15)
    assert got == pytest.approx(0.067008120508497135, abs=1e-13)


def test_heat_kernel_value_and_causality():
    fam = KernelFamily("time-fundamental", OperatorSpec("heat", 2, k=1.0))
    got = eval_kernel(fam, SpaceTimePoint((1, 0), 1.0), SpaceTimePoint((0, 0), 0.0))
    # exp(-1/4)/(4 pi), negative-exponent convention
    assert got == pytest.approx(math.exp(-0.25) / (4 * math.pi), abs=1e-15)
    assert got == pytest.approx(0.061974997154826487, abs=1e-13)
    # theta(0) = 0: t <= tau contributes nothing
    assert eval_kernel(fam, SpaceTimePoint((1, 0), 1.0), SpaceTimePoint((0, 0), 1.0)) == 0.0
    assert eval_kernel(fam, SpaceTimePoint((1, 0), 1.0), SpaceTimePoint((0, 0), 2.0)) == 0.0


def test_fundamental_real_helmholtz_value():
    k = math.sqrt(200.0)
    fam = KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=k))
    assert eval_kernel(fam, (1, 0), (0, 0)) == pytest.approx(
        bessel_y(0, k) / (2 * math.pi), abs=1e-15)


def test_helmholtz_3d_sign_flag():
    op = OperatorSpec("helmholtz", 3, k=2.0)
    out = eval_kernel(KernelFamily("fundamental", op), (1, 0, 0), (0, 0, 0))
    inc = eval_kernel(KernelFamily("fundamental", op, outgoing_3d=False), (1, 0, 0), (0, 0, 0))
    assert out == pytest.approx(complex(math.cos(2), math.sin(2)) / (4 * math.pi), abs=1e-15)
    assert inc == pytest.approx(out.conjugate(), abs=1e-15)


# ---------------------------------------------------------------------------
# PDE residuals via the FD operator oracle

STEADY_CASES = [
    ("fundamental", dict(kind="laplace", dim=2), {}, 1e-5),
    ("fundamental", dict(kind="laplace", dim=3), {}, 1e-5),
    ("fundamental", dict(kind="laplace", dim=4), {}, 1e-5),
    ("fundamental", dict(kind="helmholtz", dim=2, k=1.3), {}, 1e-5),
    ("fundamental", dict(kind="helmholtz", dim=3, k=1.3), {}, 1e-5),
    ("fundamental-real", dict(kind="helmholtz", dim=2, k=1.3), {}, 1e-5),
    ("fundamental-real", dict(kind="helmholtz", dim=3, k=1.3), {}, 1e-5),
    ("fundamental", dict(kind="modified-helmholtz", dim=2, k=1.1), {}, 1e-5),
    ("fundamental", dict(kind="modified-helmholtz", dim=3, k=1.1), {}, 1e-5),
    ("fundamental", dict(kind="convection-diffusion", dim=2, k=0.8, diffusion=1.2,
                         velocity=(0.4, -0.3)), {}, 1e-5),
    ("fundamental", dict(kind="convection-diffusion", dim=3, k=0.8, diffusion=1.2,
                         velocity=(0.4, -0.3, 0.2)), {}, 1e-5),
    ("harmonic", dict(kind="laplace", dim=2), {"c_shape": 0.7}, 1e-5),
    ("harmonic", dict(kind="laplace", dim=3), {"c_shape": 0.7}, 1e-5),
    ("radial-trefftz", dict(kind="helmholtz", dim=2, k=1.3), {}, 1e-5),
    ("radial-trefftz", dict(kind="helmholtz", dim=3, k=1.3), {}, 1e-5),
    ("radial-trefftz", dict(kind="modified-helmholtz", dim=2, k=1.1), {}, 1e-5),
    ("radial-trefftz", dict(kind="modified-helmholtz", dim=3, k=1.1), {}, 1e-5),
    ("radial-trefftz", dict(kind="convection-diffusion", dim=2, k=0.8, diffusion=1.2,
                            velocity=(0.4, -0.3)), {}, 1e-5),
    ("fundamental", dict(kind="biharmonic", dim=2), {}, 1e-4),
    ("fundamental", dict(kind="biharmonic", dim=3), {}, 1e-4),
    ("harmonic", dict(kind="biharmonic", dim=2), {"c_shape": 0.7}, 1e-4),
    ("fundamental", dict(kind="poly-laplace", dim=2, power_n=1), {}, 1e-4),
    ("fundamental", dict(kind="poly-laplace", dim=3, power_n=1), {}, 1e-4),
    ("fundamental", dict(kind="helmholtz-power", dim=2, k=1.3, power_n=1), {}, 1e-4),
    ("fundamental", dict(kind="modified-helmholtz-power", dim=3, k=1.1, power_n=1), {}, 1e-4),
    ("fundamental-real", dict(kind="helmholtz-power", dim=2, k=1.3, power_n=1), {}, 1e-4),
    ("radial-trefftz", dict(kind="helmholtz-power", dim=2, k=1.3, power_n=1), {}, 1e-4),
    ("radial-trefftz", dict(kind="modified-helmholtz-power", dim=3, k=1.1, power_n=1), {}, 1e-4),
]


@pytest.mark.parametrize("kclass,opkw,famkw,tol", STEADY_CASES,
                         ids=[f"{c}-{o['kind']}-{o['dim']}d" for c, o, _, _ in STEADY_CASES])
def test_steady_pde_residual(kclass, opkw, famkw, tol):
    op = OperatorSpec(**opkw)
    fam = KernelFamily(kclass, op, **famkw)
    s = np.zeros(op.dim)
    rng = np.random.default_rng(42)
    X = []
    for _ in range(25):
        d = rng.normal(size=op.dim)
        d /= np.linalg.norm(d)
        X.append(s + (0.5 + 1.5 * rng.random()) * d)
    X = np.array(X)

    def fn(P):
        return np.real(kernel_block(fam, P, s[None, :])[:, 0])

    res = steady_operator_fd_block(op, fn, X)
    assert np.all(np.abs(res) <= tol * np.maximum(np.abs(fn(X)), 1.0))


TIME_CASES = [
    ("time-fundamental", dict(kind="heat", dim=2, k=1.0)),
    ("time-fundamental", dict(kind="heat", dim=3, k=0.7)),
    ("time-radial-trefftz", dict(kind="heat", dim=2, k=1.0)),
    ("time-radial-trefftz", dict(kind="heat", dim=3, k=0.7)),
    ("time-radial-trefftz", dict(kind="wave", dim=2, c1=1.3)),
    ("time-radial-trefftz", dict(kind="wave", dim=3, c1=1.3)),
]


@pytest.mark.parametrize("kclass,opkw", TIME_CASES,
                         ids=[f"{c}-{o['kind']}-{o['dim']}d" for c, o in TIME_CASES])
def test_time_pde_residual(kclass, opkw):
    op = OperatorSpec(**opkw)
    fam = KernelFamily(kclass, op)
    rng = np.random.default_rng(17)
    X, T = [], []
    for _ in range(25):
        d = rng.normal(size=op.dim)
        d /= np.linalg.norm(d)
        X.append((0.5 + 1.5 * rng.random()) * d)
        T.append(0.5 + 1.5 * rng.random())
    X, T = np.array(X), np.array(T)
    tau = -1.5  # keeps every FD stencil point causal

    def fn(P, Tp):
        return kernel_block(fam, P, np.zeros((1, op.dim)), Tp, [tau])[:, 0]

    res = time_operator_fd_block(op, fn, X, T)
    assert np.all(np.abs(res) <= 1e-5 * np.maximum(np.abs(fn(X, T)), 1.0))


def test_wave_fundamental_residual_inside_cone():
    for dim in (2, 3):
        op = OperatorSpec("wave", dim, c1=1.0)
        fam = KernelFamily("time-fundamental", op)
        rng = np.random.default_rng(3)
        X, T = [], []
        for _ in range(15):
            d = rng.normal(size=dim)
            d /= np.linalg.norm(d)
            r = 0.5 + rng.random()
            X.append(r * d)
            T.append(r + 1.5 + rng.random())
        X, T = np.array(X), np.array(T)

        def fn(P, Tp):
            return kernel_block(fam, P, np.zeros((1, dim)), Tp, [0.0])[:, 0]

        res = time_operator_fd_block(op, fn, X, T)
        assert np.all(np.abs(res) <= 1e-5 * np.maximum(np.abs(fn(X, T)), 1.0))


def test_structural_pde_residual():
    cases = [("power", 0.7, "power", 1.3), ("identity", 1.0, "exp", 1.0),
             ("power", 0.5, "log", 1.0)]
    rng = np.random.default_rng(5)
    for st, a, sx, b in cases:
        op = OperatorSpec("structural-diffusion", 2, diffusion=0.8, alpha=a, beta=b,
                          structural_t=st, structural_x=sx)
        fam = KernelFamily("time-fundamental", op)
        for _ in range(15):
            x = 0.5 + 1.5 * rng.random(2)  # structural maps need positive coords
            s0 = 0.5 + 1.5 * rng.random(2)
            t = 1.0 + rng.random()
            tau = 0.2 * rng.random()

            def fn(P, Tp):
                return kernel_block(fam, P, s0[None, :], Tp, [tau])[:, 0]

            res = time_operator_fd_block(op, fn, [x], [t], h=1e-4)[0]
            assert abs(res) <= 1e-5 * max(abs(fn(x[None, :], [t])[0]), 1.0)


# ---------------------------------------------------------------------------
# structural reductions and invariance properties

def _grid_pairs(n=100, dim=2, seed=11):
    rng = np.random.default_rng(seed)
    X = 0.5 + 2.0 * rng.random((n, dim))
    S = 0.5 + 2.0 * rng.random((n, dim))
    T = 1.0 + rng.random(n)
    TAU = 0.5 * rng.random(n)
    return X, S, T, TAU


def test_structural_alpha1_beta1_matches_heat_bitwise():
    X, S, T, TAU = _grid_pairs()
    heat = KernelFamily("time-fundamental", OperatorSpec("heat", 2, k=0.37))
    for st, sx in (("power", "power"), ("identity", "identity")):
        stru = KernelFamily("time-fundamental", OperatorSpec(
            "structural-diffusion", 2, diffusion=0.37, alpha=1.0, beta=1.0,
            structural_t=st, structural_x=sx))
        hb = kernel_block(heat, X, S, T, TAU)
        sb = kernel_block(stru, X, S, T, TAU)
        assert np.array_equal(hb, sb)


def test_structural_beta1_matches_alpha_form_bitwise():
    # Hausdorff-in-time form with beta = 1 equals the spatialless-identity form
    X, S, T, TAU = _grid_pairs(seed=12)
    a = KernelFamily("time-fundamental", OperatorSpec(
        "structural-diffusion", 2, diffusion=0.9, alpha=0.6, beta=1.0,
        structural_t="power", structural_x="power"))
    b = KernelFamily("time-fundamental", OperatorSpec(
        "structural-diffusion", 2, diffusion=0.9, alpha=0.6,
        structural_t="power", structural_x="identity"))
    assert np.array_equal(kernel_block(a, X, S, T, TAU), kernel_block(b, X, S, T, TAU))


def test_radial_symmetry_and_translation():
    fams = [fund("laplace", 2), fund("modified-helmholtz", 2, k=1.1),
            KernelFamily("radial-trefftz", OperatorSpec("helmholtz", 3, k=1.2)),
            fund("biharmonic", 2)]
    rng = np.random.default_rng(8)
    for fam in fams:
        dim = fam.operator.dim
        for _ in range(10):
            x = rng.normal(size=dim)
            s = x + (0.5 + rng.random()) * rng.normal(size=dim)
            d = rng.normal(size=dim)
            assert eval_kernel(fam, x, s) == pytest.approx(eval_kernel(fam, s, x), rel=1e-14)
            assert eval_kernel(fam, x + d, s + d) == pytest.approx(
                eval_kernel(fam, x, s), rel=1e-12)


def test_enhanced_shift_equals_unshifted_at_shifted_radius():
    base = KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=1.0))
    rng = np.random.default_rng(9)
    for sigma in (0.5, 1.0, 2.0):
        fam = KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=1.0),
                           shift=sigma)
        for _ in range(10):
            x = rng.normal(size=2)
            s = rng.normal(size=2)
            r = np.linalg.norm(x - s)
            req = math.sqrt(r * r + sigma * sigma)
            assert eval_kernel(fam, x, s) == pytest.approx(
                eval_kernel(base, (req, 0.0), (0.0, 0.0)), rel=1e-14)


def test_shifted_kernel_finite_at_source():
    fam = KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=1.0), shift=0.5)
    v = eval_kernel(fam, (0.3, 0.3), (0.3, 0.3))
    assert v == pytest.approx(bessel_y(0, 0.5) / (2 * math.pi), rel=1e-14)


# ---------------------------------------------------------------------------
# gradients

def test_gradient_examples():
    g = eval_kernel_gradient(fund("laplace", 2), (2.0, 0.0), (0.0, 0.0))
    assert g == pytest.approx([-1.0 / (4 * math.pi), 0.0], abs=1e-14)
    g = eval_kernel_gradient(fund("laplace", 3), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert g == pytest.approx([-1.0 / (4 * math.pi), 0.0, 0.0], abs=1e-14)


def test_gradient_antisymmetry_in_source():
    # radial kernels: grad w.r.t. x equals minus grad w.r.t. s
    fam = fund("modified-helmholtz", 2, k=1.3)
    x = np.array([1.1, -0.4])
    s = np.array([0.2, 0.5])
    gx = eval_kernel_gradient(fam, x, s)
    gs_fd = np.zeros(2)
    h = 1e-6
    for i in range(2):
        sp, sm = s.copy(), s.copy()
        sp[i] += h
        sm[i] -= h
        gs_fd[i] = (eval_kernel(fam, x, sp) - eval_kernel(fam, x, sm)) / (2 * h)
    assert gx == pytest.approx(-gs_fd, rel=1e-6)


def test_gradient_analytic_matches_fd():
    fams = [fund("laplace", 2), fund("laplace", 3),
            fund("modified-helmholtz", 2, k=1.1), fund("modified-helmholtz", 3, k=1.1),
            KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=1.3)),
            KernelFamily("fundamental-real", OperatorSpec("helmholtz", 3, k=1.3))]
    rng = np.random.default_rng(13)
    for fam in fams:
        dim = fam.operator.dim
        for _ in range(5):
            s = rng.normal(size=dim)
            d = rng.normal(size=dim)
            d /= np.linalg.norm(d)
            x = s + (0.7 + rng.random()) * d
            g = eval_kernel_gradient(fam, x, s)
            h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
            fd = np.zeros(dim)
            for i in range(dim):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (eval_kernel(fam, xp, s) - eval_kernel(fam, xm, s)) / (2 * h)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)


# ---------------------------------------------------------------------------
# elasticity kernels

ELASTIC_OP = OperatorSpec("elastostatic", 2, nu=0.3, shear=384615.0)


def test_elasto_disp_values():
    fam = KernelFamily("elasto-disp", ELASTIC_OP)
    v = eval_elasticity_kernel(fam, 1, 1, (1.0, 0.0), (0.0, 0.0))
    # (1/(8 pi mu (1-nu))) * ((3-4nu) ln(1) + 1)
    expect = 1.0 / (8 * math.pi * 384615.0 * 0.7)
    assert v == pytest.approx(expect, rel=1e-13)
    assert eval_elasticity_kernel(fam, 1, 2, (1.0, 0.0), (0.0, 0.0)) == 0.0


def test_elasto_trac_value():
    fam = KernelFamily("elasto-trac", ELASTIC_OP)
    v = eval_elasticity_kernel(fam, 1, 1, (1.0, 0.0), (0.0, 0.0), normal=(1.0, 0.0))
    expect = (0.4 + 2.0) / (4 * math.pi * 0.7)
    assert v == pytest.approx(expect, rel=1e-13)


def test_elasto_errors():
    fam = KernelFamily("elasto-trac", ELASTIC_OP)
    with pytest.raises(SingularityError):
        eval_elasticity_kernel(fam, 1, 1, (0.0, 0.0), (0.0, 0.0), normal=(1, 0))
    with pytest.raises(DomainError):
        eval_elasticity_kernel(fam, 1, 1, (1.0, 0.0), (0.0, 0.0), normal=(2.0, 0.0))
    with pytest.raises(DomainError):
        eval_elasticity_kernel(fam, 3, 1, (1.0, 0.0), (0.0, 0.0), normal=(1, 0))
    with pytest.raises(DomainError):
        OperatorSpec("elastostatic", 2, nu=0.5, shear=1.0)


def test_elasto_equilibrium_residual():
    # Kelvin displacement columns satisfy sigma_ij,j = 0 away from the source
    fam = KernelFamily("elasto-disp", ELASTIC_OP)
    nu, mu = 0.3, 384615.0
    lam = 2 * mu * nu / (1 - 2 * nu)
    rng = np.random.default_rng(21)
    for k in (1, 2):
        for _ in range(10):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            x = (0.5 + 1.5 * rng.random()) * d

            def u(pt, l):
                return eval_elasticity_kernel(fam, l, k, pt, (0.0, 0.0))

            h = 3e-4
            # div sigma via FD on the displacement field
            def sigma(pt):
                g = np.zeros((2, 2))
                for l in (1, 2):
                    for j in (0, 1):
                        pp, pm = list(pt), list(pt)
                        pp[j] += h
                        pm[j] -= h
                        g[l - 1, j] = (u(pp, l) - u(pm, l)) / (2 * h)
                eps = 0.5 * (g + g.T)
                return lam * np.trace(eps) * np.eye(2) + 2 * mu * eps

            div = np.zeros(2)
            for j in (0, 1):
                pp, pm = list(x), list(x)
                pp[j] += h
                pm[j] -= h
                div += (sigma(pp)[:, j] - sigma(pm)[:, j]) / (2 * h)
            scale = mu * max(np.linalg.norm(x) ** -2, 1.0)
            assert np.linalg.norm(div) <= 1e-4 * scale


# ---------------------------------------------------------------------------
# T-complete members

def test_tcomplete_counts():
    fam2 = KernelFamily("t-complete", OperatorSpec("laplace", 2), tcomplete_max_order=4)
    assert len(tcomplete_members(fam2)) == 9
    fam3 = KernelFamily("t-complete", OperatorSpec("laplace", 3), tcomplete_max_order=3)
    assert len(tcomplete_members(fam3)) == 16


def test_tcomplete_values():
    fam = KernelFamily("t-complete", OperatorSpec("laplace", 2), tcomplete_max_order=2)
    assert eval_tcomplete_member(fam, (0, 0, "cos"), (0.3, -0.8)) == 1.0
    assert eval_tcomplete_member(fam, (1, 1, "cos"), (2.0, 0.0)) == pytest.approx(2.0)
    famh = KernelFamily("t-complete", OperatorSpec("helmholtz", 2, k=1.0),
                        tcomplete_max_order=2)
    assert eval_tcomplete_member(famh, (0, 0, "cos"), (1.0, 0.0)) == pytest.approx(
        0.7651976865579666, abs=1e-13)


def _spherical_j3(x):
    """j_3(x) from its power series, x^3 / 7!! sum_k (-x^2 / 2)^k / (k! (9)(11)...(7 + 2k))."""
    term, total = x ** 3 / 105.0, 0.0
    for k in range(1, 30):
        total += term
        term *= -x * x / (2.0 * k * (7 + 2 * k))
    return total


@pytest.mark.parametrize("ident, index, point", [
    ("t-complete:laplace:3d?m=3", (3, 2, "cos"), (1e-9, 0.0, 1.3)),
    ("t-complete:helmholtz:3d?k=1&m=3", (3, 2, "cos"), (1e-9, 0.0, 1.3)),
    ("t-complete:laplace:3d?m=3", (3, 1, "sin"), (0.0, 1e-9, 1.3)),
])
def test_tcomplete_values_next_to_the_polar_axis(ident, index, point):
    # cos phi rounds to 1 here, so sin phi must come from the distance to the
    # axis; with Condon-Shortley, P_3^2(x) = 15 x (1 - x^2) and
    # P_3^1(x) = -3/2 (5 x^2 - 1) sqrt(1 - x^2); the azimuthal factor is 1
    rho = math.hypot(1e-9, 1.3)
    c, s = 1.3 / rho, 1e-9 / rho
    radial = rho ** 3 if "laplace" in ident else _spherical_j3(rho)
    angular = 15.0 * c * s * s if index[1] == 2 else -1.5 * (5.0 * c * c - 1.0) * s
    got = tcomplete_member_block(parse_kernel_id(ident), index, np.array([point]))[0]
    assert got == pytest.approx(radial * angular, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("opkw,M", [
    (dict(kind="laplace", dim=2), 3),
    (dict(kind="helmholtz", dim=2, k=1.2), 3),
    (dict(kind="modified-helmholtz", dim=2, k=1.2), 3),
    (dict(kind="biharmonic", dim=2), 2),
    (dict(kind="laplace", dim=3), 2),
    (dict(kind="helmholtz", dim=3, k=1.2), 2),
    (dict(kind="modified-helmholtz", dim=3, k=1.2), 2),
    (dict(kind="biharmonic", dim=3), 2),
])
def test_tcomplete_members_satisfy_pde(opkw, M):
    op = OperatorSpec(**opkw)
    fam = KernelFamily("t-complete", op, tcomplete_max_order=M)
    tol = 1e-4 if op.kind == "biharmonic" else 1e-5
    rng = np.random.default_rng(31)
    for index in tcomplete_members(fam):
        X = []
        for _ in range(5):
            d = rng.normal(size=op.dim)
            d /= np.linalg.norm(d)
            X.append((0.5 + 1.5 * rng.random()) * d)
        X = np.array(X)

        def fn(P):
            return tcomplete_member_block(fam, index, P)

        res = steady_operator_fd_block(op, fn, X)
        assert np.all(np.abs(res) <= tol * np.maximum(np.abs(fn(X)), 1.0)), (index, X)


def test_tcomplete_power_members_satisfy_pde():
    op = OperatorSpec("helmholtz-power", 2, k=1.2, power_n=1)
    fam = KernelFamily("t-complete", op, tcomplete_max_order=2)
    rng = np.random.default_rng(32)
    for index in tcomplete_members(fam):
        X = []
        for _ in range(5):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            X.append((0.5 + 1.5 * rng.random()) * d)
        X = np.array(X)
        res = steady_operator_fd_block(op, lambda P: tcomplete_member_block(fam, index, P), X)
        assert np.all(np.abs(res) <= 1e-4 * np.maximum(
            np.abs(tcomplete_member_block(fam, index, X)), 1.0))


# ---------------------------------------------------------------------------
# high-order coefficients

def test_high_order_coeffs_base_case():
    co = high_order_coeffs(OperatorSpec("poly-laplace", 2, power_n=0))
    assert co.A == (1.0,)
    assert co.B == (0.0,)
    assert co.C == (1.0,)


def test_high_order_coeffs_one_step():
    co = high_order_coeffs(OperatorSpec("helmholtz-power", 2, k=1.0, power_n=1))
    assert co.A[1] == pytest.approx(0.5)
    assert co.C[1] == pytest.approx(0.25)
    assert co.B[1] == pytest.approx(0.25)


def test_high_order_coeffs_requires_k():
    with pytest.raises(DomainError):
        OperatorSpec("helmholtz-power", 2, k=0.0, power_n=1)


def test_poly_laplace_reduces_to_biharmonic_table_entry():
    # n=1 coefficients reproduce (r^2 ln r - r^2)/8pi and r/8pi
    f2 = fund("poly-laplace", 2, power_n=1)
    b2 = fund("biharmonic", 2)
    f3 = fund("poly-laplace", 3, power_n=1)
    b3 = fund("biharmonic", 3)
    for r in (0.5, 1.0, 2.3):
        assert eval_kernel(f2, (r, 0.0), (0.0, 0.0)) == pytest.approx(
            eval_kernel(b2, (r, 0.0), (0.0, 0.0)), rel=1e-14, abs=1e-16)
        assert eval_kernel(f3, (r, 0.0, 0.0), (0.0, 0.0, 0.0)) == pytest.approx(
            eval_kernel(b3, (r, 0.0, 0.0), (0.0, 0.0, 0.0)), rel=1e-14)


# ---------------------------------------------------------------------------
# errors

def test_singularity_and_unsupported_errors():
    with pytest.raises(SingularityError):
        eval_kernel(fund("laplace", 2), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(UnsupportedKernelError):
        KernelFamily("fundamental", OperatorSpec("wave", 2, c1=1.0))
    with pytest.raises(UnsupportedKernelError):
        KernelFamily("harmonic", OperatorSpec("helmholtz", 2, k=1.0))
    with pytest.raises(DomainError):
        OperatorSpec("helmholtz", 4, k=1.0)  # 4D only for Laplace


def test_bessel_kernel_blocks_keep_the_error_contract():
    # I_n beyond |x| = 700 overflows, as in bessel_i; scipy alone would
    # return a finite value up to ~713 and inf beyond
    far = np.array([[750.0, 0.0], [1.0, 0.0]])
    for n in (0, 1, 3):
        op = OperatorSpec("modified-helmholtz-power" if n else "modified-helmholtz", 2,
                          k=1.0, power_n=n)
        with pytest.raises(RangeOverflowError):
            kernel_block(KernelFamily("radial-trefftz", op), far, [[0.0, 0.0]])
        assert np.isfinite(kernel_block(KernelFamily("radial-trefftz", op), far[1:],
                                        [[0.0, 0.0]])).all()
    # Y and K at argument 0: the coincident point, and a Y argument below
    # the floor that the r = 0 check cannot see
    same = [[0.5, 0.5]]
    for fam in (KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=3.0)),
                fund("helmholtz", 2, k=3.0), fund("modified-helmholtz", 2, k=3.0)):
        with pytest.raises(SingularityError):
            kernel_block(fam, [[1.0, 0.0], [0.5, 0.5]], same)
    tiny = KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=1e-310))
    with pytest.raises(SingularityError):
        kernel_block(tiny, [[1.0, 0.0]], [[0.0, 0.0]])


def test_time_kernel_requires_times():
    fam = KernelFamily("time-fundamental", OperatorSpec("heat", 2, k=1.0))
    with pytest.raises(DomainError):
        eval_kernel(fam, (1.0, 0.0), (0.0, 0.0))


def test_assembly_block_matches_scalar():
    fam = fund("modified-helmholtz", 2, k=1.2)
    X = np.array([[1.0, 0.0], [0.5, 0.7]])
    S = np.array([[3.0, 0.0], [0.0, 3.0], [-3.0, 0.0]])
    block = kernel_block(fam, X, S)
    for i in range(2):
        for j in range(3):
            assert block[i, j] == eval_kernel(fam, X[i], S[j])


# ---------------------------------------------------------------------------
# closed-form gradient and operator rows, every steady catalog family

def _steady_cases():
    """Every steady catalog id but T-complete and elastic ones, with the
    n = 0 and n = 2 variants of each power id and the shift=0.6 variant of
    each radial one."""
    out = []
    for ident in list_kernel_ids():
        family = parse_kernel_id(ident)
        if family.operator.is_time_dependent or family.kind in (
                kernels.T_COMPLETE, kernels.ELASTO_DISP, kernels.ELASTO_TRAC):
            continue
        ids = [ident]
        if "n=1" in ident:
            ids += [ident.replace("n=1", "n=0"), ident.replace("n=1", "n=2")]
        if kernels._is_radial(family):
            ids += [i + ("&" if "?" in i else "?") + "shift=0.6" for i in list(ids)]
        out += ids
    return out


STEADY_CASES = _steady_cases()


def _case(ident, seed=3):
    # shifted kernels are smooth, so their sources may sit among the points
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    rng = np.random.default_rng(seed)
    low = -1.0 if family.shift else 2.0
    return family, rng.uniform(-1.0, 1.0, size=(5, dim)), rng.uniform(low, low + 1.0, size=(3, dim))


def _governing(dim):
    if dim == 4:
        return [OperatorSpec("laplace", dim)]
    return [OperatorSpec("laplace", dim), OperatorSpec("helmholtz", dim, k=0.8),
            OperatorSpec("modified-helmholtz", dim, k=0.9)]


def _fd_operator_rows(family, gov, X, S, h=5e-3):
    # Richardson-extrapolated over steps h and 2h, the oracle's first two for
    # nested operators: a plain step small enough for the h^4 error leaves
    # rows that cancel (conv-diff under modified Helmholtz) roundoff-bound
    def rows(step):
        return np.column_stack([steady_operator_fd_block(
            gov, lambda P, s=s: kernel_block(family, P, s[None])[:, 0], X, h=step) for s in S])

    return (16.0 * rows(h) - rows(2.0 * h)) / 15.0


def _fd_normal_gradient(family, X, S, normals, T=None, TAU=None, h=1e-5):
    return sum(normals[:, [i]] * (kernel_block(family, X + h * e, S, T, TAU)
                                  - kernel_block(family, X - h * e, S, T, TAU)) / (2.0 * h)
               for i, e in enumerate(np.eye(X.shape[1])))


def _assert_rows_match(block, fd, values):
    # 1e-7 relative to the FD rows; rows that vanish identically (the FD
    # reading is rounding noise, below 1e-6 of the values) vanish to 1e-12
    scale = np.abs(fd).max()
    if scale < 1e-6 * np.abs(values).max():
        assert np.abs(block).max() <= 1e-12 * np.abs(values).max()
    else:
        assert np.abs(block - fd).max() <= 1e-7 * scale


@pytest.mark.parametrize("ident", STEADY_CASES)
def test_profile_operator_rows_match_fd(ident, monkeypatch):
    family, X, S = _case(ident)
    values = kernel_block(family, X, S)
    for gov in _governing(family.operator.dim):
        fd = _fd_operator_rows(family, gov, X, S)
        with monkeypatch.context() as patch:  # closed forms only, no FD oracle
            patch.setattr(operators, "steady_operator_fd_block", None)
            block = governing_applied_block(family, gov, X, S)
        _assert_rows_match(block, fd, values)


@pytest.mark.parametrize("ident", STEADY_CASES)
def test_profile_operator_values_are_kernel_block(ident):
    # the g in a residual row's +-k^2 g is the value row's g, shifted or not
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(200, dim))
    S = rng.uniform(-1.0, 1.0, size=(50, dim))
    values, _, _ = kernels._steady_terms(family, X, S, 2)
    assert np.array_equal(values, kernel_block(family, X, S))


@pytest.mark.parametrize("ident", STEADY_CASES)
def test_profile_gradient_rows_match_fd(ident, monkeypatch):
    family, X, S = _case(ident)
    normals = np.random.default_rng(4).normal(size=X.shape)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    fd = _fd_normal_gradient(family, X, S, normals)
    monkeypatch.setattr(operators, "steady_operator_fd_block", None)
    block = kernels.kernel_gradient_block(family, X, S, normals)
    assert np.abs(block - fd).max() <= 1e-7 * np.abs(fd).max()


SMOOTH_CASES = [ident for ident in STEADY_CASES if not parse_kernel_id(ident).is_singular]


@pytest.mark.parametrize("ident", SMOOTH_CASES)
def test_rows_at_a_source_point_take_the_limit(ident):
    # X == S: grad g -> 0 (plus g grad w for a drift factor w) and the
    # Laplacian's R -> 0 limit, against central differences around the source
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    rng = np.random.default_rng(6)
    X = rng.uniform(-1.0, 1.0, size=(4, dim))
    normals = rng.normal(size=X.shape)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    values = kernel_block(family, X, X)
    assert np.all(np.isfinite(values))
    block = kernels.kernel_gradient_block(family, X, X, normals)
    _assert_rows_match(block, _fd_normal_gradient(family, X, X, normals), values)
    for gov in _governing(dim):
        _assert_rows_match(governing_applied_block(family, gov, X, X),
                           _fd_operator_rows(family, gov, X, X), values)


TIME_IDS = [ident for ident in list_kernel_ids()
            if parse_kernel_id(ident).operator.kind in ("heat", "wave")]


@pytest.mark.parametrize("ident", TIME_IDS)
def test_time_gradient_rows_match_fd(ident):
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.0, 1.0, size=(6, dim))
    S = rng.uniform(-1.0, 1.0, size=(4, dim))
    normals = rng.normal(size=X.shape)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    T = rng.uniform(5.0, 6.0, size=6)  # inside the wave cone: c1 dt > r
    TAU = np.array([0.0, 0.5, 1.0, 7.0])  # the last column is inactive
    block = kernels.kernel_gradient_block(family, X, S, normals, T, TAU)
    fd = _fd_normal_gradient(family, X, S, normals, T, TAU)
    assert np.all(block[:, -1] == 0.0)
    assert np.abs(block - fd).max() <= 1e-7 * np.abs(fd).max()


NEAR_SOURCE_CASES = [
    # (id, radial part f(R, mp) in mpmath, time factor at dt = 1, Delta f / f)
    ("radial-trefftz:helmholtz:3d?k=1.3",
     lambda R, mp: mp.sin(1.3 * R) / (4 * mp.pi * R), 1.0, -1.3 ** 2),
    ("radial-trefftz:modified-helmholtz:3d?k=1.3",
     lambda R, mp: mp.sinh(1.3 * R) / (4 * mp.pi * R), 1.0, 1.3 ** 2),
    ("time-radial-trefftz:heat:3d?k=0.7", lambda R, mp: mp.sin(R) / R, math.exp(-0.7), None),
    ("time-radial-trefftz:wave:3d?c1=1.5",
     lambda R, mp: mp.sin(R) / R, math.cos(1.5) + math.sin(1.5) / 1.5, None),
]


@pytest.mark.parametrize("ident,radial,factor,eigen", NEAR_SOURCE_CASES,
                         ids=[case[0] for case in NEAR_SOURCE_CASES])
def test_smooth_3d_rows_near_the_source_match_mpmath(ident, radial, factor, eigen):
    # Neumann rows (normal along dx) read f'(R) (dx . n) / R; the sin/cos and
    # sinh/cosh quotients cancelled there (8e-5 relative at R = 1e-6), j_1 and
    # i_1 do not.  Operator rows read Delta f = s f, the value times +-k^2.
    mp = pytest.importorskip("mpmath")
    family = parse_kernel_id(ident)
    normal = np.array([[1.0, 2.0, 2.0]]) / 3.0
    S = np.zeros((1, 3))
    times = (np.ones(1), np.zeros(1)) if family.operator.is_time_dependent else ()
    with mp.workdps(40):
        for r in (1e-2, 1e-4, 1e-6):
            X = r * normal
            R = mp.sqrt(sum(mp.mpf(c) ** 2 for c in X[0]))
            along = sum(mp.mpf(c) * mp.mpf(v) for c, v in zip(X[0], normal[0])) / R
            expected = float(mp.diff(lambda t: radial(t, mp), R) * along * factor)
            got = kernels.kernel_gradient_block(family, X, S, normal, *times)[0, 0]
            assert abs(got - expected) <= 1e-12 * abs(expected), (r, got, expected)
            if eigen is not None:
                lap = kernels._steady_terms(family, X, S, 2)[2][0, 0]
                expected = float(eigen * radial(R, mp))
                assert abs(lap - expected) <= 1e-12 * abs(expected), (r, lap, expected)


EIGEN_NEAR_SOURCE_CASES = [
    # (id, g(R) in mpmath, shift): each solves Delta g = s g away from R = 0
    ("fundamental:modified-helmholtz:3d?k=1.3",
     lambda R, mp: mp.exp(-1.3 * R) / (4 * mp.pi * R), 0.0),
    ("fundamental:helmholtz:3d?k=1.3", lambda R, mp: mp.exp(1.3j * R) / (4 * mp.pi * R), 0.0),
    ("fundamental-real:helmholtz:2d?k=1.3",
     lambda R, mp: mp.bessely(0, 1.3 * R) / (2 * mp.pi), 0.0),
    ("fundamental:laplace:3d", lambda R, mp: 1 / (4 * mp.pi * R), 0.0),
    ("fundamental-real:helmholtz:2d?k=1.3&shift=0.5",
     lambda R, mp: mp.bessely(0, 1.3 * R) / (2 * mp.pi), 0.5),
]


@pytest.mark.parametrize("ident,radial,shift", EIGEN_NEAR_SOURCE_CASES,
                         ids=[case[0] for case in EIGEN_NEAR_SOURCE_CASES])
def test_eigen_laplacian_rows_near_the_source_match_mpmath(ident, radial, shift):
    # Delta of f(r) = g(sqrt(r^2 + shift^2)) is f'' + (d-1) f'/r; from g'' the
    # two terms cancelled near an unshifted source (4.0e-4 of |g| at
    # r = 1e-6), and the rows read s g instead
    mp = pytest.importorskip("mpmath")
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    direction = (np.array([1.0, 2.0, 2.0]) / 3.0 if dim == 3 else np.array([0.6, 0.8]))[None]
    S = np.zeros((1, dim))
    with mp.workdps(40):
        for r in (1e-2, 1e-4, 1e-6):
            X = r * direction
            rr = mp.sqrt(sum(mp.mpf(c) ** 2 for c in X[0]))

            def f(t):
                return radial(mp.sqrt(t * t + mp.mpf(shift) ** 2), mp)

            expected = complex(mp.diff(f, rr, 2) + (dim - 1) * mp.diff(f, rr) / rr)
            scale = max(abs(expected), abs(complex(f(rr))))
            lap = kernels._steady_terms(family, X, S, 2)[2][0, 0]
            assert abs(lap - expected) <= 1e-12 * scale, (r, lap, expected)


TIME_IDS = [ident for ident in list_kernel_ids()
            if parse_kernel_id(ident).operator.is_time_dependent] + [
    "time-fundamental:structural-diffusion:2d?d=0.8&alpha=0.7&beta=1.3&st=power&sx=power",
    "time-fundamental:structural-diffusion:2d?st=log&sx=exp"]


@pytest.mark.parametrize("ident", TIME_IDS)
def test_time_derivative_block_matches_fd_of_values(ident):
    # a 5-point central difference of kernel_block in t (h = 1e-3), with
    # every pair at least 2.5 inside the wave cone; the last column starts
    # after every row time, so it is inactive
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    rng = np.random.default_rng(11)
    X = rng.uniform(0.1, 0.6, size=(6, dim))
    S = rng.uniform(1.6, 2.1, size=(4, dim))
    T = rng.uniform(6.5, 7.0, size=6)
    TAU = np.array([0.1, 0.3, 0.5, 8.0])
    rate = kernels.kernel_time_derivative_block(family, X, S, T, TAU)

    def shifted(k):
        return kernel_block(family, X, S, T + k * 1e-3, TAU)

    fd = (shifted(-2) - 8.0 * shifted(-1) + 8.0 * shifted(1) - shifted(2)) / 12e-3
    assert np.all(rate[:, -1] == 0.0)
    assert np.abs(rate - fd).max() <= 1e-9 * np.abs(shifted(0)).max()


def test_structural_time_derivative_is_zero_before_the_source_time():
    # g'(t) = 0.7 t^-0.3 is infinite at t = 0, where G vanishes near every
    # source with tau > 0: the rate there is 0, not 0 * inf
    family = parse_kernel_id("time-fundamental:structural-diffusion:2d?alpha=0.7&st=power")
    X, S = np.array([[0.2, 0.3], [0.4, 0.1]]), np.array([[1.5, 1.0]])
    with np.errstate(all="raise"):
        rate = kernels.kernel_time_derivative_block(family, X, S, [0.0, 1.0], [0.5])
    assert rate[0, 0] == 0.0 and rate[1, 0] > 0.0


def _mp_time_kernel(family, r, dt, mp):
    op = family.operator
    if family.kind == kernels.TIME_FUNDAMENTAL and op.kind == "heat":
        return mp.exp(-r ** 2 / (4 * op.k * dt)) / (4 * mp.pi * op.k * dt) ** (mp.mpf(op.dim) / 2)
    if family.kind == kernels.TIME_FUNDAMENTAL:  # 2D wave
        return 1 / (2 * mp.pi * op.c1 * mp.sqrt((op.c1 * dt) ** 2 - r ** 2))
    radial = mp.besselj(0, r) if op.dim == 2 else mp.sin(r) / r
    if op.kind == "heat":
        return mp.exp(-op.k * dt) * radial
    return (mp.cos(op.c1 * dt) + mp.sin(op.c1 * dt) / op.c1) * radial


@pytest.mark.parametrize("ident", ["time-fundamental:heat:2d?k=0.7",
                                   "time-fundamental:heat:3d?k=0.7",
                                   "time-fundamental:wave:2d?c1=1.3",
                                   "time-radial-trefftz:heat:2d?k=0.7",
                                   "time-radial-trefftz:heat:3d?k=0.7",
                                   "time-radial-trefftz:wave:2d?c1=1.3",
                                   "time-radial-trefftz:wave:3d?c1=1.3"])
def test_time_derivative_block_matches_mpmath(ident):
    mp = pytest.importorskip("mpmath")
    family = parse_kernel_id(ident)
    dim = family.operator.dim
    X = np.array([[0.3, -0.4, 0.2], [1.1, 0.2, -0.3]])[:, :dim]
    S = np.array([[1.5, 0.5, 0.1]])[:, :dim]
    T, TAU = np.array([2.0, 3.7]), np.array([0.25])
    got = kernels.kernel_time_derivative_block(family, X, S, T, TAU)
    with mp.workdps(40):
        for i in range(len(X)):
            r = mp.sqrt(sum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(X[i], S[0])))
            dt = mp.mpf(T[i]) - mp.mpf(TAU[0])
            expected = float(mp.diff(lambda t: _mp_time_kernel(family, r, t, mp), dt))
            assert abs(got[i, 0] - expected) <= 1e-12 * abs(expected), (i, got[i, 0], expected)


def test_structural_diffusion_neumann_rows_are_unsupported(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("kernel evaluated before the Neumann-row check")

    for name in ("_time_form", "_time_pairs", "kernel_block", "_heat_like"):
        monkeypatch.setattr(kernels, name, forbidden)
    family = parse_kernel_id("time-fundamental:structural-diffusion:2d")
    X = np.full((2, 2), 0.5)
    with pytest.raises(UnsupportedKernelError, match="Neumann.*structural-diffusion"):
        kernels.kernel_gradient_block(family, X, X + 1.0, np.array([[1.0, 0.0]] * 2),
                                      [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(UnsupportedKernelError, match="Neumann.*structural-diffusion"):
        eval_kernel_gradient(family, SpaceTimePoint((0.5, 0.5), 1.0),
                             SpaceTimePoint((1.5, 1.5), 0.0))


def test_governing_applied_block_at_a_source_point():
    # smooth families take their R -> 0 limits at r = 0; singular ones raise
    helmholtz = OperatorSpec("helmholtz", 2, k=2.0)
    X = RNG.uniform(-1.0, 1.0, size=(4, 2))
    S = np.vstack([X[:1], RNG.uniform(2.0, 3.0, size=(2, 2))])
    for ident in ("harmonic:laplace:2d",
                  "radial-trefftz:convection-diffusion:2d?k=1&d=1&v=0.1,0.1"):
        block = governing_applied_block(parse_kernel_id(ident), helmholtz, X, S)
        assert np.all(np.isfinite(block))
    with pytest.raises(SingularityError):
        governing_applied_block(parse_kernel_id("fundamental:laplace:2d"), helmholtz, X, S)


def test_harmonic_rows_under_helmholtz_are_exact_at_the_source():
    # harmonic:laplace:2d has lap = 0 and value 1 at its source, so its
    # Helmholtz (k = 2) residual row reads exactly k^2 = 4 there
    family = parse_kernel_id("harmonic:laplace:2d")
    X = np.array([[0.3, -0.2]])
    block = governing_applied_block(family, OperatorSpec("helmholtz", 2, k=2.0), X, X)
    assert block[0, 0] == 4.0


N0_PAIRS = [(f"radial-trefftz:{kind}-power:{dim}d?{params}&n=0",
             f"radial-trefftz:{kind}:{dim}d?{params}")
            for kind, params, dims in (("helmholtz", "k=1", (2, 3)),
                                       ("modified-helmholtz", "k=1", (2, 3)),
                                       ("convection-diffusion", "k=1&d=1&v=0.1,0.1", (2,)))
            for dim in dims]


@pytest.mark.parametrize("power, base", N0_PAIRS)
def test_radial_trefftz_power_kinds_at_n0_evaluate_as_base_kind(power, base):
    power, base = parse_kernel_id(power), parse_kernel_id(base)
    dim = base.operator.dim
    X = RNG.uniform(-1.0, 1.0, size=(5, dim))
    S = RNG.uniform(2.0, 3.0, size=(3, dim))
    assert np.array_equal(kernel_block(power, X, S), kernel_block(base, X, S))
    # both take their gradient and Laplacian rows from the base kind's
    # radial profile and eigenvalue
    normals = np.full((5, dim), 1.0 / math.sqrt(dim))
    assert np.array_equal(kernels.kernel_gradient_block(power, X, S, normals),
                          kernels.kernel_gradient_block(base, X, S, normals))
    laplace = OperatorSpec("laplace", dim)
    assert np.array_equal(governing_applied_block(power, laplace, X, S),
                          governing_applied_block(base, laplace, X, S))


def test_governing_applied_block_rejects_other_operators(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("kernel evaluated before the operator check")

    monkeypatch.setattr(kernels, "_steady_terms", forbidden)
    monkeypatch.setattr(kernels, "kernel_block", forbidden)
    family = parse_kernel_id("harmonic:laplace:2d")
    with pytest.raises(UnsupportedKernelError):
        governing_applied_block(family, OperatorSpec("biharmonic", 2),
                                np.ones((2, 2)), np.full((3, 2), 3.0))


def test_eval_kernel_points_elastic_families_to_component_view():
    fam = KernelFamily("elasto-disp", ELASTIC_OP)
    with pytest.raises(DomainError, match="eval_elasticity_kernel"):
        eval_kernel(fam, (1.0, 0.0), (0.0, 0.0))
