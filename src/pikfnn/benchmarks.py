"""Built-in benchmark problems at desk scale.

Each builder returns a ProblemSetup: collocation data, sources, kernel
families, train settings, and the test protocol (points + analytic values).
Geometry stand-ins and parameter choices are recorded in `notes` and end up
in summary.json.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import network
from .annihilators import SourceTerm, build_annihilator_chain
from .errors import ConfigurationError
from .geometry import (
    CollocationSet,
    SourceSet,
    gen_boundary,
    gen_sources,
    gen_spacetime_grid,
    interior_ball,
    interior_disk,
    interior_grid_lshape,
    interior_grid_square,
    interior_torus,
)
from .kernels import KernelFamily
from .operators import OperatorSpec, structural_fn
from .registry import format_kernel_id
from .training import TrainConfig


@dataclass
class ProblemSetup:
    name: str
    operator: OperatorSpec
    families: list
    colloc: CollocationSet
    sources: SourceSet
    train: TrainConfig
    test_points: np.ndarray
    test_values: np.ndarray
    test_times: np.ndarray = None
    rerr_floor: float = 0.0
    exact: callable = None           # u(x) or u(x, t): residual self-checks
    source_fn: callable = None       # f(x) or f(x, t), vectorized like exact
    row_weights: dict = None
    post: str = None                 # extra post-processing tag ("stress")
    pretrained: list = None          # [(family, weights)]: source-fitted chain
    notes: dict = field(default_factory=dict)

    @property
    def kernel_ids(self):
        ids = [format_kernel_id(f) for f in self.families]
        if self.pretrained:
            ids += [format_kernel_id(f) for f, _ in self.pretrained]
        return ids


def _train(overrides, **defaults):
    cfg = dict(defaults)
    cfg.update(overrides or {})
    return TrainConfig(**cfg)


# ---------------------------------------------------------------------------
# Example 1: Helmholtz wave propagation on the unit square (Adam)

def example1(seed=0, train=None):
    k = math.sqrt(200.0)

    def exact(x):
        return np.sin(10.0 * x[..., 0] + 10.0 * x[..., 1])

    pts, _ = gen_boundary("square", 80, a=-1.0, b=1.0)
    colloc = CollocationSet(pts, ["D"] * len(pts), exact(pts))
    # the printed source square does not enclose the domain; use [-1.5, 1.5]^2
    sources = SourceSet(gen_boundary("square", 80, a=-1.5, b=1.5)[0])
    fam = KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=k))
    test = interior_grid_square(-1.0, 1.0, 32)
    return ProblemSetup(
        name="example1", operator=fam.operator, families=[fam], colloc=colloc,
        sources=sources,
        train=_train(train, optimizer="adam", lr=5e-3,
                     max_iters=400_000, loss_goal=1e-5, tol=1e-14, seed=seed),
        test_points=test, test_values=exact(test), exact=exact,
        notes={"source_square": [-1.5, 1.5], "wavenumber": k})


# ---------------------------------------------------------------------------
# Example 2: high-wavenumber Helmholtz on the unit circle (LM)

def example2(seed=0, train=None, k=100.0, n_boundary=400):
    def exact(x):
        return np.sin(k * x[..., 0]) + np.cos(k * x[..., 1])

    pts, _ = gen_boundary("circle", n_boundary, r=1.0)
    colloc = CollocationSet(pts, ["D"] * len(pts), exact(pts))
    sources = gen_sources(None, "scaled_circle", n=n_boundary, r=3.0)
    fam = KernelFamily("fundamental-real", OperatorSpec("helmholtz", 2, k=k))
    test = interior_disk(1.0, 36)
    return ProblemSetup(
        name="example2", operator=fam.operator, families=[fam], colloc=colloc,
        sources=sources,
        train=_train(train, optimizer="lm", lambda_down=0.01, tol=1e-4,
                     max_iters=200, seed=seed),
        test_points=test, test_values=exact(test), exact=exact,
        notes={"wavenumber": k, "n_boundary": n_boundary})


# ---------------------------------------------------------------------------
# Example 3: exterior Laplace (infinite domain), LM tolerance sweep

def example3(seed=0, train=None, n_boundary=400):
    def exact(x):
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        return (x[..., 0] + x[..., 1]) / r2

    # cavity radius 2: on a unit circle ln|x| = 0 kills the monopole column
    # and leaves the far-field log mode unconstrained by boundary data
    pts, _ = gen_boundary("circle", n_boundary, r=2.0)
    colloc = CollocationSet(pts, ["D"] * len(pts), exact(pts))
    sources = gen_sources(None, "scaled_circle", n=n_boundary, r=0.5)
    fam = KernelFamily("fundamental", OperatorSpec("laplace", 2))
    grid = interior_grid_square(-8.0, 8.0, 44)
    rad = np.linalg.norm(grid, axis=1)
    test = grid[(rad >= 3.0) & (rad <= 8.0)]
    return ProblemSetup(
        name="example3", operator=fam.operator, families=[fam], colloc=colloc,
        sources=sources,
        train=_train(train, optimizer="lm", lambda_down=0.01, tol=1e-10,
                     max_iters=400, seed=seed),
        test_points=test, test_values=exact(test), exact=exact,
        notes={"boundary": "circle of radius 2 (paper shows only a figure)",
               "fictitious_radius": 0.5,
               "test_region": "exterior far-field grid, 3 <= |x| <= 8 "
                              "(the infinite-domain behavior is the point)"})


# ---------------------------------------------------------------------------
# Example 4 analog: nonhomogeneous modified Helmholtz on the unit sphere
#
# The annihilator families' weights are fitted first (here and in example5)
# so their governing-operator image reproduces the source term on the data
# rows (uniqueness of the chain operator extends that into the domain); the
# main family then trains on source-corrected data.  Data alone cannot pin
# the split between the families otherwise.

def _fit_particular(chain_fams, sources, colloc, source_values, governing):
    """Pre-fit the chain: (source-corrected colloc, [(family, weights)], notes
    with the fit rms and amplification)."""
    q, fit_rms, amplification = network.fit_particular_weights(
        chain_fams, sources, colloc.points, source_values, governing, colloc.times)
    particular = network.PikfnnModel(chain_fams, sources, governing.dim, weights=q)
    corrected = colloc.values - network.forward(particular, colloc.points, colloc.times)
    return (CollocationSet(colloc.points, colloc.kinds, corrected, colloc.normals, colloc.times),
            list(zip(chain_fams, np.split(q, len(chain_fams)))),
            {"source_fit_rms": fit_rms, "source_fit_amplification": amplification})


def example4(seed=0, train=None, n_boundary=400):
    def exact(x):
        return np.exp(x[..., 0] + x[..., 1] + x[..., 2])

    def source(x):
        return 2.0 * np.exp(x[..., 0] + x[..., 1] + x[..., 2])

    base = OperatorSpec("modified-helmholtz", 3, k=1.0)
    chain = build_annihilator_chain(
        SourceTerm("exponential", coeff=2.0, direction=(1.0, 1.0, 1.0)), base)
    chain_fams = [KernelFamily("fundamental", op) for op in chain]
    pts, _ = gen_boundary("sphere", n_boundary, r=1.0)
    sources = gen_sources(None, "scaled_sphere", n=n_boundary, r=3.0)

    colloc, pretrained, fit_notes = _fit_particular(
        chain_fams, sources, CollocationSet(pts, ["D"] * len(pts), exact(pts)),
        source(pts), base)

    test = interior_ball(1.0, 12)
    return ProblemSetup(
        name="example4", operator=base,
        families=[KernelFamily("fundamental", base)], colloc=colloc,
        sources=sources,
        train=_train(train, optimizer="lm", tol=1e-12, max_iters=300,
                     loss_goal=1e-5, seed=seed),
        test_points=test, test_values=exact(test), exact=exact,
        source_fn=source,
        pretrained=pretrained,
        notes={"geometry": "unit sphere stand-in for the rabbit model",
               "annihilator": [format_kernel_id(f) for f in chain_fams],
               **fit_notes})


# ---------------------------------------------------------------------------
# Example 5 scaled: long-term transient heat conduction on a torus

def example5(seed=0, train=None, n_boundary=200, n_interior=80):
    kappa = 0.001

    def spatial(x):
        return np.sin(x[..., 0]) + np.cos(x[..., 1]) + np.sin(x[..., 2])

    def exact(x, t):
        return spatial(x) * np.exp(-0.003 * t)

    def source(x, t):
        return -0.002 * spatial(x) * np.exp(-0.003 * np.asarray(t))

    base = OperatorSpec("heat", 3, k=kappa)
    chain = build_annihilator_chain(
        SourceTerm("separable_time", coeff=-0.002, rate=-0.003,
                   spatial=SourceTerm("trig_eigen", eigenvalue=-1.0)), base)
    chain_fams = [KernelFamily("time-fundamental", op) for op in chain]

    boundary, _ = gen_boundary("torus", n_boundary, r_major=2.0, r_minor=0.5)
    interior = interior_torus(2.0, 0.5, n_interior, seed=seed + 1)
    instants = (20.0, 40.0, 60.0, 80.0, 100.0)
    colloc = gen_spacetime_grid(boundary, instants, np.vstack([boundary, interior]),
                                bc_value=exact, init_value=spatial)
    sources = gen_sources(colloc, "same_nodes_with_delay", dt=200.0)

    # annihilator family reproduces the thermal loading on the data rows
    colloc, pretrained, fit_notes = _fit_particular(
        chain_fams, sources, colloc, source(colloc.points, colloc.times), base)

    surf, _ = gen_boundary("torus", 150, r_major=2.0, r_minor=0.5)
    vol = interior_torus(2.0, 0.5, 100, seed=seed + 8)
    test = np.vstack([surf, vol])
    times = np.full(test.shape[0], 100.0)
    return ProblemSetup(
        name="example5", operator=base,
        families=[KernelFamily("time-fundamental", base)], colloc=colloc,
        sources=sources,
        train=_train(train, optimizer="lm", tol=1e-10, max_iters=150, seed=seed),
        test_points=test, test_values=exact(test, 100.0), test_times=times,
        rerr_floor=0.05, exact=exact,
        source_fn=source,
        pretrained=pretrained,
        notes={"torus": {"r_major": 2.0, "r_minor": 0.5}, "delay_dt": 200.0,
               "instants": list(instants),
               "annihilator_diffusivity": chain[0].k,
               **fit_notes,
               "rerr_floor": "points with |u_ana| < 5% of max excluded (logged)"})


# ---------------------------------------------------------------------------
# Example 6: spatial structural-derivative diffusion on the unit square

def example6(seed=0, train=None, diffusion=1.0, beta=1.0, selector="power"):
    half_pi = 0.5 * math.pi
    if selector == "log":
        raise ConfigurationError("example6 cannot use the log selector: ln maps the "
                                 "square's x = 0 edge to -inf")
    fmap, _ = structural_fn(selector, beta)

    def profile(x):
        f1 = fmap(x[..., 0])
        f2 = fmap(x[..., 1])
        return (np.cos(half_pi * f1) + np.cos(half_pi * f2)
                + np.sin(half_pi * f1) + np.sin(half_pi * f2))

    def exact(x, t):
        return profile(x) * np.exp(-(math.pi ** 2) * diffusion * t / 4.0)

    op = OperatorSpec("structural-diffusion", 2, diffusion=diffusion, beta=beta,
                      structural_t="identity", structural_x=selector)
    fam = KernelFamily("time-fundamental", op)
    boundary, _ = gen_boundary("square", 80, a=0.0, b=1.0)
    interior = interior_grid_square(0.0, 1.0, 13)
    instants = (0.2, 0.4, 0.6, 0.8, 1.0)
    colloc = gen_spacetime_grid(boundary, instants, np.vstack([boundary, interior]),
                                bc_value=exact, init_value=profile)
    sources = gen_sources(colloc, "same_nodes_with_delay", dt=3.0)

    test = interior_grid_square(0.0, 1.0, 20)
    times = np.full(test.shape[0], 1.0)
    return ProblemSetup(
        name="example6", operator=op, families=[fam], colloc=colloc,
        sources=sources,
        train=_train(train, optimizer="lm", tol=1e-10, max_iters=150, seed=seed),
        test_points=test, test_values=exact(test, 1.0), test_times=times,
        exact=exact,
        notes={"geometry": "unit square (paper gives only a figure)",
               "diffusion": diffusion, "spatial_kernel": f"{selector}:{beta}",
               "delay_dt": 3.0})


# ---------------------------------------------------------------------------
# Example 7: 4D Laplace on the unit hypersphere

def example7(seed=0, train=None, n_boundary=400):
    def exact(x):
        return x[..., 0] ** 2 + x[..., 1] ** 2 - x[..., 2] ** 2 - x[..., 3] ** 2

    pts, _ = gen_boundary("hypersphere4", n_boundary, r=1.0, seed=seed)
    colloc = CollocationSet(pts, ["D"] * len(pts), exact(pts))
    sources = gen_sources(pts, "inflated", factor=5.0)
    fam = KernelFamily("fundamental", OperatorSpec("laplace", 4))
    test, _ = gen_boundary("hypersphere4", n_boundary, r=0.5, seed=seed + 1)
    return ProblemSetup(
        name="example7", operator=fam.operator, families=[fam], colloc=colloc,
        sources=sources,
        train=_train(train, optimizer="lm", tol=1e-8, max_iters=300, seed=seed),
        test_points=test, test_values=exact(test), exact=exact,
        notes={"source_radius": 5.0, "test_surface_radius": 0.5})


# ---------------------------------------------------------------------------
# Example 8 synthetic: Cauchy recovery on a spherical shell

def example8_synthetic(seed=0, train=None, n_outer=300):
    x0 = np.array([0.15, -0.10, 0.10])  # singularity inside the inner sphere

    def exact(x):
        d = np.asarray(x, dtype=float) - x0
        return 1.0 / np.linalg.norm(d, axis=-1)

    def flux(x, n):
        d = np.asarray(x, dtype=float) - x0
        r = np.linalg.norm(d, axis=-1)
        return -np.einsum("...i,...i->...", d, n) / r ** 3

    pts, nms = gen_boundary("sphere", n_outer, r=2.0)
    # over-specified Cauchy data: Dirichlet + Neumann rows at the same nodes
    points = np.vstack([pts, pts])
    kinds = ["D"] * n_outer + ["N"] * n_outer
    values = np.concatenate([exact(pts), flux(pts, nms)])
    normals = np.vstack([nms, nms])
    colloc = CollocationSet(points, kinds, values, normals=normals)
    sources = gen_sources(None, "scaled_sphere", n=n_outer, r=0.3)
    fam = KernelFamily("fundamental", OperatorSpec("laplace", 3))
    test, _ = gen_boundary("sphere", 200, r=0.8)
    return ProblemSetup(
        name="example8-synthetic", operator=fam.operator, families=[fam],
        colloc=colloc, sources=sources,
        train=_train(train, optimizer="lm", tol=1e-8, max_iters=300, seed=seed),
        test_points=test, test_values=exact(test), exact=exact,
        notes={"setup": "synthetic harmonic field; Cauchy data on the outer "
                        "sphere only; recovery scored on the inner sphere",
               "outer_radius": 2.0, "inner_radius": 0.8, "source_radius": 0.3})


# ---------------------------------------------------------------------------
# Example 9: enhanced kernels on the L-shaped domain (interior-residual loss)

def example9(seed=0, train=None, shift=1.0):
    def exact(x):
        return np.sin(x[..., 0]) + np.sin(x[..., 1]) + x[..., 0]

    def source_term(x):
        return x[..., 0]

    op = OperatorSpec("helmholtz", 2, k=1.0)
    fam = KernelFamily("fundamental-real", op, shift=shift)
    bpts, _ = gen_boundary("lshape", 62, scale=1.0)
    interior = interior_grid_lshape(1.0, 17)
    points = np.vstack([bpts, interior])
    kinds = ["D"] * len(bpts) + ["R"] * len(interior)
    values = np.concatenate([exact(bpts), source_term(interior)])
    colloc = CollocationSet(points, kinds, values)
    sources = SourceSet(points.copy())

    test = interior_grid_lshape(1.0, 24)
    return ProblemSetup(
        name="example9", operator=op, families=[fam], colloc=colloc,
        sources=sources,
        train=_train(train, optimizer="lm", tol=1e-10, max_iters=300, seed=seed),
        test_points=test, test_values=exact(test), rerr_floor=0.05, exact=exact,
        source_fn=source_term,
        notes={"shift": shift, "n_boundary": len(bpts), "n_interior": len(interior),
               "rerr_floor": "points with |u_ana| < 5% of max excluded (logged)"})


# ---------------------------------------------------------------------------
# Example 10: elastic thin plate under uniform pressure (plane strain)

def example10(seed=0, train=None, thickness_ratio=1e-3, length=20.0):
    nu, mu, p = 0.3, 384615.0, 1.0
    h = thickness_ratio * length
    s11 = p * nu / (nu - 1.0)
    s22 = -p

    def u2_exact(x):
        return -p * (1.0 - 2.0 * nu) / (2.0 * mu * (1.0 - nu)) * x[..., 1]

    half = 0.5 * length
    m_long, m_short = 40, 14
    x1 = -half + (np.arange(m_long) + 0.5) * length / m_long
    x2 = (np.arange(m_short) + 0.5) * h / m_short
    # bottom: clamped; top: pressure; sides, left and right at each height:
    # manufactured confining traction
    nodes = np.vstack([np.column_stack([x1, np.zeros(m_long)]),
                       np.column_stack([x1, np.full(m_long, h)]),
                       np.column_stack([np.tile([-half, half], m_short), np.repeat(x2, 2)])])
    normals = np.vstack([np.full((m_long, 2), np.nan), np.tile([0.0, 1.0], (m_long, 1)),
                         np.tile([[-1.0, 0.0], [1.0, 0.0]], (m_short, 1))])
    traction = np.vstack([np.zeros((m_long, 2)), np.tile([0.0, s22], (m_long, 1)),
                          np.tile([[-s11, 0.0], [s11, 0.0]], (m_short, 1))])
    # one row per node and component (1, 2) of its displacement or traction
    colloc = CollocationSet(np.repeat(nodes, 2, axis=0),
                            np.repeat(["D", "N"], [2 * m_long, 2 * (m_long + 2 * m_short)]),
                            traction.ravel(), normals=np.repeat(normals, 2, axis=0),
                            components=np.tile([1, 2], len(nodes)))

    n_src = len(nodes)
    # sources clear the plate by 2 (the paper's radius 10 equals the plate
    # half-length); zeros init keeps random rigid-mode content out of the
    # clamp rows' near-null directions, and displacement rows are rescaled by
    # the shear modulus so the clamp competes with the O(1) traction rows
    sources = gen_sources(None, "scaled_circle", n=n_src, r=12.0)
    op = OperatorSpec("elastostatic", 2, nu=nu, shear=mu)
    fam = KernelFamily("elasto-disp", op)

    xs = np.linspace(-half, half, 27)[1:-1]
    ys = np.linspace(0.0, h, 6)[1:-1]
    X1, X2 = np.meshgrid(xs, ys)
    test = np.column_stack([X1.ravel(), X2.ravel()])
    return ProblemSetup(
        name="example10", operator=op, families=[fam], colloc=colloc,
        sources=sources,
        train=_train(train, optimizer="lm", tol=1e-16, max_iters=400,
                     seed=seed, init="zeros"),
        test_points=test, test_values=u2_exact(test), post="stress",
        row_weights={"D": mu},
        notes={"h": h, "length": length, "nu": nu, "shear": mu,
               "sigma11_exact": s11, "sigma22_exact": s22,
               "stress_point": [0.0, 0.5 * h],
               "source_radius": 12.0, "displacement_row_weight": mu,
               "field_metric": "u2 displacement"})


BUILTINS = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
    "example4": example4,
    "example5": example5,
    "example6": example6,
    "example7": example7,
    "example8-synthetic": example8_synthetic,
    "example9": example9,
    "example10": example10,
}
