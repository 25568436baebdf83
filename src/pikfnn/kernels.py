"""Closed-form kernel functions that satisfy their governing operator away
from the source point, with closed-form gradients and operator application.

Every evaluation is pure; KernelFamily instances are frozen and shareable.
Array-valued helpers (suffix `_block`) broadcast over field/source point
sets and back the design-matrix assembly, in the family's dtype (complex for
the Hankel form); the scalar entry points are 1x1 views of them.  A block
sees each (field, source) pair through geometry's one rule: r^2 from
pairwise_sq_dist, and, where a formula reads components, the per-coordinate
differences of pairwise_differences, summed in index order (coordinate_dot).
No (n, m, dim) difference tensor is built.

Each closed form is written once, and values, gradients and operator rows
all derive from it: a steady kernel is a radial profile of _radial_profile
(times the convection-diffusion drift factor), or a harmonic sum
(_harmonic_terms), and _steady_terms builds all three row kinds from that.
A radial part that solves its own equation lap g = s g (Laplace,
Helmholtz, modified Helmholtz, the convection-diffusion part; s from
_eigenvalue) is the profile [g, g'], and its Laplacian is s g plus the
shift's term; the others carry [g, g', g''].  A time kernel is one form
G(q, dt) (_time_form), whose value, spatial slope and time derivative serve
value, Neumann and initial-velocity rows.  A Kelvin column is one
displacement form U; its gradient gives traction and stress through
plane_strain_stress.  elasto-trac assembles the same columns as
elasto-disp (a row's kind picks displacement or traction) and differs only
in eval_elasticity_kernel, which returns the printed traction kernel: minus
the column's own traction.  A T-complete member is one form R(rho) P(cos
phi) A(theta) (_tcomplete_member); a 2D member is that form on the plane
phi = pi/2, where P = 1, and one Bessel rule gives every radial part and
its derivative (_tcomplete_radial).  No row here is a finite difference, and the FD
oracle in operators reads kernel values only, never the rows it checks.

Sign conventions: the heat-type exponent is negative (boundedness as
r -> inf); Heaviside uses theta(0) = 0; the 3D Helmholtz fundamental
solution defaults to the outgoing e^{+ikr}/4 pi r, a flag selects the
conjugate sign.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import DomainError, SingularityError, UnsupportedKernelError
from .geometry import coordinate_dot, pairwise_differences, pairwise_sq_dist
from .operators import OperatorSpec, high_order_coeffs
from .special_functions import assoc_legendre_block, bessel_block, spherical_bessel_block

# kernel classes
FUNDAMENTAL = "fundamental"
FUNDAMENTAL_REAL = "fundamental-real"
HARMONIC = "harmonic"
RADIAL_TREFFTZ = "radial-trefftz"
T_COMPLETE = "t-complete"
TIME_FUNDAMENTAL = "time-fundamental"
TIME_RADIAL_TREFFTZ = "time-radial-trefftz"
ELASTO_DISP = "elasto-disp"
ELASTO_TRAC = "elasto-trac"

KERNEL_CLASSES = (FUNDAMENTAL, FUNDAMENTAL_REAL, HARMONIC, RADIAL_TREFFTZ,
                  T_COMPLETE, TIME_FUNDAMENTAL, TIME_RADIAL_TREFFTZ,
                  ELASTO_DISP, ELASTO_TRAC)

SINGULAR_CLASSES = (FUNDAMENTAL, FUNDAMENTAL_REAL, TIME_FUNDAMENTAL,
                    ELASTO_DISP, ELASTO_TRAC)

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class SpaceTimePoint:
    """Coordinate vector plus optional time."""

    x: tuple
    t: float = None

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if any(not math.isfinite(v) for v in self.x):
            raise DomainError("coordinates must be finite")
        if self.t is not None and not math.isfinite(self.t):
            raise DomainError("time must be finite")


@dataclass(frozen=True)
class KernelFamily:
    """One kernel family: class + operator + shape/shift parameters.

    complex_split is the opt-in complex mode: a complex-valued family (the
    Hankel-form Helmholtz fundamental solution) contributes separate
    real-part and imaginary-part columns, doubling its weight count.  Every
    kernel, Bessel functions of any order included, is evaluated in numpy
    (special_functions), so constructing or evaluating a family imports no
    other library.
    """

    kind: str                      # kernel class
    operator: OperatorSpec
    c_shape: float = 1.0           # harmonic-kernel shape parameter
    shift: float = 0.0             # enhanced mode: radial arg sqrt(r^2 + shift^2)
    tcomplete_max_order: int = 0
    outgoing_3d: bool = True       # 3D Helmholtz sign convention
    complex_split: bool = False

    def __post_init__(self):
        if self.kind not in KERNEL_CLASSES:
            raise DomainError(f"unknown kernel class {self.kind!r}")
        if self.c_shape <= 0:
            raise DomainError("c_shape must be > 0")
        if self.shift < 0:
            raise DomainError("shift must be >= 0")
        if self.tcomplete_max_order < 0:
            raise DomainError("tcomplete_max_order must be >= 0")
        if self.complex_split and not self.is_complex:
            raise DomainError("complex_split needs a complex-valued family")
        _require_supported(self)

    @property
    def is_singular(self):
        return self.kind in SINGULAR_CLASSES and self.shift == 0.0

    @property
    def is_complex(self):
        return self.kind == FUNDAMENTAL and self.operator.kind in (
            ops.HELMHOLTZ, ops.HELMHOLTZ_POWER)


_SUPPORT = {
    FUNDAMENTAL: {
        ops.LAPLACE: (2, 3, 4), ops.HELMHOLTZ: (2, 3),
        ops.MODIFIED_HELMHOLTZ: (2, 3), ops.CONVECTION_DIFFUSION: (2, 3),
        ops.BIHARMONIC: (2, 3), ops.POLY_LAPLACE: (2, 3),
        ops.HELMHOLTZ_POWER: (2, 3), ops.MOD_HELMHOLTZ_POWER: (2, 3),
        ops.CONV_DIFF_POWER: (2,),
    },
    FUNDAMENTAL_REAL: {ops.HELMHOLTZ: (2, 3), ops.HELMHOLTZ_POWER: (2,)},
    HARMONIC: {ops.LAPLACE: (2, 3), ops.BIHARMONIC: (2, 3), ops.POLY_LAPLACE: (2, 3)},
    RADIAL_TREFFTZ: {
        ops.HELMHOLTZ: (2, 3), ops.MODIFIED_HELMHOLTZ: (2, 3),
        ops.CONVECTION_DIFFUSION: (2, 3), ops.HELMHOLTZ_POWER: (2, 3),
        ops.MOD_HELMHOLTZ_POWER: (2, 3), ops.CONV_DIFF_POWER: (2,),
    },
    T_COMPLETE: {
        ops.LAPLACE: (2, 3), ops.HELMHOLTZ: (2, 3),
        ops.MODIFIED_HELMHOLTZ: (2, 3), ops.BIHARMONIC: (2, 3),
        ops.POLY_LAPLACE: (2,), ops.HELMHOLTZ_POWER: (2,),
        ops.MOD_HELMHOLTZ_POWER: (2,),
    },
    TIME_FUNDAMENTAL: {ops.HEAT: (2, 3), ops.WAVE: (2, 3),
                       ops.STRUCTURAL_DIFFUSION: (2,)},
    TIME_RADIAL_TREFFTZ: {ops.HEAT: (2, 3), ops.WAVE: (2, 3)},
    ELASTO_DISP: {ops.ELASTOSTATIC: (2,)},
    ELASTO_TRAC: {ops.ELASTOSTATIC: (2,)},
}


def _require_supported(family):
    op = family.operator
    dims = _SUPPORT.get(family.kind, {}).get(op.kind)
    if dims is None or op.dim not in (dims or ()):
        raise UnsupportedKernelError(
            f"no kernel for class={family.kind!r} operator={op.kind!r} dim={op.dim}")
    if family.shift > 0 and not _is_radial(family):
        raise UnsupportedKernelError(
            "the enhanced radial shift applies to radial steady kernels only")


def _is_radial(family):
    return family.kind in _BESSEL and not _drifts(family.operator)


def _as_row(point):
    """A point as one row (1, dim), and its time as a length-1 array (None
    without one): the arguments of a 1x1 block."""
    x, t = (point.x, point.t) if isinstance(point, SpaceTimePoint) else (point, None)
    return np.asarray(x, dtype=float).reshape(1, -1), None if t is None else np.array([float(t)])


# ---------------------------------------------------------------------------
# steady kernels: a radial part g(R) of the radial argument R, times the
# drift factor for convection-diffusion, or a harmonic sum

def _drifts(op):
    return op.kind in (ops.CONVECTION_DIFFUSION, ops.CONV_DIFF_POWER)


def _steady_terms(family, X, S, order):
    """[K, grad K, lap K][:order + 1] of the steady kernel K for every pair of
    field points X (n, dim) and sources S (m, dim), each (n, m); grad K is a
    list of one array per coordinate, and with order 2 a radial part's grad K
    slot is None.

    K is a harmonic sum, or a radial part g(R), R = sqrt(r^2 + shift^2),
    times the drift factor w = e^{-u . dx} of convection-diffusion (u =
    v / 2D; else w = 1): grad K = w (g'/R dx - g u) and
    lap K = w (lap g - 2 g'/R dx . u + g |u|^2).  A radial part that solves
    g'' + (d-1) g'/R = s g (_eigenvalue) has lap g = s g + shift^2 (d g'/R -
    s g)/R^2, exactly s g unshifted, at R = 0 too; any other has
    lap g = g'' r^2/R^2 + g' (shift^2/R^3 + (d-1)/R).  At R = 0 a kernel that
    is finite there is smooth and even: g'/R dx -> 0, and a power piece's
    lap g is _origin_laplacian's.
    """
    op = family.operator
    drifts = _drifts(op)
    dx = pairwise_differences(X, S) if order == 1 or drifts or family.kind == HARMONIC else None
    r2 = pairwise_sq_dist(X, S) if dx is None else coordinate_dot(dx, dx)
    if family.kind == HARMONIC:
        return _harmonic_terms(family, dx, r2, order)
    r = np.sqrt(r2)
    if family.is_singular and np.any(r == 0.0):
        raise SingularityError(f"kernel {family.kind}:{op.kind} evaluated at r = 0")
    sigma = family.shift
    re = np.sqrt(r * r + sigma * sigma) if sigma > 0.0 else r
    s = _eigenvalue(*_radial_kind(family)) if order == 2 else None
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at R = 0, replaced below
        g = _radial_profile(family, re, order)
        if order:  # d/dx g(R(r)) = g'(R) * (r/R) * unit(dx) = g'(R)/R * dx
            slope = np.where(re == 0.0, 0.0, g[1] / re)
        if s is not None:
            lap = s * g[0]
            if sigma > 0.0:
                lap = lap + sigma * sigma * (op.dim * slope - lap) / re ** 2
        elif order == 2:
            lap = g[2] * r2 / re ** 2 + g[1] * (sigma * sigma / re ** 3 + (op.dim - 1) / re)
    if order == 2 and s is None and np.any(re == 0.0):
        lap = np.where(re == 0.0, _origin_laplacian(op), lap)
    terms = [g[0]]
    if order == 1:
        terms.append([slope * d for d in dx])
    elif order == 2:
        terms += [None, lap]
    if drifts:
        v = np.asarray(op.velocity)
        w = np.exp(-coordinate_dot(dx, v) / (2.0 * op.diffusion))
        u = v / (2.0 * op.diffusion)
        if order == 1:
            terms[1] = [(t - g[0] * u_i) * w for t, u_i in zip(terms[1], u)]
        if order == 2:
            terms[2] = (lap - 2.0 * slope * coordinate_dot(dx, u)
                        + g[0] * coordinate_dot(u, u)) * w
        terms[0] = g[0] * w
    return terms


def _eigenvalue(kind, k):
    """s with lap g = s g for the radial solutions g of an operator kind at
    wavenumber k: 0 for Laplace, -k^2 for Helmholtz, k^2 for modified
    Helmholtz and for convection-diffusion's radial part (k = mu there); None
    for every other kind."""
    return {ops.LAPLACE: 0.0, ops.HELMHOLTZ: -k * k, ops.MODIFIED_HELMHOLTZ: k * k,
            ops.CONVECTION_DIFFUSION: k * k}.get(kind)


def _radial_kind(family):
    """(operator kind, k) of the family's radial part: k is mu for
    convection-diffusion, and a radial-Trefftz power kind at n = 0 is its
    base kind."""
    op = family.operator
    kind = op.base().kind if family.kind == RADIAL_TREFFTZ and not op.power_n else op.kind
    return kind, op.mu_cd if _drifts(op) else op.k


# the Bessel function F of each class's Helmholtz and modified-Helmholtz
# radial parts: F_0(kR) / 2 pi in 2D (i/4 H_0 for "h", the Hankel form
# J + iY), and A_n z^n F_n(z) for the power kinds
_BESSEL = {FUNDAMENTAL: ("h", "k"), FUNDAMENTAL_REAL: ("y", None),
           RADIAL_TREFFTZ: ("j", "i")}


def _radial_profile(family, re, order):
    """The family's radial part at the radial arguments re (an ndarray):
    [g, g'][:order + 1] where g solves lap g = s g (_eigenvalue), else
    [g, g', g''][:order + 1].  The radial part is the kernel itself, or for
    convection-diffusion the factor of the drift e^{-v . dx / 2D}, the
    modified-Helmholtz part at k = mu.

    Each Bessel function is evaluated once, and only the orders asked are
    computed.
    """
    op = family.operator
    dim = op.dim
    if family.kind not in _BESSEL:
        raise UnsupportedKernelError(
            f"no steady formula for class={family.kind!r} operator={op.kind!r} dim={dim}")
    kind, k = _radial_kind(family)
    if kind == ops.LAPLACE:
        if dim == 2:
            terms = (lambda: -np.log(re) / _TWO_PI, lambda: -1.0 / (_TWO_PI * re))
        elif dim == 3:
            terms = (lambda: 1.0 / (_FOUR_PI * re), lambda: -1.0 / (_FOUR_PI * re * re))
        else:
            terms = (lambda: 1.0 / (4.0 * math.pi ** 2 * re * re),
                     lambda: -2.0 / (4.0 * math.pi ** 2 * re ** 3))
        return [term() for term in terms[:order + 1]]
    if kind in (ops.BIHARMONIC, ops.POLY_LAPLACE):  # biharmonic: poly-Laplace n = 1
        n = 1 if kind == ops.BIHARMONIC else op.power_n
        if dim == 2:  # R^2n (C_n log R - B_n) / 2 pi, C_1 = B_1 = 1/4
            co = high_order_coeffs(op)
            c, b = (0.25, 0.25) if kind == ops.BIHARMONIC else (co.C[n], co.B[n])
            terms = (lambda: (re * re * np.log(re) - re * re) / (8.0 * math.pi)
                     if kind == ops.BIHARMONIC else re ** (2 * n) / _TWO_PI * (c * np.log(re) - b),
                     lambda: re ** (2 * n - 1) * (2 * n * (c * np.log(re) - b) + c) / _TWO_PI,
                     lambda: re ** (2 * n - 2) * (2 * n * (2 * n - 1) * (c * np.log(re) - b)
                                                  + (4 * n - 1) * c) / _TWO_PI)
        else:  # R^(2n-1) / (4 pi (2n)!)
            f = _FOUR_PI * math.factorial(2 * n)
            terms = (lambda: re ** (2 * n - 1) / f,
                     lambda: (2 * n - 1) * re ** (2 * n - 2) / f,
                     lambda: (2 * n - 1) * (2 * n - 2) * re ** (2 * n - 3) / f)
        return [term() for term in terms[:order + 1]]
    bessel = _BESSEL[family.kind][kind not in (ops.HELMHOLTZ, ops.HELMHOLTZ_POWER)]
    if kind in ops.POWER_KINDS:
        return _power_profile(op, bessel, k, re, order)
    z = k * re
    if dim == 2:  # F0' = F1 for I, -F1 for J, Y, H and K
        scale = (lambda f: 0.25j * f) if bessel == "h" else (lambda f: f / _TWO_PI)
        terms = (lambda: _bessel(bessel, 0, z),
                 lambda: (k if bessel == "i" else -k) * _bessel(bessel, 1, z))
        return [scale(term()) for term in terms[:order + 1]]
    if family.kind == FUNDAMENTAL_REAL:
        cos = np.cos(z)
        terms = (lambda: cos / (_FOUR_PI * re),
                 lambda: -(k * np.sin(z) * re + cos) / (_FOUR_PI * re * re))
    elif bessel in ("k", "h"):  # e^{-z} / 4 pi R: z = kR, or -+ikR for e^{+-ikR}
        if bessel == "h":
            z = -((1.0 if family.outgoing_3d else -1.0) * 1j * k * re)
        e = np.exp(-z)
        terms = (lambda: e / (_FOUR_PI * re), lambda: -e * (z + 1.0) / (_FOUR_PI * re * re))
    elif bessel == "j":  # radial-Trefftz Helmholtz: sin(kR) / 4 pi R
        # g' = -k^2 j_1(kR) / 4 pi keeps full precision near the source,
        # where the sin and cos form cancels
        terms = (lambda: np.sinc(z / math.pi) * k / _FOUR_PI,
                 lambda: -k * k * spherical_bessel_block("j", 1, z) / _FOUR_PI)
    else:  # radial-Trefftz modified Helmholtz, k / 4 pi at R = 0; g' = k^2 i_1(kR) / 4 pi
        terms = (lambda: np.divide(np.sinh(z), _FOUR_PI * re, where=re != 0.0,
                                   out=np.full(re.shape, k / _FOUR_PI)),
                 lambda: k * k * spherical_bessel_block("i", 1, z) / _FOUR_PI)
    return [term() for term in terms[:order + 1]]


def _power_profile(op, bessel, k, re, order):
    """[g, g', g''][:order + 1] of the power piece g(R) = _power_piece(kR).

    With u = z^a F_v (a = v = n in 2D; a = n - 1/2, v = n + 1/2 in 3D):
    u' = s z^a F_{v-1} + (a - v) z^{a-1} F_v, s = -1 for K and +1 otherwise
    (DLMF 10.6, 10.29), and Bessel's equation gives
    z^2 u'' = (2a - 1) z u' - (a^2 - v^2) u - e z^2 u, e = -1 for I and K.
    """
    n, dim = op.power_n, op.dim
    z = k * re
    g = _power_piece(op, bessel, z)
    if not order:
        return [g]
    gp = (-1.0 if bessel == "k" else 1.0) * k * _power_piece(op, bessel, z, n - 1)
    if dim == 3:
        gp = gp - g / re
    if order == 1:
        return [g, gp]
    e = -1.0 if bessel in ("i", "k") else 1.0
    gpp = ((2 * n + 1 - dim) * gp + 2 * n * (dim - 2) * g / re) / re - e * k * k * g
    return [g, gp, gpp]


def _bessel(kind, v, z, spherical=False):
    """F_v(z) of the given kind (f_v if spherical); "h" takes J_v + i Y_v."""
    block = spherical_bessel_block if spherical else bessel_block
    if kind == "h":
        return block("j", v, z) + 1j * block("y", v, z)
    return block(kind, v, z)


def _power_piece(op, kind, z, order=None):
    """A_n z^n F_v(z) in 2D and A_n z^n sqrt(2/pi) f_v(z) in 3D, n = op.power_n,
    v = n unless an order is given, F the Bessel function of the given kind
    and f its spherical form; kind "h" takes the Hankel form i (J_v + i Y_v)."""
    n = op.power_n
    piece = high_order_coeffs(op).A[n] * z ** n
    if op.dim == 3:
        piece = piece * math.sqrt(2.0 / math.pi)
    f = _bessel(kind, n if order is None else order, z, op.dim == 3)
    return piece * 1j * f if kind == "h" else piece * f


def _harmonic_sum(c, dx, dim):
    # e^{-c(r1^2 - r2^2)} cos(2 c r1 r2) summed over coordinate pairs
    def pair(a, b):
        return np.exp(-c * (a * a - b * b)) * np.cos(2.0 * c * a * b)

    if dim == 2:
        return pair(dx[0], dx[1])
    return pair(dx[0], dx[1]) + pair(dx[1], dx[2]) + pair(dx[2], dx[0])


def _harmonic_terms(family, dx, r2, order):
    """[K, grad K, lap K][:order + 1] of the harmonic kernel K = r^2n H at the
    coordinate differences dx: H the harmonic sum (lap H = 0), n = 1 for
    biharmonic, the power for poly-Laplace, else 0.  A pair term of H is
    Re F(a + ib), F(z) = e^{-c z^2}, so its d/da is Re F' and its d/db is
    -Im F'."""
    op = family.operator
    c = family.c_shape
    n = op.power_n if op.kind == ops.POLY_LAPLACE else (1 if op.kind == ops.BIHARMONIC else 0)
    h = _harmonic_sum(c, dx, op.dim)
    terms = [(r2 ** n if n else 1.0) * h]
    if order:
        grad_h = [np.zeros(r2.shape) for _ in dx]
        for i, j in ((0, 1),) if op.dim == 2 else ((0, 1), (1, 2), (2, 0)):
            z = dx[i] + 1j * dx[j]
            f = -2.0 * c * z * np.exp(-c * z * z)
            grad_h[i] += f.real
            grad_h[j] -= f.imag
        q = 2 * n * r2 ** (n - 1) if n else 0.0  # grad r^2n = q dx, lap r^2n = (2n + d - 2) q
        terms.append([q * h * d + r2 ** n * gh for d, gh in zip(dx, grad_h)])
        terms.append(q * ((2 * n + op.dim - 2) * h + 2.0 * coordinate_dot(dx, grad_h)))
    return terms[:order + 1]


# ---------------------------------------------------------------------------
# time-dependent kernels: each is one closed form G(q, dt), and its value,
# spatial slope and time derivative all come from it; theta(0) = 0, so
# dt <= 0 contributes nothing

VALUE, SLOPE, RATE = "value", "slope", "rate"


def _time_pairs(family, X, S, T, TAU):
    """(q, dt) for every (row, column) pair: q = r^2 and dt = t - tau, or for
    the structural kernel q = |F(x) - F(s)|^2 and dt = g(t) - g(tau), the maps
    applied componentwise once to each point set and time vector."""
    if T is None or TAU is None:
        raise DomainError("time kernels need T (rows) and TAU (columns)")
    X, S, T, TAU = (np.asarray(a, dtype=float) for a in (X, S, T, TAU))
    op = family.operator
    if op.kind == ops.STRUCTURAL_DIFFUSION:
        gfun, _ = ops.structural_fn(op.structural_t, op.alpha)
        ffun, _ = ops.structural_fn(op.structural_x, op.beta)
        X, S, T, TAU = ffun(X), ffun(S), gfun(T), gfun(TAU)
    return pairwise_sq_dist(X, S), np.subtract.outer(T, TAU)


def _time_form(family, q, dt, part):
    """One part of the time kernel G(q, dt) (broadcast): part VALUE is G,
    SLOPE is (dG/dr) / r with q = r^2 (so grad_x G = slope dx), RATE is
    dG/d(dt).  The heat-type RATE overwrites q and dt."""
    op = family.operator
    dim = op.dim
    if family.kind == TIME_FUNDAMENTAL and op.kind != ops.WAVE:
        return _heat_like(q, dt, op.k if op.kind == ops.HEAT else op.diffusion, dim, part)
    r = np.sqrt(q)
    if family.kind == TIME_FUNDAMENTAL:  # wave, inside the cone c1 dt > r
        active = op.c1 * dt > r
        if dim == 3:  # 1 / (4 pi r); the front is a delta in t, which no row resolves
            if np.any(active & (r == 0.0)):
                raise SingularityError("3D wave kernel evaluated at r = 0")
            if part == RATE:
                return np.zeros(active.shape)
            with np.errstate(divide="ignore"):
                vals = np.where(active, 1.0 / (_FOUR_PI * np.sqrt(q)), 0.0)
            return -vals / q if part == SLOPE else vals
        # 1 / (2 pi c1 sqrt((c1 dt)^2 - r^2)): slope G / ((c1 dt)^2 - r^2), rate -c1^2 dt slope
        with np.errstate(invalid="ignore"):
            vals = np.where(active, 1.0 / (_TWO_PI * op.c1 * np.sqrt((op.c1 * dt) ** 2 - q)), 0.0)
        if part == VALUE:
            return vals
        slope = vals / np.where(vals != 0.0, (op.c1 * dt) ** 2 - q, 1.0)
        return slope if part == SLOPE else -op.c1 ** 2 * dt * slope
    # time-radial-Trefftz: a time mode times R(r) = J_0(r) in 2D, j_0(r) in 3D
    active = dt > 0.0
    dta = np.where(active, dt, 0.0)
    if part == SLOPE:  # (dR/dr) / r
        radial = -(bessel_block("j", 1, r) if dim == 2 else spherical_bessel_block("j", 1, r)) / r
    else:
        radial = bessel_block("j", 0, r) if dim == 2 else np.sinc(r / math.pi)
    if op.kind == ops.HEAT:
        mode = np.exp(-op.k * dta)
        if part == RATE:
            mode *= -op.k
    elif part == RATE:
        mode = np.cos(op.c1 * dta) - op.c1 * np.sin(op.c1 * dta)
    else:  # the second term carries 1/c1 so the pair spans the cos/sin time modes
        mode = np.cos(op.c1 * dta) + np.sin(op.c1 * dta) / op.c1
    return np.where(active, mode * radial, 0.0)


def _heat_like(q, dtg, kdiff, dim, part=VALUE):
    """G = theta(dtg) exp(-q / (4 kdiff dtg)) / (4 pi kdiff dtg)^{dim/2}, its
    slope G / (-2 kdiff dtg) or its rate G (q / (4 kdiff dtg^2) - dim / (2 dtg)).

    Shared by the heat kernel (q = r^2, dtg = t - tau) and the structural
    kernel (q = |F(x)-F(s)|^2, dtg = G(t)-G(tau)) so the alpha = beta = 1
    reduction is bit-for-bit.  The rate overwrites q and dtg.
    """
    active = dtg > 0.0
    # the whole block runs, inactive entries on dtg = 1 (finite, no warnings),
    # in one output and one denominator buffer
    denom = np.where(active, dtg, 1.0)
    denom *= 4.0 * kdiff
    vals = np.divide(q, denom)
    np.negative(vals, out=vals)
    np.exp(vals, out=vals)
    denom *= math.pi
    denom **= 0.5 * dim
    vals /= denom
    np.copyto(vals, 0.0, where=~active)
    if part == SLOPE:
        return vals / (-2.0 * kdiff * np.where(active, dtg, 1.0))
    if part == RATE:  # in place: q becomes the first term, dtg the second
        inactive = ~active
        np.copyto(dtg, 1.0, where=inactive)
        np.square(dtg, out=denom)
        denom *= 4.0 * kdiff
        q /= denom
        np.divide(0.5 * dim, dtg, out=dtg)
        q -= dtg
        vals *= q
        np.copyto(vals, 0.0, where=inactive)
    return vals


# ---------------------------------------------------------------------------
# public scalar operations

def eval_kernel(family, field_point, source_point):
    """Kernel value at one (field, source) pair, a 1x1 view of kernel_block.

    Accepts SpaceTimePoint or plain coordinate sequences.  Complex values
    appear only for the Hankel-form Helmholtz fundamental solution.
    """
    (x, t), (s, tau) = _as_row(field_point), _as_row(source_point)
    if x.shape != s.shape or x.size != family.operator.dim:
        raise DomainError(f"points must have dim {family.operator.dim}")
    if family.kind in (ELASTO_DISP, ELASTO_TRAC):
        raise DomainError("elasticity kernels are 2x2 tensors; call "
                          "eval_elasticity_kernel with the components (l, k)")
    val = kernel_block(family, x, s, t, tau)[0, 0]
    return complex(val) if np.iscomplexobj(val) else float(val)


def eval_kernel_gradient(family, field_point, source_point):
    """Gradient of the kernel w.r.t. the field point, in closed form (a 1x1
    view of _gradient_block)."""
    (x, t), (s, tau) = _as_row(field_point), _as_row(source_point)
    return np.array([g[0, 0] for g in _gradient_block(family, x, s, t, tau)])


def _gradient_block(family, X, S, T=None, TAU=None):
    """grad_x of the kernel for every pair of field points X (n, dim) at
    times T and sources S (m, dim) at times TAU: one (n, m) array per
    coordinate.  A time kernel is a radial function of r: grad = (d/dr)/r dx,
    -> 0 at r = 0."""
    op = family.operator
    if op.kind == ops.STRUCTURAL_DIFFUSION:
        raise UnsupportedKernelError(
            "Neumann rows need the kernel gradient, which the structural-diffusion "
            "family (time-fundamental:structural-diffusion) does not provide")
    if not op.is_time_dependent:
        return _steady_terms(family, X, S, 1)[1]
    r2, dt = _time_pairs(family, X, S, T, TAU)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at r = 0
        slope = np.where(r2 == 0.0, 0.0, _time_form(family, r2, dt, SLOPE))
    return [slope * d for d in pairwise_differences(X, S)]


def kernel_time_derivative_block(family, X, S, T, TAU):
    """d/dt of the kernel for each (row, column) pair: rows = field points X
    (n, dim) at times T (n,), columns = sources S (m, dim) at times TAU (m,).
    A steady kernel does not depend on t, so its block is zero; the
    structural kernel's rate dG/d(dt) takes the factor g'(t)."""
    op = family.operator
    if not op.is_time_dependent:
        return np.zeros((len(X), len(S)), complex if family.is_complex else float)
    rate = _time_form(family, *_time_pairs(family, X, S, T, TAU), RATE)
    if op.kind == ops.STRUCTURAL_DIFFUSION:  # g' may be infinite where G = 0 (t = 0)
        _, gprime = ops.structural_fn(op.structural_t, op.alpha)
        with np.errstate(divide="ignore"):
            gp = np.reshape(gprime(np.asarray(T, dtype=float)), (-1, 1))
        np.multiply(rate, gp, out=rate, where=rate != 0.0)
    return rate


def governing_applied_block(family, governing, X, S, T=None, TAU=None):
    """(L0 phi)(x_i; s_j) for a whole block, L0 the governing operator.

    Fast paths: exact-satisfaction zeros when the family solves L0 itself,
    and analytic d/dt for heat-by-heat.  Otherwise L0 = lap - s is
    Laplace-type, s its _eigenvalue, and the block is lap K - s K: the
    closed-form Laplacian of the family's kernel K (_steady_terms, where a
    radial part that solves lap g = s' g reads s' g) minus s times its
    values.  The block has the family's dtype.
    """
    same = governing == family.operator
    exact = family.shift == 0.0 and family.kind in (
        FUNDAMENTAL, FUNDAMENTAL_REAL, RADIAL_TREFFTZ, HARMONIC,
        TIME_FUNDAMENTAL, TIME_RADIAL_TREFFTZ)
    if same and exact:
        return np.zeros((len(X), len(S)), complex if family.is_complex else float)
    if exact and governing.kind == ops.HEAT and family.operator.kind == ops.HEAT:
        k1, k0 = family.operator.k, governing.k
        return (k1 - k0) / k1 * kernel_time_derivative_block(family, X, S, T, TAU)
    if governing.kind not in (ops.LAPLACE, ops.HELMHOLTZ, ops.MODIFIED_HELMHOLTZ):
        raise UnsupportedKernelError(
            f"interior-residual rows not implemented for operator {governing.kind!r}")
    vals, _, lap = _steady_terms(family, X, S, 2)
    return lap - _eigenvalue(governing.kind, governing.k) * vals


def _origin_laplacian(op):
    """lap g at R = 0 of a radial-Trefftz power piece: it goes as A_n z^2n /
    2^n n! (3D: sqrt(2/pi) A_n z^2n / (2n+1)!!), which at n = 1 gives
    2 k^2 A_1 = 1 (sqrt(2/pi) in 3D) and above n = 1 gives 0."""
    return float(op.power_n == 1) * (1.0 if op.dim == 2 else math.sqrt(2.0 / math.pi))


# ---------------------------------------------------------------------------
# T-complete members

def tcomplete_members(family):
    """Ordered member indices (v, m, parity) for a T-complete family: degrees
    v = 0..M, orders m <= v (in 2D only m = v), cos and (m > 0) sin; 2M + 1
    members in 2D, (M + 1)^2 in 3D."""
    M = family.tcomplete_max_order
    return [(v, m, parity) for v in range(M + 1)
            for m in (range(v + 1) if family.operator.dim == 3 else (v,))
            for parity in (("cos", "sin") if m else ("cos",))]


def eval_tcomplete_member(family, index, point):
    """T-complete basis member at a point given relative to the expansion
    origin (a one-row view of tcomplete_member_block)."""
    return float(tcomplete_member_block(family, index, _as_row(point)[0])[0])


def tcomplete_member_block(family, index, X):
    """T-complete member values at the rows of X (n, dim), given relative to
    the expansion origin.  index = (degree v, order m, parity); 2D uses the
    order m."""
    return _tcomplete_member(family, index, X, gradient=False)


def tcomplete_member_gradient_block(family, index, X):
    """Gradients (n, dim) of a T-complete member at the rows of X, in closed
    form from the radial part's derivative and the angular derivatives (the
    expansion origin included, where the polar frame is taken at theta = 0
    and phi = 0)."""
    return _tcomplete_member(family, index, X, gradient=True)


def _tcomplete_power(op):
    """n of a member's radial part z^n F: the operator's power in 2D, 0 for
    biharmonic and in 3D."""
    return op.power_n if op.dim == 2 and op.kind != ops.BIHARMONIC else 0


def _tcomplete_member(family, index, X, gradient):
    """f = R(rho) P(cos phi) A(theta), A = cos or sin m theta, in polar
    angle phi from x3 and azimuth theta; a 2D member is the form on the
    plane phi = pi/2, where P = 1, and its radial order is m + n."""
    v, m, parity = index
    if parity not in ("cos", "sin"):
        raise DomainError(f"parity must be cos|sin, got {parity!r}")
    X = np.asarray(X, dtype=float)
    op = family.operator
    if X.ndim != 2 or X.shape[1] != op.dim:
        raise DomainError(f"points must have dim {op.dim}")
    if op.dim == 2:
        v = m + _tcomplete_power(op)
        rho = np.hypot(X[:, 0], X[:, 1])
        theta = np.arctan2(X[:, 1], X[:, 0])
        cosphi, sinphi, pvm = 0.0, 1.0, 1.0
    else:
        if m > v:
            raise DomainError(f"need m <= v, got m={m} v={v}")
        rho = np.sqrt(coordinate_dot(X.T, X.T))
        origin = rho == 0.0
        with np.errstate(invalid="ignore"):
            cosphi = np.clip(np.where(origin, 1.0, X[:, 2] / rho), -1.0, 1.0)
            # from the distance to the axis, as cos phi rounds to +-1 near it
            sinphi = np.where(origin, 0.0, np.hypot(X[:, 0], X[:, 1]) / rho)
        theta = np.where(origin, 0.0, np.arctan2(X[:, 1], X[:, 0]))
        pvm = assoc_legendre_block(v, m, cosphi, sinphi)
    ang = np.cos(m * theta) if parity == "cos" else np.sin(m * theta)
    if not gradient:
        return _tcomplete_radial(op, v, rho, False) * pvm * ang
    # grad f = R' P A rho^ + (R / rho) (dP/dphi A phi^ + (P / sin phi) A' theta^)
    dr, rr = _tcomplete_radial(op, v, rho, True)
    dpdphi, m_p_over_sin = (0.0, m) if op.dim == 2 else _legendre_angular(v, m, cosphi, sinphi)
    across = -np.sin(m * theta) if parity == "cos" else np.cos(m * theta)  # A' / m
    along = dr * pvm * ang
    polar = rr * dpdphi * ang
    across *= rr * m_p_over_sin
    planar = along * sinphi + polar * cosphi
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([planar * c - across * s, planar * s + across * c,
                     along * cosphi - polar * sinphi][:op.dim], axis=1)


def _tcomplete_radial(op, v, rho, gradient):
    """R(rho) of a member of radial order v, or (R', R / rho) for its
    gradient: rho^p for the Laplace-type kinds, else R = z^n F_v(z), z = k
    rho, F the Bessel function (J or I) in 2D and its spherical form (j or
    i, order v + 1/2) in 3D; d = dim - 2."""
    n, d = _tcomplete_power(op), op.dim - 2
    if op.kind in (ops.LAPLACE, ops.POLY_LAPLACE, ops.BIHARMONIC):
        p = v + 2 if op.kind == ops.BIHARMONIC else v + n
        if not gradient:
            return rho ** p
        over = rho ** (p - 1) if p else np.zeros(rho.shape)
        return p * over, over
    kind, sign = ("j", -1.0) if op.kind in (ops.HELMHOLTZ, ops.HELMHOLTZ_POWER) else ("i", 1.0)
    z = op.k * rho

    def f(order):
        return _bessel(kind, order, z, spherical=d == 1)

    if not gradient:
        return z ** n * f(v)
    if v == 0:  # J_0' = -J_1, I_0' = I_1 and likewise spherical; A' = 0 and dP/dphi = 0
        return sign * op.k * f(1), np.zeros(rho.shape)
    # F'_v = F_{v-1} - ((v + d) / z) F_v and (2v + d) F_v / z = F_{v-1} -
    # sign F_{v+1} (DLMF 10.6.1-2, 10.29.1-2, 10.51.1-2, 10.51.4-5) give
    # R' = k z^n ((v + n) F_{v-1} + sign (v - n + d) F_{v+1}) / (2v + d) and
    # R / rho = k z^n (F_{v-1} - sign F_{v+1}) / (2v + d), finite at rho = 0
    lo, hi = f(v - 1), f(v + 1)
    scale = op.k * z ** n / (2 * v + d)
    return scale * ((v + n) * lo + sign * (v - n + d) * hi), scale * (lo - sign * hi)


def _legendre_angular(v, m, x, s):
    """dP_v^m(cos phi)/dphi and m P_v^m / sin phi at x = cos phi, both finite
    on the axis: dP_v^m/dphi = (P_v^{m+1} - (v + m)(v - m + 1) P_v^{m-1}) / 2
    (P_v^1 at m = 0) and m P_v^m / sin phi = -(P_{v+1}^{m+1}
    + (v - m + 1)(v - m + 2) P_{v+1}^{m-1}) / 2 (0 at m = 0), with the
    Condon-Shortley phase of assoc_legendre_block; s = sin phi."""
    up = assoc_legendre_block(v, m + 1, x, s) if m < v else np.zeros(x.shape)
    if m == 0:
        return up, np.zeros(x.shape)
    dp = 0.5 * (up - (v + m) * (v - m + 1) * assoc_legendre_block(v, m - 1, x, s))
    over = -0.5 * (assoc_legendre_block(v + 1, m + 1, x, s)
                   + (v - m + 1) * (v - m + 2) * assoc_legendre_block(v + 1, m - 1, x, s))
    return dp, over


# ---------------------------------------------------------------------------
# 2D elastostatics (Kelvin plane-strain kernels)

def _elastic_geometry(X, S):
    """r and r_{,l} = (x_l - s_l) / r, each (n, m), r_{,l} one per
    coordinate; raises at r = 0."""
    dx = pairwise_differences(X, S)
    r = np.sqrt(coordinate_dot(dx, dx))
    if np.any(r == 0.0):
        raise SingularityError("elasticity kernel evaluated at r = 0")
    return r, [d / r for d in dx]


def elastic_block(op, X, S):
    """Kelvin displacement kernels U[n, m, l, k]: component l at X[n] of a
    unit point force along k at S[m] (indices 0-based)."""
    r, rr = _elastic_geometry(X, S)
    nu, mu = op.nu, op.shear
    delta = np.eye(2)
    c = 1.0 / (8.0 * math.pi * mu * (1.0 - nu))
    log = (3.0 - 4.0 * nu) * np.log(1.0 / r)
    out = np.empty(r.shape + (2, 2))
    for l, k in np.ndindex(2, 2):
        out[..., l, k] = c * (log * delta[l, k] + rr[l] * rr[k])
    return out


def elastic_gradient_block(op, X, S):
    """dU_lk/dx_j of the Kelvin displacement kernels, shape (n, m, l, k, j)."""
    r, rr = _elastic_geometry(X, S)
    nu, mu = op.nu, op.shear
    delta = np.eye(2)
    c = 1.0 / (8.0 * math.pi * mu * (1.0 - nu))
    out = np.empty(r.shape + (2, 2, 2))
    for l, k, j in np.ndindex(2, 2, 2):
        out[..., l, k, j] = c * (-(3.0 - 4.0 * nu) * delta[l, k] * rr[j] / r
                                 + (delta[l, j] * rr[k] + delta[k, j] * rr[l]
                                    - 2.0 * rr[l] * rr[k] * rr[j]) / r)
    return out


def plane_strain_stress(op, grad):
    """Hooke's law in plane strain: sigma[..., l, j] of a displacement
    gradient grad[..., l, j] = du_l/dx_j, with lambda = 2 mu nu / (1 - 2 nu)."""
    lam = 2.0 * op.shear * op.nu / (1.0 - 2.0 * op.nu)
    trace = grad[..., 0, 0] + grad[..., 1, 1]
    return op.shear * (grad + np.swapaxes(grad, -1, -2)) + lam * trace[..., None, None] * np.eye(2)


def elastic_traction_block(op, X, S, normals):
    """Traction t_l = sigma_lj(U_k) n_j of each Kelvin displacement column
    (source S[m], force component k) on the unit normals (n, 2) at X[n],
    shape (n, m, l, k); the printed traction kernel is its negative."""
    normals = np.asarray(normals, dtype=float)
    if np.any(np.abs(np.linalg.norm(normals, axis=1) - 1.0) > 1e-10):
        raise DomainError("normal must have unit length")
    # sigma[n, m, k, l, j] of column k's gradient, summed over j with n_j
    sigma = plane_strain_stress(op, np.swapaxes(elastic_gradient_block(op, X, S), 2, 3))
    return coordinate_dot(sigma.transpose(4, 0, 1, 3, 2), normals.T[:, :, None, None, None])


def eval_elasticity_kernel(family, l, k, field_point, source_point, normal=None):
    """Displacement (Kelvin) or printed traction kernel component (l, k),
    1-based: a 1x1 view of elastic_block or of -elastic_traction_block.
    Traction needs the unit outward normal at the field point."""
    if family.kind not in (ELASTO_DISP, ELASTO_TRAC):
        raise UnsupportedKernelError("eval_elasticity_kernel needs an elasto family")
    if l not in (1, 2) or k not in (1, 2):
        raise DomainError("component indices l, k must be 1 or 2")
    X, S = _as_row(field_point)[0], _as_row(source_point)[0]
    if family.kind == ELASTO_DISP:
        block = elastic_block(family.operator, X, S)
    elif normal is None:
        raise DomainError("traction kernel needs the unit normal at the field point")
    else:
        block = -elastic_traction_block(family.operator, X, S, _as_row(normal)[0])
    return float(block[0, 0, l - 1, k - 1])


# ---------------------------------------------------------------------------
# vectorized assembly helpers

def kernel_block(family, X, S, T=None, TAU=None):
    """Dense value block: rows = field points X (n, dim), cols = sources S
    (m, dim), in the family's dtype.  Time kernels take per-row times T and
    per-column times TAU."""
    if family.operator.is_time_dependent:
        return _time_form(family, *_time_pairs(family, X, S, T, TAU), VALUE)
    return _steady_terms(family, X, S, 0)[0]


def kernel_gradient_block(family, X, S, normals, T=None, TAU=None):
    """normal . grad_x kernel for each (row, column) pair, summed over
    coordinates in index order."""
    normals = np.asarray(normals, dtype=float)
    return coordinate_dot(_gradient_block(family, X, S, T, TAU), normals.T[:, :, None])
