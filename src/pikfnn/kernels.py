"""Closed-form kernel functions that satisfy their governing operator away
from the source point, with gradients and analytic operator application
where available.

Every evaluation is pure; KernelFamily instances are frozen and shareable.
Array-valued helpers (suffix `_block`) broadcast over field/source point
sets and back the design-matrix assembly; the scalar entry points implement
the per-point contracts.

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
from .operators import OperatorSpec, high_order_coeffs
from .special_functions import (assoc_legendre_block, bessel_block, load_bessel_table,
                                spherical_bessel_block)

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
    real-part and imaginary-part columns, doubling its weight count.  A family
    whose kernels reach Bessel functions loads their table on construction.
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
        if _reaches_bessel(self):
            load_bessel_table()

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


def _reaches_bessel(family):
    """Whether the family's kernels call bessel_block / spherical_bessel_block:
    2D Helmholtz-type and time-radial-Trefftz kernels, T-complete members, and
    in 3D the powers' spherical pieces (radial-Trefftz only for n >= 1)."""
    op = family.operator
    if op.kind not in (ops.HELMHOLTZ, ops.MODIFIED_HELMHOLTZ, ops.CONVECTION_DIFFUSION,
                       ops.HELMHOLTZ_POWER, ops.MOD_HELMHOLTZ_POWER, ops.CONV_DIFF_POWER):
        return family.kind == TIME_RADIAL_TREFFTZ and op.dim == 2
    return (op.dim == 2 or family.kind == T_COMPLETE or op.power_n > 0
            or (op.kind in ops.POWER_KINDS and family.kind != RADIAL_TREFFTZ))


def _is_radial(family):
    if family.kind not in (FUNDAMENTAL, FUNDAMENTAL_REAL, RADIAL_TREFFTZ):
        return False
    return family.operator.kind not in (ops.CONVECTION_DIFFUSION, ops.CONV_DIFF_POWER)


def _as_xt(point):
    if isinstance(point, SpaceTimePoint):
        return np.asarray(point.x, dtype=float), point.t
    return np.asarray(point, dtype=float), None


# ---------------------------------------------------------------------------
# steady kernels

def _radial_arg(family, r):
    if family.shift > 0.0:
        return np.sqrt(r * r + family.shift * family.shift)
    return r


def _check_singular(family, r):
    if family.is_singular and np.any(r == 0.0):
        raise SingularityError(
            f"kernel {family.kind}:{family.operator.kind} evaluated at r = 0")


def _steady_block(family, dx):
    """Kernel values for difference vectors dx of shape (..., dim)."""
    op = family.operator
    dim = op.dim
    r2 = np.einsum("...i,...i->...", dx, dx)
    r = np.sqrt(r2)
    _check_singular(family, r)
    re = _radial_arg(family, r)
    kind = family.kind

    if kind == FUNDAMENTAL:
        if op.kind == ops.LAPLACE and op.power_n == 0:
            if dim == 2:
                return -np.log(re) / _TWO_PI
            if dim == 3:
                return 1.0 / (_FOUR_PI * re)
            return 1.0 / (4.0 * math.pi ** 2 * re * re)
        if op.kind == ops.HELMHOLTZ and op.power_n == 0:
            if dim == 2:
                z = op.k * re
                return 0.25j * (bessel_block("j", 0, z) + 1j * bessel_block("y", 0, z))
            sign = 1.0 if family.outgoing_3d else -1.0
            return np.exp(sign * 1j * op.k * re) / (_FOUR_PI * re)
        if op.kind == ops.MODIFIED_HELMHOLTZ and op.power_n == 0:
            if dim == 2:
                return bessel_block("k", 0, op.k * re) / _TWO_PI
            return np.exp(-op.k * re) / (_FOUR_PI * re)
        if op.kind == ops.CONVECTION_DIFFUSION and op.power_n == 0:
            drift = np.exp(-np.einsum("...i,i->...", dx, np.asarray(op.velocity))
                           / (2.0 * op.diffusion))
            mu = op.mu_cd
            if dim == 2:
                return bessel_block("k", 0, mu * re) / _TWO_PI * drift
            return np.exp(-mu * re) / (_FOUR_PI * re) * drift
        if op.kind == ops.BIHARMONIC:
            if dim == 2:
                return (re * re * np.log(re) - re * re) / (8.0 * math.pi)
            return re / (8.0 * math.pi)
        if op.kind == ops.POLY_LAPLACE:
            co = high_order_coeffs(op)
            n = op.power_n
            if dim == 2:
                return re ** (2 * n) / _TWO_PI * (co.C[n] * np.log(re) - co.B[n])
            return re ** (2 * n - 1) / (_FOUR_PI * math.factorial(2 * n))
        if op.kind == ops.HELMHOLTZ_POWER:
            co = high_order_coeffs(op)
            n = op.power_n
            z = op.k * re
            if dim == 2:
                jn = bessel_block("j", n, z)
                yn = bessel_block("y", n, z)
                return co.A[n] * z ** n * 1j * (jn + 1j * yn)
            hj = spherical_bessel_block("j", n, z)
            hy = spherical_bessel_block("y", n, z)
            return co.A[n] * z ** n * math.sqrt(2.0 / math.pi) * 1j * (hj + 1j * hy)
        if op.kind == ops.MOD_HELMHOLTZ_POWER:
            co = high_order_coeffs(op)
            n = op.power_n
            z = op.k * re
            if dim == 2:
                return co.A[n] * z ** n * bessel_block("k", n, z)
            return co.A[n] * z ** n * math.sqrt(2.0 / math.pi) * spherical_bessel_block(
                "k", n, z)
        if op.kind == ops.CONV_DIFF_POWER:
            co = high_order_coeffs(op)
            n = op.power_n
            mu = op.mu_cd
            z = mu * re
            drift = np.exp(-np.einsum("...i,i->...", dx, np.asarray(op.velocity))
                           / (2.0 * op.diffusion))
            return co.A[n] * z ** n * bessel_block("k", n, z) * drift

    if kind == FUNDAMENTAL_REAL:
        if op.kind == ops.HELMHOLTZ and op.power_n == 0:
            if dim == 2:
                return bessel_block("y", 0, op.k * re) / _TWO_PI
            return np.cos(op.k * re) / (_FOUR_PI * re)
        if op.kind == ops.HELMHOLTZ_POWER and dim == 2:
            co = high_order_coeffs(op)
            n = op.power_n
            z = op.k * re
            return co.A[n] * z ** n * bessel_block("y", n, z)

    if kind == HARMONIC:
        n = op.power_n if op.kind == ops.POLY_LAPLACE else (
            1 if op.kind == ops.BIHARMONIC else 0)
        factor = r2 ** n if n else 1.0
        return factor * _harmonic_sum(family.c_shape, dx, dim)

    if kind == RADIAL_TREFFTZ:
        n = op.power_n
        co = high_order_coeffs(op) if n else None
        if op.kind in (ops.HELMHOLTZ, ops.HELMHOLTZ_POWER):
            z = op.k * re
            if dim == 2:
                if n == 0:
                    return bessel_block("j", 0, z) / _TWO_PI
                return co.A[n] * z ** n * bessel_block("j", n, z)
            if n == 0:
                return np.sinc(z / math.pi) * op.k / _FOUR_PI  # sin(kr)/(4 pi r)
            return co.A[n] * z ** n * math.sqrt(2.0 / math.pi) * spherical_bessel_block(
                "j", n, z)
        if op.kind in (ops.MODIFIED_HELMHOLTZ, ops.MOD_HELMHOLTZ_POWER):
            z = op.k * re
            if dim == 2:
                if n == 0:
                    return bessel_block("i", 0, z) / _TWO_PI
                return co.A[n] * z ** n * bessel_block("i", n, z)
            if n == 0:
                return np.sinh(z) / (_FOUR_PI * re)
            return co.A[n] * z ** n * math.sqrt(2.0 / math.pi) * spherical_bessel_block(
                "i", n, z)
        if op.kind in (ops.CONVECTION_DIFFUSION, ops.CONV_DIFF_POWER):
            mu = op.mu_cd
            z = mu * re
            drift = np.exp(-np.einsum("...i,i->...", dx, np.asarray(op.velocity))
                           / (2.0 * op.diffusion))
            if dim == 2:
                if n == 0:
                    return bessel_block("i", 0, z) / _TWO_PI * drift
                return co.A[n] * z ** n * bessel_block("i", n, z) * drift
            return np.sinh(z) / (_FOUR_PI * re) * drift

    raise UnsupportedKernelError(
        f"no steady formula for class={kind!r} operator={op.kind!r} dim={dim}")


def _harmonic_sum(c, dx, dim):
    # e^{-c(r1^2 - r2^2)} cos(2 c r1 r2) summed over coordinate pairs
    def pair(a, b):
        return np.exp(-c * (a * a - b * b)) * np.cos(2.0 * c * a * b)

    if dim == 2:
        return pair(dx[..., 0], dx[..., 1])
    return (pair(dx[..., 0], dx[..., 1]) + pair(dx[..., 1], dx[..., 2])
            + pair(dx[..., 2], dx[..., 0]))


# ---------------------------------------------------------------------------
# time-dependent kernels; theta(0) = 0 so dt <= 0 contributes nothing

def _time_block(family, dx, dt):
    op = family.operator
    dim = op.dim
    r2 = np.einsum("...i,...i->...", dx, dx)
    dt = np.asarray(dt, dtype=float)
    kind = family.kind

    if kind == TIME_FUNDAMENTAL and op.kind == ops.HEAT:
        return _heat_like(r2, np.broadcast_to(dt, r2.shape), op.k, dim)
    if kind == TIME_FUNDAMENTAL and op.kind == ops.WAVE:
        r = np.sqrt(r2)
        active = op.c1 * dt > r
        if dim == 3 and np.any(active & (r == 0.0)):
            raise SingularityError("3D wave kernel evaluated at r = 0")
        out = np.zeros(np.broadcast_shapes(r.shape, dt.shape))
        if dim == 2:
            with np.errstate(invalid="ignore"):
                vals = 1.0 / (_TWO_PI * op.c1 * np.sqrt((op.c1 * dt) ** 2 - r2))
        else:
            with np.errstate(divide="ignore"):
                vals = np.broadcast_to(1.0 / (_FOUR_PI * np.sqrt(r2)), out.shape)
        out[active] = np.broadcast_to(vals, out.shape)[active]
        return out
    if kind == TIME_FUNDAMENTAL and op.kind == ops.STRUCTURAL_DIFFUSION:
        raise UnsupportedKernelError("structural kernel needs explicit times; "
                                     "use structural_kernel_block")
    if kind == TIME_RADIAL_TREFFTZ and op.kind in (ops.HEAT, ops.WAVE):
        r = np.sqrt(r2)
        shape = np.broadcast_shapes(r.shape, dt.shape)
        out = np.zeros(shape)
        active = np.broadcast_to(dt > 0.0, shape)
        dta = np.broadcast_to(dt, shape)[active]
        ra = np.broadcast_to(r, shape)[active]
        radial = bessel_block("j", 0, ra) if dim == 2 else np.sinc(ra / math.pi)
        if op.kind == ops.HEAT:
            out[active] = np.exp(-op.k * dta) * radial
        else:
            # second term carries 1/c1 so the pair spans the cos/sin time modes
            out[active] = (np.cos(op.c1 * dta) + np.sin(op.c1 * dta) / op.c1) * radial
        return out
    raise UnsupportedKernelError(
        f"no time formula for class={kind!r} operator={op.kind!r} dim={dim}")


def _heat_like(q, dtg, kdiff, dim):
    """theta(dtg) exp(-q / (4 kdiff dtg)) / (4 pi kdiff dtg)^{dim/2}.

    Shared by the heat kernel (q = r^2, dtg = t - tau) and the structural
    kernel (q = |F(x)-F(s)|^2, dtg = G(t)-G(tau)) so the alpha = beta = 1
    reduction is bit-for-bit.
    """
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


def structural_kernel_block(family, x, t, s, tau):
    """Eq.-(12)-type kernel on explicit space-time arguments.

    x: (..., dim); t: (...); s: (..., dim); tau: (...).  Applies the
    structural maps componentwise in space and to both times.
    """
    op = family.operator
    gfun, _ = ops.structural_fn(op.structural_t, op.alpha)
    ffun, _ = ops.structural_fn(op.structural_x, op.beta)
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    diff = ffun(x) - ffun(s)
    q = np.einsum("...i,...i->...", diff, diff)
    dtg = gfun(np.asarray(t, dtype=float)) - gfun(np.asarray(tau, dtype=float))
    return _heat_like(q, dtg, op.diffusion, op.dim)


# ---------------------------------------------------------------------------
# public scalar operations

def eval_kernel(family, field_point, source_point):
    """Kernel value at one (field, source) pair.

    Accepts SpaceTimePoint or plain coordinate sequences.  Complex values
    appear only for the Hankel-form Helmholtz fundamental solution.
    """
    x, t = _as_xt(field_point)
    s, tau = _as_xt(source_point)
    if x.shape != s.shape or x.size != family.operator.dim:
        raise DomainError(f"points must have dim {family.operator.dim}")
    if family.kind in (ELASTO_DISP, ELASTO_TRAC):
        raise DomainError("elasticity kernels are 2x2 tensors; call "
                          "eval_elasticity_kernel with the components (l, k)")
    if family.operator.is_time_dependent:
        if t is None or tau is None:
            raise DomainError("time kernels need t on the field point and tau on the source")
        if family.operator.kind == ops.STRUCTURAL_DIFFUSION:
            return float(structural_kernel_block(
                family, x.reshape(1, -1), np.asarray([t]),
                s.reshape(1, -1), np.asarray([tau]))[0])
        return float(_time_block(family, (x - s).reshape(1, -1), np.asarray([t - tau]))[0])
    val = _steady_block(family, (x - s).reshape(1, -1))[0]
    if np.iscomplexobj(val):
        return complex(val)
    return float(val)


def eval_kernel_gradient(family, field_point, source_point):
    """Gradient of the kernel w.r.t. the field point.

    Analytic for radial fundamental Laplace/Helmholtz(real)/modified
    Helmholtz; central differences (h = cbrt(eps) * max(1, |x|)) otherwise.
    """
    x, t = _as_xt(field_point)
    s, tau = _as_xt(source_point)
    g = _gradient_block(family, x.reshape(1, 1, -1) - s.reshape(1, 1, -1),
                        None if t is None else np.asarray([[t - tau]]))
    return np.asarray(g[0, 0])


def _radial_derivs(family, re):
    """(g(R), g'(R)) for the analytic-gradient radial subset, else None."""
    op = family.operator
    dim = op.dim
    if family.kind == FUNDAMENTAL and op.kind == ops.LAPLACE and op.power_n == 0:
        if dim == 2:
            return -np.log(re) / _TWO_PI, -1.0 / (_TWO_PI * re)
        if dim == 3:
            return 1.0 / (_FOUR_PI * re), -1.0 / (_FOUR_PI * re * re)
        return (1.0 / (4.0 * math.pi ** 2 * re * re),
                -2.0 / (4.0 * math.pi ** 2 * re ** 3))
    if family.kind == FUNDAMENTAL_REAL and op.kind == ops.HELMHOLTZ and op.power_n == 0:
        z = op.k * re
        if dim == 2:
            return (bessel_block("y", 0, z) / _TWO_PI,
                    -op.k * bessel_block("y", 1, z) / _TWO_PI)
        return (np.cos(z) / (_FOUR_PI * re),
                -(op.k * np.sin(z) * re + np.cos(z)) / (_FOUR_PI * re * re))
    if family.kind == FUNDAMENTAL and op.kind == ops.MODIFIED_HELMHOLTZ and op.power_n == 0:
        z = op.k * re
        if dim == 2:
            return (bessel_block("k", 0, z) / _TWO_PI,
                    -op.k * bessel_block("k", 1, z) / _TWO_PI)
        e = np.exp(-z)
        return e / (_FOUR_PI * re), -e * (z + 1.0) / (_FOUR_PI * re * re)
    if family.kind == RADIAL_TREFFTZ and op.kind == ops.HELMHOLTZ and op.power_n == 0:
        z = op.k * re
        if dim == 2:
            return (bessel_block("j", 0, z) / _TWO_PI,
                    -op.k * bessel_block("j", 1, z) / _TWO_PI)
        return (np.sinc(z / math.pi) * op.k / _FOUR_PI,
                (op.k * np.cos(z) * re - np.sin(z)) / (_FOUR_PI * re * re))
    if family.kind == RADIAL_TREFFTZ and op.kind == ops.MODIFIED_HELMHOLTZ and op.power_n == 0:
        z = op.k * re
        if dim == 2:
            return (bessel_block("i", 0, z) / _TWO_PI,
                    op.k * bessel_block("i", 1, z) / _TWO_PI)
        return (np.sinh(z) / (_FOUR_PI * re),
                (op.k * np.cosh(z) * re - np.sinh(z)) / (_FOUR_PI * re * re))
    return None


def _gradient_block(family, dx, dt=None):
    """Gradients for dx of shape (n, m, dim); returns (n, m, dim)."""
    r2 = np.einsum("...i,...i->...", dx, dx)
    r = np.sqrt(r2)
    _check_singular(family, r)
    re = _radial_arg(family, r)
    derivs = None if family.operator.is_time_dependent else _radial_derivs(family, re)
    if derivs is not None:
        _, gp = derivs
        # d/dx g(R(r)) = g'(R) * (r/R) * unit(dx) = g'(R)/R * dx
        return (gp / re)[..., None] * dx
    return _gradient_fd(family, dx, dt)


def _gradient_fd(family, dx, dt):
    # central differences, h = cbrt(eps) * max(1, |dx|) per entry
    h = math.pow(2.2204460492503131e-16, 1.0 / 3.0) * np.maximum(
        1.0, np.sqrt(np.einsum("...i,...i->...", dx, dx)))
    out = np.zeros(dx.shape)
    for i in range(dx.shape[-1]):
        dp = dx.copy()
        dm = dx.copy()
        dp[..., i] += h
        dm[..., i] -= h
        if family.operator.is_time_dependent:
            fp = _time_block(family, dp, dt)
            fm = _time_block(family, dm, dt)
        else:
            fp = _steady_block(family, dp)
            fm = _steady_block(family, dm)
        out[..., i] = np.real(fp - fm) / (2.0 * h)
    return out


def _radial_second_derivs(family, re):
    """(g, g', g'') for analytic operator application on radial families.

    re is an ndarray; returns matching shapes (None when no analytic form
    exists for the family).
    """
    op = family.operator
    dim = op.dim
    re_arr = np.asarray(re, dtype=float)
    base = _radial_derivs(family, re_arr)
    if base is None:
        return None
    g, gp = base
    k = op.k
    if family.kind == FUNDAMENTAL and op.kind == ops.LAPLACE and op.power_n == 0:
        gpp = {2: 1.0 / (_TWO_PI * re_arr ** 2), 3: 2.0 / (_FOUR_PI * re_arr ** 3),
               4: 6.0 / (4.0 * math.pi ** 2 * re_arr ** 4)}[dim]
    elif family.kind == FUNDAMENTAL_REAL and op.kind == ops.HELMHOLTZ:
        z = k * re_arr
        if dim == 2:
            # Y0''(z) = -Y0 + Y1/z
            gpp = -k * k * (bessel_block("y", 0, z) - bessel_block("y", 1, z) / z) / _TWO_PI
        else:
            gpp = (-k * k * np.cos(z) * re_arr ** 2 + 2.0 * k * np.sin(z) * re_arr
                   + 2.0 * np.cos(z)) / (_FOUR_PI * re_arr ** 3)
    elif family.kind == FUNDAMENTAL and op.kind == ops.MODIFIED_HELMHOLTZ:
        z = k * re_arr
        if dim == 2:
            gpp = k * k * (bessel_block("k", 0, z) + bessel_block("k", 1, z) / z) / _TWO_PI
        else:
            e = np.exp(-z)
            gpp = e * (z * z + 2.0 * z + 2.0) / (_FOUR_PI * re_arr ** 3)
    elif family.kind == RADIAL_TREFFTZ and op.kind == ops.HELMHOLTZ:
        z = k * re_arr
        if dim == 2:
            gpp = -k * k * (bessel_block("j", 0, z) - bessel_block("j", 1, z) / z) / _TWO_PI
        else:
            gpp = (-k * k * np.sin(z) * re_arr ** 2 - 2.0 * k * np.cos(z) * re_arr
                   + 2.0 * np.sin(z)) / (_FOUR_PI * re_arr ** 3)
    elif family.kind == RADIAL_TREFFTZ and op.kind == ops.MODIFIED_HELMHOLTZ:
        z = k * re_arr
        if dim == 2:
            gpp = k * k * (bessel_block("i", 0, z) - bessel_block("i", 1, z) / z) / _TWO_PI
        else:
            gpp = (k * k * np.sinh(z) * re_arr ** 2 - 2.0 * k * np.cosh(z) * re_arr
                   + 2.0 * np.sinh(z)) / (_FOUR_PI * re_arr ** 3)
    else:
        return None
    return g, gp, gpp


def _laplace_eigenvalue(op):
    """s with lap(phi) = s * phi for exactly-satisfied radial eigen-kernels."""
    if op.kind == ops.LAPLACE:
        return 0.0
    if op.kind == ops.HELMHOLTZ:
        return -op.k ** 2
    if op.kind == ops.MODIFIED_HELMHOLTZ:
        return op.k ** 2
    return None


def heat_time_derivative_block(family, X, S, T, TAU):
    """d/dt of the heat kernel, vectorized (analytic: G * (q/(4 k dt^2) - d/(2 dt)))."""
    op = family.operator
    if op.kind != ops.HEAT or family.kind != TIME_FUNDAMENTAL:
        raise UnsupportedKernelError("analytic time derivative covers the heat "
                                     "fundamental kernel only")
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    dx = X[:, None, :] - S[None, :, :]
    q = np.einsum("...i,...i->...", dx, dx)
    dt = np.asarray(T, dtype=float)[:, None] - np.asarray(TAU, dtype=float)[None, :]
    G = _heat_like(q, dt, op.k, op.dim)
    out = np.zeros_like(G)
    active = dt > 0.0
    out[active] = G[active] * (q[active] / (4.0 * op.k * dt[active] ** 2)
                               - 0.5 * op.dim / dt[active])
    return out


def governing_applied_block(family, governing, X, S, T=None, TAU=None):
    """(L0 phi)(x_i; s_j) for a whole block, L0 the governing operator.

    Fast paths: exact-satisfaction zeros when the family solves L0 itself;
    eigen-factor scaling between Laplace-family operators; analytic d/dt for
    heat-by-heat; analytic second derivatives on radial families.  Other
    families take the FD Laplacian of their values (operators'
    steady_operator_fd_block, step fd_step(x_i) per row) for Laplace-type L0.
    """
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    same = governing == family.operator
    exact = family.shift == 0.0 and family.kind in (
        FUNDAMENTAL, FUNDAMENTAL_REAL, RADIAL_TREFFTZ, HARMONIC,
        TIME_FUNDAMENTAL, TIME_RADIAL_TREFFTZ)
    if same and exact:
        return np.zeros((X.shape[0], S.shape[0]))
    if exact and not governing.is_time_dependent and not family.operator.is_time_dependent:
        s_fam = _laplace_eigenvalue(family.operator)
        s_gov = _laplace_eigenvalue(governing)
        if s_fam is not None and s_gov is not None and _is_radial(family):
            return (s_fam - s_gov) * kernel_block(family, X, S)
    if exact and governing.kind == ops.HEAT and family.operator.kind == ops.HEAT:
        k1, k0 = family.operator.k, governing.k
        return (k1 - k0) / k1 * heat_time_derivative_block(family, X, S, T, TAU)
    if governing.kind not in (ops.LAPLACE, ops.HELMHOLTZ, ops.MODIFIED_HELMHOLTZ):
        raise UnsupportedKernelError(
            f"interior-residual rows not implemented for operator {governing.kind!r}")
    block = _radial_operator_block(family, governing, X, S)
    if block is not None:
        return block
    # one stencil origin per (row, source) pair, pair p = i * m + j
    n, m = X.shape[0], S.shape[0]
    sources = np.tile(S, (n, 1))[:, None, :]

    def values(P):
        dx = P.reshape(n * m, -1, S.shape[1]) - sources
        return np.real(_steady_block(family, dx)).ravel()

    lap = ops.steady_operator_fd_block(OperatorSpec(ops.LAPLACE, family.operator.dim),
                                       values, np.repeat(X, m, axis=0)).reshape(n, m)
    if governing.kind == ops.LAPLACE:
        return lap
    vals = kernel_block(family, X, S)
    if governing.kind == ops.HELMHOLTZ:
        return lap + governing.k ** 2 * vals
    return lap - governing.k ** 2 * vals


def _radial_operator_block(family, governing, X, S):
    """Vectorized (L0 phi) for radial families with analytic second
    derivatives (including the enhanced shift); None when unavailable."""
    dx = X[:, None, :] - S[None, :, :]
    r2 = np.einsum("...i,...i->...", dx, dx)
    r = np.sqrt(r2)
    sigma = family.shift
    re = np.sqrt(r2 + sigma * sigma)
    if sigma == 0.0 and np.any(r == 0.0):
        raise SingularityError("operator application at r = 0")
    trip = _radial_second_derivs(family, re)
    if trip is None:
        return None
    g, gp, gpp = trip
    d = family.operator.dim
    lap = gpp * r2 / re ** 2 + gp * (sigma * sigma / re ** 3 + (d - 1) / re)
    if governing.kind == ops.LAPLACE:
        return lap
    if governing.kind == ops.HELMHOLTZ:
        return lap + governing.k ** 2 * g
    return lap - governing.k ** 2 * g


# ---------------------------------------------------------------------------
# T-complete members

def tcomplete_members(family):
    """Ordered member indices (v, m, parity) for a T-complete family.

    2D: {1} then (m, cos), (m, sin) for m = 1..M  -> 2M + 1 members.
    3D: degrees v = 0..M, orders 0 <= m <= v, cos and (m > 0) sin -> (M+1)^2.
    """
    M = family.tcomplete_max_order
    if family.operator.dim == 2:
        out = [(0, 0, "cos")]
        for m in range(1, M + 1):
            out.append((m, m, "cos"))
            out.append((m, m, "sin"))
        return out
    out = []
    for v in range(M + 1):
        for m in range(v + 1):
            out.append((v, m, "cos"))
            if m > 0:
                out.append((v, m, "sin"))
    return out


def eval_tcomplete_member(family, index, point):
    """T-complete basis member at a point given relative to the expansion
    origin (a one-row view of tcomplete_member_block)."""
    x, _ = _as_xt(point)
    return float(tcomplete_member_block(family, index, x.reshape(1, -1))[0])


def tcomplete_member_block(family, index, X):
    """T-complete member values at the rows of X (n, dim), given relative to
    the expansion origin.  index = (degree v, order m, parity); 2D uses the
    order m."""
    v, m, parity = index
    if parity not in ("cos", "sin"):
        raise DomainError(f"parity must be cos|sin, got {parity!r}")
    X = np.asarray(X, dtype=float)
    op = family.operator
    if X.ndim != 2 or X.shape[1] != op.dim:
        raise DomainError(f"points must have dim {op.dim}")
    if op.dim == 2:
        rho = np.hypot(X[:, 0], X[:, 1])
        theta = np.arctan2(X[:, 1], X[:, 0])
        ang = np.cos(m * theta) if parity == "cos" else np.sin(m * theta)
        n = op.power_n
        if op.kind in (ops.LAPLACE, ops.POLY_LAPLACE):
            return rho ** (m + 2 * n) * ang
        if op.kind == ops.BIHARMONIC:
            return rho ** (m + 2) * ang
        if op.kind in (ops.HELMHOLTZ, ops.HELMHOLTZ_POWER):
            dn = (op.k * rho) ** n
            return dn * bessel_block("j", m + n, op.k * rho) * ang
        if op.kind in (ops.MODIFIED_HELMHOLTZ, ops.MOD_HELMHOLTZ_POWER):
            dn = (op.k * rho) ** n
            return dn * bessel_block("i", m + n, op.k * rho) * ang
        raise UnsupportedKernelError(f"no 2D T-complete row for {op.kind!r}")
    # 3D: rho, polar angle phi from x3, azimuth theta; degree-v radial parts
    if m > v:
        raise DomainError(f"need m <= v, got m={m} v={v}")
    rho = np.sqrt(np.einsum("ni,ni->n", X, X))
    origin = rho == 0.0
    with np.errstate(invalid="ignore"):
        cosphi = np.where(origin, 1.0, X[:, 2] / rho)
    theta = np.where(origin, 0.0, np.arctan2(X[:, 1], X[:, 0]))
    pvm = assoc_legendre_block(v, m, np.clip(cosphi, -1.0, 1.0))
    ang = np.cos(m * theta) if parity == "cos" else np.sin(m * theta)
    if op.kind == ops.LAPLACE:
        return rho ** v * pvm * ang
    if op.kind == ops.BIHARMONIC:
        return rho ** (v + 2) * pvm * ang
    if op.kind == ops.HELMHOLTZ:
        return spherical_bessel_block("j", v, op.k * rho) * pvm * ang
    if op.kind == ops.MODIFIED_HELMHOLTZ:
        return spherical_bessel_block("i", v, op.k * rho) * pvm * ang
    raise UnsupportedKernelError(f"no 3D T-complete row for {op.kind!r}")


# ---------------------------------------------------------------------------
# 2D elastostatics (Kelvin plane-strain kernels)

def _elastic_geometry(X, S):
    """dx = x - s (n, m, 2), r (n, m) and r_{,l} = dx_l / r; raises at r = 0."""
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    dx = X[:, None, :] - S[None, :, :]
    r = np.sqrt(np.einsum("...i,...i->...", dx, dx))
    if np.any(r == 0.0):
        raise SingularityError("elasticity kernel evaluated at r = 0")
    return dx, r, dx / r[..., None]


def elastic_block(op, X, S, normals=None):
    """Kelvin kernels for every (field point X[n], source S[m]) pair.

    Returns U[n, m, l, k], displacement component l at X[n] of a unit point
    force along k at S[m] (indices 0-based), or the traction kernels
    T[n, m, l, k] when the unit outward normals (n, 2) at the field points
    are given.
    """
    dx, r, rr = _elastic_geometry(X, S)
    nu, mu = op.nu, op.shear
    delta = np.eye(2)
    rlrk = rr[..., :, None] * rr[..., None, :]
    if normals is None:
        return (1.0 / (8.0 * math.pi * mu * (1.0 - nu))) * (
            (3.0 - 4.0 * nu) * np.log(1.0 / r)[..., None, None] * delta + rlrk)
    n = np.asarray(normals, dtype=float)
    if np.any(np.abs(np.linalg.norm(n, axis=1) - 1.0) > 1e-10):
        raise DomainError("normal must have unit length")
    rn = np.einsum("nmi,ni->nm", dx, n) / r
    nl = n[:, None, :, None]
    nk = n[:, None, None, :]
    return (1.0 / (4.0 * math.pi * (1.0 - nu) * r))[..., None, None] * (
        ((1.0 - 2.0 * nu) * delta + 2.0 * rlrk) * rn[..., None, None]
        + (1.0 - 2.0 * nu) * (rr[..., :, None] * nk - rr[..., None, :] * nl))


def elastic_gradient_block(op, X, S):
    """dU_lk/dx_j of the Kelvin displacement kernels, shape (n, m, l, k, j)."""
    _, r, rr = _elastic_geometry(X, S)
    nu, mu = op.nu, op.shear
    delta = np.eye(2)
    rl = rr[..., :, None, None]
    rk = rr[..., None, :, None]
    rj = rr[..., None, None, :]
    r = r[..., None, None, None]
    return (1.0 / (8.0 * math.pi * mu * (1.0 - nu))) * (
        -(3.0 - 4.0 * nu) * delta[:, :, None] * rj / r
        + (delta[:, None, :] * rk + delta[None, :, :] * rl - 2.0 * rl * rk * rj) / r)


def eval_elasticity_kernel(family, l, k, field_point, source_point, normal=None):
    """Displacement (Kelvin) or traction kernel component (l, k), 1-based; a
    1x1 view of elastic_block.  Traction needs the unit outward normal at the
    field point."""
    if family.kind not in (ELASTO_DISP, ELASTO_TRAC):
        raise UnsupportedKernelError("eval_elasticity_kernel needs an elasto family")
    if l not in (1, 2) or k not in (1, 2):
        raise DomainError("component indices l, k must be 1 or 2")
    x, _ = _as_xt(field_point)
    s, _ = _as_xt(source_point)
    normals = None
    if family.kind == ELASTO_TRAC:
        if normal is None:
            raise DomainError("traction kernel needs the unit normal at the field point")
        normals = np.asarray(normal, dtype=float).reshape(1, -1)
    block = elastic_block(family.operator, x.reshape(1, -1), s.reshape(1, -1), normals)
    return float(block[0, 0, l - 1, k - 1])


# ---------------------------------------------------------------------------
# vectorized assembly helpers

def kernel_block(family, X, S, T=None, TAU=None, real=True):
    """Dense value block: rows = field points X (n, dim), cols = sources S
    (m, dim).  Time kernels take per-row times T and per-column times TAU."""
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    if family.operator.is_time_dependent:
        if T is None or TAU is None:
            raise DomainError("time kernels need T (rows) and TAU (columns)")
        T = np.asarray(T, dtype=float)[:, None]
        TAU = np.asarray(TAU, dtype=float)[None, :]
        if family.operator.kind == ops.STRUCTURAL_DIFFUSION:
            nx = X[:, None, :]
            ns = S[None, :, :]
            return structural_kernel_block(
                family, np.broadcast_to(nx, (X.shape[0], S.shape[0], X.shape[1])),
                np.broadcast_to(T, (X.shape[0], S.shape[0])),
                np.broadcast_to(ns, (X.shape[0], S.shape[0], X.shape[1])),
                np.broadcast_to(TAU, (X.shape[0], S.shape[0])))
        return _time_block(family, X[:, None, :] - S[None, :, :], T - TAU)
    vals = _steady_block(family, X[:, None, :] - S[None, :, :])
    if real and np.iscomplexobj(vals):
        vals = vals.real
    return vals


def kernel_gradient_block(family, X, S, normals, T=None, TAU=None):
    """normal . grad_x kernel for each (row, column) pair."""
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    dxs = X[:, None, :] - S[None, :, :]
    dts = None
    if family.operator.is_time_dependent:
        dts = np.asarray(T, dtype=float)[:, None] - np.asarray(TAU, dtype=float)[None, :]
    grads = _gradient_block(family, dxs, dts)
    return np.einsum("nmi,ni->nm", grads, np.asarray(normals, dtype=float))


def kernel_operator_block(family, X, S, governing=None):
    """L0 applied to the kernel, per (row, column) pair (Eq.-41 rows)."""
    governing = governing if governing is not None else family.operator
    return governing_applied_block(family, governing, X, S)
