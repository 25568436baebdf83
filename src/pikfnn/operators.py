"""Governing-operator descriptions, high-order coefficient recurrences, and
the batched finite-difference oracle used by verify-kernels.

steady_operator_fd_block and time_operator_fd_block apply an operator to the
*values* of a function by central differences at many sample points at
once.  Every stencil point of every sample point (each level of a nested
power, every Richardson step) is collected, coincident points are merged,
and the function is evaluated on the whole set with one call; the stencil
weights then contract those values, applying each inner level of a nested
power once per lattice point.  The oracle sees values only, never a
kernel formula, so it stays an independent check of the kernel catalog.

OperatorSpec instances are frozen and shareable across threads.
"""

import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# operator kinds
LAPLACE = "laplace"
HELMHOLTZ = "helmholtz"
MODIFIED_HELMHOLTZ = "modified-helmholtz"
CONVECTION_DIFFUSION = "convection-diffusion"
BIHARMONIC = "biharmonic"
POLY_LAPLACE = "poly-laplace"
HELMHOLTZ_POWER = "helmholtz-power"
MOD_HELMHOLTZ_POWER = "modified-helmholtz-power"
CONV_DIFF_POWER = "convection-diffusion-power"
HEAT = "heat"
WAVE = "wave"
STRUCTURAL_DIFFUSION = "structural-diffusion"
ELASTOSTATIC = "elastostatic"

STEADY_KINDS = (LAPLACE, HELMHOLTZ, MODIFIED_HELMHOLTZ, CONVECTION_DIFFUSION,
                BIHARMONIC, POLY_LAPLACE, HELMHOLTZ_POWER, MOD_HELMHOLTZ_POWER,
                CONV_DIFF_POWER, ELASTOSTATIC)
TIME_KINDS = (HEAT, WAVE, STRUCTURAL_DIFFUSION)
POWER_KINDS = (POLY_LAPLACE, HELMHOLTZ_POWER, MOD_HELMHOLTZ_POWER, CONV_DIFF_POWER)
_K_POWER_KINDS = (HELMHOLTZ_POWER, MOD_HELMHOLTZ_POWER, CONV_DIFF_POWER)

STRUCTURAL_SELECTORS = ("identity", "power", "exp", "log")


@dataclass(frozen=True)
class OperatorSpec:
    """Symbolic description of a governing differential operator.

    k is the wavenumber for (modified) Helmholtz kinds, the reaction
    coefficient for convection-diffusion (the printed operator uses k^2 but
    the derived mu is only consistent with a plain-k reaction term), and the
    diffusivity for the heat kind.  power_n = n means the operator raised to
    the (n+1)-th power (high-order tables).
    """

    kind: str
    dim: int
    k: float = 0.0
    diffusion: float = 1.0          # D
    velocity: tuple = ()            # v, length dim
    c1: float = 1.0                 # wave speed
    power_n: int = 0
    alpha: float = 1.0              # temporal Hausdorff exponent
    beta: float = 1.0               # spatial Hausdorff exponent
    structural_t: str = "identity"
    structural_x: str = "identity"
    nu: float = 0.0                 # Poisson ratio
    shear: float = 1.0              # shear modulus (Pa)

    def __post_init__(self):
        if self.kind not in STEADY_KINDS + TIME_KINDS:
            raise DomainError(f"unknown operator kind {self.kind!r}")
        if self.dim not in (2, 3, 4):
            raise DomainError(f"dim must be 2, 3 or 4, got {self.dim}")
        if self.dim == 4 and self.kind != LAPLACE:
            raise DomainError("dim=4 is only supported for the Laplace operator")
        if self.kind in (HELMHOLTZ, MODIFIED_HELMHOLTZ, HELMHOLTZ_POWER,
                         MOD_HELMHOLTZ_POWER) and not self.k > 0:
            raise DomainError(f"{self.kind} requires k > 0, got {self.k}")
        if self.kind in (CONVECTION_DIFFUSION, CONV_DIFF_POWER):
            if not self.diffusion > 0:
                raise DomainError("convection-diffusion requires D > 0")
            if len(self.velocity) != self.dim:
                raise DomainError("velocity must have length dim")
            if self.k < 0:
                raise DomainError("reaction coefficient k must be >= 0")
            mu = self.mu_cd
            if not (math.isfinite(mu) and mu > 0):
                raise DomainError(f"derived mu must be finite and > 0, got {mu}")
        if self.kind == HEAT and not self.k > 0:
            raise DomainError("heat operator requires diffusivity k > 0")
        if self.kind == WAVE and not self.c1 > 0:
            raise DomainError("wave operator requires c1 > 0")
        if self.kind == ELASTOSTATIC:
            if not (0.0 <= self.nu < 0.5):
                raise DomainError(f"need 0 <= nu < 0.5, got {self.nu}")
            if not self.shear > 0:
                raise DomainError("shear modulus must be > 0")
            if self.dim != 2:
                raise DomainError("elastostatic kernels are 2D only")
        if self.power_n < 0:
            raise DomainError("power_n must be >= 0")
        if self.kind == STRUCTURAL_DIFFUSION:
            if self.dim != 2:
                raise DomainError("structural-diffusion model is 2D")
            if not self.diffusion > 0:
                raise DomainError("structural diffusion requires D > 0")
        for sel in (self.structural_t, self.structural_x):  # of every kind, so ids round-trip
            if sel not in STRUCTURAL_SELECTORS:
                raise DomainError(f"unknown structural selector {sel!r}")

    @property
    def mu_cd(self):
        """mu = sqrt((|v|/2D)^2 + k/D) for convection-diffusion kinds."""
        drift = math.sqrt(sum(v * v for v in self.velocity)) / (2.0 * self.diffusion)
        return math.sqrt(drift * drift + self.k / self.diffusion)  # inf, not OverflowError

    @property
    def is_time_dependent(self):
        return self.kind in TIME_KINDS

    def base(self):
        """The single-power operator a power kind is built from."""
        table = {POLY_LAPLACE: LAPLACE, HELMHOLTZ_POWER: HELMHOLTZ,
                 MOD_HELMHOLTZ_POWER: MODIFIED_HELMHOLTZ,
                 CONV_DIFF_POWER: CONVECTION_DIFFUSION}
        if self.kind == BIHARMONIC:
            return OperatorSpec(LAPLACE, self.dim)
        if self.kind in table:
            return OperatorSpec(table[self.kind], self.dim, k=self.k,
                                diffusion=self.diffusion, velocity=self.velocity)
        return self


@dataclass(frozen=True)
class HighOrderCoeffs:
    """A_0..A_n, B_0..B_n, C_0..C_n of the high-order kernel tables."""

    A: tuple
    B: tuple
    C: tuple


def high_order_coeffs(op):
    """Coefficient sequences up to op.power_n.

    A_0=1, A_n = A_{n-1}/(2 n k^2);  B_0=0, B_{n+1} = (C_n/(n+1) + B_n)/(4(n+1)^2);
    C_0=1, C_{n+1} = C_n/(4(n+1)^2).  The A recurrence needs k > 0.
    """
    n = op.power_n
    k = op.mu_cd if op.kind in (CONVECTION_DIFFUSION, CONV_DIFF_POWER) else op.k
    if n >= 1 and k <= 0 and op.kind in _K_POWER_KINDS:
        raise DomainError(f"A-recurrence requires k > 0 for {op.kind}")
    a = [1.0]
    b = [0.0]
    c = [1.0]
    for i in range(1, n + 1):
        if k > 0:
            a.append(a[-1] / (2.0 * i * k * k))
        b.append((c[-1] / i + b[-1]) / (4.0 * i * i))
        c.append(c[-1] / (4.0 * i * i))
    if k <= 0:
        a = a + [float("nan")] * (n + 1 - len(a))
    return HighOrderCoeffs(A=tuple(a), B=tuple(b), C=tuple(c))


# ---------------------------------------------------------------------------
# structural functions

def structural_fn(selector, exponent):
    """Return (F, F') for a named structural function selector; both accept
    scalars or numpy arrays.

    'power' with exponent exactly 1 falls back to identity so the
    power==classical reduction is bit-for-bit.  'power' with a non-integer
    exponent needs arguments >= 0 and 'log' arguments > 0; either map
    raises DomainError at the first argument outside that domain.
    """
    if selector == "identity" or (selector == "power" and exponent == 1.0):
        return (lambda v: v), (lambda v: 1.0)
    if selector == "power":
        return (lambda v: np.power(_in_domain(selector, exponent, v), exponent)), \
            (lambda v: exponent * np.power(_in_domain(selector, exponent, v), exponent - 1.0))
    if selector == "exp":
        return np.exp, np.exp
    if selector == "log":
        return (lambda v: np.log(_in_domain(selector, exponent, v))), \
            (lambda v: 1.0 / _in_domain(selector, exponent, v))
    raise DomainError(f"unknown structural selector {selector!r}")


def _in_domain(selector, exponent, v):
    """v, once every entry is in the map's domain: >= 0 for 'power' with a
    non-integer exponent, > 0 for 'log'."""
    if selector == "power" and float(exponent).is_integer():
        return v
    bad = np.less_equal(v, 0.0) if selector == "log" else np.less(v, 0.0)
    if np.any(bad):
        first = float(np.asarray(v)[bad].flat[0])
        raise DomainError(f"structural map {selector!r} (exponent {exponent:g}) needs "
                          f"arguments {'> 0' if selector == 'log' else '>= 0'}, got {first!r}")
    return v




# ---------------------------------------------------------------------------
# finite-difference operator application (independent of the kernel formulas)
#
# Every point a stencil reads lies on the lattice x + o * h (t + o_t * ht for
# the time axis, stored last in o) with o an integer offset vector, and h a
# per-point step.  Nested powers and all three Richardson steps read the same
# lattice.  The distinct offsets depend on the operator alone: _lattice
# records them once per operator; fn is then evaluated once on every point of
# every offset, and the stencil contracts those values.  A stencil is written
# once against a lookup g(o) -> values; a nested level of a steady operator
# is one application of that stencil at all the sites the level above reads,
# through a lookup that returns one row per site.

def _shift(o, axis, k):
    return o[:axis] + (o[axis] + k,) + o[axis + 1:]


def _fd1(u, o, axis, h):
    # 5-point first derivative along one lattice axis
    v = [u(_shift(o, axis, k)) for k in (-2, -1, 1, 2)]
    return (v[0] - 8.0 * v[1] + 8.0 * v[2] - v[3]) / (12.0 * h)


def _fd2(u, o, axis, h):
    # 5-point second derivative along one lattice axis
    v = [u(_shift(o, axis, k)) for k in (-2, -1, 0, 1, 2)]
    return (-v[0] + 16.0 * v[1] - 30.0 * v[2] + 16.0 * v[3] - v[4]) / (12.0 * h * h)


def _fd_laplacian(u, o, h, dim):
    return sum(_fd2(u, o, i, h) for i in range(dim))


def _evaluate_stencil(stencil, lattice, fn, Z, steps):
    """Contract stencil(v) over the values v of fn at every offset it reads.

    Z holds one lattice origin per row (coordinates, then the time if any)
    and steps the per-row step of each axis.  lattice holds one offset the
    stencil reads per row (see _lattice); fn is called once on the origins
    shifted by every offset, and row i of v holds the values at offset i.
    """
    points = Z[:, None, :] + lattice[None, :, :] * steps[:, None, :]
    values = np.asarray(fn(points.reshape(-1, Z.shape[1])))
    values = np.ascontiguousarray(values.reshape(Z.shape[0], len(lattice)).T)
    return _by_parts(stencil, values)


def _recorder(offsets):
    """A lookup that registers each offset it reads in offsets, in
    first-read order, and reads 0."""
    def record(o):
        offsets.setdefault(o, len(offsets))
        return 0.0

    return record


@functools.cache
def _lattice(op, dim):
    """(lattice, reads) of op's stencil in dim dimensions: the lattice holds
    the offsets it reads, one per row in first-read order, as floats.  For a
    time operator, whose stencil is run once with a recording lookup and
    scalar stand-ins for the steps and coordinates, reads maps each offset to
    its row; for a steady one it is _steady_gathers' (moves, gathers)."""
    if not op.is_time_dependent:
        lattice, moves, gathers = _steady_gathers(op, dim)
        return lattice.astype(float), (moves, gathers)
    offsets = {}
    _time_stencil(op, _recorder(offsets), 1.0, 1.0, dim, lambda o, i: 1.0, 1.0)
    return np.array(list(offsets), dtype=float), types.MappingProxyType(offsets)


def _by_parts(fn, values):
    """fn(values) for a real-linear fn; on complex values fn runs on a
    contiguous copy of each part in turn, so the real part reads as for real
    values alone (numpy divides a complex array by a real one through the
    reciprocal, and einsum sums complex or strided operands in another order)."""
    if not np.iscomplexobj(values):
        return fn(values)
    out = fn(np.ascontiguousarray(values.real)).astype(complex)
    out.imag = fn(np.ascontiguousarray(values.imag))
    return out


def _per_row(value, n):
    return np.broadcast_to(np.asarray(value, dtype=float), (n,))


def _nesting(op):
    """How many times an operator applies its base operator."""
    return 2 if op.kind == BIHARMONIC else op.power_n + 1


def fd_step(x, order=1):
    """Default step: 1e-4 * max(1, |x|) for single applications, widened for
    nested higher-order operators (roundoff grows like eps/h^(2m)).  x is one
    point or an (n, dim) array of points (one step per row)."""
    x = np.asarray(x, dtype=float)
    scale = np.maximum(1.0, np.sqrt(sum(x[..., i] * x[..., i] for i in range(x.shape[-1]))))
    return {1: 1e-4, 2: 8e-3, 3: 2e-2}.get(order, 3e-2) * scale


def _apply_base(base, g, h, dim):
    """One application of a steady base operator at the origin of the
    lookup g."""
    o = (0,) * dim
    if base.kind == LAPLACE:
        return _fd_laplacian(g, o, h, dim)
    if base.kind == HELMHOLTZ:
        return _fd_laplacian(g, o, h, dim) + base.k ** 2 * g(o)
    if base.kind == MODIFIED_HELMHOLTZ:
        return _fd_laplacian(g, o, h, dim) - base.k ** 2 * g(o)
    if base.kind == CONVECTION_DIFFUSION:
        conv = sum(base.velocity[i] * _fd1(g, o, i, h) for i in range(dim))
        return base.diffusion * _fd_laplacian(g, o, h, dim) + conv - base.k * g(o)
    raise DomainError(f"no FD rule for steady operator {base.kind!r}")


def _steady_gathers(op, dim):
    """(lattice, moves, gathers): how the nested stencil of op reads the
    lattice.

    The top level is one base application at the origin; each level below
    is applied at every distinct site the level above reads, in first-read
    order, and level 1 reads the lattice values.  One application at a site
    reads the site shifted by each move (moves maps each move to its index).
    Per Richardson step (h alone for a single application; h, 2h and 4h
    otherwise, every scale-th point of the h lattice) the gathers hold, from
    level 1 up, the (moves, sites) rows each level reads of the level below.
    The lattice rows come in the order a depth-first walk of the nested
    stencil reads them.
    """
    moves = {}
    _apply_base(op.base(), _recorder(moves), 1.0, dim)
    shifts = np.array(list(moves))
    sites = [np.zeros((1, dim), dtype=int)]  # level by level, the top one last
    for _ in range(_nesting(op) - 1):
        sites.insert(0, _first_rows((sites[0][:, None] + shifts).reshape(-1, dim)))
    scales = (1,) if len(sites) == 1 else (1, 2, 4)
    lattice = _first_rows(np.concatenate(
        [scale * (sites[0][:, None] + shifts) for scale in scales]).reshape(-1, dim))
    gathers = tuple(
        (_rows_of(lattice, scale * (shifts[:, None] + sites[0])),)
        + tuple(_rows_of(below, shifts[:, None] + at) for below, at in zip(sites, sites[1:]))
        for scale in scales)
    return lattice, types.MappingProxyType(moves), gathers


def _first_rows(a):
    """The distinct rows of a, in the order they first occur."""
    _, first = np.unique(a, axis=0, return_index=True)
    return a[np.sort(first)]


def _rows_of(table, queries):
    """The row of table (distinct integer rows) that equals each query row."""
    # a row is a number in base `radix` with balanced digits |o_i| <= radix // 2
    radix = 1 + 2 * int(np.abs(table).max(initial=0))
    key = radix ** np.arange(table.shape[1])
    order = np.argsort(table @ key)
    return order[np.searchsorted(table @ key, queries @ key, sorter=order)]


def _steady_stencil(op, values, h, dim, moves, gathers):
    """op applied by central differences to the lattice values (one row per
    offset of _lattice, one column per sample point) with per-column step h."""
    base = op.base()

    def full(levels, step):
        # each level is one application at all its sites, a table with one
        # row per site; the top level has the origin alone
        table = values
        for rows in levels:
            table = _apply_base(base, lambda o, t=table, rows=rows: t[rows[moves[o]]], step, dim)
        return table[0]

    if len(gathers) == 1:
        return full(gathers[0], h)
    # Richardson over the steps h, 2h and 4h: r1 and r2 cancel the h^4 term,
    # and their combination the h^6 term
    f1, f2, f4 = full(gathers[0], h), full(gathers[1], 2.0 * h), full(gathers[2], 4.0 * h)
    r1, r2 = (16.0 * f1 - f2) / 15.0, (16.0 * f2 - f4) / 15.0
    return (64.0 * r1 - r2) / 63.0


def steady_operator_fd_block(op, fn, X, h=None):
    """Apply a steady operator by central differences at each row of X.

    fn maps an (N, dim) point array to (N,) values (real or complex); it is
    called once, on the distinct stencil points of every row.  Higher-order
    operators (biharmonic, powers) nest the base application and
    Richardson-extrapolate the nested result over the steps h, 2h and 4h
    (cancels the h^4 and h^6 terms, which otherwise drown the 1e-4 check
    tolerance).  h defaults to fd_step per row; returns one residual per row.
    """
    X = np.asarray(X, dtype=float)
    n, dim = X.shape
    h = fd_step(X, order=_nesting(op)) if h is None else _per_row(h, n)
    lattice, (moves, gathers) = _lattice(op, dim)
    return _evaluate_stencil(lambda v: _steady_stencil(op, v, h, dim, moves, gathers), lattice,
                             fn, X, np.repeat(h[:, None], dim, axis=1))


def _time_stencil(op, u, h, ht, dim, x_at, t):
    # x_at(o, i): coordinate i at lattice offset o; time is lattice axis dim
    origin = (0,) * (dim + 1)
    if op.kind == HEAT:
        return _fd1(u, origin, dim, ht) - op.k * _fd_laplacian(u, origin, h, dim)
    if op.kind == WAVE:
        return _fd2(u, origin, dim, ht) - op.c1 ** 2 * _fd_laplacian(u, origin, h, dim)
    if op.kind == STRUCTURAL_DIFFUSION:
        _, gprime = structural_fn(op.structural_t, op.alpha)
        _, fprime = structural_fn(op.structural_x, op.beta)
        ut = _fd1(u, origin, dim, ht) / gprime(t)
        total = 0.0
        for i in range(dim):
            def inner(o, _i=i):
                return _fd1(u, o, _i, h) / fprime(x_at(o, _i))
            total += _fd1(inner, origin, i, h) / fprime(x_at(origin, i))
        return ut - op.diffusion * total
    raise DomainError(f"no FD rule for time operator {op.kind!r}")


def time_operator_fd_block(op, fn, X, T, h=None, ht=None):
    """Apply a transient operator by central differences at each (X, T) row.

    heat: du/dt - k lap(u);  wave: d2u/dt2 - c1^2 lap(u);
    structural-diffusion: u_t/G'(t) - D sum_i (1/F') d/dx_i ((1/F') du/dx_i).
    fn maps (N, dim) points and (N,) times to (N,) values and is called once.
    h defaults to fd_step per row, ht to 1e-4 * max(1, |t|).
    """
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float)
    n, dim = X.shape
    h = fd_step(X, order=1) if h is None else _per_row(h, n)
    ht = 1e-4 * np.maximum(1.0, np.abs(T)) if ht is None else _per_row(ht, n)

    def x_at(o, i):
        return X[:, i] + o[i] * h

    lattice, offsets = _lattice(op, dim)
    return _evaluate_stencil(
        lambda v: _time_stencil(op, lambda o: v[offsets[o]], h, ht, dim, x_at, T), lattice,
        lambda Z: fn(Z[:, :dim], Z[:, dim]), np.column_stack([X, T]),
        np.column_stack([np.repeat(h[:, None], dim, axis=1), ht]))
