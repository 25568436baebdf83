"""Bessel and Legendre functions in double precision.

The Bessel functions are thin wrappers over scipy.special, gated by the
40-digit table (tests/data/special_function_reference.txt, regenerated by
tools/gen_special_reference.py).  Orders 0 and 1 use the order-specific
ufuncs j0/j1/y0/y1/i0/i1/k0/k1, which are far cheaper than jv/yv/iv/kv;
higher and half-integer orders use jv/yv/iv/kv.  The spherical pieces of
orders 0 and 1 are elementary (with a power series near 0), and so are j, y,
i and k of order -1; none of them reaches scipy.  load_bessel_table imports
scipy.special once, when a kernel family that reaches Bessel functions is
constructed (or on the first evaluation), so Bessel-free runs never load it.

`bessel_block` and `spherical_bessel_block` evaluate whole arrays (the path
the kernel catalog takes); `bessel_j/y/i/k` and `hankel1` are their scalar
views and add the order and finiteness checks.  Both keep one error
contract: Y and K raise SingularityError for arguments <= 0 (Y also below
Y_SINGULARITY_FLOOR), I raises RangeOverflowError for |x| > 700, and a
scalar result that overflows raises RangeOverflowError.  The scalar views
fold negative x by exact parity for J and I (J_n(-x) = (-1)^n J_n(x), I
likewise).

P_v^m uses the stable three-term recurrence in the degree v (Condon-Shortley
phase included); `assoc_legendre_block` runs it on whole arrays and
`assoc_legendre` is its checked scalar view.

All functions are pure and reentrant; x must be finite, orders are
non-negative integers.
"""

import functools
import math

import numpy as np

from .errors import DomainError, RangeOverflowError, SingularityError

# Y_n treats arguments below this floor as the logarithmic singularity itself.
Y_SINGULARITY_FLOOR = 1e-300

_I_OVERFLOW_ARG = 700.0


def _check_order(n):
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")


def _check_finite(x, name="x"):
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")


@functools.cache
def load_bessel_table():
    """kind -> (order-0, order-1, any-order) ufunc, resolved once."""
    from scipy import special as sc

    return {"j": (sc.j0, sc.j1, sc.jv), "y": (sc.y0, sc.y1, sc.yv),
            "i": (sc.i0, sc.i1, sc.iv), "k": (sc.k0, sc.k1, sc.kv)}


def _check_arguments(kind, n, z):
    if z.size:
        if kind == "y" and z.min() < Y_SINGULARITY_FLOOR:
            raise SingularityError(
                f"Y_n requires x > {Y_SINGULARITY_FLOOR:g}, got {float(z.min())!r}")
        if kind == "k" and z.min() <= 0.0:
            raise SingularityError(f"K_n requires x > 0, got {float(z.min())!r}")
        if kind == "i" and np.abs(z).max() > _I_OVERFLOW_ARG:
            raise RangeOverflowError(
                f"I_{n}(x) overflows the double range for |x| > {_I_OVERFLOW_ARG:g}")


def bessel_block(kind, n, z):
    """J_n, Y_n, I_n or K_n (kind "j", "y", "i" or "k") elementwise on z.

    n is a non-negative integer, or a half-integer for the spherical pieces;
    it is not checked.  Raises SingularityError when a Y argument is below
    Y_SINGULARITY_FLOOR or a K argument is <= 0, and RangeOverflowError when
    an I argument exceeds 700 in magnitude.
    """
    z = np.asarray(z, dtype=float)
    _check_arguments(kind, n, z)
    order0, order1, any_order = load_bessel_table()[kind]
    if n == 0:
        return order0(z)
    if n == 1:
        return order1(z)
    return any_order(n, z)


# Below this argument j_n and i_n (n = 0, 1) take their power series: the
# closed forms of j_1 and i_1 lose about eps / z^2 of relative precision to
# cancellation.  At the threshold the first term left out is below 1e-22.
_SPHERICAL_SERIES_BELOW = 1.0
_SPHERICAL_SERIES_TERMS = 10


def _spherical_series(kind, n, z):
    # j_n, i_n = z^n / (2n+1)!! sum_k (-+z^2/2)^k / (k! (2n+3)(2n+5)...(2n+2k+1))
    q = (-0.5 if kind == "j" else 0.5) * z * z
    total = np.ones(z.shape)
    for k in range(_SPHERICAL_SERIES_TERMS, 0, -1):
        total = 1.0 + total * q / (k * (2 * n + 2 * k + 1))
    return total * z / 3.0 if n else total


def _spherical_closed(kind, n, z):
    # DLMF 10.49.3, 10.49.5, 10.49.8, 10.49.12 at n = 0 and 1
    if kind == "j":
        s = np.sin(z) / z
        return s if n == 0 else (s - np.cos(z)) / z
    if kind == "y":
        c = np.cos(z) / z
        return -c if n == 0 else -(c + np.sin(z)) / z
    if kind == "i":
        s = np.sinh(z) / z
        return s if n == 0 else (np.cosh(z) - s) / z
    e = 0.5 * math.pi * np.exp(-z) / z
    return e if n == 0 else e * (1.0 + 1.0 / z)


# order -1 pieces as (sign, kind) of the order-0 piece they equal
_REFLECTED = {"j": (-1.0, "y"), "y": (1.0, "j"), "k": (1.0, "k")}


def spherical_bessel_block(kind, n, z):
    """Spherical j_n, y_n, i_n or k_n = sqrt(pi / 2z) F_{n+1/2}(z) on z >= 0.

    j_n and i_n take their limits at z = 0 (1 for n = 0, else 0); y_n and
    k_n raise SingularityError there, and i_n RangeOverflowError above 700.
    At n = -1 the roles of j and y swap: y_-1 -> 1 at z = 0, j_-1 raises,
    and so does i_-1.  Orders 0 and 1 are pure numpy: the elementary closed
    forms, and for j_n and i_n below _SPHERICAL_SERIES_BELOW their power
    series, chosen per element.  Order -1 is elementary too: j, y and k
    reflect onto order 0 (DLMF 10.47), j_-1 = -y_0 = cos z / z,
    y_-1 = j_0 = sin z / z, k_-1 = k_0, and i_-1 = cosh z / z (the
    second-kind modified piece of order 0, DLMF 10.49).
    Higher orders go through bessel_block at order n + 1/2;
    scipy.special.spherical_* are not used: their Python wrappers cost tens
    of microseconds per call.
    """
    z = np.asarray(z, dtype=float)
    if n == -1 and kind in _REFLECTED:
        sign, kind = _REFLECTED[kind]
        return sign * spherical_bessel_block(kind, 0, z)
    if n == -1:  # i_-1 = cosh z / z
        _check_arguments(kind, n, z)
        if not z.all():
            raise SingularityError("i_-1(z) = cosh z / z requires z != 0")
        return np.cosh(z) / z
    if n in (0, 1):
        _check_arguments(kind, n, z)
        if kind in ("y", "k"):
            return _spherical_closed(kind, n, z)
        small = np.abs(z) < _SPHERICAL_SERIES_BELOW
        out = np.empty(z.shape)
        out[small] = _spherical_series(kind, n, z[small])
        out[~small] = _spherical_closed(kind, n, z[~small])
        return out
    if kind in ("j", "i") and not z.all():
        out = np.full(z.shape, 1.0 if n == 0 else 0.0)
        nonzero = z != 0.0
        out[nonzero] = spherical_bessel_block(kind, n, z[nonzero])
        return out
    values = bessel_block(kind, n + 0.5, z)  # raises for y_n, k_n at 0 before 1/z
    return np.sqrt(0.5 * math.pi / z) * values


def _scalar(kind, n, x):
    value = float(bessel_block(kind, n, x))
    if not math.isfinite(value):
        raise RangeOverflowError(f"{kind.upper()}_{n}({x}) overflows the double range")
    return value


def bessel_j(n, x):
    """J_n(x) for integer n >= 0 and finite real x (1e-12 abs for |x| <= 50)."""
    _check_order(n)
    _check_finite(x)
    value = _scalar("j", n, abs(x))
    return -value if x < 0.0 and n % 2 == 1 else value


def bessel_y(n, x):
    """Y_n(x) for integer n >= 0 and x > 0 (1e-12 abs for x in (0, 50])."""
    _check_order(n)
    _check_finite(x)
    return _scalar("y", n, x)


def bessel_i(n, x):
    """I_n(x) for integer n >= 0 (1e-12 rel for |x| <= 30)."""
    _check_order(n)
    _check_finite(x)
    value = _scalar("i", n, abs(x))
    return -value if x < 0.0 and n % 2 == 1 else value


def bessel_k(n, x):
    """K_n(x) for integer n >= 0 and x > 0 (1e-12 rel for x in (0, 30])."""
    _check_order(n)
    _check_finite(x)
    return _scalar("k", n, x)


def hankel1(n, x):
    """H_n^(1)(x) = J_n(x) + i Y_n(x) for x > 0."""
    _check_order(n)
    _check_finite(x)
    if x <= 0.0:
        raise SingularityError(f"H_n^(1) requires x > 0, got {x!r}")
    return complex(bessel_j(n, x), bessel_y(n, x))


def assoc_legendre(v, m, x):
    """P_v^m(x) with Condon-Shortley phase, 0 <= m <= v, |x| <= 1."""
    _check_order(v)
    if not isinstance(m, int) or isinstance(m, bool):
        raise DomainError(f"order m must be an integer, got {m!r}")
    if m < 0 or m > v:
        raise DomainError(f"need 0 <= m <= v, got m={m}, v={v}")
    _check_finite(x)
    x = float(x)
    if abs(x) > 1.0:
        raise DomainError(f"|x| <= 1 required, got {x!r}")
    return float(assoc_legendre_block(v, m, x))


def assoc_legendre_block(v, m, x):
    """P_v^m elementwise on x (|x| <= 1, 0 <= m <= v; not checked)."""
    x = np.asarray(x, dtype=float)
    # P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}
    pmm = np.ones_like(x)
    if m > 0:
        s = np.sqrt(np.maximum(0.0, (1.0 - x) * (1.0 + x)))
        fact = 1.0
        for _ in range(m):
            pmm = pmm * (-fact * s)
            fact += 2.0
    if v == m:
        return pmm
    pmmp1 = x * (2.0 * m + 1.0) * pmm
    if v == m + 1:
        return pmmp1
    for vv in range(m + 2, v + 1):
        pmm, pmmp1 = pmmp1, (x * (2.0 * vv - 1.0) * pmmp1 - (vv + m - 1.0) * pmm) / (vv - m)
    return pmmp1
