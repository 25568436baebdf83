"""Bessel and Legendre functions in double precision.

The Bessel functions are thin wrappers over scipy.special, gated by the
40-digit table (tests/data/special_function_reference.txt, regenerated by
tools/gen_special_reference.py).  Orders 0 and 1 use the order-specific
ufuncs j0/j1/y0/y1/i0/i1/k0/k1, which are far cheaper than jv/yv/iv/kv;
higher and half-integer orders use jv/yv/iv/kv.  load_bessel_table imports
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


def bessel_block(kind, n, z):
    """J_n, Y_n, I_n or K_n (kind "j", "y", "i" or "k") elementwise on z.

    n is a non-negative integer, or a half-integer for the spherical pieces;
    it is not checked.  Raises SingularityError when a Y argument is below
    Y_SINGULARITY_FLOOR or a K argument is <= 0, and RangeOverflowError when
    an I argument exceeds 700 in magnitude.
    """
    z = np.asarray(z, dtype=float)
    if z.size:
        if kind == "y" and z.min() < Y_SINGULARITY_FLOOR:
            raise SingularityError(
                f"Y_n requires x > {Y_SINGULARITY_FLOOR:g}, got {float(z.min())!r}")
        if kind == "k" and z.min() <= 0.0:
            raise SingularityError(f"K_n requires x > 0, got {float(z.min())!r}")
        if kind == "i" and np.abs(z).max() > _I_OVERFLOW_ARG:
            raise RangeOverflowError(
                f"I_{n}(x) overflows the double range for |x| > {_I_OVERFLOW_ARG:g}")
    order0, order1, any_order = load_bessel_table()[kind]
    if n == 0:
        return order0(z)
    if n == 1:
        return order1(z)
    return any_order(n, z)


def spherical_bessel_block(kind, n, z):
    """Spherical j_n, y_n, i_n or k_n = sqrt(pi / 2z) F_{n+1/2}(z) on z >= 0.

    j_n and i_n take their limits at z = 0 (1 for n = 0, else 0); y_n and
    k_n raise SingularityError there.  scipy.special.spherical_* are not
    used: their Python wrappers cost tens of microseconds per call.
    """
    z = np.asarray(z, dtype=float)
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
