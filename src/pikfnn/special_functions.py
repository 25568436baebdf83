"""Bessel and Legendre functions in double precision, in numpy alone.

J, Y, I and K of orders 0 and 1 (and -1, by reflection) come from fixed
expansions that tools/gen_bessel_coefficients.py fits with mpmath at 40
digits and writes into this module:

- J and Y: below x = 4, series in x^2 (Y as (2/pi) ln(x/2) J plus an entire
  remainder, DLMF 10.8); from 4 to 8, polynomials in x - 6; from 8 on, the
  modulus-phase form M sin(theta) (DLMF 10.18), one sine per value;
- I: below 15 a series in x^2, above e^x / sqrt(x) times a polynomial in 1/x;
- K: below 2, -ln(x/2) I plus an entire remainder (DLMF 10.31); above,
  e^-x / sqrt(x) times a polynomial in 1/x.

Every integer order n >= 2 follows from orders 0 and 1 (_high_order): Y
and K by forward recurrence, J forward where x >= n and by Miller's
backward recurrence below, I by Miller's recurrence everywhere, and J and I
by their power series below x = 2.  The spherical j, y, i and k are
elementary at orders -1, 0 and 1 (with a power series near 0) and recur
from orders 0 and 1 in the same way above.  No other library is imported:
a run loads numpy and nothing else for any kernel.

Five 40-digit tables from tools/gen_special_reference.py gate these in
tests/data: special_function_reference.txt (orders to 12, 1e-12),
spherical_bessel_reference.txt (orders -1 to 1),
bessel_order01_reference.txt (orders 0 and 1 to 1e-14, from x = 1e-8 to
1000), bessel_high_order_reference.txt (orders 2 to 20, plain and
spherical, from x = 1e-8 to 1000) and, for the T-complete members of
kernels, tcomplete_gradient_reference.txt.

`bessel_block` and `spherical_bessel_block` evaluate whole arrays (the path
the kernel catalog takes) and accept integer orders >= -1 only;
`bessel_j/y/i/k` and `hankel1` are their scalar views and add the order and
finiteness checks.  Both keep one error contract: Y and K raise
SingularityError for arguments <= 0 (Y also below Y_SINGULARITY_FLOOR), I
raises RangeOverflowError for |x| > 700, and a scalar result that overflows
raises RangeOverflowError.  J and I of negative x follow by exact parity
(J_n(-x) = (-1)^n J_n(x), I likewise).

P_v^m uses the stable three-term recurrence in the degree v (Condon-Shortley
phase included); `assoc_legendre_block` runs it on whole arrays and
`assoc_legendre` is its checked scalar view.

All functions are pure and reentrant; x must be finite, orders are
non-negative integers.
"""

import functools
import math
import numbers

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


def _check_block_order(n):
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < -1:
        raise DomainError(f"order must be an integer >= -1, got {n!r}")


def _check_finite(x, name="x"):
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")


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

    n is an integer >= -1; any other order raises DomainError.  Orders 0
    and 1 come from the fitted expansions, order -1 reflects onto order 1
    (J_-1 = -J_1, Y_-1 = -Y_1, I_-1 = I_1 and K_-1 = K_1; DLMF 10.4.1,
    10.27.1, 10.27.3), and orders >= 2 follow from orders 0 and 1 by
    recurrence (_high_order).  Raises SingularityError when a Y argument is
    below Y_SINGULARITY_FLOOR or a K argument is <= 0, and RangeOverflowError
    when an I argument exceeds 700 in magnitude.
    """
    _check_block_order(n)
    if n == -1:
        value = bessel_block(kind, 1, z)
        return -value if kind in ("j", "y") else value
    z = np.asarray(z, dtype=float)
    _check_arguments(kind, n, z)
    x = np.abs(z).ravel() if kind in ("j", "i") else z.ravel()
    if n < 2:
        out = _by_interval(x, _EDGES[kind], _PARTS[kind], (n,))[0]
    else:
        out = _high_order(kind, n, 0.0, x, _orders01)
    if n % 2 and kind in ("j", "i"):
        out[z.ravel() < 0.0] *= -1.0   # J_n and I_n of odd order are odd
    return out.reshape(z.shape)


# Elements per pass of the order-0 and order-1 evaluations: a pass keeps
# about six work arrays, which then stay in the L2 cache.
_CHUNK = 1 << 14


def _by_interval(x, edges, parts, orders):
    """parts[i](orders, x) on the elements of the 1-D x in [edges[i-1],
    edges[i]), the first part below edges[0] and the last from edges[-1] on
    (NaN too), as one row per order.  The part is chosen per element, so a
    value does not depend on its neighbours.  A chunk that spans several
    intervals takes its most common part on every element, then overwrites
    the others from their own parts."""
    out = np.empty((len(orders), x.size))
    for start in range(0, x.size, _CHUNK):
        xc, oc = x[start:start + _CHUNK], out[:, start:start + _CHUNK]
        below = [int(np.count_nonzero(xc < edge)) for edge in edges] + [xc.size]
        counts = [hi - lo for lo, hi in zip([0] + below, below)]
        common = counts.index(max(counts))
        with np.errstate(all="ignore"):  # outside its interval a part may overflow
            for row, value in zip(oc, parts[common](orders, xc)):
                row[...] = value
        for i, count in enumerate(counts):
            if count and i != common:
                chosen = ~(xc < edges[i - 1]) if i else xc < edges[0]
                if 0 < i < len(edges):
                    chosen &= xc < edges[i]
                for row, value in zip(oc, parts[i](orders, xc[chosen])):
                    row[chosen] = value
    return out


def _orders01(kind, x, orders=(0, 1)):
    """F_0 and F_1 (or those of orders) of the kind at the 1-D x >= 0, from
    one split of x."""
    return _by_interval(x, _EDGES[kind], _PARTS[kind], orders)


def _horner(coeffs, v):
    """sum coeffs[i] v^(d - i), d = len(coeffs) - 1, in one new array."""
    p = coeffs[0] * v
    p += coeffs[1]
    for c in coeffs[2:]:
        p *= v
        p += c
    return p


_TWO_OVER_PI = 2.0 / math.pi

# Each part below returns [F_n for n in orders] and computes what the orders
# share (x^2, ln(x/2), 1/x, sqrt(1/x), e^x or e^-x) once; F_n alone takes the
# same operations in the same order whether or not the other order is asked.


def _jy_small(kind, orders, x):
    # J_0 = P(x^2), J_1 = x P(x^2); Y_n = (2/pi) ln(x/2) J_n + an entire
    # remainder, less 2/(pi x) for n = 1 (DLMF 10.8.1, 10.8.2)
    t = x * x
    js = [_horner(_J1_SMALL, t) * x if n else _horner(_J0_SMALL, t) for n in orders]
    if kind == "j":
        return js
    log = np.log(0.5 * x)
    out = []
    for n, j in zip(orders, js):
        y = log * _TWO_OVER_PI
        y *= j
        rest = _horner(_Y1_SMALL if n else _Y0_SMALL, t)
        if n:
            rest *= x
            rest -= _TWO_OVER_PI / x
        y += rest
        out.append(y)
    return out


def _jy_mid(kind, orders, x):
    s = x - 6.0
    if kind == "j":
        return [_horner(_J1_MID if n else _J0_MID, s) for n in orders]
    return [_horner(_Y1_MID if n else _Y0_MID, s) for n in orders]


def _jy_large(kind, orders, x):
    # modulus-phase form (DLMF 10.18): J_n = M cos theta, Y_n = M sin theta,
    # M = m(w) / sqrt(x), theta = x - (2n + 1) pi/4 + phi(w) / x, w = 1/x^2;
    # J_n takes the sine at theta + pi/2, so each kind costs one sine
    r = np.divide(1.0, x)
    w = r * r
    root = np.sqrt(r)
    out = []
    for n in orders:
        theta = _horner(_JY1_PHASE if n else _JY0_PHASE, w)
        theta *= r
        theta += _PHASE_SHIFT[kind, n]
        theta += x
        value = np.sin(theta, out=theta)
        value *= _horner(_JY1_MODULUS if n else _JY0_MODULUS, w)
        value *= root
        out.append(value)
    return out


def _i_small(orders, x, t=None):
    t = x * x if t is None else t
    return [_horner(_I1_SMALL, t) * x if n else _horner(_I0_SMALL, t) for n in orders]


def _i_large(orders, x):
    # I_n = e^x p(1/x) / sqrt(x)
    r = np.divide(1.0, x)
    root = np.sqrt(r)
    grow = np.exp(x)
    out = []
    for n in orders:
        value = _horner(_I1_LARGE if n else _I0_LARGE, r)
        value *= root
        value *= grow
        out.append(value)
    return out


def _k_small(orders, x):
    # K_n = (-1)^(n+1) ln(x/2) I_n + an entire remainder, plus 1/x for n = 1
    # (DLMF 10.31.1, 10.31.2)
    t = x * x
    log = np.log(0.5 * x)
    out = []
    for n, i in zip(orders, _i_small(orders, x, t)):
        log_i = log * i
        value = _horner(_K1_SMALL if n else _K0_SMALL, t)
        if n:
            value *= x
            value += log_i
            value += np.divide(1.0, x)
        else:
            value -= log_i
        out.append(value)
    return out


def _k_large(orders, x):
    # K_n = e^-x q(1/x) / sqrt(x)
    r = np.divide(1.0, x)
    root = np.sqrt(r)
    decay = np.exp(-x)
    out = []
    for n in orders:
        value = _horner(_K1_LARGE if n else _K0_LARGE, r)
        value *= root
        value *= decay
        out.append(value)
    return out


_EDGES = {"j": (4.0, 8.0), "y": (4.0, 8.0), "i": (15.0,), "k": (2.0,)}
_PARTS = {
    "j": [functools.partial(f, "j") for f in (_jy_small, _jy_mid, _jy_large)],
    "y": [functools.partial(f, "y") for f in (_jy_small, _jy_mid, _jy_large)],
    "i": [_i_small, _i_large],
    "k": [_k_small, _k_large],
}
# the sine of theta for Y_n, of theta + pi/2 for J_n, less x and phi(w) / x
_PHASE_SHIFT = {("y", 0): -0.25 * math.pi, ("j", 0): 0.25 * math.pi,
                ("y", 1): -0.75 * math.pi, ("j", 1): -0.25 * math.pi}


# ---------------------------------------------------------------------------
# Orders >= 2 by recurrence.  With v = n + half (half = 0 for J, Y, I, K and
# 1/2 for the spherical pieces) and c = 2 (n + half) / x, the orders are tied
# by F_{n+1} = c F_n - F_{n-1} for J, Y, j, y (DLMF 10.6.1, 10.51.1),
# F_{n+1} = F_{n-1} - c F_n for I, i, and F_{n+1} = F_{n-1} + c F_n for K, k
# (DLMF 10.29.1, 10.51.4).

# Below this argument j_n and i_n (n = 0, 1) take their power series in 10
# terms: the closed forms of j_1 and i_1 lose about eps / z^2 of relative
# precision to cancellation.  At the threshold the first term left out is
# below 1e-22.
_SPHERICAL_SERIES_BELOW = 1.0
# Below this argument J_n, I_n, j_n and i_n (n >= 2) take their power
# series in 12 terms; at the threshold the first term left out is below
# 1e-19 of the sum, and the alternating terms of J and j cancel by at most
# I_n(2) / J_n(2) < 2.  Above, Miller's recurrence grows by at most N + 2 per
# step.
_SERIES_BELOW = 2.0

# Miller's recurrence starts where its estimated relative error,
# exp(-2 Phi) (see _start_order), is below this.
_MILLER_TOL = 1e-19


def _high_order(kind, n, half, x, seeds):
    """F_n, n >= 2, at the 1-D x (x >= 0 for J, I, j and i), from the orders
    0 and 1 that seeds(kind, x, orders) gives.

    Y, K, y and k recur forward: they grow with the order, so the recurrence
    is stable (an overflow to -inf stays -inf).  J and j recur forward where
    x >= n, and backward by Miller's method (DLMF 3.6(iii), 10.74(iv);
    Gautschi, SIAM Review 9, 1967) on [_SERIES_BELOW, n); I and i recur
    backward on all of [_SERIES_BELOW, 700]; all four take the power series
    below.  Each element takes its branch and start order from its own
    argument, so a value does not depend on its neighbours.
    """
    if kind in ("y", "k"):
        out = _forward(kind, n, half, x, *seeds(kind, x, (0, 1)))
        if kind == "y":  # -inf - -inf past the overflow
            out[np.isnan(out) & ~np.isnan(x)] = -np.inf
        return out
    small = ~(x >= _SERIES_BELOW)  # NaN too, which the series keeps
    if small.all():
        return _series(kind, n, half, x)
    out = np.empty(x.shape)
    if small.any():
        out[small] = _series(kind, n, half, x[small])
        rest = ~small
        out[rest] = _recurred(kind, n, half, x[rest], seeds)
    else:
        out[...] = _recurred(kind, n, half, x, seeds)
    return out


def _recurred(kind, n, half, x, seeds):
    """F_n of kind J, I, j or i at the 1-D x >= _SERIES_BELOW."""
    if kind == "i":
        return _miller(kind, n, half, x, seeds(kind, x, (0,))[0])
    f0, f1 = seeds(kind, x, (0, 1))
    backward = x < n
    if backward.all():
        return _miller(kind, n, half, x, f0, f1)
    out = _forward(kind, n, half, x, f0, f1)
    if backward.any():
        out[backward] = _miller(kind, n, half, x[backward], f0[backward], f1[backward])
    return out


def _series(kind, n, half, x):
    """J_n, I_n (half = 0) or j_n, i_n (half = 1/2) by the power series
    (x/2)^v / Gamma(v + 1) sum_k (-+x^2/4)^k / (k! (v + 1)_k), v = n + half
    (DLMF 10.2.2, 10.25.2); for j and i, z^n / (2n+1)!! sum_k (-+z^2/2)^k /
    (k! (2n+3)(2n+5)...(2n+2k+1)).  Orders 0 and 1 (j and i below
    _SPHERICAL_SERIES_BELOW) take 10 terms as nested products; orders >= 2
    (below _SERIES_BELOW) take 12 as a polynomial in x^2 (_series_coeffs)."""
    if n >= 2:
        value = _horner(_series_coeffs(kind, n, half), x * x)
        value *= x ** n
        return value
    q = (-0.5 if kind == "j" else 0.5) * x * x
    total = np.ones(x.shape)
    for k in range(10, 0, -1):
        total = 1.0 + total * q / (k * (2 * n + 2 * k + 1))
    return total * x / 3.0 if n else total


@functools.cache
def _series_coeffs(kind, n, half):
    """The 12 coefficients of _series in powers of x^2, highest first, with
    the leading factor folded in (it underflows to 0 where the values do)."""
    lead = math.prod(range(1, 2 * n + 2, 2)) if half else 2 ** n * math.factorial(n)
    coeffs = [1.0 / float(min(lead, 1 << 1023))]
    for k in range(1, 12):
        step = k * (2 * n + 2 * k + 1) / 0.5 if half else k * (n + k) / 0.25
        coeffs.append(coeffs[-1] / (-step if kind == "j" else step))
    return tuple(reversed(coeffs))


def _forward(kind, n, half, x, f0, f1):
    """F_n (J, Y, K, j, y or k) from F_0 and F_1 by the forward recurrence."""
    r = 2.0 / x
    prev, cur = f0, f1
    for k in range(1, n):
        nxt = (k + half) * r
        nxt *= cur
        if kind == "k":
            nxt += prev
        else:
            nxt -= prev
        prev, cur = cur, nxt
    return cur


def _miller(kind, n, half, x, f0, f1=None):
    """F_n (J, I, j or i) by Miller's backward recurrence: F_{N+1} = 0,
    F_N = 1 from the start order N of _start_orders down to order 0, then
    scaled to the true F_0 and F_1.  J_0 and j_0 have zeros where Miller's
    region reaches them, so J and j scale by whichever of F_0 and F_1 is
    larger in magnitude (the two have no common zero); I and i scale by F_0.
    An element enters at its own N (its terms before are exact zeros), and
    each 8 orders the elements beyond 1e200 are scaled back."""
    start, entries = _start_orders(kind, n, half, x)
    r = 2.0 / x
    cur, nxt, prev = np.zeros(x.shape), np.zeros(x.shape), np.empty(x.shape)
    kept = None
    for k in range(max(entries), 0, -1):
        if k in entries:
            cur += start == k
        if k == n:
            kept = cur.copy()
        np.multiply(r, k + half, out=prev)
        prev *= cur
        if kind == "i":
            prev += nxt
        else:
            prev -= nxt
        prev, nxt, cur = nxt, cur, prev
        if k % 8 == 0:
            big = np.abs(cur) > 1e200
            if big.any():
                for f in (cur, nxt) if kept is None else (cur, nxt, kept):
                    f[big] *= 1e-200
    # cur and nxt now hold orders 0 and 1 of the recurred solution
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "i":
            scale = f0 / cur
        else:
            scale = np.where(np.abs(f0) >= np.abs(f1), f0 / cur, f1 / nxt)
    kept *= scale
    return kept


def _start_orders(kind, n, half, x):
    """Miller's start order for x >= _SERIES_BELOW, and the set of its
    values: for J and j the one at x = n, which serves all of [2, n); for I
    and i, per element, the one at the top of the octave [2^(e-1), 2^e)
    that holds it (the start order grows with x).  np.unique would import
    numpy.ma, about 12 ms, so the values come from the octaves' range."""
    if kind != "i":
        start = _start_order(kind, n, half, float(n))
        return start, {start}
    _, octave = np.frexp(x)
    low = int(octave.min())
    table = [_start_order(kind, n, half, 2.0 ** e) for e in range(low, int(octave.max()) + 1)]
    return np.array(table)[octave - low], set(table)


@functools.cache
def _start_order(kind, n, half, x):
    """The least N > n for which Miller's recurrence started at N is good to
    _MILLER_TOL at order n and argument x (x <= n for J and j).

    The error at order n of a start at N is about
    F_{N+1} G_n / (F_n G_{N+1}), G the second solution (Y for J, K for I).
    By Debye's forms (DLMF 10.19.3, 10.41.3) each step beyond order t
    shrinks F and grows G by about x / (t + sqrt(t^2 -+ x^2)), so the error
    is exp(-2 Phi) with Phi = int_v^{N+half} acosh(t/x) dt for J (asinh for
    I), v = n + half.  For I at large x this is exp(-(N^2 - n^2) / x): the
    start order grows like sqrt(x).  Two orders more cover the turning
    point t ~ x, where Debye's form is rough.
    """
    if kind == "i":
        def phi(t):
            return t * math.asinh(t / x) - math.hypot(t, x)
    else:
        def phi(t):
            return t * math.acosh(t / x) - math.sqrt((t - x) * (t + x))
    v = n + half
    target = phi(v) - 0.5 * math.log(_MILLER_TOL)
    top = v + 1.0
    while phi(top) < target:
        top += 1.0
    return int(top - half) + 2


def _spherical_closed(kind, z, orders):
    """[f_n for n in orders] (n = 0, 1) of the spherical kind by DLMF
    10.49.3, 10.49.5, 10.49.8 and 10.49.12."""
    if kind == "j":
        s = np.sin(z) / z
        return [(s - np.cos(z)) / z if n else s for n in orders]
    if kind == "y":
        c = np.cos(z) / z
        return [-(c + np.sin(z)) / z if n else -c for n in orders]
    if kind == "i":
        s = np.sinh(z) / z
        return [(np.cosh(z) - s) / z if n else s for n in orders]
    e = 0.5 * math.pi * np.exp(-z) / z
    return [e * (1.0 + 1.0 / z) if n else e for n in orders]


# order -1 pieces as (sign, kind) of the order-0 piece they equal
_REFLECTED = {"j": (-1.0, "y"), "y": (1.0, "j"), "k": (1.0, "k")}


def spherical_bessel_block(kind, n, z):
    """Spherical j_n, y_n, i_n or k_n = sqrt(pi / 2z) F_{n+1/2}(z) on z >= 0.

    n is an integer >= -1; any other order raises DomainError.  j_n and i_n
    take their limits at z = 0 (1 for n = 0, else 0); y_n and k_n raise
    SingularityError there, and i_n RangeOverflowError above 700.  At n = -1
    the roles of j and y swap: y_-1 -> 1 at z = 0, j_-1 raises, and so does
    i_-1.  All orders are pure numpy.  Orders 0 and 1 are the elementary
    closed forms, and for j_n and i_n below _SPHERICAL_SERIES_BELOW their power
    series, chosen per element.  Order -1 is elementary too: j, y and k
    reflect onto order 0 (DLMF 10.47), j_-1 = -y_0 = cos z / z,
    y_-1 = j_0 = sin z / z, k_-1 = k_0, and i_-1 = cosh z / z (the
    second-kind modified piece of order 0, DLMF 10.49).  Orders >= 2 recur
    from orders 0 and 1 (_high_order, DLMF 10.51.1 and 10.51.4).
    """
    _check_block_order(n)
    z = np.asarray(z, dtype=float)
    if n == -1 and kind in _REFLECTED:
        sign, kind = _REFLECTED[kind]
        return sign * spherical_bessel_block(kind, 0, z)
    _check_arguments(kind, n, z)
    if n == -1:  # i_-1 = cosh z / z
        if not z.all():
            raise SingularityError("i_-1(z) = cosh z / z requires z != 0")
        return np.cosh(z) / z
    if n >= 2:
        return _high_order(kind, n, 0.5, z.ravel(), _spherical_closed).reshape(z.shape)
    if kind in ("y", "k"):
        return _spherical_closed(kind, z, (n,))[0]
    small = np.abs(z) < _SPHERICAL_SERIES_BELOW
    out = np.empty(z.shape)
    out[small] = _series(kind, n, 0.5, z[small])
    out[~small] = _spherical_closed(kind, z[~small], (n,))[0]
    return out


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


def assoc_legendre_block(v, m, x, s=None):
    """P_v^m elementwise on x (|x| <= 1, 0 <= m <= v; not checked).  s, if
    given, is sqrt(1 - x^2) from a source more precise near |x| = 1 (such as
    the distance from the polar axis)."""
    x = np.asarray(x, dtype=float)
    # P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}
    pmm = np.ones_like(x)
    if m > 0:
        if s is None:
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


# BEGIN fitted coefficients (tools/gen_bessel_coefficients.py)
_J0_SMALL = (  # powers of t, degree 11 first
    -1.2659378642186218e-22, 7.148083081971282e-20, -2.89466199847509e-17,
    9.385626852952818e-15, -2.402804131042143e-12, 4.709502567532006e-10,
    -6.781684017622987e-08, 6.781684027492821e-06, -0.0004340277777773058,
    0.015624999999999596, -0.24999999999999986, 1.0,
)
_J1_SMALL = (  # powers of t, degree 11 first
    -5.343596719147275e-24, 3.2554383520944232e-21, -1.447582184532871e-18,
    5.214294075862951e-16, -1.5017533909823957e-13, 3.363930480175053e-11,
    -5.6514033525361895e-09, 6.78168402766705e-07, -5.425347222220388e-05,
    0.002604166666666651, -0.06249999999999999, 0.5,
)
_Y0_SMALL = (  # powers of t, degree 12 first
    -3.563342805518526e-25, 2.2993370898142516e-22, -1.0835628968303609e-19,
    4.15261586541619e-17, -1.2790943791753736e-14, 3.083275849716628e-12,
    -5.614911942505097e-10, 7.365914182368992e-08, -6.502443354187334e-06,
    0.000347078708395804, -0.009179105521168058, 0.06728821679274134,
    0.36746690519661596,
)
_Y1_SMALL = (  # powers of t, degree 11 first
    8.408901309023186e-24, -4.964439313907907e-21, 2.1210609932617786e-18,
    -7.290295714469221e-16, 1.9867982404374048e-13, -4.163618726502248e-11,
    6.438078072279531e-09, -6.934178768215942e-07, 4.770219269147937e-05,
    -0.0018061615852847477, 0.026769238141428786, 0.024578509506412646,
)
_J0_MID = (  # powers of s, degree 18 first
    -2.4437975157658487e-17, 2.1315622986281633e-16, 8.211484484930289e-15,
    -6.688901625772108e-14, -2.069112805189098e-12, 1.5644694317399996e-11,
    3.9607746255537913e-10, -2.7609575441727847e-09, -5.5113219941444694e-08,
    3.5106184109231037e-07, 5.227183605000051e-06, -3.0037971983084223e-05,
    -0.0003059706348624307, 0.0015513507450473783, 0.009276407324868143,
    -0.03936749830014451, -0.0983796168027956, 0.2766838581275656,
    0.15064525725099692,
)
_J1_MID = (  # powers of s, degree 18 first
    1.0931182750651385e-17, 4.386464710638568e-16, -3.809486014428951e-15,
    -1.3136395845050068e-13, 1.0046469857958943e-12, 2.8967449379061108e-11,
    -2.0338599981435149e-10, -4.752929100366784e-09, 3.037054392801457e-08,
    5.511321985299335e-07, -3.1595565838992254e-06, -4.1817468839020635e-05,
    0.00021026580389168998, 0.0018358238091740128, -0.007756753725240499,
    -0.03710562929947243, 0.11810249490043401, 0.19675923360559117,
    -0.27668385812756563,
)
_Y0_MID = (  # powers of s, degree 20 first
    -1.4905885090004986e-17, 8.957459891344822e-17, -2.4619324284016937e-16,
    2.152942761659707e-15, -1.7446249612151567e-14, -4.9861950189696155e-14,
    5.335340011100357e-13, 3.3036063104396796e-11, -2.371583123225505e-10,
    -4.742391965048224e-09, 3.167694431664954e-08, 5.715963783309627e-07,
    -3.46728512368215e-06, -4.260114491371988e-05, 0.00023058347484727722,
    0.0018689630526326903, -0.008779294888990897, -0.03555333245417972,
    0.1295131466324231, 0.1750103443003982, -0.28819468398157916,
)
_Y1_MID = (  # powers of s, degree 21 first
    9.09638396175758e-18, -5.2894474010677764e-17, 1.1619002256494812e-16,
    -6.969223731526387e-16, 5.9869600285835945e-15, -4.469288147184872e-14,
    2.7171734448163086e-13, 7.838974951727032e-13, -7.447826621711517e-12,
    -4.295650882998578e-10, 2.845860014865461e-09, 5.216647045763592e-08,
    -3.1676939763909364e-07, -5.144367563820769e-06, 2.773828095823841e-05,
    0.00029820801448680607, -0.0013835008490719564, -0.009344815263189634,
    0.03511717955596159, 0.10665999736254206, -0.2590262932648461,
    -0.17501034430039825,
)
_JY0_MODULUS = (  # powers of w, degree 12 first
    507179309476.9294, -59699244991.78256, 3313981680.9539566,
    -119025222.50804135, 3297720.549609307, -83416.81628286661,
    2325.693695430339, -85.14965422763396, 4.666308271256707,
    -0.4331286306672291, 0.08259351875227398, -0.04986778505011599,
    0.7978845608028654,
)
_JY0_PHASE = (  # powers of w, degree 13 first
    248293387928827.7, -30419242482378.766, 1738027135463.267,
    -62626639706.88523, 1650802577.51613, -36044837.83685634,
    751469.2585170825, -17594.32663487312, 534.9965823841707,
    -23.47398688008133, 1.638064646168137, -0.20957031178954788,
    0.06510416666650415, -0.125,
)
_JY1_MODULUS = (  # powers of w, degree 12 first
    -574257377927.6901, 67702998144.1256, -3767854116.2975388,
    135912104.16823146, -3794753.9609259795, 97335.84082575508,
    -2779.525400682948, 105.77881880529537, -6.175277109941839,
    0.6425343254555724, -0.15427845973284507, 0.1496033551504664,
    0.7978845608028654,
)
_JY1_PHASE = (  # powers of w, degree 13 first
    -279081187913035.75, 34229270525945.547, -1958992423099.061,
    70777021415.32834, -1874040180.535155, 41243205.114675924,
    -871812.9041993517, 20885.952895921975, -658.4679663016059,
    30.622740360577044, -2.369396465190827, 0.37089843670740574,
    -0.16406249999981865, 0.375,
)
_I0_SMALL = (  # powers of t, degree 22 first
    1.5054290112649094e-55, -6.512223253213838e-53, 2.7824830168968515e-49,
    1.773103689054523e-46, 3.823874493667816e-43, 4.517994462731325e-40,
    5.338178250673979e-37, 5.44265267926645e-34, 4.90220387699022e-31,
    3.842838943450665e-28, 2.597808954445959e-25, 1.496333922935657e-22,
    7.242258768938815e-20, 2.8969033782281076e-17, 9.385966995479826e-15,
    2.4028075493790056e-12, 4.709502797098211e-10, 6.781684027773298e-08,
    6.781684027778221e-06, 0.0004340277777777751, 0.01562500000000001,
    0.25, 1.0,
)
_I1_SMALL = (  # powers of t, degree 21 first
    6.628156155617577e-54, -2.735354890397085e-51, 1.1118814591553903e-47,
    6.753413175296777e-45, 1.3754654125759424e-41, 1.5366496152432033e-38,
    1.7080390801101751e-35, 1.6328401673969784e-32, 1.372608638190651e-29,
    9.99139371594704e-27, 6.2347400562829344e-24, 3.2919347593606006e-21,
    1.4484517447810084e-18, 5.214426085658041e-16, 1.5017547190788465e-13,
    3.363930569190564e-11, 5.6514033565048036e-09, 6.781684027775246e-07,
    5.4253472222223907e-05, 0.002604166666666661, 0.06250000000000001,
    0.5,
)
_I0_LARGE = (  # powers of r, degree 13 first
    595250.1538617803, -184425.59764573743, 26996.845023329275,
    -2238.1777712721223, 136.11756520768486, -2.316948787463399,
    0.8112774591651604, 0.2262521150503507, 0.09062805089359449,
    0.04474202789940986, 0.029219406117471203, 0.028050629088910702,
    0.049867785050180635, 0.3989422804014327,
)
_I1_LARGE = (  # powers of r, degree 13 first
    -640304.5113767775, 199300.62479883365, -29333.806214992626,
    2446.096492321741, -150.00179346540307, 2.5139743378074777,
    -0.9319904398919967, -0.2674938208466961, -0.1107657610526608,
    -0.05752548654574336, -0.040907168394565, -0.04675104848232226,
    -0.1496033551505392, 0.3989422804014327,
)
_K0_SMALL = (  # powers of t, degree 10 first
    1.7854482642541868e-19, 6.515237526552918e-17, 2.0092414442155058e-14,
    4.843197143224581e-12, 8.81988309484001e-10, 1.1570350941095112e-07,
    1.0214014135961437e-05, 0.0005451899602568561, 0.014418505235913549,
    0.10569608377461678, -0.5772156649015329,
)
_K1_SMALL = (  # powers of t, degree 10 first
    -8.239379049184117e-21, -3.330649284637601e-18, -1.1452086430065694e-15,
    -3.120858171280313e-13, -6.540197242400565e-11, -1.01129093974579e-08,
    -1.0892182538737142e-06, -7.493042905988493e-05, -0.002837111983763369,
    -0.042049020943654196, 0.03860783245076643,
)
_K0_LARGE = (  # powers of r, degree 23 first
    -4862.799609286091, 29883.39302631405, -86492.02171513712,
    156861.36952002393, -200117.03987423627, 191194.0938589672,
    -142283.93309322142, 84767.23443106354, -41294.130853391594,
    16757.690841846994, -5774.519539867095, 1729.051429779708,
    -464.0075252123128, 116.44744769793148, -28.86319292101591,
    7.5042944902684505, -2.159940467167465, 0.7173171904376466,
    -0.284631984392142, 0.14056170582359057, -0.09179546781104393,
    0.08812365027235669, -0.15666426716441853, 1.2533141373155003,
)
_K1_LARGE = (  # powers of r, degree 23 first
    5295.104085684811, -32545.889794606737, 94218.30352880395,
    -170917.88754274792, 218118.9486056542, -208476.03833627334,
    155223.60720598817, -92537.63244502203, 45119.80210441602,
    -18332.955925573326, 6328.598431923345, -1899.9475712648182,
    511.8952123331306, -129.23888222504758, 32.32020239242379,
    -8.510406832071642, 2.492625614162727, -0.8477588794241224,
    0.3478843238923547, -0.18072221461034507, 0.12851365532398767,
    -0.14687275045837522, 0.469992801493292, 1.2533141373155003,
)
# END fitted coefficients
