#!/usr/bin/env python3
"""Fit the order-0 and order-1 Bessel expansions of special_functions.py
with mpmath (40 digits) and write them into that module.

Every expansion is one smooth function of one variable on one interval:

  J, Y for x < 4      t = x^2     J0, J1/x, and the entire remainders
                                  Y0 - (2/pi) ln(x/2) J0 and
                                  (Y1 - (2/pi) ln(x/2) J1 + 2/(pi x)) / x
  J, Y for 4 <= x < 8 s = x - 6   J0, J1, Y0, Y1
  J, Y for x >= 8     w = 1/x^2   modulus sqrt(x (J^2 + Y^2)) and phase
                                  x (theta - x + (2n+1) pi/4),
                                  theta = arg(J + iY)       (DLMF 10.18)
  I for x < 15        t = x^2     I0, I1/x
  I for x >= 15       r = 1/x     sqrt(x) e^-x I
  K for x < 2         t = x^2     K0 + ln(x/2) I0 and
                                  (K1 - ln(x/2) I1 - 1/x) / x
  K for x >= 2        r = 1/x     sqrt(x) e^x K

Each is the Chebyshev series of degree _NMAX on its interval, cut after the
last coefficient that the tail bound needs (the sum of the dropped
coefficients is below 1e-17, times the smallest value on the interval for
the I and K pieces, which are gated relatively), then written in powers of
its variable and rounded to double.  The literals replace the lines between
the BEGIN and END markers in src/pikfnn/special_functions.py, highest power
first, as the module's Horner loops read them.  The fit is deterministic:
rerunning the tool leaves the module byte for byte as it was.

Needs mpmath; the test suite does not.  Run from the repository root:

    python3 tools/gen_bessel_coefficients.py
"""

import mpmath as mp

mp.mp.dps = 40

MODULE = "src/pikfnn/special_functions.py"
BEGIN = "# BEGIN fitted coefficients (tools/gen_bessel_coefficients.py)\n"
END = "# END fitted coefficients\n"

_NMAX = 56
_ABS_TOL = mp.mpf("1e-17")

JY_SMALL, JY_LARGE, JY_MID = 4, 8, 6     # x < 4; x >= 8; s = x - 6 between
I_LARGE, K_SMALL = 15, 2                 # I: x >= 15; K: x < 2


def _ln_half(x):
    return mp.log(x / 2)


def _modulus(n, x):
    return mp.sqrt(x * (mp.besselj(n, x) ** 2 + mp.bessely(n, x) ** 2))


def _phase(n, x):
    base = x - (2 * n + 1) * mp.pi / 4
    theta = mp.atan2(mp.bessely(n, x), mp.besselj(n, x))
    theta += 2 * mp.pi * mp.nint((base - theta) / (2 * mp.pi))  # unwrap onto base
    return x * (theta - base)


# each variable as a map to x
VARIABLES = {"t": mp.sqrt, "s": lambda s: s + JY_MID, "w": lambda w: 1 / mp.sqrt(w),
             "r": lambda r: 1 / r}
JY_SMALL_T, JY_MID_S = (0, JY_SMALL ** 2), (JY_SMALL - JY_MID, JY_LARGE - JY_MID)
JY_LARGE_W = (0, mp.mpf(1) / JY_LARGE ** 2)

# name -> (function of x, variable, interval of the variable, relative tolerance)
PIECES = {
    "_J0_SMALL": (lambda x: mp.besselj(0, x), "t", JY_SMALL_T, False),
    "_J1_SMALL": (lambda x: mp.besselj(1, x) / x, "t", JY_SMALL_T, False),
    "_Y0_SMALL": (lambda x: mp.bessely(0, x) - 2 / mp.pi * _ln_half(x) * mp.besselj(0, x),
                  "t", JY_SMALL_T, False),
    "_Y1_SMALL": (lambda x: (mp.bessely(1, x) - 2 / mp.pi * _ln_half(x) * mp.besselj(1, x)
                             + 2 / (mp.pi * x)) / x, "t", JY_SMALL_T, False),
    "_J0_MID": (lambda x: mp.besselj(0, x), "s", JY_MID_S, False),
    "_J1_MID": (lambda x: mp.besselj(1, x), "s", JY_MID_S, False),
    "_Y0_MID": (lambda x: mp.bessely(0, x), "s", JY_MID_S, False),
    "_Y1_MID": (lambda x: mp.bessely(1, x), "s", JY_MID_S, False),
    "_JY0_MODULUS": (lambda x: _modulus(0, x), "w", JY_LARGE_W, False),
    "_JY0_PHASE": (lambda x: _phase(0, x), "w", JY_LARGE_W, False),
    "_JY1_MODULUS": (lambda x: _modulus(1, x), "w", JY_LARGE_W, False),
    "_JY1_PHASE": (lambda x: _phase(1, x), "w", JY_LARGE_W, False),
    "_I0_SMALL": (lambda x: mp.besseli(0, x), "t", (0, I_LARGE ** 2), True),
    "_I1_SMALL": (lambda x: mp.besseli(1, x) / x, "t", (0, I_LARGE ** 2), True),
    "_I0_LARGE": (lambda x: mp.sqrt(x) * mp.exp(-x) * mp.besseli(0, x),
                  "r", (0, mp.mpf(1) / I_LARGE), True),
    "_I1_LARGE": (lambda x: mp.sqrt(x) * mp.exp(-x) * mp.besseli(1, x),
                  "r", (0, mp.mpf(1) / I_LARGE), True),
    "_K0_SMALL": (lambda x: mp.besselk(0, x) + _ln_half(x) * mp.besseli(0, x),
                  "t", (0, K_SMALL ** 2), True),
    "_K1_SMALL": (lambda x: (mp.besselk(1, x) - _ln_half(x) * mp.besseli(1, x) - 1 / x) / x,
                  "t", (0, K_SMALL ** 2), True),
    "_K0_LARGE": (lambda x: mp.sqrt(x) * mp.exp(x) * mp.besselk(0, x),
                  "r", (0, mp.mpf(1) / K_SMALL), True),
    "_K1_LARGE": (lambda x: mp.sqrt(x) * mp.exp(x) * mp.besselk(1, x),
                  "r", (0, mp.mpf(1) / K_SMALL), True),
}


def chebyshev_series(f, lo, hi):
    """Coefficients c_0.._NMAX of f on [lo, hi] in T_k(s), s = (2v - lo - hi) / (hi - lo),
    from the interpolant at the _NMAX + 1 Chebyshev points (which avoid the ends),
    and the smallest |f| there."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    m = _NMAX + 1
    angles = [mp.pi * (j + mp.mpf(1) / 2) / m for j in range(m)]
    values = [f((hi - lo) / 2 * mp.cos(a) + (hi + lo) / 2) for a in angles]
    coeffs = [2 * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, angles)) / m
              for k in range(m)]
    coeffs[0] /= 2
    return coeffs, min(abs(v) for v in values)


def truncate(coeffs, tol):
    """The shortest head of coeffs whose dropped tail sums below tol."""
    tail = mp.mpf(0)
    for n in range(len(coeffs) - 1, 0, -1):
        tail += abs(coeffs[n])
        if tail >= tol:
            return coeffs[:n + 1]
    return coeffs[:1]


def to_powers(coeffs, lo, hi):
    """sum c_k T_k(s) rewritten as sum a_j v^j, s = alpha v + beta."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    n = len(coeffs)
    cheb = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]   # T_k in powers of s
    while len(cheb) < n:
        cheb.append([2 * a - b for a, b in zip([0] + cheb[-1], cheb[-2] + [0, 0])])
    in_s = [mp.fsum(c * t[i] for c, t in zip(coeffs, cheb) if i < len(t)) for i in range(n)]
    alpha, beta = 2 / (hi - lo), -(hi + lo) / (hi - lo)
    in_v = [mp.mpf(0)] * n
    for i, a in enumerate(in_s):
        for j in range(i + 1):
            in_v[j] += a * mp.binomial(i, j) * alpha ** j * beta ** (i - j)
    return in_v


def fitted_block():
    lines = [BEGIN]
    for name, (f, var, (lo, hi), relative) in PIECES.items():
        to_x = VARIABLES[var]
        coeffs, smallest = chebyshev_series(lambda v: f(to_x(v)), lo, hi)
        coeffs = truncate(coeffs, _ABS_TOL * (smallest if relative else 1))
        powers = to_powers(coeffs, lo, hi)
        literals = [repr(float(a)) for a in reversed(powers)]
        lines.append(f"{name} = (  # powers of {var}, degree {len(powers) - 1} first\n")
        lines.extend("    " + ", ".join(literals[i:i + 3]) + ",\n"
                     for i in range(0, len(literals), 3))
        lines.append(")\n")
    lines.append(END)
    return lines


def main():
    with open(MODULE) as fh:
        text = fh.readlines()
    begin, end = text.index(BEGIN), text.index(END)
    text[begin:end + 1] = fitted_block()
    with open(MODULE, "w") as fh:
        fh.writelines(text)


if __name__ == "__main__":
    main()
