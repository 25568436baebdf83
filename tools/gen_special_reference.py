#!/usr/bin/env python3
"""Generate tests/data/special_function_reference.txt and
tests/data/spherical_bessel_reference.txt with mpmath (40 digits).

Run once; the fixtures are committed so the test suite never needs mpmath.
Rows: `fn_name n x value`, whitespace-delimited, 17 significant digits.
Legendre rows encode the order in the name (assoc_legendre_m<m>) and carry
the degree v in the n column.

Points of the first table are restricted to |value| <= 100 so the 1e-12
absolute comparison is meaningful in doubles (values like Y_5(0.05) ~ 1e8
cannot be represented to 1e-12 absolute by any double-precision routine).
The second table holds the spherical j_n, y_n, i_n and k_n (the
sqrt(pi / 2x) F_{n+1/2}(x) of special_functions) at n = -1, 0 and 1,
compared relatively, at arguments on both sides of the series threshold
x = 1.  The third table holds J, Y, I and K of orders 0 and 1, which
special_functions evaluates itself: from x = 1e-8, on both sides of each
edge between its expansions (and at the adjacent doubles), at the first
three zeros of J_0, J_1, Y_0 and Y_1, J and Y up to x = 1000, I up to 700
and K up to 705, beyond which K_0 and K_1 leave the normal double range.
"""

import math

import mpmath as mp

mp.mp.dps = 40

OUT = "tests/data/special_function_reference.txt"
MAX_MAG = 100.0

J_ORDERS = (0, 1, 2, 3, 5, 8)
JY_ARGS = (0.1, 0.4, 0.9, 1.7, 2.5, 3.3, 4.8, 6.1, 7.7, 9.4, 11.2, 13.6,
           15.1, 17.3, 19.8, 23.4, 27.9, 33.2, 41.5, 50.0)
Y_ORDERS = (0, 1, 2, 3, 5)
IK_ARGS = (0.1, 0.3, 0.7, 1.2, 1.9, 2.6, 3.4, 4.3, 5.5, 6.8, 8.2, 10.5,
           13.0, 16.5, 21.0, 26.0, 30.0)
I_ORDERS = (0, 1, 2, 4, 7, 12)
K_ORDERS = (0, 1, 2, 4, 7)
P_DEGREES = (0, 1, 2, 3, 5, 8, 12, 16, 20)
P_ARGS = (-1.0, -0.83, -0.44, -0.11, 0.0, 0.27, 0.52, 0.78, 0.95, 1.0)

SPH_OUT = "tests/data/spherical_bessel_reference.txt"
SPH_ARGS = (1e-8, 1e-5, 1e-3, 0.01, 0.07, 0.2, 0.45, 0.7, 0.9, 0.99, 0.999999, 1.0,
            1.000001, 1.01, 1.2, 1.6, 2.3, 3.1, 4.5, 6.2, 8.8, 12.5, 17.0, 23.9,
            30.0, 41.3, 50.0)
SPH_FNS = {"j": mp.besselj, "y": mp.bessely, "i": mp.besseli, "k": mp.besselk}
SPH_ORDERS = {"j": (-1, 0, 1), "y": (-1, 0, 1), "i": (-1, 0, 1), "k": (-1, 0, 1)}

LOW_OUT = "tests/data/bessel_order01_reference.txt"
LOW_SMALL = (1e-8, 1e-5, 1e-3, 0.01, 0.1, 0.37, 1.0, 1.5)


def _around(*edges):
    out = []
    for e in edges:
        out += [math.nextafter(e, 0.0), e * (1 - 1e-8), float(e), e * (1 + 1e-8),
                math.nextafter(e, math.inf)]
    return tuple(out)


def _zeros():
    # the first three zeros of J_0, J_1, Y_0 and Y_1, rounded to double
    return tuple(float(f(n, k)) for f in (mp.besseljzero, mp.besselyzero)
                 for n in (0, 1) for k in (1, 2, 3))


LOW_ARGS = {
    "j": LOW_SMALL + _around(4.0, 8.0) + (2.9, 6.3, 9.7, 12.0, 17.5, 25.0, 33.3, 50.0, 71.2,
                                           100.0, 150.0, 212.9, 300.0, 400.0, 567.8, 777.7,
                                           1000.0),
    "i": LOW_SMALL + _around(15.0) + (3.0, 7.5, 11.0, 20.0, 33.0, 50.0, 100.0, 220.0, 400.0,
                                      650.0, 699.9, 700.0),
    "k": LOW_SMALL + _around(2.0) + (3.0, 5.0, 8.8, 15.0, 30.0, 64.0, 100.0, 250.0, 500.0,
                                     700.0, 705.0),
}
LOW_ARGS["y"] = LOW_ARGS["j"]


def fmt(v):
    return mp.nstr(v, 17, strip_zeros=False)


def legenp(v, m, x):
    # Exact three-term recurrence evaluated at 40 digits (the hypergeometric
    # route in mp.legenp fails to converge at scattered (v, m, x)).  Spot
    # cross-checked against mp.legenp and scipy where both converge.
    x = mp.mpf(x)
    if x == 1:
        return mp.mpf(1) if m == 0 else mp.mpf(0)
    if x == -1:
        return mp.mpf(-1) ** v if m == 0 else mp.mpf(0)
    pmm = mp.mpf(1)
    if m > 0:
        s = mp.sqrt((1 - x) * (1 + x))
        fact = mp.mpf(1)
        for _ in range(m):
            pmm *= -fact * s
            fact += 2
    if v == m:
        return pmm
    pmmp1 = x * (2 * m + 1) * pmm
    if v == m + 1:
        return pmmp1
    for vv in range(m + 2, v + 1):
        pmm, pmmp1 = pmmp1, (x * (2 * vv - 1) * pmmp1 - (vv + m - 1) * pmm) / (vv - m)
    return pmmp1


def main():
    rows = []
    for n in J_ORDERS:
        for x in JY_ARGS:
            rows.append(("bessel_j", n, x, mp.besselj(n, x)))
    for n in Y_ORDERS:
        for x in JY_ARGS:
            v = mp.bessely(n, x)
            if abs(v) <= MAX_MAG:
                rows.append(("bessel_y", n, x, v))
    for n in I_ORDERS:
        for x in IK_ARGS:
            v = mp.besseli(n, x)
            if abs(v) <= MAX_MAG:
                rows.append(("bessel_i", n, x, v))
    for n in K_ORDERS:
        for x in IK_ARGS:
            v = mp.besselk(n, x)
            if abs(v) <= MAX_MAG:
                rows.append(("bessel_k", n, x, v))
    count = 0
    for v in P_DEGREES:
        for m in range(0, v + 1):
            for x in P_ARGS:
                val = legenp(v, m, x)
                if abs(val) <= MAX_MAG:
                    rows.append((f"assoc_legendre_m{m}", v, x, val))
                    count += 1

    per_fn = {}
    with open(OUT, "w") as fh:
        for name, n, x, val in rows:
            base = name.split("_m")[0] if name.startswith("assoc") else name
            per_fn[base] = per_fn.get(base, 0) + 1
            fh.write(f"{name} {n} {x!r} {fmt(val)}\n")
    print({k: v for k, v in per_fn.items()})
    spherical()
    low_orders()


def spherical():
    count = 0
    with open(SPH_OUT, "w") as fh:
        for kind, fn in SPH_FNS.items():
            for n in SPH_ORDERS[kind]:
                for x in SPH_ARGS:
                    if kind == "i" and x > 30.0:
                        continue
                    val = mp.sqrt(mp.pi / (2 * mp.mpf(x))) * fn(n + mp.mpf(1) / 2, x)
                    fh.write(f"spherical_{kind} {n} {x!r} {fmt(val)}\n")
                    count += 1
    print({"spherical": count})



def low_orders():
    count = 0
    with open(LOW_OUT, "w") as fh:
        for kind, fn in SPH_FNS.items():
            args = sorted(set(LOW_ARGS[kind] + (_zeros() if kind in "jy" else ())))
            for n in (0, 1):
                for x in args:
                    fh.write(f"bessel_{kind} {n} {x!r} {fmt(fn(n, x))}\n")
                    count += 1
    print({"order 0 and 1": count})


if __name__ == "__main__":
    main()
