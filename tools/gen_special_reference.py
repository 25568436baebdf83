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
The fourth table holds J, Y, I and K and the spherical j, y, i and k of
orders 2 to 20, which special_functions builds from orders 0 and 1 by
recurrence: from x = 1e-8 to 1000 (I and i to 700), on both sides of the
series threshold x = 2, densely around x = n (where Miller's region of J
and j ends), and at the first zeros of J_0 and j_0 (where Miller's
recurrence must not scale by order 0; Y and y there too, for the modulus
the tests scale by).  Values outside the normal double range are left out.  The fifth table holds the gradients of T-complete
members, differentiated by mpmath (mp.diff) from the members' own
definitions, at random points, near and at the expansion origin, and on the
3D polar axis.
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


HIGH_OUT = "tests/data/bessel_high_order_reference.txt"
HIGH_ORDERS = range(2, 21)
HIGH_ARGS = (1e-8, 1e-5, 1e-3, 0.05, 0.5, 1.0, math.nextafter(2.0, 0.0), 2.0, 3.7, 10.0, 31.6,
             100.0, 316.0, 699.9, 700.0, 1000.0)
HIGH_AROUND_N = (-0.5, -0.1, -1e-3, 0.0, 1e-3, 0.1, 0.5)

GRAD_OUT = "tests/data/tcomplete_gradient_reference.txt"
GRAD_IDS = ("t-complete:laplace:2d?m=3", "t-complete:poly-laplace:2d?n=1&m=2",
            "t-complete:biharmonic:2d?m=2", "t-complete:helmholtz:2d?k=1.5&m=4",
            "t-complete:modified-helmholtz:2d?k=1.5&m=4",
            "t-complete:helmholtz-power:2d?k=1.5&n=2&m=2",
            "t-complete:modified-helmholtz-power:2d?k=1.5&n=1&m=2",
            "t-complete:laplace:3d?m=3", "t-complete:biharmonic:3d?m=2",
            "t-complete:helmholtz:3d?k=1.5&m=3", "t-complete:modified-helmholtz:3d?k=1.5&m=3")
GRAD_POINTS = {
    2: ((0.83, -1.21), (-1.7, 0.44), (1.93, 1.62), (-0.31, -0.05), (1e-9, 3e-9), (0.0, 0.0),
        (0.0, 1.4), (-1.1, 0.0)),
    3: ((0.83, -1.21, 0.52), (-1.7, 0.44, -1.05), (0.6, 1.62, 1.3), (-0.31, -0.05, 0.2),
        (1e-9, -2e-9, 3e-9), (0.0, 0.0, 0.0), (0.0, 0.0, 1.3), (0.0, 0.0, -0.7),
        (1e-9, 0.0, 1.3), (1.1, -0.4, 0.0)),
}


def fmt(v):
    return mp.nstr(v, 17, strip_zeros=False)


def legenp(v, m, x, s=None):
    # Exact three-term recurrence evaluated at 40 digits (the hypergeometric
    # route in mp.legenp fails to converge at scattered (v, m, x)).  Spot
    # cross-checked against mp.legenp and scipy where both converge.  s is
    # sqrt(1 - x^2) when the caller knows it more precisely (near x = +-1).
    x = mp.mpf(x)
    if s is None and x == 1:
        return mp.mpf(1) if m == 0 else mp.mpf(0)
    if s is None and x == -1:
        return mp.mpf(-1) ** v if m == 0 else mp.mpf(0)
    pmm = mp.mpf(1)
    if m > 0:
        if s is None:
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
    high_orders()
    tcomplete_gradients()


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


def high_orders():
    count = 0
    # the zeros of J_0 and j_0, for J and j and, to give their modulus, Y and y
    zeros = dict.fromkeys("jy", tuple(float(mp.besseljzero(0, k)) for k in (1, 2, 3, 4)))
    zeros_sph = dict.fromkeys("jy", tuple(k * math.pi for k in (1, 2, 3, 4)))
    with open(HIGH_OUT, "w") as fh:
        for spherical in (False, True):
            for kind, fn in SPH_FNS.items():
                for n in HIGH_ORDERS:
                    args = HIGH_ARGS + tuple(n + d for d in HIGH_AROUND_N)
                    args += (zeros_sph if spherical else zeros).get(kind, ())
                    for x in sorted(set(args)):
                        if kind == "i" and x > 700.0:
                            continue
                        if spherical:
                            val = mp.sqrt(mp.pi / (2 * mp.mpf(x))) * fn(n + mp.mpf(1) / 2, x)
                        else:
                            val = fn(n, x)
                        if not 1e-307 < abs(val) < 1e307:
                            continue
                        name = f"spherical_{kind}" if spherical else f"bessel_{kind}"
                        fh.write(f"{name} {n} {x!r} {fmt(val)}\n")
                        count += 1
    print({"orders 2 to 20": count})


def _member(ident, v, m, parity):
    """The T-complete member as an mpmath function of its coordinates,
    written from its definition (kernels.tcomplete_member_block)."""
    kind, dim = ident.split(":")[1], int(ident.split(":")[2][0])
    params = dict(p.split("=") for p in ident.split("?")[1].split("&"))
    k, n = mp.mpf(params.get("k", 1)), int(params.get("n", 0))
    trig = mp.cos if parity == "cos" else mp.sin

    def f(*x):
        rho = mp.sqrt(sum(c * c for c in x))
        theta = mp.atan2(x[1], x[0])
        if dim == 2:
            if kind in ("laplace", "poly-laplace"):
                radial = rho ** (m + 2 * n)
            elif kind == "biharmonic":
                radial = rho ** (m + 2)
            else:
                bessel = mp.besselj if kind.startswith("helmholtz") else mp.besseli
                radial = (k * rho) ** n * bessel(m + n, k * rho)
            return radial * trig(m * theta)
        cosphi = x[2] / rho if rho else mp.mpf(1)
        sinphi = mp.sqrt(x[0] ** 2 + x[1] ** 2) / rho if rho else mp.mpf(0)
        if kind == "laplace":
            radial = rho ** v
        elif kind == "biharmonic":
            radial = rho ** (v + 2)
        else:
            bessel = mp.besselj if kind == "helmholtz" else mp.besseli
            z = k * rho
            half = v + mp.mpf(1) / 2
            radial = mp.sqrt(mp.pi / (2 * z)) * bessel(half, z) if z else mp.mpf(v == 0)
        return radial * legenp(v, m, cosphi, sinphi) * trig(m * theta)
    return f


def _members(ident):
    dim, top = int(ident.split(":")[2][0]), int(ident.split("m=")[1])
    if dim == 2:
        return [(0, 0, "cos")] + [(m, m, p) for m in range(1, top + 1) for p in ("cos", "sin")]
    return [(v, m, p) for v in range(top + 1) for m in range(v + 1)
            for p in (("cos", "sin") if m else ("cos",))]


def tcomplete_gradients():
    count = 0
    with open(GRAD_OUT, "w") as fh:
        for ident in GRAD_IDS:
            dim = int(ident.split(":")[2][0])
            for v, m, parity in _members(ident):
                f = _member(ident, v, m, parity)
                for x in GRAD_POINTS[dim]:
                    # mp.diff steps by about 10^-(dps/3); on the polar axis
                    # cos phi then sits that close to 1, and legenp's
                    # sqrt((1 - x)(1 + x)) needs the extra digits
                    with mp.workdps(120):
                        grad = [mp.diff(f, x, tuple(int(a == b) for b in range(dim)))
                                for a in range(dim)]
                    coords = " ".join(repr(c) for c in x)
                    fh.write(f"{ident} {v} {m} {parity} {coords} "
                             + " ".join(fmt(g) for g in grad) + "\n")
                    count += 1
    print({"t-complete gradients": count})


if __name__ == "__main__":
    main()
