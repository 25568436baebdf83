import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pikfnn import special_functions
from pikfnn.errors import DomainError, RangeOverflowError, SingularityError
from pikfnn.special_functions import (
    assoc_legendre,
    bessel_block,
    bessel_i,
    bessel_j,
    bessel_k,
    bessel_y,
    hankel1,
    spherical_bessel_block,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "special_function_reference.txt")
SPHERICAL_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                                 "spherical_bessel_reference.txt")
LOW_ORDER_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                                 "bessel_order01_reference.txt")
HIGH_ORDER_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                                  "bessel_high_order_reference.txt")

FNS = {
    "bessel_j": bessel_j,
    "bessel_y": bessel_y,
    "bessel_i": bessel_i,
    "bessel_k": bessel_k,
}


def load_reference(path=FIXTURE):
    rows = []
    with open(path) as fh:
        for line in fh:
            name, n, x, value = line.split()
            rows.append((name, int(n), float(x), float(value)))
    return rows


def test_reference_table_absolute():
    # frozen 40-digit oracle table; every sample within 1e-12 absolute
    rows = load_reference()
    counts = {}
    for name, n, x, expected in rows:
        if name.startswith("assoc_legendre"):
            m = int(name.split("_m")[1])
            got = assoc_legendre(n, m, x)
            counts["assoc_legendre"] = counts.get("assoc_legendre", 0) + 1
        else:
            got = FNS[name](n, x)
            counts[name] = counts.get(name, 0) + 1
        assert abs(got - expected) <= 1e-12, (name, n, x, got, expected)
    for name, c in counts.items():
        assert c >= 50, f"{name} has only {c} reference points"


def test_reference_table_relative_for_ik():
    # module contract: I within 1e-12 relative for |x| <= 30, K likewise (0, 30]
    for name, n, x, expected in load_reference():
        if name in ("bessel_i", "bessel_k") and x <= 30.0 and expected != 0.0:
            got = FNS[name](n, x)
            assert abs(got - expected) <= 1e-12 * abs(expected), (name, n, x)


def test_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(4, 0.0) == 0.0
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(3, 0.0) == 0.0
    assert assoc_legendre(0, 0, 0.5) == 1.0
    assert assoc_legendre(1, 0, 0.5) == 0.5


def test_spot_values():
    # values frozen from the 40-digit oracle used to build the fixture
    assert bessel_j(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-13)
    assert bessel_y(0, 1.0) == pytest.approx(0.0882569642156769, abs=1e-13)
    assert bessel_y(1, 1.0) == pytest.approx(-0.7812128213002887, abs=1e-13)
    assert bessel_i(0, 1.0) == pytest.approx(1.2660658777520084, rel=1e-13)
    assert bessel_i(1, 1.0) == pytest.approx(0.5651591039924850, rel=1e-13)
    assert bessel_k(0, 1.0) == pytest.approx(0.4210244382407084, rel=1e-13)
    assert bessel_k(1, 1.0) == pytest.approx(0.6019072301972346, rel=1e-13)
    assert assoc_legendre(2, 1, 0.5) == pytest.approx(-1.299038105676658, abs=1e-13)
    # P_2^1(x) = -3 x sqrt(1-x^2)
    assert assoc_legendre(2, 1, 0.5) == pytest.approx(-3 * 0.5 * math.sqrt(0.75), abs=1e-13)


def test_parity_negative_arguments():
    for n in range(5):
        for x in (0.3, 2.7, 11.0, 33.0):
            sign = -1.0 if n % 2 == 1 else 1.0
            assert bessel_j(n, -x) == sign * bessel_j(n, x)
            assert bessel_i(n, -x) == sign * bessel_i(n, x)


def test_wronskian_jy():
    # J_n Y_{n+1} - J_{n+1} Y_n = -2/(pi x), 100 random x in [0.1, 40]
    rng = np.random.default_rng(20240811)
    for x in 0.1 + 39.9 * rng.random(100):
        n = int(rng.integers(0, 6))
        w = bessel_j(n, x) * bessel_y(n + 1, x) - bessel_j(n + 1, x) * bessel_y(n, x)
        assert abs(w + 2.0 / (math.pi * x)) <= 1e-10


def test_recurrence_j():
    rng = np.random.default_rng(7)
    for x in 0.1 + 39.9 * rng.random(100):
        n = int(rng.integers(1, 8))
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = (2.0 * n / x) * bessel_j(n, x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_wronskian_ik():
    rng = np.random.default_rng(99)
    for x in 0.1 + 29.9 * rng.random(100):
        n = int(rng.integers(0, 5))
        w = bessel_i(n, x) * bessel_k(n + 1, x) + bessel_i(n + 1, x) * bessel_k(n, x)
        assert abs(w - 1.0 / x) <= 1e-10 / x


def test_hankel_composition():
    for x in (0.5, 1.0, 7.3, 25.0):
        h = hankel1(0, x)
        assert h.real == bessel_j(0, x)
        assert h.imag == bessel_y(0, x)
    h = hankel1(0, 1.0)
    assert h == pytest.approx(0.7651976865579666 + 0.0882569642156769j, abs=1e-12)


def test_domain_errors():
    with pytest.raises(SingularityError):
        bessel_y(0, 0.0)
    with pytest.raises(SingularityError):
        bessel_y(0, -1.0)
    with pytest.raises(SingularityError):
        bessel_y(0, 1e-310)  # below the configurable floor
    with pytest.raises(SingularityError):
        bessel_k(0, 0.0)
    with pytest.raises(SingularityError):
        bessel_k(2, -3.0)
    with pytest.raises(SingularityError):
        hankel1(1, -0.5)
    with pytest.raises(DomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, float("nan"))
    with pytest.raises(DomainError):
        bessel_j(0, float("inf"))
    with pytest.raises(RangeOverflowError):
        bessel_i(0, 800.0)
    with pytest.raises(DomainError):
        assoc_legendre(2, 3, 0.5)
    with pytest.raises(DomainError):
        assoc_legendre(2, -1, 0.5)
    with pytest.raises(DomainError):
        assoc_legendre(2, 1, 1.5)


def test_purity_bit_identical():
    pts = [(0, 1.234), (3, 17.25), (7, 4.5)]
    for n, x in pts:
        assert bessel_j(n, x) == bessel_j(n, x)
        assert bessel_y(n, x) == bessel_y(n, x)
        assert bessel_i(n, x) == bessel_i(n, x)
        assert bessel_k(n, x) == bessel_k(n, x)


def test_block_matches_scalar_views():
    x = np.array([0.3, 2.7, 11.0, 33.0])
    for kind, fn in (("j", bessel_j), ("y", bessel_y), ("i", bessel_i), ("k", bessel_k)):
        for n in (0, 1, 2, 5):
            assert bessel_block(kind, n, x).tolist() == [fn(n, v) for v in x]
            assert bessel_block(kind, n, np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("kind", ["j", "y", "i", "k"])
def test_low_orders_match_reference_table(kind):
    # frozen 40-digit table of orders 0 and 1 from x = 1e-8, across every
    # edge between the expansions and at the zeros of J and Y; J and Y to
    # 1e-14 max(1, |F|), I and K to 1e-14 relative
    for n in (0, 1):
        rows = [(x, value) for name, order, x, value in load_reference(LOW_ORDER_FIXTURE)
                if name == f"bessel_{kind}" and order == n]
        x = np.array([x for x, _ in rows])
        expected = np.array([value for _, value in rows])
        got = bessel_block(kind, n, x)
        views = [FNS[f"bessel_{kind}"](n, v) for v in x]
        scale = np.maximum(1.0, np.abs(expected)) if kind in ("j", "y") else np.abs(expected)
        assert np.all(np.abs(got - expected) <= 1e-14 * scale), (kind, n)
        assert got.tolist() == views
        assert x.min() <= 1e-8 and x.max() >= {"j": 1000.0, "y": 1000.0, "i": 700.0,
                                                "k": 705.0}[kind]


def test_low_order_edges_are_in_the_reference_table():
    # both sides of every edge between the expansions are gated above
    rows = load_reference(LOW_ORDER_FIXTURE)
    for kind, edges in special_functions._EDGES.items():
        x = {x for name, _, x, _ in rows if name == f"bessel_{kind}"}
        for edge in edges:
            assert {math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)} <= x


def test_k_underflows_to_zero():
    for n in (0, 1, 2, 7):
        assert bessel_block("k", n, np.array([750.0, 1e6])).tolist() == [0.0, 0.0]


def test_block_parity_and_order_minus_one():
    # J_n(-x) = (-1)^n J_n(x) and I likewise, bit for bit on whole blocks;
    # J_-1 = -J_1, Y_-1 = -Y_1, I_-1 = I_1, K_-1 = K_1
    x = np.concatenate([[0.0, 1e-8, 0.3], np.linspace(0.5, 690.0, 997)]).reshape(10, 100)
    for kind in ("j", "i"):
        for n in (0, 1):
            sign = -1.0 if n else 1.0
            assert np.array_equal(bessel_block(kind, n, -x), sign * bessel_block(kind, n, x))
    for kind, sign in (("j", -1.0), ("y", -1.0), ("i", 1.0), ("k", 1.0)):
        z = x[1:]
        assert np.array_equal(bessel_block(kind, -1, z), sign * bessel_block(kind, 1, z))
    assert np.array_equal(bessel_block("j", 2, -x), bessel_block("j", 2, x))
    assert np.array_equal(bessel_block("i", 3, -x[:, :50]), -bessel_block("i", 3, x[:, :50]))


def test_block_nan_stays_in_its_element():
    # a NaN takes no neighbour into the wrong expansion, whatever the mix
    x = np.array([0.5, 3.0, np.nan, 5.0, 9.0, 30.0, np.nan])
    for kind in ("j", "y", "i", "k"):
        for n in (0, 1, 2, 5):
            got = bessel_block(kind, n, x)
            assert np.isnan(got[[2, 6]]).all()
            finite = [0, 1, 3, 4, 5]
            assert got[finite].tolist() == bessel_block(kind, n, x[finite]).tolist()


def test_block_error_contract():
    with pytest.raises(SingularityError):
        bessel_block("y", 0, np.array([1.0, 0.0]))
    with pytest.raises(SingularityError):
        bessel_block("y", 3, np.array([[1.0], [1e-310]]))  # below the floor
    with pytest.raises(SingularityError):
        bessel_block("k", 1, np.array([2.0, -0.5]))
    with pytest.raises(SingularityError):
        bessel_block("k", 0, 0.0)
    with pytest.raises(RangeOverflowError):
        bessel_block("i", 0, np.array([1.0, 700.5]))
    with pytest.raises(RangeOverflowError):
        bessel_block("i", 2, np.array([-701.0]))
    assert np.isfinite(bessel_block("i", 1, np.array([700.0]))).all()


@pytest.mark.parametrize("block", [bessel_block, spherical_bessel_block])
def test_block_order_contract(block):
    # integer orders >= -1 only; the error contract holds at every order
    for n in (2.5, 0.5, 2.0, -2, True, "2", np.float64(3.0)):
        for kind in ("j", "y", "i", "k"):
            with pytest.raises(DomainError):
                block(kind, n, np.array([1.0]))
    assert block("j", np.int64(3), np.array([1.0])) == block("j", 3, np.array([1.0]))
    for n in (2, 3, 7, 20):
        with pytest.raises(SingularityError):
            block("y", n, np.array([1.0, 0.0]))
        with pytest.raises(SingularityError):
            block("k", n, np.array([2.0, 0.0]))
        with pytest.raises(SingularityError):
            block("k", n, np.array([2.0, -0.5]))
        with pytest.raises(RangeOverflowError):
            block("i", n, np.array([1.0, 700.5]))
    with pytest.raises(SingularityError):
        bessel_block("y", 4, np.array([1e-310]))


def test_block_orders_0_and_1_keep_their_bits():
    # the expansions of orders 0 and 1 (and the reflection to -1) give the
    # bits they gave before orders >= 2 came to recur from them: sha256
    # prefixes of the blocks below, and the one-pass seed helper returns the
    # same bits as the single-order calls
    x = np.concatenate([np.geomspace(1e-8, 700.0, 3000), np.linspace(1.5, 16.5, 1501),
                        -np.geomspace(1e-3, 650.0, 500)])
    expected = {
        ("j", -1): "c03940e2d52b8776", ("j", 0): "bd20d6461e7f2296", ("j", 1): "29636c3d168871f4",
        ("y", -1): "348c1a7d42fb351c", ("y", 0): "d8b5a0a8a3fc2027", ("y", 1): "018ebcaf55de9cb5",
        ("i", -1): "cb6c7f0bb79fdd87", ("i", 0): "59b785f89e6c9425", ("i", 1): "cb6c7f0bb79fdd87",
        ("k", -1): "4c47cfab3400b9ef", ("k", 0): "839de7a21a876cf7", ("k", 1): "4c47cfab3400b9ef",
    }
    for (kind, n), digest in expected.items():
        z = x if kind in ("j", "i") else np.abs(x)
        got = bessel_block(kind, n, z)
        assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest, (kind, n)
        if n >= 0:
            seeds = special_functions._orders01(kind, np.abs(z))
            assert np.array_equal(seeds[n], bessel_block(kind, n, np.abs(z))), (kind, n)


def _spherical_terms(kind, n, z):
    """Elementary closed forms of j_n, y_n, i_n, k_n (n = 0, 1, 2) as lists
    of terms, so a tolerance can follow the size of the terms (the closed
    forms cancel at small z)."""
    s, c, sh, ch = np.sin(z), np.cos(z), np.sinh(z), np.cosh(z)
    e = 0.5 * math.pi * np.exp(-z)
    return {
        ("j", 0): [s / z],
        ("j", 1): [s / z ** 2, -c / z],
        ("j", 2): [3.0 * s / z ** 3, -s / z, -3.0 * c / z ** 2],
        ("y", 0): [-c / z],
        ("y", 1): [-c / z ** 2, -s / z],
        ("y", 2): [-3.0 * c / z ** 3, c / z, -3.0 * s / z ** 2],
        ("i", 0): [sh / z],
        ("i", 1): [ch / z, -sh / z ** 2],
        ("i", 2): [3.0 * sh / z ** 3, sh / z, -3.0 * ch / z ** 2],
        ("k", 0): [e / z],
        ("k", 1): [e / z, e / z ** 2],
        ("k", 2): [e / z, 3.0 * e / z ** 2, 3.0 * e / z ** 3],
    }[kind, n]


@pytest.mark.parametrize("kind", ["j", "y", "i", "k"])
def test_spherical_pieces_match_closed_forms(kind):
    z = np.linspace(0.0, 40.0, 801)[1:]
    for n in (0, 1, 2):
        terms = _spherical_terms(kind, n, z)
        expected = sum(terms)
        scale = sum(np.abs(t) for t in terms)
        if kind in ("j", "y"):
            scale = np.maximum(scale, 1.0 / z)  # absolute near the zeros of j_n, y_n
        got = spherical_bessel_block(kind, n, z)
        # jv at half-integer order is good to ~3e-14 relative; the table
        # gate for integer orders is 1e-12 absolute
        assert np.all(np.abs(got - expected) <= 1e-13 * scale), (kind, n)


@pytest.mark.parametrize("kind", ["j", "y", "i", "k"])
def test_spherical_pieces_match_reference_table(kind):
    # frozen 40-digit table at n = 0 and 1, on both sides of the threshold
    # below which j_n and i_n take their power series: relative, or for j_n
    # and y_n beyond x = 1 against their 1/x envelope (they have zeros there)
    for n in (0, 1):
        rows = [(x, value) for name, order, x, value in load_reference(SPHERICAL_FIXTURE)
                if name == f"spherical_{kind}" and order == n]
        x = np.array([x for x, _ in rows])
        expected = np.array([value for _, value in rows])
        assert x.min() < special_functions._SPHERICAL_SERIES_BELOW < x.max()
        got = spherical_bessel_block(kind, n, x)
        scale = np.abs(expected)
        if kind in ("j", "y"):
            scale = np.where(x < 1.0, scale, np.maximum(scale, 1.0 / x))
        assert np.all(np.abs(got - expected) <= 1e-14 * scale), (kind, n)
        # the branch is chosen per element: one-point views read the same bits
        assert got.tolist() == [float(spherical_bessel_block(kind, n, v)) for v in x]


@pytest.mark.parametrize("kind", ["j", "y", "i", "k"])
def test_order_minus_one_spherical_pieces_match_reference_table(kind):
    # j_-1 = cos x / x, y_-1 = sin x / x, i_-1 = cosh x / x and k_-1 = k_0
    # are elementary; relative, or for j and y beyond x = 1 against their
    # 1/x envelope, as for orders 0 and 1
    rows = [(x, value) for name, order, x, value in load_reference(SPHERICAL_FIXTURE)
            if name == f"spherical_{kind}" and order == -1]
    x = np.array([x for x, _ in rows])
    expected = np.array([value for _, value in rows])
    assert x.min() < special_functions._SPHERICAL_SERIES_BELOW < x.max()
    got = spherical_bessel_block(kind, -1, x)
    at_zero = kind == "y" and float(spherical_bessel_block(kind, -1, 0.0))
    scale = np.abs(expected)
    if kind in ("j", "y"):
        scale = np.where(x < 1.0, scale, np.maximum(scale, 1.0 / x))
    assert np.all(np.abs(got - expected) <= 1e-14 * scale), kind
    if kind == "y":
        assert at_zero == 1.0  # sin x / x -> 1
    else:  # cos x / x, cosh x / x and k_0 are singular at 0
        with pytest.raises(SingularityError):
            spherical_bessel_block(kind, -1, np.array([1.0, 0.0]))
    if kind == "i":  # cosh x / x overflows where i_0 and i_1 do
        with pytest.raises(RangeOverflowError):
            spherical_bessel_block(kind, -1, np.array([1.0, 701.0]))


def test_spherical_pieces_small_argument_series():
    # j_n, i_n ~ z^n / (2n+1)!! (1 -+ z^2 / (2(2n+3))) near 0, where the
    # closed forms above lose every digit to cancellation
    z = np.array([1e-8, 1e-5, 1e-3])
    for n in (0, 1, 2, 5):
        lead = z ** n / math.prod(range(1, 2 * n + 2, 2))
        q = z * z / (2.0 * (2 * n + 3))
        np.testing.assert_allclose(spherical_bessel_block("j", n, z), lead * (1.0 - q),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(spherical_bessel_block("i", n, z), lead * (1.0 + q),
                                   rtol=1e-12, atol=0.0)


def test_spherical_pieces_at_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (0, 1, 2, 5):
            limit = 1.0 if n == 0 else 0.0
            for kind in ("j", "i"):
                got = spherical_bessel_block(kind, n, np.array([[0.0, 0.5], [2.0, 0.0]]))
                assert got[0, 0] == got[1, 1] == limit
                assert got[0, 1] == spherical_bessel_block(kind, n, np.array([0.5]))[0]
                assert float(spherical_bessel_block(kind, n, 0.0)) == limit
    for kind in ("y", "k"):
        with pytest.raises(SingularityError):
            spherical_bessel_block(kind, 1, np.array([1.0, 0.0]))


def _fresh_interpreter(code):
    """stdout of code run in a new interpreter that imports this pikfnn."""
    import pikfnn

    src = os.path.dirname(os.path.dirname(os.path.abspath(pikfnn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_verify_sweep_loads_no_scipy():
    # entries built and one whole sweep run, and every Bessel function of
    # orders 0 to 5 through its scalar view, load no scipy module (nor
    # numpy.ma, about 12 ms, which np.unique would bring in)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from pikfnn import bessel_i, bessel_j, bessel_k, bessel_y, runner\n"
        "from pikfnn.special_functions import spherical_bessel_block\n"
        "rows, passed = runner.verify_kernels(entries=runner.build_verify_entries(), seed=0)\n"
        "for n in range(6):\n"
        "    for f in (bessel_j, bessel_y, bessel_i, bessel_k):\n"
        "        f(n, 0.7), f(n, 3.0), f(n, 40.0)\n"
        "    for kind in 'jyik':\n"
        "        spherical_bessel_block(kind, n, np.array([0.5, 3.0, 40.0]))\n"
        "print(len(rows), passed)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('scipy') or m.split('.')[:2] == ['numpy', 'ma']))\n")
    assert _fresh_interpreter(code).splitlines() == ["59 True", "[]"]


def test_no_builtin_loads_scipy(tmp_path):
    # set-up and solve of all ten built-ins load no scipy module (nor
    # numpy.ma, which np.unique on string arrays brings in)
    code = (
        "import sys\n"
        "import pikfnn\n"
        "from pikfnn.benchmarks import BUILTINS\n"
        "for name in sorted(BUILTINS):\n"
        f"    pikfnn.run_benchmark(BUILTINS[name](seed=0), out_dir={str(tmp_path)!r})\n"
        "    print(name, sorted(m for m in sys.modules\n"
        "                       if m.startswith('scipy') or m.split('.')[:2] == ['numpy', 'ma']))\n")
    lines = _fresh_interpreter(code).splitlines()
    assert len(lines) == 10
    assert all(line.endswith(" []") for line in lines), lines


def test_reference_tables_pass_without_scipy():
    # the table gates, run in an interpreter where scipy cannot be imported
    # (this test itself is left out of that run)
    selected = ("(reference_table or high_orders_match or miller or tiny) "
                "and not without_scipy")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import pytest\n"
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {__file__!r},\n"
        f"                      '-k', {selected!r}]))\n")
    out = _fresh_interpreter(code)
    assert " passed" in out and "failed" not in out and "error" not in out, out


def _table(path):
    return {(name, n, x): value for name, n, x, value in load_reference(path)}


def _high_order_errors(name):
    """(n, x, |error| / scale) of the rows of one function in the orders 2-20
    table; the scale is |F| for I, K, i and k, and the modulus
    hypot(J, Y) (hypot(j, y)) for the oscillating kinds, which have zeros."""
    table = _table(HIGH_ORDER_FIXTURE)
    block = spherical_bessel_block if name.startswith("spherical") else bessel_block
    kind = name[-1]
    out = []
    for (row_name, n, x), value in table.items():
        if row_name != name:
            continue
        got = float(block(kind, n, np.array([x]))[0])
        scale = abs(value)
        if kind in ("j", "y"):
            other = table[name[:-1] + ("y" if kind == "j" else "j"), n, x]
            scale = math.hypot(value, other)
        out.append((n, x, abs(got - value) / scale))
    return out


# Measured worst errors over the table: J 1.6e-15 and Y 2.3e-15 below
# x = 100, 5.2e-14 and 4.4e-14 from 100 to 1000 (the rounding of x itself
# moves the phase by x eps there); I 1.7e-15, K 3.2e-15 and the spherical
# pieces 2.5e-15 at most, up to x = 700 included.
@pytest.mark.parametrize("name", [f"{prefix}_{kind}" for prefix in ("bessel", "spherical")
                                  for kind in "jyik"])
def test_high_orders_match_reference_table(name):
    errors = _high_order_errors(name)
    orders = {n for n, _, _ in errors}
    assert orders == set(range(2, 21)), orders
    for n, x, err in errors:
        tol = 1e-13 if name in ("bessel_j", "bessel_y") and x >= 100.0 else 1e-14
        assert err <= tol, (name, n, x, err)
    xs = [x for _, x, _ in errors]
    assert min(xs) <= 1e-8 and max(xs) >= (700.0 if name[-1] in "ik" else 1000.0)


def test_miller_scales_away_from_the_zeros_of_order_0():
    # J_n and j_n recur backward on [2, n), which holds zeros of J_0 (2.405,
    # 5.520, 8.654, 11.79) and j_0 (pi, 2 pi, ...) once n > 2; scaling by
    # order 0 alone would divide by about zero there
    zeros = {"bessel_j": [2.404825557695773, 5.520078110286311, 8.653727912911013,
                          11.791534439014281],
             "spherical_j": [k * math.pi for k in (1, 2, 3, 4)]}
    for name, xs in zeros.items():
        checked = [(n, x, err) for n, x, err in _high_order_errors(name) if x in xs and x < n]
        assert len(checked) >= 40
        assert max(err for _, _, err in checked) <= 1e-14, name


def test_tiny_arguments_take_the_series():
    # at x = 1e-8 and order 20 a backward sweep would grow by (2/x)^N; the
    # series gives J, I, j and i there to 1e-14 relative with no
    # floating-point warning, and Y, K, y and k stay finite
    table = _table(HIGH_ORDER_FIXTURE)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for prefix, block in (("bessel", bessel_block), ("spherical", spherical_bessel_block)):
            for kind in "jyik":
                expected = table[f"{prefix}_{kind}", 20, 1e-8]
                got = float(block(kind, 20, np.array([1e-8]))[0])
                assert abs(got - expected) <= 1e-14 * abs(expected), (prefix, kind)


def test_miller_start_order_grows_like_sqrt_x():
    # for I the error of a start at N is about exp(-(N^2 - n^2) / x) at large
    # x, so the start order must reach sqrt(n^2 + x ln(1/tol)), and not
    # grow faster than a small multiple of it
    log_tol = -math.log(special_functions._MILLER_TOL)
    for n in (2, 7, 20):
        starts = [special_functions._start_order("i", n, 0.0, 2.0 ** e) for e in range(11)]
        for octave, start in enumerate(starts):
            x = 2.0 ** octave
            assert start * start - n * n >= x * log_tol, (n, x, start)
            if x >= 64.0:
                assert start <= 2.0 * math.sqrt(n * n + x * log_tol), (n, x, start)
        assert all(np.diff(starts) >= 0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 20), x=st.lists(st.floats(1e-6, 200.0), min_size=1, max_size=40))
def test_high_orders_agree_with_scipy(n, x):
    # scipy is the independent oracle here, and only here.  Measured worst
    # over 160 000 random points: J 1.2e-13 of hypot(J, Y) (scipy's own jv
    # error at x ~ 190: 1.1e-13 against mpmath, this module's 1.3e-14), Y
    # 1.5e-14; I, K and the spherical pieces 8.9e-15 (of |F|, or of
    # hypot(j, y))
    from scipy import special as sc

    x = np.array(x)
    plain = {"j": sc.jv(n, x), "y": sc.yv(n, x), "i": sc.iv(n, x), "k": sc.kv(n, x)}
    spherical = {"j": sc.spherical_jn(n, x), "y": sc.spherical_yn(n, x),
                 "i": sc.spherical_in(n, x), "k": sc.spherical_kn(n, x)}
    for block, ref, tol in ((bessel_block, plain, {"j": 5e-13}),
                            (spherical_bessel_block, spherical, {})):
        modulus = np.hypot(ref["j"], ref["y"])
        for kind, expected in ref.items():
            got = block(kind, n, x)
            scale = modulus if kind in ("j", "y") else np.abs(expected)
            fine = np.isfinite(expected) & (np.abs(expected) > 1e-300)
            err = np.abs(got - expected)[fine] / scale[fine]
            assert np.all(err <= tol.get(kind, 5e-14)), (block.__name__, kind, n)
