import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

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

FNS = {
    "bessel_j": bessel_j,
    "bessel_y": bessel_y,
    "bessel_i": bessel_i,
    "bessel_k": bessel_k,
}


def load_reference():
    rows = []
    with open(FIXTURE) as fh:
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


def test_scipy_special_loads_on_first_bessel_use():
    # a Bessel-free run must not pay for importing scipy.special
    code = (
        "import sys\n"
        "from pikfnn import KernelFamily, OperatorSpec, bessel_j\n"
        "from pikfnn.kernels import kernel_block\n"
        "fam = KernelFamily('fundamental', OperatorSpec('laplace', 2))\n"
        "kernel_block(fam, [[0.0, 0.0]], [[1.0, 1.0]])\n"
        "print('scipy.special' in sys.modules)\n"
        "bessel_j(0, 1.0)\n"
        "print('scipy.special' in sys.modules)\n")
    assert _fresh_interpreter(code).split() == ["False", "True"]


def test_bessel_free_solve_loads_no_scipy(tmp_path):
    # a stray top-level scipy import anywhere in the package would put about
    # a quarter second back into every Bessel-free run; a Bessel problem
    # loads scipy.special while it is built, before any kernel call
    code = (
        "import sys\n"
        "import pikfnn\n"
        "from pikfnn.benchmarks import BUILTINS\n"
        f"pikfnn.run_benchmark('example3', out_dir={str(tmp_path)!r})\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "BUILTINS['example9'](seed=0)\n"
        "print('scipy.special' in sys.modules)\n")
    assert _fresh_interpreter(code).splitlines() == ["[]", "True"]
