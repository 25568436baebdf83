import math

import numpy as np
import pytest

from pikfnn.errors import DomainError
from pikfnn.metrics import (
    build_metrics,
    metric_l2,
    r_squared,
    write_csv,
    write_field_csv,
)


def test_rerr_values():
    # the rerr column is (pred - ana)/ana; a point with ana = 0 is guarded
    rep = build_metrics(np.zeros((4, 1)), [1.1, 1.0, 0.9, 1.0], [1.0, 1.0, 1.0, 0.0])
    rerr = rep.per_point[:, -1]
    assert rerr[0] == pytest.approx(0.1)
    assert rerr[1] == 0.0
    assert rerr[2] == pytest.approx(-0.1)
    assert math.isnan(rerr[3]) and rep.excluded == 1


def test_l2_values():
    assert metric_l2([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert metric_l2([1.0, 1.0], [1.0, 2.0]) == pytest.approx(math.sqrt(1.0 / 5.0))
    ana = np.array([0.3, -1.2, 0.9])
    assert metric_l2(2.0 * ana, ana) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        metric_l2([1.0], [0.0])
    with pytest.raises(DomainError):
        metric_l2([1.0, 2.0], [1.0])


def test_r_squared():
    ana = np.array([1.0, 2.0, 3.0, 4.0])
    assert r_squared(ana, ana) == pytest.approx(1.0)
    assert r_squared(ana + 0.01, ana) < 1.0
    with pytest.raises(DomainError):
        r_squared([1.0, 1.0], [2.0, 2.0])


def test_build_metrics_guards_near_zero():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    ana = np.array([1e-9, 1.0, -2.0])
    pred = np.array([5e-9, 1.01, -2.02])
    rep = build_metrics(pts, pred, ana, rerr_floor=0.05)
    assert rep.excluded == 1
    assert rep.max_rerr == pytest.approx(0.01)
    assert math.isnan(rep.per_point[0, -1])
    # l2 recomputed from the table matches the reported value
    table_pred = rep.per_point[:, 2]
    table_ana = rep.per_point[:, 3]
    assert abs(metric_l2(table_pred, table_ana) - rep.l2) <= 1e-14


@pytest.mark.parametrize("rerr_floor", [1.0, -0.5])
def test_build_metrics_rejects_a_floor_outside_0_1(rerr_floor):
    # 1 guards every point (max_rerr nan), -0.5 none (a zero value divides)
    with pytest.raises(DomainError, match="rerr_floor"):
        build_metrics(np.zeros((2, 1)), [1.0, 0.5], [1.0, 0.0], rerr_floor=rerr_floor)


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
def test_csv_bytes_equal_value_by_value_formatting(tmp_path, n):
    # rows formatted a block at a time read as rows formatted one value at a
    # time, across block edges, for integers and special values
    rng = np.random.default_rng(n)
    table = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    table.flat[::7] = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-320, 5.0])[
        np.arange(len(table.flat[::7])) % 7]
    rows = [(i, *map(float, row), i % 2) for i, row in enumerate(table)]
    headers = ["a", "b", "c", "d", "e"]
    expected = "a,b,c,d,e\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                       for row in rows)
    write_csv(tmp_path / "rows.csv", headers, rows)
    assert (tmp_path / "rows.csv").read_text() == expected
    write_csv(tmp_path / "array.csv", headers[1:4], table.tolist())
    assert (tmp_path / "array.csv").read_text() == "b,c,d\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in table)


def test_field_csv_roundtrip_and_determinism(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(20, 2))
    ana = rng.normal(size=20)
    pred = ana + 1e-6 * rng.normal(size=20)
    rep = build_metrics(pts, pred, ana)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_field_csv(p1, rep, dim=2)
    write_field_csv(p2, rep, dim=2)
    assert p1.read_bytes() == p2.read_bytes()
    rows = np.loadtxt(p1, delimiter=",", skiprows=1)
    # 17 significant digits survive the round trip exactly
    assert np.array_equal(rows[:, 2], pred)
    assert np.array_equal(rows[:, 3], ana)
    l2_again = metric_l2(rows[:, 2], rows[:, 3])
    assert abs(l2_again - rep.l2) <= 1e-14
