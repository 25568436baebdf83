import math

import numpy as np
import pytest

from pikfnn.errors import DomainError
from pikfnn.metrics import (
    build_metrics,
    metric_l2,
    r_squared,
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
