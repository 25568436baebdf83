"""Error metrics and the per-run metrics report.

rerr is the pointwise relative error (pred - ana)/ana; L2 is the global
normalized error sqrt(sum (pred-ana)^2 / sum ana^2); r_squared is the
determination coefficient of pred against ana.

Points where |ana| falls below the configured floor are excluded from
max_rerr with a logged count (division guard); they still enter L2 and R^2,
which are denominator-safe.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


def metric_l2(pred, ana):
    """sqrt(sum (pred-ana)^2 / sum ana^2) over equal-length vectors."""
    pred = np.asarray(pred, dtype=float)
    ana = np.asarray(ana, dtype=float)
    if pred.shape != ana.shape or pred.ndim != 1 or pred.size < 1:
        raise DomainError("metric_l2 needs two equal-length vectors")
    denom = float(ana @ ana)
    if denom == 0.0:
        raise DomainError("metric_l2 undefined for an all-zero reference")
    return math.sqrt(float((pred - ana) @ (pred - ana)) / denom)


def r_squared(pred, ana):
    """Determination coefficient: 1 - SS_res / SS_tot."""
    pred = np.asarray(pred, dtype=float)
    ana = np.asarray(ana, dtype=float)
    ss_res = float((pred - ana) @ (pred - ana))
    centered = ana - float(np.mean(ana))
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        raise DomainError("R^2 undefined for a constant reference")
    return 1.0 - ss_res / ss_tot


@dataclass
class MetricsReport:
    """l2, max |rerr|, R^2, and the per-point table behind them.

    per_point columns: coordinates[, time], u_pred, u_ana, rerr (nan on
    guarded points); excluded counts the guarded points.
    """

    l2: float
    max_rerr: float
    r_squared: float
    per_point: np.ndarray = field(repr=False)
    excluded: int = 0

    def __post_init__(self):
        if self.l2 < 0 or self.r_squared > 1.0 + 1e-12:
            raise DomainError("inconsistent metrics")


def build_metrics(points, pred, ana, times=None, rerr_floor=0.0):
    """Assemble a MetricsReport; |ana| <= rerr_floor * max|ana| is guarded.  A
    floor outside [0, 1), which could leave max_rerr non-finite, raises DomainError."""
    if not 0 <= rerr_floor < 1:
        raise DomainError(f"rerr_floor must be in [0, 1), got {rerr_floor!r}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    pred = np.asarray(pred, dtype=float)
    ana = np.asarray(ana, dtype=float)
    floor = rerr_floor * float(np.max(np.abs(ana))) if ana.size else 0.0
    guarded = np.abs(ana) <= floor
    rerr = np.full(ana.shape, np.nan)
    ok = ~guarded
    rerr[ok] = (pred[ok] - ana[ok]) / ana[ok]
    cols = [points]
    if times is not None:
        cols.append(np.asarray(times, dtype=float)[:, None])
    cols.extend([pred[:, None], ana[:, None], rerr[:, None]])
    table = np.hstack(cols)
    max_rerr = float(np.max(np.abs(rerr[ok]))) if np.any(ok) else math.nan
    return MetricsReport(l2=metric_l2(pred, ana), max_rerr=max_rerr,
                         r_squared=r_squared(pred, ana), per_point=table,
                         excluded=int(np.sum(guarded)))


def write_csv(path, headers, rows):
    """Write the headers, then rows (a list of sequences): every value at 17
    significant digits, which a double survives and an integer prints as,
    4096 rows to one % on the repeated row format, so no string spans the file."""
    line = ",".join(["%.17g"] * len(headers)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(headers) + "\n")
        for start in range(0, len(rows), 4096):
            block = rows[start:start + 4096]
            fh.write(line * len(block) % tuple(itertools.chain.from_iterable(block)))


def write_field_csv(path, report, dim, has_time=False):
    """Emit the per-point table (17 significant digits, deterministic)."""
    headers = [f"x{i + 1}" for i in range(dim)]
    if has_time:
        headers.append("t")
    write_csv(path, headers + ["u_pred", "u_ana", "rerr"], report.per_point.tolist())
