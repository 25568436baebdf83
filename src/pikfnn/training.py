"""Weight training: full-batch Adam and Levenberg-Marquardt on the
boundary/initial-data least-squares loss.

The loss is a sum of per-row-kind group means.  The groups follow from the
rows the problem supplies: the boundary (D, N) rows always, then the
initial (I) rows of a transient problem or the interior-residual (R) rows
of the enhanced mode.  The residual is linear in the weights, so both
trainers share one scaled least-squares problem: the group-scaled design
matrix J and targets y, built once.  Adam works on the residual r = J p - y
alone (loss r.r, gradient 2 J^T r).  LM also forms A = J^T J and b = J^T y
and takes one symmetric eigendecomposition D^{-1/2} A D^{-1/2} =
V diag(s) V^T (D Marquardt's diagonal of A, eigenvalues clamped at 0), so
each trial step of (A + lambda D) delta = -J^T r is two mat-vecs and no
factorization can fail.

train_problem runs the trainer that config.optimizer names.  Both trainers
update model.weights in place, are deterministic for a fixed seed/config,
and record one log row per iteration for the loss-history CSV
(`iter,loss,lambda_or_lr,accepted`).
"""

import functools
import math
import numbers
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import ConditioningError, ConfigurationError, DivergenceError
from .metrics import write_csv

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# LM's first damping, its growth on a rejected trial, and its ceiling
_LAMBDA0, _LAMBDA_UP, _LAMBDA_CEILING = 1e-3, 10.0, 1e16


@dataclass
class TrainConfig:
    """optimizer "adam" | "lm"; tol, max_iters and loss_goal stop either
    trainer; lr is Adam's step size, lambda_down LM's damping decrease on an
    accepted step; seed and init ("uniform_pm1" | "zeros") set the start."""

    optimizer: str = "lm"
    tol: float = 1e-8
    max_iters: int = 500
    loss_goal: float = None
    lr: float = 1e-3
    lambda_down: float = 0.1
    seed: int = 0
    init: str = "uniform_pm1"

    def __post_init__(self):
        if self.optimizer not in ("adam", "lm"):
            raise ConfigurationError(f"optimizer must be 'adam' or 'lm', got {self.optimizer!r}")
        for name in ("tol", "lr", "lambda_down", "loss_goal"):
            value = getattr(self, name)
            if name == "loss_goal" and value is None:
                continue
            # math.isfinite overflows on an int beyond the float range
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not (abs(value) <= sys.float_info.max if isinstance(value, numbers.Integral)
                            else math.isfinite(value)):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if not self.tol > 0:
            raise ConfigurationError("tol must be > 0")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, int) \
                or self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be an int >= 1, got {self.max_iters!r}")
        if not self.lr > 0:
            raise ConfigurationError("lr must be > 0")
        if not 0 < self.lambda_down <= 1:
            raise ConfigurationError(f"lambda_down must be in (0, 1], got {self.lambda_down!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) \
                or self.seed < 0:
            raise ConfigurationError(f"seed must be an int >= 0, got {self.seed!r}")
        if self.init not in ("uniform_pm1", "zeros"):
            raise ConfigurationError(f"init must be 'uniform_pm1' or 'zeros', got {self.init!r}")


@dataclass
class TrainReport:
    """log_rows: (iter, loss, lambda_or_lr, accepted) per logged iteration,
    the rows of loss.csv.  cond_estimate, effective_rank: of J D^{-1/2}, LM
    only (see _Damping); cond_estimate is None where the spectrum does not
    resolve it."""

    iters: int
    stop_reason: str
    wall_time: float
    log_rows: list = field(repr=False)
    cond_estimate: float = None
    effective_rank: int = None

    @property
    def loss_history(self):
        return [row[1] for row in self.log_rows]

    @property
    def final_loss(self):
        return self.log_rows[-1][1]

    @property
    def rejected_steps(self):
        return sum(1 for row in self.log_rows if not row[3])


class ScaledProblem:
    """min |J p - y|^2, the loss with each group's 1/N_g folded into its rows;
    gradient 2 (A p - b), A = J^T J and b = J^T y formed on first use.

    The groups are the boundary (D, N) rows and the initial (I) or the
    interior-residual (R) rows.  row_weights, {row kind: w} (Cauchy
    balancing), multiplies each kind's rows by w before the group scale.
    Raises ConfigurationError without D or N rows, with both I and R rows or
    for a weight of a kind outside geometry.KINDS, and ConditioningError
    naming the first row of J or y that is not finite."""

    def __init__(self, matrix, targets, row_weights=None):
        kinds = matrix.row_kinds
        groups = [np.isin(kinds, (geo.DIRICHLET, geo.NEUMANN)), kinds == geo.INITIAL,
                  kinds == geo.INTERIOR_RESIDUAL]
        if not groups[0].any():
            raise ConfigurationError("no boundary rows present")
        if groups[1].any() and groups[2].any():
            raise ConfigurationError("initial and interior-residual rows cannot share one loss")
        scale = np.zeros(len(kinds))
        for rows in groups:
            scale[rows] = 1.0 / math.sqrt(max(np.count_nonzero(rows), 1))
        weight = np.ones(len(kinds))
        for kind, w in (row_weights or {}).items():
            if kind not in geo.KINDS:
                raise ConfigurationError(f"row weight of unknown kind {kind!r}; valid: {geo.KINDS}")
            weight[kinds == kind] = w
        # (E w) s, in place: E (w s) would round the product w s
        self.J = matrix.entries * weight[:, None]
        self.J *= scale[:, None]
        self.y = np.asarray(targets, dtype=float) * weight
        self.y *= scale
        bad = np.flatnonzero(~(np.isfinite(self.J).all(axis=1) & np.isfinite(self.y)))
        if bad.size:
            raise ConditioningError(f"design row {bad[0]} has a non-finite entry or target")

    @functools.cached_property
    def A(self):
        return self.J.T @ self.J

    @functools.cached_property
    def b(self):
        return self.J.T @ self.y

    def loss_of(self, p):
        r = self.J @ p - self.y   # direct residual: no quadratic-form cancellation
        return float(r @ r)


def loss(model, matrix, targets):
    """Sum over groups of mean squared residuals (Eqs.-17/18/41 style)."""
    return ScaledProblem(matrix, targets).loss_of(model.weights)


def grad_loss(model, matrix, targets):
    """exact gradient: sum_g (2/N_g) Phi_g^T (Phi_g p - g_g)."""
    prob = ScaledProblem(matrix, targets)
    return 2.0 * (prob.J.T @ (prob.J @ model.weights - prob.y))


class _Damping:
    """(A + lam D)^{-1} for every lam > 0 from one eigendecomposition.

    D is Marquardt's diagonal of A, clamped from below.  With
    D^{-1/2} A D^{-1/2} = V diag(s) V^T, s clamped at 0, the step is
    -D^{-1/2} V diag(1/(s + lam)) V^T D^{-1/2} g.  s holds the squared
    singular values of J D^{-1/2}, accurate to n eps s_max.  effective_rank
    is the rank at that resolution: the number of singular values above
    sqrt(n eps) times the largest.  The condition number sqrt(s_max / s_min)
    is resolved only at full rank; below it cond_estimate is None.

    A must be exactly symmetric, as J.T @ J is (numpy forms it with the
    symmetric rank-k product).  The scaled matrix is built in A's own lower
    triangle, the only part eigh reads, while the upper triangle keeps A;
    A is then restored bit for bit, so no third n x n array is held.
    """

    def __init__(self, A):
        if not np.isfinite(A).all():
            raise ConditioningError("J^T J overflows the double range")
        diag = A.diagonal().copy()
        d = np.maximum(diag, 1e-14 * max(float(np.max(diag)), 1e-300))
        root = self.root = 1.0 / np.sqrt(d)  # diagonal of D^{-1/2}
        n = len(d)
        try:
            for i in range(n):
                row = A[i, :i + 1]
                row *= root[i]    # (root_i A_ij) root_j, row by row
                row *= root[:i + 1]
            s, self.V = np.linalg.eigh(A, UPLO="L")
        finally:
            for i in range(n):
                A[i, :i] = A[:i, i]
            np.fill_diagonal(A, diag)
        self.s = np.maximum(s, 0.0)   # ascending
        eps = np.finfo(float).eps
        # s is accurate to eps s_max; a smaller lambda would let the roundoff in
        # s, not lambda, set the steps along the near-null directions
        self.lam_floor = eps * self.s[-1]
        tol = len(s) * eps * self.s[-1]
        self.effective_rank = int(np.count_nonzero(self.s > tol))
        self.cond_estimate = (math.sqrt(self.s[-1] / self.s[0])
                              if self.effective_rank == len(s) else None)

    def step(self, g, lam):
        return -self.root * (self.V @ ((self.V.T @ (self.root * g)) / (self.s + lam)))


def init_weights(n, config):
    """Seeded uniform [-1, 1] draws, or zeros."""
    if n <= 0:
        raise ConfigurationError("weight count must be > 0")
    if config.init == "zeros":
        return np.zeros(n)
    rng = np.random.default_rng(config.seed)
    return rng.uniform(-1.0, 1.0, size=n)


def _adam(model, prob, config):
    """Standard Adam with bias correction on the group-mean loss.

    Runs on the residual r = J p - y alone: the loss is r.r and the gradient
    g = 2 J^T r.  Each rounded operation is one that Kingma & Ba (2015,
    algorithm 1) write, in their order, so the weights are the textbook
    ones to the last bit; only the gradient's 2 rides on the (1 - beta)
    factors, which is exact.  Equal up to rounding is not enough: where an
    entry of g passes near zero, m / sqrt(v) turns a rounding difference in
    g into one in the step, and an algebraically equal update (moments and
    bias corrections folded into the step size) was seen to drift 1e-10 of
    max |p| from the textbook weights within 300 iterations.
    """
    J, y = prob.J, prob.y
    JT = J.T
    n = J.shape[1]
    p = init_weights(n, config)
    lr, b1, b2, goal = config.lr, _BETA1, _BETA2, config.loss_goal
    t0 = time.perf_counter()
    r = J @ p - y
    history = [float(r @ r)]
    done = goal is not None and history[0] <= goal
    stop = "loss_goal" if done else "max_iters"
    # per-element constants as rows: at a few hundred weights, broadcasting a
    # (2, 1) array or a Python float costs more per call than the arithmetic
    beta = np.repeat([[b1], [b2]], n, axis=1)
    gain = np.repeat([[2.0 * (1.0 - b1)], [4.0 * (1.0 - b2)]], n, axis=1)
    lr_n, eps_n = np.full(n, lr), np.full(n, _EPS)
    bias = np.empty((2, n))   # 1 - beta1^t, 1 - beta2^t
    hh = np.empty((2, n))     # J^T r = g / 2, twice
    mv = np.zeros((2, n))     # m, v
    gg = np.empty((2, n))     # (1 - beta1) g, (1 - beta2) g g
    hat = np.empty((2, n))    # mhat, vhat
    bias1, bias2 = bias
    h, h_copy = hh
    v_in = gg[1]
    mhat, vhat = hat
    it = 0
    for it in range(1, 1 if done else config.max_iters + 1):
        np.dot(JT, r, out=h)
        np.copyto(h_copy, h)
        np.multiply(gain, hh, out=gg)
        v_in *= h
        mv *= beta
        mv += gg
        bias1.fill(1.0 - b1 ** it)
        bias2.fill(1.0 - b2 ** it)
        np.divide(mv, bias, out=hat)
        np.sqrt(vhat, out=vhat)
        vhat += eps_n
        mhat *= lr_n
        mhat /= vhat
        p -= mhat
        np.dot(J, p, out=r)
        r -= y
        cur = float(r.dot(r))
        if not math.isfinite(cur):
            raise DivergenceError(f"non-finite loss at iteration {it}", iteration=it)
        history.append(cur)
        if goal is not None and cur <= goal:
            stop = "loss_goal"
            break
        if it >= 100 and abs(cur - history[-101]) < config.tol:
            stop = "tol_loss"
            break
    model.weights = p
    log = [(i, value, lr, 1) for i, value in enumerate(history)]
    return TrainReport(it, stop, time.perf_counter() - t0, log)


def _lm(model, prob, config):
    """Levenberg-Marquardt on the linear residual.

    Stops when max|w_i - w_{i-1}| < tol or |loss_i - loss_{i-1}| < tol
    across accepted iterations (max_iters as the safety net); see module
    docstring for the damped step.
    """
    p = init_weights(prob.J.shape[1], config)
    t0 = time.perf_counter()
    damping = _Damping(prob.A)
    lam = _LAMBDA0
    cur = prob.loss_of(p)
    log = [(0, cur, lam, 1)]
    done = config.loss_goal is not None and cur <= config.loss_goal
    stop = "loss_goal" if done else "max_iters"
    it = 0
    for it in range(1, 1 if done else config.max_iters + 1):
        delta = damping.step(prob.A @ p - prob.b, lam)  # A p - b = J^T r
        trial = p + delta
        trial_loss = prob.loss_of(trial)
        if not math.isfinite(trial_loss):
            raise DivergenceError(f"non-finite loss at iteration {it}", iteration=it)
        if trial_loss <= cur:
            prev, p, cur = cur, trial, trial_loss
            lam = max(lam * config.lambda_down, damping.lam_floor)
            log.append((it, cur, lam, 1))
            if config.loss_goal is not None and cur <= config.loss_goal:
                stop = "loss_goal"
                break
            if float(np.max(np.abs(delta))) < config.tol:
                stop = "tol_weights"
                break
            if abs(cur - prev) < config.tol:
                stop = "tol_loss"
                break
        else:
            lam *= _LAMBDA_UP
            log.append((it, cur, lam, 0))
            if lam > _LAMBDA_CEILING:
                raise DivergenceError(
                    f"damping exceeded {_LAMBDA_CEILING:g} at iteration {it}",
                    iteration=it)
    model.weights = p
    return TrainReport(it, stop, time.perf_counter() - t0, log,
                       damping.cond_estimate, damping.effective_rank)


def train_problem(model, prob, config):
    """Train model.weights on prob, a ScaledProblem, with config.optimizer:
    "adam" runs _adam, "lm" runs _lm."""
    return (_adam if config.optimizer == "adam" else _lm)(model, prob, config)


def write_loss_csv(path, report):
    """Persist per-iteration history: iter,loss,lambda_or_lr,accepted."""
    write_csv(path, ["iter", "loss", "lambda_or_lr", "accepted"], report.log_rows)
