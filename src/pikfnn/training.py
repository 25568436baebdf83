"""Weight training: full-batch Adam and Levenberg-Marquardt on the
boundary/initial-data least-squares loss.

The loss is a sum of per-row-kind group means (one group for boundary-only
problems, boundary+initial for transient ones, boundary+interior for the
enhanced mode).  The residual is linear in the weights, so both trainers
share one scaled least-squares problem: the group-scaled design matrix J,
targets y, A = J^T J and b = J^T y, built once.  LM takes one symmetric
eigendecomposition D^{-1/2} A D^{-1/2} = V diag(s) V^T (D the damping
diagonal, eigenvalues clamped at 0), so each trial step of
(A + lambda D) delta = -J^T r is two mat-vecs and no factorization can fail.

Both trainers update model.weights in place, are deterministic for a fixed
seed/config, and record one log row per iteration for the loss-history CSV
(`iter,loss,lambda_or_lr,accepted`).
"""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import ConditioningError, ConfigurationError, DivergenceError

BOUNDARY_ONLY = "boundary_only"
BOUNDARY_PLUS_INITIAL = "boundary_plus_initial"
BOUNDARY_PLUS_INTERIOR = "boundary_plus_interior"
MODES = (BOUNDARY_ONLY, BOUNDARY_PLUS_INITIAL, BOUNDARY_PLUS_INTERIOR)

_LAMBDA_CEILING = 1e16


@dataclass
class TrainConfig:
    optimizer: str = "lm"
    tol: float = 1e-8
    max_iters: int = 500
    loss_goal: float = None
    loss_mode: str = BOUNDARY_ONLY
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lambda0: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    lm_marquardt_scaling: bool = False  # damp with lambda * diag(J^T J)
    seed: int = 0
    init: str = "uniform_pm1"

    def __post_init__(self):
        if self.optimizer not in ("adam", "lm"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if self.loss_mode not in MODES:
            raise ConfigurationError(f"unknown loss mode {self.loss_mode!r}")
        if not self.tol > 0:
            raise ConfigurationError("tol must be > 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigurationError("need 0 < beta1, beta2 < 1")
        if not self.lr > 0:
            raise ConfigurationError("lr must be > 0")
        if not self.lambda0 > 0:
            raise ConfigurationError("lambda0 must be > 0")
        if self.init not in ("uniform_pm1", "zeros"):
            raise ConfigurationError(f"unknown init {self.init!r}")


@dataclass
class TrainReport:
    """cond_estimate, effective_rank: of J D^{-1/2}, LM only (see _Damping)."""

    loss_history: list
    final_loss: float
    iters: int
    stop_reason: str
    wall_time: float
    log_rows: list = field(default_factory=list, repr=False)
    cond_estimate: float = None
    effective_rank: int = None
    rejected_steps: int = 0


def _groups(matrix, mode):
    """Row-index groups entering the loss, in a fixed order: the boundary rows,
    then the initial (I) or interior (R) rows the mode adds."""
    added = {BOUNDARY_PLUS_INITIAL: geo.INITIAL,
             BOUNDARY_PLUS_INTERIOR: geo.INTERIOR_RESIDUAL}.get(mode)
    groups = [matrix.group_rows((geo.DIRICHLET, geo.NEUMANN))]
    if not len(groups[0]):
        raise ConfigurationError("no boundary rows present")
    for kind in (geo.INITIAL, geo.INTERIOR_RESIDUAL):
        rows = matrix.group_rows((kind,))
        if kind == added:
            if not len(rows):
                raise ConfigurationError(f"{mode} loss needs {kind} rows")
            groups.append(rows)
        elif len(rows):
            raise ConfigurationError(f"{mode} loss cannot see {kind} rows")
    return groups


class _ScaledProblem:
    """min |J p - y|^2, the loss with each group's 1/N_g folded into its rows;
    gradient 2 (A p - b), A = J^T J and b = J^T y formed on first use.  Raises
    ConditioningError naming the first row of J or y that is not finite."""

    def __init__(self, matrix, targets, mode):
        scale = np.zeros(matrix.entries.shape[0])
        for g in _groups(matrix, mode):
            scale[g] = 1.0 / math.sqrt(len(g))
        self.J = matrix.entries * scale[:, None]
        self.y = np.asarray(targets, dtype=float) * scale
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


def loss(model, matrix, targets, mode=BOUNDARY_ONLY):
    """Sum over groups of mean squared residuals (Eqs.-17/18/41 style)."""
    return _ScaledProblem(matrix, targets, mode).loss_of(model.weights)


def grad_loss(model, matrix, targets, mode=BOUNDARY_ONLY):
    """exact gradient: sum_g (2/N_g) Phi_g^T (Phi_g p - g_g)."""
    prob = _ScaledProblem(matrix, targets, mode)
    return 2.0 * (prob.J.T @ (prob.J @ model.weights - prob.y))


class _Damping:
    """(A + lam D)^{-1} for every lam > 0 from one eigendecomposition.

    D is the Marquardt diagonal of A (clamped from below) or the identity.
    With D^{-1/2} A D^{-1/2} = V diag(s) V^T, s clamped at 0, the step is
    -D^{-1/2} V diag(1/(s + lam)) V^T D^{-1/2} g.  s holds the squared
    singular values of J D^{-1/2}: those at or below n eps s_max are roundoff,
    so they bound the effective rank, and the condition number
    sqrt(s_max / s_min) resolves only up to 1/sqrt(n eps).
    """

    def __init__(self, A, marquardt):
        if not np.isfinite(A).all():
            raise ConditioningError("J^T J overflows the double range")
        d = np.diag(A)
        d = np.maximum(d, 1e-14 * max(float(np.max(d)), 1e-300)) if marquardt else np.ones(len(d))
        self.root = 1.0 / np.sqrt(d)  # diagonal of D^{-1/2}
        s, self.V = np.linalg.eigh(self.root[:, None] * A * self.root)
        self.s = np.maximum(s, 0.0)   # ascending
        eps = np.finfo(float).eps
        # s is accurate to eps s_max; a smaller lambda would let the roundoff in
        # s, not lambda, set the steps along the near-null directions
        self.lam_floor = eps * self.s[-1]
        tol = len(s) * eps * self.s[-1]
        self.effective_rank = int(np.count_nonzero(self.s > tol))
        self.cond_estimate = (math.sqrt(self.s[-1] / max(self.s[0], tol))
                              if self.effective_rank else math.inf)

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


def train_adam(model, matrix, targets, config):
    """Standard Adam with bias correction on the group-mean loss."""
    prob = _ScaledProblem(matrix, targets, config.loss_mode)
    p = init_weights(prob.J.shape[1], config)
    t0 = time.perf_counter()
    cur = prob.loss_of(p)
    history = [cur]
    log = [(0, cur, config.lr, 1)]
    done = config.loss_goal is not None and cur <= config.loss_goal
    stop = "loss_goal" if done else "max_iters"
    m = v = np.zeros_like(p)
    it = 0
    for it in range(1, 1 if done else config.max_iters + 1):
        g = 2.0 * (prob.A @ p - prob.b)
        m = config.beta1 * m + (1.0 - config.beta1) * g
        v = config.beta2 * v + (1.0 - config.beta2) * g * g
        mhat = m / (1.0 - config.beta1 ** it)
        vhat = v / (1.0 - config.beta2 ** it)
        p = p - config.lr * mhat / (np.sqrt(vhat) + config.eps)
        cur = prob.loss_of(p)
        if not math.isfinite(cur):
            raise DivergenceError(f"non-finite loss at iteration {it}", iteration=it)
        history.append(cur)
        log.append((it, cur, config.lr, 1))
        if config.loss_goal is not None and cur <= config.loss_goal:
            stop = "loss_goal"
            break
        if it >= 100 and abs(history[-1] - history[-101]) < config.tol:
            stop = "tol_loss"
            break
    model.weights = p
    return TrainReport(history, history[-1], it, stop, time.perf_counter() - t0, log)


def train_lm(model, matrix, targets, config):
    """Levenberg-Marquardt on the linear residual.

    Stops when max|w_i - w_{i-1}| < tol or |loss_i - loss_{i-1}| < tol
    across accepted iterations (max_iters as the safety net); see module
    docstring for the damped step.
    """
    prob = _ScaledProblem(matrix, targets, config.loss_mode)
    p = init_weights(prob.J.shape[1], config)
    t0 = time.perf_counter()
    damping = _Damping(prob.A, config.lm_marquardt_scaling)
    lam = config.lambda0
    cur = prob.loss_of(p)
    history = [cur]
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
            history.append(cur)
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
            lam *= config.lambda_up
            history.append(cur)
            log.append((it, cur, lam, 0))
            if lam > _LAMBDA_CEILING:
                raise DivergenceError(
                    f"damping exceeded {_LAMBDA_CEILING:g} at iteration {it}",
                    iteration=it)
    model.weights = p
    return TrainReport(history, history[-1], it, stop, time.perf_counter() - t0, log,
                       damping.cond_estimate, damping.effective_rank,
                       sum(1 for row in log if row[3] == 0))


def write_loss_csv(path, report):
    """Persist per-iteration history: iter,loss,lambda_or_lr,accepted."""
    with open(path, "w") as fh:
        fh.write("iter,loss,lambda_or_lr,accepted\n")
        for it, value, knob, ok in report.log_rows:
            fh.write(f"{it},{value:.17g},{knob:.17g},{ok}\n")
