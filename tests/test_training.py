import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pikfnn.errors import ConditioningError, ConfigurationError, DivergenceError
from pikfnn.geometry import SourceSet
from pikfnn.kernels import KernelFamily
from pikfnn.network import DesignMatrix, PikfnnModel
from pikfnn.operators import OperatorSpec
from pikfnn.training import (
    TrainConfig,
    _Damping,
    grad_loss,
    init_weights,
    loss,
    train_adam,
    train_lm,
    write_loss_csv,
)


def toy_model(width):
    fam = KernelFamily("fundamental", OperatorSpec("laplace", 2))
    return PikfnnModel([fam], SourceSet(np.zeros((width, 2)) + 3.0), 2,
                       weights=np.zeros(width))


def dmatrix(entries, kinds=None):
    entries = np.atleast_2d(np.asarray(entries, dtype=float))
    if kinds is None:
        kinds = ["D"] * entries.shape[0]
    return DesignMatrix(entries=entries, row_kinds=np.asarray(kinds))


def random_instance(rng, n=20, m=30, kinds=None):
    mtx = dmatrix(rng.normal(size=(n, m)), kinds)
    targets = rng.normal(size=n)
    model = toy_model(m)
    model.weights = rng.normal(size=m)
    return model, mtx, targets


# ---------------------------------------------------------------------------
# loss / gradient

def test_loss_trivial_values():
    model = toy_model(1)
    model.weights = np.array([1.0])
    mtx = dmatrix([[2.0], [2.0]])
    # residuals [1, 1] single group -> mean of squares = 1
    assert loss(model, mtx, [1.0, 1.0]) == pytest.approx(1.0)
    assert loss(model, mtx, [2.0, 2.0]) == 0.0


def test_loss_two_group_formula():
    # boundary residuals [2], initial residuals [0, 0] -> 4/1 + 0/2 = 4
    model = toy_model(1)
    model.weights = np.array([0.0])
    mtx = dmatrix([[1.0], [1.0], [1.0]], kinds=["D", "I", "I"])
    got = loss(model, mtx, [-2.0, 0.0, 0.0], mode="boundary_plus_initial")
    assert got == pytest.approx(4.0)


def test_loss_mode_mismatch():
    model = toy_model(1)
    model.weights = np.array([0.0])
    mtx = dmatrix([[1.0], [1.0]], kinds=["D", "I"])
    with pytest.raises(ConfigurationError):
        loss(model, mtx, [0.0, 0.0], mode="boundary_only")
    with pytest.raises(ConfigurationError):
        loss(model, mtx, [0.0, 0.0], mode="boundary_plus_interior")


def test_grad_hand_value():
    # 1x1: Phi=[2], p=[0], g=[4] -> grad = 2*2*(0-4)/1 = -16
    model = toy_model(1)
    model.weights = np.array([0.0])
    mtx = dmatrix([[2.0]])
    assert grad_loss(model, mtx, [4.0]) == pytest.approx([-16.0])
    model.weights = np.array([2.0])
    assert grad_loss(model, mtx, [4.0]) == pytest.approx([0.0])


def test_grad_matches_fd_on_random_instances():
    rng = np.random.default_rng(123)
    for trial in range(20):
        kinds = ["D"] * 12 + ["I"] * 8 if trial % 2 else None
        mode = "boundary_plus_initial" if trial % 2 else "boundary_only"
        model, mtx, targets = random_instance(rng, kinds=kinds)
        g = grad_loss(model, mtx, targets, mode=mode)
        for j in rng.integers(0, len(model.weights), size=6):
            h = 1e-6 * max(1.0, abs(model.weights[j]))
            wp = model.weights.copy()
            wm = model.weights.copy()
            wp[j] += h
            wm[j] -= h
            model_p = toy_model(len(wp))
            model_p.weights = wp
            model_m = toy_model(len(wm))
            model_m.weights = wm
            fd = (loss(model_p, mtx, targets, mode=mode)
                  - loss(model_m, mtx, targets, mode=mode)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_directional_derivative_check():
    rng = np.random.default_rng(77)
    model, mtx, targets = random_instance(rng)
    g = grad_loss(model, mtx, targets)
    d = rng.normal(size=len(model.weights))
    d /= np.linalg.norm(d)
    h = 1e-7
    mp = toy_model(len(d))
    mp.weights = model.weights + h * d
    mm = toy_model(len(d))
    mm.weights = model.weights - h * d
    fd = (loss(mp, mtx, targets) - loss(mm, mtx, targets)) / (2 * h)
    assert float(g @ d) == pytest.approx(fd, rel=1e-8)


# ---------------------------------------------------------------------------
# init

def test_init_weights():
    cfg = TrainConfig(init="zeros", seed=1)
    assert np.all(init_weights(5, cfg) == 0.0)
    cfg = TrainConfig(init="uniform_pm1", seed=42)
    a = init_weights(10, cfg)
    b = init_weights(10, cfg)
    assert np.array_equal(a, b)
    big = init_weights(10_000, cfg)
    assert np.all(np.abs(big) <= 1.0)
    assert -0.05 <= float(np.mean(big)) <= 0.05


# ---------------------------------------------------------------------------
# Adam

def test_adam_first_step_sign():
    # constant gradient ~ 2: first update = -lr * sign(g) up to eps
    model = toy_model(1)
    mtx = dmatrix([[1.0]])
    cfg = TrainConfig(optimizer="adam", init="zeros", max_iters=1, lr=1e-3, tol=1e-30)
    train_adam(model, mtx, [1.0], cfg)
    # grad at p=0: 2*1*(0-1) = -2 -> step +lr
    assert model.weights[0] == pytest.approx(1e-3, rel=1e-6)


def test_adam_zero_iterations_at_loss_goal():
    model = toy_model(1)
    mtx = dmatrix([[1.0]])
    cfg = TrainConfig(optimizer="adam", init="zeros", loss_goal=2.0, max_iters=50)
    report = train_adam(model, mtx, [1.0], cfg)  # initial loss = 1 <= goal
    assert report.iters == 0
    assert report.stop_reason == "loss_goal"
    assert report.final_loss == report.loss_history[-1]


def test_adam_converges_on_small_ls():
    rng = np.random.default_rng(3)
    model, mtx, targets = random_instance(rng, n=15, m=8)
    cfg = TrainConfig(optimizer="adam", init="zeros", max_iters=60_000, lr=5e-3,
                      tol=1e-14, seed=5)
    report = train_adam(model, mtx, targets, cfg)
    p_star, *_ = np.linalg.lstsq(mtx.entries, np.asarray(targets), rcond=None)
    best = loss(PikfnnModel(model.families, model.sources, 2, weights=p_star),
                mtx, targets)
    assert report.final_loss <= best + 1e-6
    assert report.final_loss == report.loss_history[-1]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_adam_divergence_raises():
    model = toy_model(1)
    mtx = dmatrix([[1e200]])
    cfg = TrainConfig(optimizer="adam", init="uniform_pm1", seed=0, max_iters=10)
    with pytest.raises(DivergenceError) as err:
        train_adam(model, mtx, [1.0], cfg)
    assert err.value.iteration is not None


# ---------------------------------------------------------------------------
# LM

def test_lm_one_by_one_exact():
    model = toy_model(1)
    mtx = dmatrix([[2.0]])
    cfg = TrainConfig(optimizer="lm", init="zeros", lambda0=1e-12, tol=1e-14,
                      max_iters=50)
    report = train_lm(model, mtx, [4.0], cfg)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-10)
    assert report.final_loss <= 1e-20


def test_lm_reaches_least_squares_optimum():
    rng = np.random.default_rng(11)
    for _ in range(5):
        model, mtx, targets = random_instance(rng, n=25, m=12)
        cfg = TrainConfig(optimizer="lm", init="uniform_pm1", seed=2, tol=1e-14,
                          max_iters=200)
        report = train_lm(model, mtx, targets, cfg)
        p_star, *_ = np.linalg.lstsq(mtx.entries, np.asarray(targets), rcond=None)
        star = toy_model(12)
        star.weights = p_star
        assert report.final_loss <= loss(star, mtx, targets) + 1e-10


def test_lm_accepted_steps_never_increase_loss():
    rng = np.random.default_rng(13)
    model, mtx, targets = random_instance(rng, n=30, m=25)
    cfg = TrainConfig(optimizer="lm", init="uniform_pm1", seed=9, tol=1e-12,
                      max_iters=100)
    report = train_lm(model, mtx, targets, cfg)
    accepted_losses = [row[1] for row in report.log_rows if row[3] == 1]
    assert all(b <= a + 1e-300 for a, b in zip(accepted_losses, accepted_losses[1:]))


def test_lm_stop_reason_recheckable():
    rng = np.random.default_rng(17)
    model, mtx, targets = random_instance(rng, n=25, m=10)
    cfg = TrainConfig(optimizer="lm", init="zeros", tol=1e-9, max_iters=300)
    report = train_lm(model, mtx, targets, cfg)
    assert report.stop_reason in ("tol_weights", "tol_loss")
    if report.stop_reason == "tol_loss":
        assert abs(report.loss_history[-1] - report.loss_history[-2]) < cfg.tol
    assert report.final_loss == report.loss_history[-1]


def test_lm_deterministic():
    rng = np.random.default_rng(19)
    entries = rng.normal(size=(20, 10))
    targets = rng.normal(size=20)
    results = []
    for _ in range(2):
        model = toy_model(10)
        cfg = TrainConfig(optimizer="lm", init="uniform_pm1", seed=31, tol=1e-12,
                          max_iters=100)
        train_lm(model, dmatrix(entries), targets, cfg)
        results.append(model.weights.copy())
    assert np.array_equal(results[0], results[1])


def test_lm_loss_goal():
    rng = np.random.default_rng(23)
    entries = rng.normal(size=(25, 10))
    targets = entries @ rng.normal(size=10)  # consistent: optimum loss is 0
    model = toy_model(10)
    cfg = TrainConfig(optimizer="lm", init="uniform_pm1", seed=3, tol=1e-14,
                      max_iters=200, loss_goal=1e-3)
    report = train_lm(model, dmatrix(entries), targets, cfg)
    assert report.stop_reason == "loss_goal"
    assert report.final_loss <= 1e-3


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       log_lam=st.floats(-8.0, 2.0), marquardt=st.booleans())
def test_eigen_step_equals_damped_solve(seed, m, log_lam, marquardt):
    # one eigendecomposition serves every lambda: the step must be the
    # solution of (A + lambda D) delta = -g that a factorization would give
    rng = np.random.default_rng(seed)
    J = rng.normal(size=(3 * m + 5, m)) * rng.uniform(0.5, 2.0, size=m)
    A = J.T @ J
    g = rng.normal(size=m)
    lam = 10.0 ** log_lam
    d = np.diag(A)
    D = np.diag(np.maximum(d, 1e-14 * d.max())) if marquardt else np.eye(m)
    expected = np.linalg.solve(A + lam * D, -g)
    got = _Damping(A, marquardt).step(g, lam)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("trainer", [train_adam, train_lm])
@pytest.mark.parametrize("where", ["entry", "target"])
def test_non_finite_row_raises_conditioning_error(trainer, where):
    # named up front, not as a non-finite loss at iteration 1
    rng = np.random.default_rng(31)
    model, mtx, targets = random_instance(rng, n=12, m=6)
    if where == "entry":
        mtx.entries[7, 2] = np.nan
        mtx.entries[9, 0] = np.inf
    else:
        targets[7] = np.inf
    cfg = TrainConfig(optimizer="lm" if trainer is train_lm else "adam", max_iters=5)
    with pytest.raises(ConditioningError, match="design row 7 "):
        trainer(model, mtx, targets, cfg)


@pytest.mark.filterwarnings("ignore:overflow")
def test_lm_overflowing_normal_matrix_raises_conditioning_error():
    model = toy_model(1)
    with pytest.raises(ConditioningError, match="overflows"):
        train_lm(model, dmatrix([[1e200]]), [1.0], TrainConfig(max_iters=5))


@pytest.mark.parametrize("marquardt", [False, True])
def test_lm_reports_spectrum_diagnostics(marquardt):
    rng = np.random.default_rng(37)
    entries = rng.normal(size=(30, 8)) * rng.uniform(0.5, 2.0, size=8)
    targets = rng.normal(size=30)
    cfg = TrainConfig(tol=1e-12, max_iters=100, seed=1, lm_marquardt_scaling=marquardt)
    report = train_lm(toy_model(8), dmatrix(entries), targets, cfg)
    J = entries / math.sqrt(30)  # one group of 30 rows
    if marquardt:
        J = J / np.sqrt(np.diag(J.T @ J))
    assert report.effective_rank == 8
    assert report.cond_estimate == pytest.approx(np.linalg.cond(J), rel=1e-8)
    assert report.rejected_steps == sum(1 for row in report.log_rows if row[3] == 0)
    # a repeated column: one eigenvalue is roundoff, the condition unresolved
    dup = np.column_stack([entries, entries[:, 0]])
    report = train_lm(toy_model(9), dmatrix(dup), targets, cfg)
    assert report.effective_rank == 8
    assert report.cond_estimate >= 1e7
    assert report.rejected_steps == sum(1 for row in report.log_rows if row[3] == 0)


def test_adam_reports_no_spectrum():
    rng = np.random.default_rng(41)
    model, mtx, targets = random_instance(rng, n=10, m=4)
    report = train_adam(model, mtx, targets, TrainConfig(optimizer="adam", max_iters=20))
    assert (report.cond_estimate, report.effective_rank, report.rejected_steps) == (None, None, 0)


def test_loss_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(29)
    model, mtx, targets = random_instance(rng, n=10, m=5)
    cfg = TrainConfig(optimizer="lm", init="zeros", tol=1e-10, max_iters=50)
    report = train_lm(model, mtx, targets, cfg)
    path = tmp_path / "loss.csv"
    write_loss_csv(path, report)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,loss,lambda_or_lr,accepted"
    assert len(lines) == len(report.log_rows) + 1
    first = lines[1].split(",")
    assert float(first[1]) == report.loss_history[0]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(optimizer="sgd")
    with pytest.raises(ConfigurationError):
        TrainConfig(tol=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(lambda0=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(init="gaussian")
