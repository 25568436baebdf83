"""Acceptance criteria: one test per criterion, each printing a pass/fail
line with the measured numbers (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here, straight from the criteria; runtimes are asserted
against the stated budgets.
"""

import time

import numpy as np
import pytest

from pikfnn.geometry import SourceSet
from pikfnn.kernels import KernelFamily, kernel_block
from pikfnn.network import DesignMatrix, PikfnnModel
from pikfnn.operators import OperatorSpec
from pikfnn.runner import check_exact_solution, run_benchmark, verify_kernels
from pikfnn.training import ScaledProblem, TrainConfig, grad_loss, loss, train_problem

from test_special_functions import load_reference, FNS
from pikfnn.special_functions import assoc_legendre


def report(criterion, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert passed, line


def test_criterion_01_kernel_physics():
    t0 = time.perf_counter()
    rows, ok = verify_kernels(n_points=100)
    elapsed = time.perf_counter() - t0
    worst = max(rows, key=lambda r: r.max_residual / r.tol)
    # 1e-5 for second-order steady and time kernels; 1e-4 for the
    # fourth-and-higher-order operators per the catalog invariants
    second_order = [r for r in rows if r.tol == 1e-5]
    assert all(r.max_residual <= 1e-5 for r in second_order)
    report(1, ok and elapsed < 30.0,
           f"verify-kernels {len(rows)} kernels, worst {worst.max_residual:.2e} "
           f"({worst.name}, tol {worst.tol:g}), {elapsed:.1f}s < 30s")


def test_criterion_02_special_functions():
    t0 = time.perf_counter()
    rows = load_reference()
    counts = {}
    worst = 0.0
    for name, n, x, expected in rows:
        if name.startswith("assoc_legendre"):
            m = int(name.split("_m")[1])
            got = assoc_legendre(n, m, x)
            counts["assoc_legendre"] = counts.get("assoc_legendre", 0) + 1
        else:
            got = FNS[name](n, x)
            counts[name] = counts.get(name, 0) + 1
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and all(c >= 50 for c in counts.values()) and elapsed < 5.0
    report(2, ok, f"{sum(counts.values())} oracle points "
                  f"({', '.join(f'{k}:{v}' for k, v in sorted(counts.items()))}), "
                  f"worst abs {worst:.2e} <= 1e-12, {elapsed:.2f}s < 5s")


def test_criterion_03_example1_adam():
    t0 = time.perf_counter()
    res4 = run_benchmark("example1", seed=0, train={"loss_goal": 1e-4})
    res5 = run_benchmark("example1", seed=0, train={"loss_goal": 1e-5})
    elapsed = time.perf_counter() - t0
    ok = (res4.train_report.final_loss <= 1e-4 and res4.metrics.l2 <= 1e-2
          and res5.train_report.final_loss <= 1e-5 and res5.metrics.l2 <= 5e-3
          and elapsed < 120.0)
    assert check_exact_solution(res5.setup) <= 1e-5
    report(3, ok, f"Adam to loss 1e-4: L2 {res4.metrics.l2:.2e} <= 1e-2; "
                  f"to 1e-5: L2 {res5.metrics.l2:.2e} <= 5e-3; {elapsed:.0f}s < 120s")


def test_criterion_04_example2_high_wavenumber():
    t0 = time.perf_counter()
    res = run_benchmark("example2", seed=0)
    elapsed = time.perf_counter() - t0
    assert res.setup.train.tol == 1e-4
    assert len(res.setup.colloc) == 400
    assert check_exact_solution(res.setup) <= 1e-5
    ok = res.metrics.l2 <= 1e-5 and elapsed < 60.0
    report(4, ok, f"k=100, N=400, LM tol 1e-4: L2 {res.metrics.l2:.2e} <= 1e-5; "
                  f"{elapsed:.0f}s < 60s")


def test_criterion_05_example3_exterior_trend():
    t0 = time.perf_counter()
    l2s = []
    for tol in (1e-4, 1e-6, 1e-8, 1e-10):
        res = run_benchmark("example3", seed=0, train={"tol": tol})
        l2s.append(res.metrics.l2)
    elapsed = time.perf_counter() - t0
    assert check_exact_solution(res.setup) <= 1e-5
    monotone = all(b < a for a, b in zip(l2s, l2s[1:]))
    ok = monotone and l2s[-1] <= 1e-8 and elapsed < 60.0
    report(5, ok, "L2 at tol 1e-4..1e-10: " + " > ".join(f"{v:.2e}" for v in l2s)
           + f" (monotone, endpoint <= 1e-8); {elapsed:.0f}s < 60s")


def test_criterion_06_example4_nonhomogeneous():
    t0 = time.perf_counter()
    res = run_benchmark("example4", seed=0)
    elapsed = time.perf_counter() - t0
    assert len(res.model.families) == 2  # two kernel families
    assert res.train_report.stop_reason == "loss_goal"
    assert res.train_report.final_loss <= 1e-5
    assert check_exact_solution(res.setup) <= 1e-5
    ok = res.metrics.max_rerr <= 1e-2 and elapsed < 120.0
    report(6, ok, f"two families, loss goal 1e-5: max|rerr| "
                  f"{res.metrics.max_rerr:.2e} <= 1e-2; {elapsed:.0f}s < 120s")


def test_criterion_07_example5_transient_heat():
    t0 = time.perf_counter()
    res = run_benchmark("example5", seed=0)
    elapsed = time.perf_counter() - t0
    assert res.setup.colloc.count("D") == 200 * 5  # ~200 boundary nodes, 5 instants
    assert res.setup.notes["annihilator_diffusivity"] == pytest.approx(0.003)
    assert check_exact_solution(res.setup) <= 1e-5
    ok = res.metrics.max_rerr <= 1e-2 and elapsed < 180.0
    report(7, ok, f"torus transient heat at T=100: max|rerr| "
                  f"{res.metrics.max_rerr:.2e} <= 1e-2 "
                  f"({res.metrics.excluded} near-zero pts excluded); {elapsed:.0f}s < 180s")


def test_criterion_08_example7_hypersphere():
    t0 = time.perf_counter()
    res = run_benchmark("example7", seed=0)
    elapsed = time.perf_counter() - t0
    assert len(res.setup.colloc) == 400
    assert check_exact_solution(res.setup) <= 1e-5
    ok = res.metrics.r_squared >= 0.999 and elapsed < 60.0
    report(8, ok, f"4D Laplace, N=400, radius-0.5 test sphere: R^2 = "
                  f"{res.metrics.r_squared:.6f} >= 0.999; {elapsed:.0f}s < 60s")


def test_criterion_09_example9_enhanced():
    t0 = time.perf_counter()
    worst = {}
    for shift in (0.5, 1.0, 2.0):
        res = run_benchmark("example9", seed=0, shift=shift)
        worst[shift] = res.metrics.max_rerr
    elapsed = time.perf_counter() - t0
    assert check_exact_solution(res.setup) <= 1e-5
    ok = all(v <= 1e-2 for v in worst.values()) and elapsed < 120.0
    report(9, ok, "enhanced kernels, max|rerr| per shift: "
           + ", ".join(f"s={s:g}: {v:.2e}" for s, v in worst.items())
           + f" (all <= 1e-2); {elapsed:.0f}s < 120s")


def test_criterion_10_example10_elastic_plate():
    t0 = time.perf_counter()
    res = run_benchmark("example10", seed=0)
    elapsed = time.perf_counter() - t0
    sig = res.extras["sigma"]
    assert sig["sigma11"] == pytest.approx(0.3 / (0.3 - 1.0), rel=1e-5)
    assert sig["sigma22"] == pytest.approx(-1.0, rel=1e-6)
    ok = (abs(sig["rerr_sigma11"]) <= 1e-6 and abs(sig["rerr_sigma22"]) <= 1e-6
          and res.metrics.l2 <= 1e-6 and elapsed < 60.0)
    report(10, ok, f"h/L=1e-3: rerr sigma11 {sig['rerr_sigma11']:.2e}, "
                   f"sigma22 {sig['rerr_sigma22']:.2e} (each <= 1e-6); "
                   f"u2 L2 {res.metrics.l2:.2e} <= 1e-6; {elapsed:.0f}s < 60s")


def test_criterion_11_optimizer_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    fam = KernelFamily("fundamental", OperatorSpec("laplace", 2))

    def toy(width):
        return PikfnnModel([fam], SourceSet(np.zeros((width, 2)) + 3.0), 2)

    # gradient vs central differences on 20 random instances
    worst_grad = 0.0
    for _ in range(20):
        n, m = 20, 30
        entries = rng.normal(size=(n, m))
        mtx = DesignMatrix(entries=entries, row_kinds=np.asarray(["D"] * n))
        targets = rng.normal(size=n)
        model = toy(m)
        model.weights = rng.normal(size=m)
        g = grad_loss(model, mtx, targets)
        for j in rng.integers(0, m, size=5):
            h = 1e-6 * max(1.0, abs(model.weights[j]))
            wp, wm = model.weights.copy(), model.weights.copy()
            wp[j] += h
            wm[j] -= h
            mp, mm = toy(m), toy(m)
            mp.weights, mm.weights = wp, wm
            fd = (loss(mp, mtx, targets) - loss(mm, mtx, targets)) / (2 * h)
            worst_grad = max(worst_grad, abs(g[j] - fd) / max(abs(fd), 1e-12))
    grad_ok = worst_grad <= 1e-6

    # LM reaches the least-squares optimum; accepted steps never increase loss
    worst_gap = 0.0
    monotone = True
    for _ in range(5):
        n, m = 30, 15
        entries = rng.normal(size=(n, m))
        mtx = DesignMatrix(entries=entries, row_kinds=np.asarray(["D"] * n))
        targets = rng.normal(size=n)
        model = toy(m)
        cfg = TrainConfig(optimizer="lm", tol=1e-14, max_iters=300, seed=7)
        rep = train_problem(model, ScaledProblem(mtx, targets), cfg)
        p_star, *_ = np.linalg.lstsq(entries, targets, rcond=None)
        star = toy(m)
        star.weights = p_star
        worst_gap = max(worst_gap, rep.final_loss - loss(star, mtx, targets))
        acc = [row[1] for row in rep.log_rows if row[3] == 1]
        monotone = monotone and all(b <= a for a, b in zip(acc, acc[1:]))
    elapsed = time.perf_counter() - t0
    ok = grad_ok and worst_gap <= 1e-10 and monotone and elapsed < 30.0
    report(11, ok, f"grad vs FD worst rel {worst_grad:.2e} <= 1e-6; LM-vs-LS gap "
                   f"{worst_gap:.2e} <= 1e-10; accepted steps non-increasing: "
                   f"{monotone}; {elapsed:.1f}s < 30s")


def test_criterion_12_structural_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    X = 0.5 + 2.0 * rng.random((100, 2))
    S = 0.5 + 2.0 * rng.random((100, 2))
    T = 1.0 + rng.random(100)
    TAU = 0.5 * rng.random(100)
    heat = KernelFamily("time-fundamental", OperatorSpec("heat", 2, k=0.41))
    alpha_form = KernelFamily("time-fundamental", OperatorSpec(
        "structural-diffusion", 2, diffusion=0.41, alpha=1.0,
        structural_t="power", structural_x="identity"))
    beta_form = KernelFamily("time-fundamental", OperatorSpec(
        "structural-diffusion", 2, diffusion=0.41, beta=1.0,
        structural_t="identity", structural_x="power"))
    hb = kernel_block(heat, X, S, T, TAU)
    bit_alpha = np.array_equal(kernel_block(alpha_form, X, S, T, TAU), hb)
    bit_beta = np.array_equal(kernel_block(beta_form, X, S, T, TAU), hb)

    res = run_benchmark("example6", seed=0)
    ok_bench = res.metrics.l2 <= 1e-2
    assert check_exact_solution(res.setup) <= 1e-5
    elapsed = time.perf_counter() - t0
    ok = bit_alpha and bit_beta and ok_bench and elapsed < 180.0
    report(12, ok, f"alpha=1 / beta=1 kernels bit-identical to the heat kernel "
                   f"on a 100-point grid: {bit_alpha}/{bit_beta}; structural "
                   f"benchmark (f=x) L2 at T=1: {res.metrics.l2:.2e} <= 1e-2; "
                   f"{elapsed:.0f}s < 180s")
