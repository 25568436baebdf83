"""Fast smoke runs of the built-in problems (desk-scale accuracy is covered
by test_acceptance; these shrink node counts to keep the suite quick)."""

import numpy as np
import pytest

from pikfnn.benchmarks import BUILTINS
from pikfnn.runner import check_exact_solution, run_benchmark


def test_builtin_names():
    assert set(BUILTINS) == {
        "example1", "example2", "example3", "example4", "example5", "example6",
        "example7", "example8-synthetic", "example9", "example10"}


def test_example1_smoke():
    res = run_benchmark("example1", seed=0, train={"loss_goal": 1e-2, "max_iters": 20000})
    assert res.train_report.stop_reason == "loss_goal"
    assert res.metrics.l2 < 0.5
    assert check_exact_solution(res.setup) <= 1e-5


def test_example2_smoke():
    res = run_benchmark("example2", seed=0, k=30.0, n_boundary=120)
    assert res.metrics.l2 <= 1e-3
    assert check_exact_solution(res.setup) <= 1e-5


def test_example3_smoke():
    res = run_benchmark("example3", seed=0, n_boundary=120, train={"tol": 1e-8})
    assert res.metrics.l2 <= 1e-5
    assert check_exact_solution(res.setup) <= 1e-5


def test_example4_smoke():
    res = run_benchmark("example4", seed=0, n_boundary=120)
    assert res.metrics.max_rerr <= 5e-2
    assert res.setup.notes["source_fit_rms"] <= 1e-8
    assert res.setup.notes["annihilator"] == \
        ["fundamental:modified-helmholtz:3d?k=1.7320508075688772"]
    assert check_exact_solution(res.setup) <= 1e-5


def test_example5_smoke():
    res = run_benchmark("example5", seed=0, n_boundary=60, n_interior=24)
    assert res.metrics.max_rerr <= 5e-2
    assert res.setup.notes["annihilator_diffusivity"] == pytest.approx(0.003)
    assert check_exact_solution(res.setup) <= 1e-5


def test_example6_smoke():
    res = run_benchmark("example6", seed=0)
    assert res.metrics.l2 <= 1e-2
    assert check_exact_solution(res.setup) <= 1e-5


def test_example7_smoke():
    res = run_benchmark("example7", seed=0, n_boundary=120)
    assert res.metrics.r_squared >= 0.999
    assert check_exact_solution(res.setup) <= 1e-5


def test_example8_smoke():
    res = run_benchmark("example8-synthetic", seed=0, n_outer=100)
    assert res.metrics.l2 <= 1e-2
    # Cauchy rows: same locations carry Dirichlet and Neumann data
    assert res.setup.colloc.count("D") == res.setup.colloc.count("N") == 100
    assert check_exact_solution(res.setup) <= 1e-5


def test_example9_smoke():
    res = run_benchmark("example9", seed=0, shift=2.0)
    assert res.metrics.max_rerr <= 1e-2
    assert res.setup.colloc.count("D") == 62
    assert res.setup.sources.enhanced
    assert check_exact_solution(res.setup) <= 1e-5


def test_example10_smoke():
    res = run_benchmark("example10", seed=0)
    sig = res.extras["sigma"]
    assert abs(sig["rerr_sigma11"]) <= 1e-6
    assert abs(sig["rerr_sigma22"]) <= 1e-6
    assert res.metrics.l2 <= 1e-6


def test_run_benchmark_deterministic(tmp_path):
    a = run_benchmark("example3", seed=3, out_dir=tmp_path / "a", train={"tol": 1e-6})
    b = run_benchmark("example3", seed=3, out_dir=tmp_path / "b", train={"tol": 1e-6})
    assert np.array_equal(a.model.weights, b.model.weights)
    assert (tmp_path / "a" / "field.csv").read_bytes() == \
        (tmp_path / "b" / "field.csv").read_bytes()
    assert (tmp_path / "a" / "loss.csv").read_bytes() == \
        (tmp_path / "b" / "loss.csv").read_bytes()


def test_outputs_schema(tmp_path):
    import json

    res = run_benchmark("example7", seed=0, n_boundary=60, out_dir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    for key in ("name", "seed", "config_hash", "kernels", "metrics", "train", "notes"):
        assert key in summary
    assert summary["metrics"]["l2"] == res.metrics.l2
    header = (tmp_path / "field.csv").read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4,u_pred,u_ana,rerr"
    loss_header = (tmp_path / "loss.csv").read_text().splitlines()[0]
    assert loss_header == "iter,loss,lambda_or_lr,accepted"


def test_summary_reports_solve_diagnostics(tmp_path):
    import json

    res = run_benchmark("example3", seed=0, out_dir=tmp_path)
    train = json.loads((tmp_path / "summary.json").read_text())["train"]
    rep = res.train_report
    assert train["effective_rank"] == rep.effective_rank <= res.model.width
    assert train["cond_estimate"] == rep.cond_estimate >= 1.0
    assert train["rejected_steps"] == rep.rejected_steps
    # the diagnostics stay out of the CSVs
    assert (tmp_path / "loss.csv").read_text().splitlines()[0] == \
        "iter,loss,lambda_or_lr,accepted"
    assert (tmp_path / "field.csv").read_text().splitlines()[0] == "x1,x2,u_pred,u_ana,rerr"


def test_unknown_builtin():
    from pikfnn.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_benchmark("example99", seed=0)


def test_verify_kernels_flags_mutant():
    # a heat kernel with the flipped (positive) exponent violates the PDE
    # and must be reported as a failure for exactly that entry
    import math

    from pikfnn.operators import OperatorSpec, apply_time_operator_fd
    from pikfnn.runner import verify_kernels

    op = OperatorSpec("heat", 2, k=1.0)

    def mutant(x, s, t, tau):
        dt = t - tau
        if dt <= 0.0:
            return 0.0
        r2 = sum((a - b) ** 2 for a, b in zip(x, s))
        return math.exp(+r2 / (4.0 * op.k * dt)) / (4.0 * math.pi * op.k * dt)

    def check(n_points, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_points):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            x = (0.5 + 1.5 * rng.random()) * d
            t = 0.5 + 1.5 * rng.random()

            def fn(pt, tv):
                return mutant(pt, (0.0, 0.0), tv, -1.5)

            res = apply_time_operator_fd(op, fn, x, t)
            worst = max(worst, abs(res) / max(abs(fn(list(x), t)), 1.0))
        return worst

    rows, ok = verify_kernels(entries=[("mutant:heat-flipped-exponent", check, 1e-5)],
                              n_points=25)
    assert not ok
    assert rows[0].name == "mutant:heat-flipped-exponent"
    assert not rows[0].passed
