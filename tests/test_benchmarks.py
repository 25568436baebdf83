"""Fast smoke runs of the built-in problems (desk-scale accuracy is covered
by test_acceptance; these shrink node counts to keep the suite quick)."""

import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest

from pikfnn.benchmarks import BUILTINS
from pikfnn.errors import ConfigurationError
from pikfnn.geometry import CollocationSet, SourceSet
from pikfnn.runner import _config_hash, check_exact_solution, run_benchmark
from pikfnn.training import TrainConfig


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
    assert math.isfinite(res.setup.notes["source_fit_amplification"])  # reported, not gated
    assert res.setup.notes["annihilator"] == \
        ["fundamental:modified-helmholtz:3d?k=1.7320508075688772"]
    assert check_exact_solution(res.setup) <= 1e-5


def test_example5_smoke():
    res = run_benchmark("example5", seed=0, n_boundary=60, n_interior=24)
    assert res.metrics.max_rerr <= 5e-2
    # 1e-14 from a pre-fit without B^T B; the normal equations give 1e-7 to 2e-7
    assert res.setup.notes["source_fit_rms"] <= 1e-8
    assert res.setup.notes["annihilator_diffusivity"] == pytest.approx(0.003)
    assert math.isfinite(res.setup.notes["source_fit_amplification"])
    assert check_exact_solution(res.setup) <= 1e-5


def test_example6_smoke():
    res = run_benchmark("example6", seed=0)
    assert res.metrics.l2 <= 1e-2
    assert check_exact_solution(res.setup) <= 1e-5


def test_example6_takes_its_spatial_map_from_the_operator():
    # the exp map runs like the power map; ln maps the square's x = 0 edge to
    # -inf, so the log map is refused before any row is built
    res = run_benchmark("example6", seed=0, selector="exp")
    assert res.metrics.l2 <= 1e-2
    assert check_exact_solution(res.setup) <= 1e-5
    with pytest.raises(ConfigurationError, match="log selector"):
        BUILTINS["example6"](seed=0, selector="log")


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"-" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def test_builtin_setups_keep_their_bits():
    # sha256 prefixes of each built-in's set-up at seed 0: (training rows,
    # sources, test protocol).  The rows are their points, kinds, values,
    # times, components and the normals of the Neumann rows (the only normals
    # a row builder reads).  The values of the pre-fitted built-ins (example4,
    # example5) are left out: the correction passes through LAPACK, so its
    # bits follow the BLAS thread count
    expected = {
        "example1": ("08a406e5baa09c88", "3239db2a5980f4e3", "f8f21c8836882c28"),
        "example2": ("386f1d109a55684f", "8085da90622ceb9e", "1214265dc464a4bd"),
        "example3": ("31e254a00a95c9af", "4ec6daf36a108c56", "06e295143d4eacc4"),
        "example4": ("919ccf5ff891258a", "2bfb5ff89459f1e0", "e7830ed756009e23"),
        "example5": ("1802e38a51fe6d61", "c44d316db9ec601d", "27ca95c5b1859525"),
        "example6": ("7628d9b990962174", "ce4fdf9217bb6520", "efb8e118f0f14d09"),
        "example7": ("554b25da80af6d30", "59e6284d1c3f0b0d", "901227f610580bc4"),
        "example8-synthetic": ("423b315ee6a64926", "81dd57bdfaec2b4f", "409d5669d7802bc4"),
        "example9": ("de863735a28d6716", "65f5fd5b019c2357", "c9e169fd7653052a"),
        "example10": ("e606e1e2ba3913ea", "31204689b159482e", "3f972c409f6b00ff"),
    }
    assert set(expected) == set(BUILTINS)
    for name, digests in expected.items():
        setup = BUILTINS[name](seed=0)
        c, src = setup.colloc, setup.sources
        values = None if setup.pretrained else c.values
        got = (_digest(c.points, c.kinds, values, c.times, c.components,
                       c.normals[c.kinds == "N"]),
               _digest(src.points, src.times),
               _digest(setup.test_points, setup.test_values, setup.test_times))
        assert got == digests, name


# metamorphic: pair geometry adds coordinates in index order, so negating
# an axis (and, in 2D, swapping the two) leaves every kernel block, and so the
# whole run, bit-identical.  example5 is left out for its run time, and
# example10, whose Kelvin kernel maps by a signed permutation of its rows
# and columns, for a later check.
def _negate(axis):
    def reflect(P):
        P = P.copy()
        P[:, axis] = -P[:, axis]
        return P
    return reflect


_MAPS = {"x1": _negate(0), "last": _negate(-1), "swap": lambda P: P[:, ::-1].copy()}
_MAPPED = [(name, kind) for name in sorted(BUILTINS) if name not in ("example5", "example10")
           for kind in _MAPS if kind != "swap" or name in ("example1", "example2", "example3",
                                                           "example6", "example9")]


def _mapped(setup, fn):
    """The setup with every row point, normal, source point and test point
    mapped by fn, and all values kept."""
    c, src = setup.colloc, setup.sources
    colloc = CollocationSet(fn(c.points), c.kinds, c.values, normals=fn(c.normals),
                            times=c.times, components=c.components)
    return dataclasses.replace(setup, colloc=colloc, sources=SourceSet(fn(src.points), src.times),
                               test_points=fn(setup.test_points))


@functools.cache
def _unmapped_run(name, out_dir):
    return run_benchmark(BUILTINS[name](seed=0), seed=0, out_dir=out_dir)


@pytest.mark.parametrize("name, kind", _MAPPED)
def test_reflected_builtin_runs_alike(name, kind, tmp_path_factory):
    setup = BUILTINS[name](seed=0)
    assert setup.colloc.dim == 2 or kind != "swap"
    base_dir = tmp_path_factory.getbasetemp() / f"unmapped-{name}"
    base = _unmapped_run(name, str(base_dir))
    out = tmp_path_factory.mktemp("mapped")
    run = run_benchmark(_mapped(setup, _MAPS[kind]), seed=0, out_dir=str(out))
    assert (out / "loss.csv").read_bytes() == (base_dir / "loss.csv").read_bytes()
    u_pred = run.metrics.per_point[:, -3]
    assert u_pred.tobytes() == base.metrics.per_point[:, -3].tobytes()


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
    assert train["effective_rank"] == rep.effective_rank < res.model.width
    # below full rank the spectrum does not resolve the condition number
    assert train["cond_estimate"] is rep.cond_estimate is None
    assert "cond_is_lower_bound" not in train
    assert train["rejected_steps"] == rep.rejected_steps
    # the diagnostics stay out of the CSVs
    assert (tmp_path / "loss.csv").read_text().splitlines()[0] == \
        "iter,loss,lambda_or_lr,accepted"
    assert (tmp_path / "field.csv").read_text().splitlines()[0] == "x1,x2,u_pred,u_ana,rerr"


def test_config_hash_follows_every_train_field():
    # each field of TrainConfig can change the result, so each must change
    # the hash (example3 at lambda_down 0.1 solves to another L2 than at 0.01)
    setup = BUILTINS["example3"](seed=0)
    changed = {"optimizer": "adam", "tol": 1e-6, "max_iters": 7, "loss_goal": 1e-3,
               "lr": 0.5, "lambda_down": 0.1, "seed": 9, "init": "zeros"}
    assert set(changed) == {f.name for f in dataclasses.fields(TrainConfig)}
    base = _config_hash(setup, 0)
    for key, value in changed.items():
        assert getattr(setup.train, key) != value
        other = dataclasses.replace(setup, train=dataclasses.replace(setup.train, **{key: value}))
        assert _config_hash(other, 0) != base, key


def test_unknown_builtin():
    from pikfnn.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_benchmark("example99", seed=0)


def test_verify_kernels_flags_mutant():
    # a heat kernel with the flipped (positive) exponent violates the PDE
    # and must be reported as a failure for exactly that entry
    from pikfnn.operators import OperatorSpec, time_operator_fd_block
    from pikfnn.runner import verify_kernels

    op = OperatorSpec("heat", 2, k=1.0)

    def mutant(X, T):
        # source at the origin, tau = -1.5: every stencil time is past it
        dt = T + 1.5
        r2 = X[:, 0] ** 2 + X[:, 1] ** 2
        return np.exp(+r2 / (4.0 * op.k * dt)) / (4.0 * math.pi * op.k * dt)

    def check(n_points, seed):
        rng = np.random.default_rng(seed)
        X, T = [], []
        for _ in range(n_points):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            X.append((0.5 + 1.5 * rng.random()) * d)
            T.append(0.5 + 1.5 * rng.random())
        X, T = np.array(X), np.array(T)
        res = time_operator_fd_block(op, mutant, X, T)
        return float(np.max(np.abs(res) / np.maximum(np.abs(mutant(X, T)), 1.0)))

    rows, ok = verify_kernels(entries=[("mutant:heat-flipped-exponent", check, 1e-5)],
                              n_points=25)
    assert not ok
    assert rows[0].name == "mutant:heat-flipped-exponent"
    assert not rows[0].passed


def test_summary_names_the_environment_its_bytes_follow(tmp_path, monkeypatch):
    import json

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    run_benchmark("example7", seed=0, n_boundary=60, out_dir=tmp_path)
    env = json.loads((tmp_path / "summary.json").read_text())["environment"]
    assert env["numpy"] == np.__version__
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["MKL_NUM_THREADS"] is None
    assert set(env) == {"numpy", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
