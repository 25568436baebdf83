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


def _example4_with_ex1(n_boundary):
    """example4 from its own builder with e^{x1} added to the exact u, from
    zero weights.  (lap - 1) e^{x1} = 0, so the source and the pre-fit stay
    as they are, and the trained family must fit e^{x1}: example4's u alone
    solves the annihilator's equation, and its pre-fit leaves the trained
    family data of at most 5e-15."""
    setup = BUILTINS["example4"](seed=0, n_boundary=n_boundary, train={"init": "zeros"})
    c = setup.colloc

    def exact(x, u=setup.exact):
        return u(x) + np.exp(x[..., 0])

    return dataclasses.replace(
        setup, colloc=CollocationSet(c.points, c.kinds, c.values + np.exp(c.points[:, 0])),
        test_values=exact(setup.test_points), exact=exact)


_CONVERGING = {
    "example2": lambda n: BUILTINS["example2"](seed=0, k=100.0, n_boundary=n),
    "example7": lambda n: BUILTINS["example7"](seed=0, n_boundary=n),
    "example4+ex1": _example4_with_ex1,
}


@functools.cache
def _converging_run(name, n):
    return run_benchmark(_CONVERGING[name](n), seed=0).metrics


@pytest.mark.parametrize("n, l2, max_rerr", [(100, 6.90e-5, 2.96e-4), (200, 3.59e-5, 1.60e-4),
                                             (400, 1.85e-5, 8.60e-5)])
def test_example4_trained_family_fits_what_the_pre_fit_leaves(n, l2, max_rerr):
    # measured at seed 0 (and alike at seed 1): L2 and max_rerr above; the
    # gates allow 1.5 times each.  A broken homogeneous path leaves the
    # e^{x1} part, O(1)
    metrics = _converging_run("example4+ex1", n)
    assert metrics.l2 <= 1.5 * l2
    assert metrics.max_rerr <= 1.5 * max_rerr


# MFS error falls exponentially in n for analytic data on smooth domains.
# Measured L2 at seed 0 (smallest n -> largest): example2 (k = 100)
# 5.6e-2, 8.3e-6, 4.3e-6, 2.0e-6; example7 9.2e-2, 1.5e-2, 4.8e-4, 8.5e-5;
# the example4 variant 2.7e-4, 6.9e-5, 3.6e-5, 1.85e-5.  The gates: L2 falls
# by at least a third of the measured factor, to at most 1.5 times the
# measured floor, and no step in n raises L2 by more than 10 %
@pytest.mark.parametrize("name, ns, factor, floor", [
    ("example2", (200, 300, 400, 600), 9.0e3, 3.0e-6),
    ("example7", (50, 100, 200, 400), 3.5e2, 1.3e-4),
    ("example4+ex1", (50, 100, 200, 400), 4.9, 2.8e-5),
])
def test_l2_converges_in_n(name, ns, factor, floor):
    l2 = [_converging_run(name, n).l2 for n in ns]
    assert l2[-1] <= floor, l2
    assert l2[0] >= factor * l2[-1], l2
    assert all(b <= 1.1 * a for a, b in zip(l2, l2[1:])), l2


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
# whole run, bit-identical.  example10's Kelvin kernel maps by a sign: under
# the negation of axis a, displacement and traction component a + 1 change
# sign, on the rows and on each source's force column alike; the swap, which
# reorders the sums over components, is left out.  example5 is left out for
# its run time.
def _negate(axis):
    def reflect(P):
        P = P.copy()
        P[:, axis] = -P[:, axis]
        return P
    return reflect


_AXES = {"x1": 0, "last": -1}
_MAPS = {"x1": _negate(0), "last": _negate(-1), "swap": lambda P: P[:, ::-1].copy()}
_MAPPED = [(name, kind) for name in sorted(BUILTINS) if name != "example5"
           for kind in _MAPS if kind != "swap" or name in ("example1", "example2", "example3",
                                                           "example6", "example9")]


def _component_signs(setup, kind):
    """(s1, s2): the sign each displacement and traction component takes
    under the map, for the Kelvin built-in (example10); (1, 1) otherwise."""
    signs = np.ones(2)
    if setup.post == "stress":
        signs[_AXES[kind]] = -1.0
    return signs


def _mapped(setup, kind):
    """The setup with every row point, normal, source point, test point and
    the stress point mapped by the map kind, and each row value and test
    value times the sign of its component."""
    fn, c, src = _MAPS[kind], setup.colloc, setup.sources
    signs = _component_signs(setup, kind)
    colloc = CollocationSet(fn(c.points), c.kinds, c.values * signs[c.components - 1],
                            normals=fn(c.normals), times=c.times, components=c.components)
    notes = dict(setup.notes)
    if "stress_point" in notes:
        notes["stress_point"] = fn(np.array([notes["stress_point"]]))[0].tolist()
    return dataclasses.replace(setup, colloc=colloc, sources=SourceSet(fn(src.points), src.times),
                               test_points=fn(setup.test_points),
                               test_values=setup.test_values * signs[1], notes=notes)


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
    run = run_benchmark(_mapped(setup, kind), seed=0, out_dir=str(out))
    assert (out / "loss.csv").read_bytes() == (base_dir / "loss.csv").read_bytes()
    # u_pred (example10: u2) times s2
    u_pred = run.metrics.per_point[:, -3]
    s2 = _component_signs(setup, kind)[1]
    assert u_pred.tobytes() == (s2 * base.metrics.per_point[:, -3]).tobytes()
    if setup.post == "stress":  # sigma11 and sigma22 keep their sign under either negation
        for key in ("sigma11", "sigma22"):
            assert run.extras["sigma"][key] == base.extras["sigma"][key], key


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
