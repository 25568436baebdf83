"""The config schema: every malformed field of a JSON config exits 2 with
the field named, before any set-up runs."""

import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pikfnn
from pikfnn import runner
from pikfnn.benchmarks import BUILTINS
from pikfnn.cli import main
from pikfnn.errors import ConfigurationError
from pikfnn.geometry import CollocationSet, gen_boundary, save_nodes
from pikfnn.operators import OperatorSpec
from pikfnn.training import TrainConfig

_CUSTOM = {
    "name": "x",
    "kernels": ["fundamental:laplace:2d"],
    "operator": {"kind": "laplace", "dim": 2},
    "geometry": {"node_file": "b.txt"},
    "sources": {"placement": "scaled_circle", "n": 10, "r": 3.0},
    "test": {"node_file": "b.txt"},
}

# (section or None for the document, field, JSON type, null allowed)
_TRAIN_FIELDS = [("train", "optimizer", str, False), ("train", "tol", float, False),
                 ("train", "max_iters", int, False), ("train", "loss_goal", float, True),
                 ("train", "lr", float, False), ("train", "lambda_down", float, False),
                 ("train", "seed", int, False), ("train", "init", str, False)]
_SHARED_FIELDS = [(None, "seed", int, False), (None, "train", dict, False)] + _TRAIN_FIELDS
_BUILTIN_FIELDS = [(None, "builtin", str, False), (None, "params", dict, False)] + _SHARED_FIELDS
_CUSTOM_FIELDS = [
    (None, "name", str, False), (None, "kernels", list, False), (None, "operator", dict, True),
    (None, "geometry", dict, False), (None, "sources", dict, False), (None, "test", dict, False),
    (None, "rerr_floor", float, False),
    ("geometry", "node_file", str, False), ("test", "node_file", str, False),
    ("sources", "placement", str, False), ("sources", "n", int, True),
    ("sources", "r", float, False), ("sources", "center", tuple, True),
    ("sources", "factor", float, True), ("sources", "dt", float, True),
] + [("operator", name, param.annotation, False)
     for name, param in inspect.signature(OperatorSpec).parameters.items()] + _SHARED_FIELDS


def _params(name):
    return {p: param.default for p, param in inspect.signature(BUILTINS[name]).parameters.items()
            if p not in ("seed", "train")}


# (built-in name or None for a custom config, field); the document and train
# fields are checked alike for every built-in, so one stands for them all
_CASES = [("example3", field) for field in _BUILTIN_FIELDS] + [
    (name, ("params", p, type(default), False))
    for name in sorted(BUILTINS) for p, default in _params(name).items()] + [
    (None, field) for field in _CUSTOM_FIELDS]

# any JSON value, half of the draws from the edges of the number types
_JSON = st.sampled_from([math.nan, math.inf, -math.inf, 2.0, 0.5, True, False, None, "1", [], {}]) \
    | st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
                   lambda children: st.lists(children, max_size=3)
                   | st.dictionaries(st.text(max_size=3), children, max_size=3),
                   max_leaves=6)


def _has_type(value, kind):
    """The JSON types a field takes, written out independently of the schema."""
    if kind is int:
        return type(value) is int
    if kind is float:
        return type(value) in (int, float) and math.isfinite(value)
    if kind is tuple:
        return type(value) is list and all(_has_type(v, float) for v in value)
    if kind is list:
        return type(value) is list and all(type(v) is str for v in value)
    return type(value) is kind


_MOCKS = {name: mock.create_autospec(fn) for name, fn in BUILTINS.items()}


def _mocked_run(path):
    """main(["run", path]) with every built-in and load_nodes mocked; returns
    the exit code and whether any of them was called."""
    with mock.patch.dict(BUILTINS, _MOCKS), mock.patch.object(runner, "load_nodes") as load:
        code = main(["run", str(path)])
    called = load.called or any(m.called for m in _MOCKS.values())
    for m in _MOCKS.values():
        m.reset_mock()
    return code, called


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(_CASES), data=st.data())
def test_a_wrong_typed_field_exits_2_naming_it(tmp_path, capsys, case, data):
    name, (section, field, json_type, nullable) = case
    value = data.draw(_JSON.filter(
        lambda v: not (_has_type(v, json_type) or v is None and nullable)
        # TrainConfig takes exactly its two optimizers and inits
        and not (section == "train" and v in ("adam", "lm", "uniform_pm1", "zeros"))))
    doc = json.loads(json.dumps({"builtin": name, "train": {}, "params": {}} if name else _CUSTOM))
    (doc if section is None else doc.setdefault(section, {}))[field] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    code, called = _mocked_run(cfg)
    err = capsys.readouterr().err
    assert code == 2 and not called
    assert (field if section is None else f"{section}.{field}") in err


_PROBES = [
    ({"builtin": "example2", "params": {"n_boundary": "x"}}, "params.n_boundary"),
    ({"builtin": "example2", "params": {"k": "x"}}, "params.k"),
    ({"builtin": "example9", "params": {"shift": "x"}}, "params.shift"),
    ({"builtin": "example5", "params": {"n_interior": "5"}}, "params.n_interior"),
    ({"builtin": "example10", "params": {"thickness_ratio": [1]}}, "params.thickness_ratio"),
    ({"builtin": "example2", "params": {"n_boundary": True}}, "params.n_boundary"),
    (_CUSTOM | {"rerr_floor": "x"}, "rerr_floor"),
    (_CUSTOM | {"operator": [1]}, "operator"),
    (_CUSTOM | {"operator": {"kind": "laplace", "dim": 2, "bogus": 1}}, "operator.bogus"),
    (_CUSTOM | {"operator": {"kind": "laplace", "dim": 2, "k": "x"}}, "operator.k"),
    (_CUSTOM | {"sources": {"placement": "scaled_circle", "n": 10, "r": "x"}}, "sources.r"),
    (_CUSTOM | {"sources": {"placement": "scaled_circle", "n": 10, "bogus": 1}},
     "sources.bogus"),
    (_CUSTOM | {"geometry": {"node_file": 5}}, "geometry.node_file"),
    (_CUSTOM | {"test": 5}, "test"),
    (_CUSTOM | {"params": {"k": 1.0}}, "params"),
    (_CUSTOM | {"kernels": "fundamental:laplace:2d"}, "kernels"),
    (_CUSTOM | {"operator": {"dim": 2}}, "operator.kind"),
    (_CUSTOM | {"sources": {"r": 3.0}}, "sources.placement"),
    ({"builtin": "example3", "kernels": ["fundamental:laplace:2d"]}, "kernels"),
    ({"builtin": "example99"}, "builtin"),
    ({"builtin": "example3", "train": {"optimizer": "sgd"}}, "train.optimizer"),
    ([1], "JSON object"),
    # a number beyond what a float, or an int size beyond what int64, holds
    ({"builtin": "example3", "train": {"tol": 10 ** 400}}, "train.tol"),
    ({"builtin": "example2", "params": {"k": 10 ** 400}}, "params.k"),
    ({"builtin": "example3", "params": {"n_boundary": 10 ** 400}}, "params.n_boundary"),
]


@pytest.mark.parametrize("doc, field", _PROBES)
def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys, doc, field):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert _mocked_run(cfg) == (2, False)
    assert field in capsys.readouterr().err


def test_every_builtin_parameter_has_a_json_typed_default():
    # the schema types params by their defaults: a parameter without an int,
    # float or str default would pass unchecked
    for name in BUILTINS:
        for param, default in _params(name).items():
            assert type(default) in (int, float, str), (name, param, default)


@pytest.mark.parametrize("doc", [
    {"builtin": "example2", "params": {"n_boundary": "x"}},
    _CUSTOM | {"operator": {"kind": "laplace", "dim": 2, "bogus": 1}},
    _CUSTOM | {"test": 5},
])
def test_process_exit_code_is_2_without_a_traceback(tmp_path, doc):
    proc = _run_process(tmp_path, doc)
    assert proc.returncode == 2
    assert "validation error" in proc.stderr and "Traceback" not in proc.stderr


def _run_process(tmp_path, doc):
    """`python -m pikfnn.cli run` on doc written to tmp_path."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(os.path.abspath(pikfnn.__file__)))
    return subprocess.run([sys.executable, "-m", "pikfnn.cli", "run", str(cfg)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("sources", [
    {"placement": "scaled_circle", "n": 10, "r": 3.0, "center": [1, 2, 3]},
    {"placement": "inflated", "factor": 2.0, "center": [1, 2, 3]},
])
def test_a_center_of_the_wrong_length_exits_2_naming_it(tmp_path, sources):
    # type-correct, so the schema passes it; gen_sources checks the length
    points, normals = gen_boundary("circle", 20)
    save_nodes(tmp_path / "b.txt", CollocationSet(points, ["D"] * 20, np.zeros(20)))
    proc = _run_process(tmp_path, _CUSTOM | {"sources": sources})
    assert proc.returncode == 2
    assert "center" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("rerr_floor", [1, -0.5])
def test_a_rerr_floor_outside_0_1_exits_2_naming_it(tmp_path, rerr_floor):
    # 1 guards every test point (max_rerr NaN), -0.5 none, so the zero value
    # at (r, 0) divides (Infinity); neither is JSON for summary.json
    points, _ = gen_boundary("circle", 40)
    save_nodes(tmp_path / "b.txt", CollocationSet(points, ["D"] * 40,
                                                  points[:, 0] * points[:, 1]))
    proc = _run_process(tmp_path, _CUSTOM | {"rerr_floor": rerr_floor})
    assert proc.returncode == 2
    assert f"rerr_floor must be in [0, 1), got {rerr_floor}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_an_int_too_long_to_read_exits_2(tmp_path, capsys):
    # Python reads no int of more than 4300 digits
    cfg = tmp_path / "c.json"
    cfg.write_text('{"builtin": "example3", "train": {"tol": 1' + "0" * 5000 + "}}")
    assert _mocked_run(cfg) == (2, False)
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["tol", "lr", "lambda_down", "loss_goal"])
def test_train_numbers_beyond_the_float_range_are_rejected(name):
    with pytest.raises(ConfigurationError, match=name):
        TrainConfig(**{name: 10 ** 400})


@pytest.mark.parametrize("extra", [{"train": {"tol": 1e-3}}, {"n_boundary": 40}])
def test_run_benchmark_rejects_train_or_params_for_a_setup(extra):
    with pytest.raises(ConfigurationError, match="built-in name only"):
        runner.run_benchmark(BUILTINS["example3"](), **extra)


def test_run_benchmark_checks_a_builtin_name_and_its_params():
    with pytest.raises(ConfigurationError, match="params.n_boundary"):
        runner.run_benchmark("example3", n_boundary="40")
    with pytest.raises(ConfigurationError, match="train.max_iters"):
        runner.run_benchmark("example3", train={"max_iters": 0})


def _write_nodes(path, points, times=None):
    save_nodes(path, CollocationSet(points, ["D"] * len(points), np.zeros(len(points)),
                                    times=times))


@pytest.mark.parametrize("dim, fields, section", [
    # 3D sources for 2D rows: placed on a sphere, or read from a node file
    (2, {"sources": {"placement": "scaled_sphere", "n": 40, "r": 3.0}}, "sources"),
    (2, {"sources": {"node_file": "n3.txt"}}, "sources"),
    # 2D sources for 3D rows
    (3, {"sources": {"placement": "scaled_circle", "n": 40, "r": 3.0}}, "sources"),
    # rows or test points of another dimension than the operator's
    (2, {"geometry": {"node_file": "n3.txt"}}, "geometry"),
    (2, {"test": {"node_file": "n3.txt"}}, "test"),
])
def test_nodes_of_another_dimension_exit_2_naming_them(tmp_path, capsys, dim, fields, section):
    rng = np.random.default_rng(0)
    _write_nodes(tmp_path / "b.txt", rng.uniform(-1.0, 1.0, size=(30, dim)))
    _write_nodes(tmp_path / "n3.txt", np.column_stack([rng.uniform(-3.0, 3.0, size=(40, 2)),
                                                       np.full(40, 50.0)]))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_CUSTOM | {
        "kernels": [f"fundamental:laplace:{dim}d"], "operator": {"kind": "laplace", "dim": dim},
        } | fields))
    with mock.patch("pikfnn.cli.run_benchmark") as run:  # rejected before the run
        assert main(["run", str(cfg)]) == 2
    assert not run.called
    err = capsys.readouterr().err
    assert f"validation error: {section}: " in err and "Traceback" not in err


_STRUCTURAL = "time-fundamental:structural-diffusion:2d?d=0.8&alpha=0.7&beta=1.3&st=power&sx=power"


@pytest.mark.parametrize("point, dt, message", [
    # a row at x1 = -0.5: the spatial map x^1.3 is undefined there
    ((-0.5, 0.3), 0.5, "structural map 'power' (exponent 1.3) needs arguments >= 0, got -0.5"),
    # dt = 1 puts the row at t = 0.5 a source at tau = -0.5, where t^0.7 is undefined
    ((0.5, 0.3), 1.0, "structural map 'power' (exponent 0.7) needs arguments >= 0, got -0.5"),
])
def test_structural_map_outside_its_domain_exits_2_naming_it(tmp_path, capsys, point, dt,
                                                            message):
    points = np.array([point, (0.2, 0.4), (0.6, 0.7)])
    _write_nodes(tmp_path / "b.txt", points, times=[0.5, 1.0, 1.5])
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_CUSTOM | {
        "kernels": [_STRUCTURAL], "operator": None,
        "sources": {"placement": "same_nodes_with_delay", "dt": dt}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN from the map first
        assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"validation error: {message}" in err and "Traceback" not in err
