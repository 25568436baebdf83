import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import pikfnn
from pikfnn import runner
from pikfnn.benchmarks import BUILTINS
from pikfnn.cli import main
from pikfnn.geometry import (
    CollocationSet,
    gen_boundary,
    save_nodes,
)


def test_list_kernels(capsys):
    assert main(["list-kernels"]) == 0
    out = capsys.readouterr().out
    assert "fundamental:laplace:2d" in out
    assert "elasto-disp:2d" in out


def test_bench_writes_outputs(tmp_path, capsys):
    code = main(["bench", "example3", "--out", str(tmp_path), "--seed", "1",
                 "--tol", "1e-6", "--quiet"])
    assert code == 0
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "field.csv").exists()
    assert (tmp_path / "loss.csv").exists()
    # strict JSON: no NaN or Infinity
    summary = json.loads((tmp_path / "summary.json").read_text(),
                         parse_constant=lambda name: pytest.fail(f"summary.json holds {name}"))
    assert summary["name"] == "example3"
    assert summary["seed"] == 1


def test_bench_rerun_byte_identical(tmp_path):
    main(["bench", "example7", "--out", str(tmp_path / "r1"), "--quiet"])
    main(["bench", "example7", "--out", str(tmp_path / "r2"), "--quiet"])
    assert (tmp_path / "r1" / "field.csv").read_bytes() == \
        (tmp_path / "r2" / "field.csv").read_bytes()
    assert (tmp_path / "r1" / "loss.csv").read_bytes() == \
        (tmp_path / "r2" / "loss.csv").read_bytes()


def test_bench_rejects_unknown_name():
    with pytest.raises(SystemExit):
        main(["bench", "example99"])


def test_verify_kernels_filter(capsys):
    # the pass count is the command's output; the per-entry lines are logged
    code = main(["verify-kernels", "fundamental:laplace", "--points", "10"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "3/3 kernels passed\n"
    assert "pass  fundamental:laplace:2d" in captured.err


def test_quiet_logs_only_warnings(tmp_path, capsys):
    assert main(["verify-kernels", "fundamental:laplace:2d", "--points", "10", "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(["bench", "example3", "--out", str(tmp_path), "--tol", "1e-6"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[example3] trained" in captured.err
    assert f"outputs written to {tmp_path}" in captured.err
    assert main(["bench", "example3", "--out", str(tmp_path), "--tol", "1e-6", "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("flags, named", [(["--points", "0"], "n_points"),
                                          (["--points", "-5"], "n_points"),
                                          (["--seed", "-1"], "seed")])
def test_verify_kernels_rejects_points_below_1_and_a_negative_seed(flags, named):
    # zero points would pass every entry on no residual at all
    src = os.path.dirname(os.path.dirname(os.path.abspath(pikfnn.__file__)))
    proc = subprocess.run([sys.executable, "-m", "pikfnn.cli", "verify-kernels", *flags],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert f"{named} must be an int >= " in proc.stderr and flags[1] in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_verify_kernels_no_match(capsys):
    code = main(["verify-kernels", "nonsense-kernel"])
    assert code == 2
    assert "no kernels matched" in capsys.readouterr().err


def test_run_custom_config(tmp_path):
    # tiny exterior Laplace problem driven entirely by node files
    pts, _ = gen_boundary("circle", 60, r=2.0)

    def exact(p):
        return (p[:, 0] + p[:, 1]) / (p[:, 0] ** 2 + p[:, 1] ** 2)

    colloc = CollocationSet(pts, ["D"] * 60, exact(pts))
    save_nodes(tmp_path / "boundary.txt", colloc)
    rng = np.random.default_rng(0)
    th = rng.uniform(0, 2 * np.pi, 80)
    rad = rng.uniform(3.0, 5.0, 80)
    test_pts = np.column_stack([rad * np.cos(th), rad * np.sin(th)])
    test = CollocationSet(test_pts, ["D"] * 80, exact(test_pts))
    save_nodes(tmp_path / "test.txt", test)
    config = {
        "name": "custom-exterior",
        "kernels": ["fundamental:laplace:2d"],
        "geometry": {"node_file": "boundary.txt"},
        "sources": {"placement": "scaled_circle", "n": 60, "r": 0.5},
        "test": {"node_file": "test.txt"},
        "train": {"optimizer": "lm", "tol": 1e-8, "lambda_down": 0.01},
    }
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["run", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["l2"] <= 1e-5


def test_run_missing_config_exits_2(capsys):
    assert main(["run", "/nonexistent/config.json"]) == 2
    assert "validation error" in capsys.readouterr().err


def test_run_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "bogus_field": 1}))
    assert main(["run", str(bad)]) == 2
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2


def test_config_missing_node_file_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "name": "x",
        "kernels": ["fundamental:laplace:2d"],
        "geometry": {"node_file": "missing.txt"},
        "sources": {"placement": "scaled_circle", "n": 10, "r": 0.5},
        "test": {"node_file": "missing.txt"},
    }))
    assert main(["run", str(cfg)]) == 2


def test_config_unknown_kernel_exits_2(tmp_path):
    boundary, _ = gen_boundary("circle", 10, r=1.0)
    colloc = CollocationSet(boundary, ["D"] * 10, np.zeros(10))
    save_nodes(tmp_path / "b.txt", colloc)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "name": "x",
        "kernels": ["fundamental:nonsense:2d"],
        "geometry": {"node_file": "b.txt"},
        "sources": {"placement": "scaled_circle", "n": 10, "r": 3.0},
        "test": {"node_file": "b.txt"},
    }))
    assert main(["run", str(cfg)]) == 2


def test_kernel_dim_mismatch_before_compute(tmp_path):
    # mismatched kernel dim is caught at validation (exit 2), not mid-pipeline
    boundary, _ = gen_boundary("circle", 10, r=1.0)
    colloc = CollocationSet(boundary, ["D"] * 10, np.zeros(10))
    save_nodes(tmp_path / "b.txt", colloc)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "name": "x",
        "operator": {"kind": "laplace", "dim": 2},
        "kernels": ["fundamental:laplace:3d"],
        "geometry": {"node_file": "b.txt"},
        "sources": {"placement": "scaled_circle", "n": 10, "r": 3.0},
        "test": {"node_file": "b.txt"},
    }))
    assert main(["run", str(cfg)]) == 2


@pytest.mark.parametrize("config, key, valid", [
    ({"builtin": "example3", "train": {"optimiser": "lm"}}, "optimiser", "optimizer"),
    ({"builtin": "example3", "params": {"n_boundry": 40}}, "n_boundry", "n_boundary"),
    # the loss groups follow the rows, and LM always damps by Marquardt's diagonal
    ({"builtin": "example3", "train": {"loss_mode": "boundary_only"}}, "loss_mode", "lambda_down"),
    ({"builtin": "example3", "train": {"lm_marquardt_scaling": True}}, "lm_marquardt_scaling",
     "lambda_down"),
    # boundary values come from the node files or the built-in, never from a bc section
    ({"builtin": "example3", "bc": {"value": 0.0}}, "bc", "geometry"),
])
def test_builtin_config_with_unknown_key_exits_2(tmp_path, capsys, config, key, valid):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err and valid in err


@pytest.mark.parametrize("train", [{"optimiser": "lm"}, {"loss_mode": "boundary_only"},
                                   {"lm_marquardt_scaling": True}])
def test_custom_config_with_unknown_train_key_exits_2(tmp_path, capsys, train):
    boundary, _ = gen_boundary("circle", 10, r=1.0)
    colloc = CollocationSet(boundary, ["D"] * 10, np.zeros(10))
    save_nodes(tmp_path / "b.txt", colloc)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "name": "x",
        "kernels": ["fundamental:laplace:2d"],
        "geometry": {"node_file": "b.txt"},
        "sources": {"placement": "scaled_circle", "n": 10, "r": 3.0},
        "test": {"node_file": "b.txt"},
        "train": train,
    }))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and next(iter(train)) in err
    assert "'optimizer'" in err and "'lambda_down'" in err


def test_run_reports_and_overrides_the_config_seed(tmp_path):
    # summary.json names the seed the problem was built with, and --seed
    # overrides the config's seed, 0 included
    runs = []

    def run(config_seed, *flags):
        cfg = tmp_path / f"c{len(runs)}.json"
        cfg.write_text(json.dumps({"builtin": "example3", "seed": config_seed,
                                   "params": {"n_boundary": 40}}))
        out = tmp_path / f"out{len(runs)}"
        assert main(["run", str(cfg), "--out", str(out), "--quiet", *flags]) == 0
        summary = json.loads((out / "summary.json").read_text())
        runs.append((summary["seed"], summary["config_hash"], (out / "loss.csv").read_bytes()))
        return runs[-1]

    seed3, seed0 = run(3), run(0)
    assert seed3[0] == 3 and seed0[0] == 0
    assert seed3[1] != seed0[1] and seed3[2] != seed0[2]
    assert run(3, "--seed", "0") == seed0
    assert run(0, "--seed", "3") == seed3


@pytest.mark.parametrize("max_iters", [-1, 0, 1.5, True, "10"])
def test_config_with_bad_max_iters_exits_2(tmp_path, capsys, max_iters):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"builtin": "example3", "train": {"max_iters": max_iters}}))
    assert main(["run", str(cfg)]) == 2
    assert "max_iters must be an int >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("header, row", [
    ("time=0", "nan,0,D,1.0"),   # coordinate
    ("time=0", "0,-inf,D,1.0"),
    ("time=1", "0,0,inf,D,1.0"),  # time
    ("time=0", "0,0,D,nan"),     # value
])
def test_node_file_with_non_finite_cell_exits_2(tmp_path, capsys, header, row):
    time_cell = "0.5," if header == "time=1" else ""
    (tmp_path / "b.txt").write_text(f"# dim=2 {header} normals=0 kind_col=1\n"
                                    f"1,0,{time_cell}D,1.0\n{row}\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "name": "x",
        "kernels": ["fundamental:laplace:2d"],
        "geometry": {"node_file": "b.txt"},
        "sources": {"placement": "scaled_circle", "n": 10, "r": 3.0},
        "test": {"node_file": "b.txt"},
    }))
    assert main(["run", str(cfg)]) == 2
    assert "line 3: coordinates, time and value must be finite" in capsys.readouterr().err


def _custom_config(tmp_path, **fields):
    """A custom config on a 10-node circle, with the given fields replaced."""
    boundary, _ = gen_boundary("circle", 10, r=1.0)
    save_nodes(tmp_path / "b.txt", CollocationSet(boundary, ["D"] * 10, np.zeros(10)))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "name": "x",
        "kernels": ["fundamental:laplace:2d"],
        "geometry": {"node_file": "b.txt"},
        "sources": {"placement": "scaled_circle", "n": 10, "r": 3.0},
        "test": {"node_file": "b.txt"},
        **fields,
    }))
    return cfg


_BAD_TRAIN = [
    ({"seed": "a"}, "seed must be an int >= 0"),
    ({"seed": True}, "seed must be an int >= 0"),
    ({"seed": 1.5}, "seed must be an int >= 0"),
    ({"seed": -1}, "seed must be an int >= 0"),
    ({"train": {"seed": "a"}}, "seed must be an int >= 0"),
    ({"train": {"tol": "1e-8"}}, "tol must be a finite number"),
    ({"train": {"tol": float("nan")}}, "tol must be a finite number"),
    ({"train": {"lr": None}}, "lr must be a finite number"),
    ({"train": {"lr": float("inf")}}, "lr must be a finite number"),
    ({"train": {"lambda_down": "x"}}, "lambda_down must be a finite number"),
    ({"train": {"lambda_down": 0}}, "lambda_down must be in (0, 1]"),
    ({"train": {"lambda_down": 1.5}}, "lambda_down must be in (0, 1]"),
    ({"train": {"loss_goal": "x"}}, "loss_goal must be a finite number"),
    ({"train": {"loss_goal": float("-inf")}}, "loss_goal must be a finite number"),
]


@pytest.mark.parametrize("fields, message", _BAD_TRAIN)
def test_builtin_config_with_bad_train_value_exits_2_before_set_up(tmp_path, capsys,
                                                                    fields, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"builtin": "example3", **fields}))
    built = mock.create_autospec(BUILTINS["example3"])
    with mock.patch.dict(BUILTINS, {"example3": built}):
        assert main(["run", str(cfg)]) == 2
    assert not built.called
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", _BAD_TRAIN)
def test_custom_config_with_bad_train_value_exits_2_before_set_up(tmp_path, capsys,
                                                                   fields, message):
    cfg = _custom_config(tmp_path, **fields)
    with mock.patch.object(runner, "load_nodes") as load:
        assert main(["run", str(cfg)]) == 2
    assert not load.called
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("n", [None, 0, "10"])
def test_custom_config_scaled_circle_without_n_exits_2(tmp_path, capsys, n):
    sources = {"placement": "scaled_circle", "r": 3.0} | ({} if n is None else {"n": n})
    assert main(["run", str(_custom_config(tmp_path, sources=sources))]) == 2
    assert "scaled_circle placement needs n" in capsys.readouterr().err
