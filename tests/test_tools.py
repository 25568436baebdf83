"""The measurement tools under tools/ still find the stages they report,
and the benchmark worker still runs on the package's API."""

import json
import os
import subprocess
import sys

import pytest

import pikfnn

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TOOLS = os.path.join(_ROOT, "tools")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="stage_rss reads /proc/self/statm")
def test_stage_rss_reports_every_stage():
    # the tool finds assembly, eigendecomposition and forward by patching
    # runner.assemble, np.linalg.eigh and runner.forward by name; a rename
    # drops a line.  Every line carries the stage's seconds, and run's
    # include those of the stages inside it
    src = os.path.dirname(os.path.dirname(os.path.abspath(pikfnn.__file__)))
    proc = subprocess.run([sys.executable, os.path.join(_TOOLS, "stage_rss.py"), "example3",
                           "--seed", "0"], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert list(dict.fromkeys(line[0] for line in lines)) == [
        "import", "set-up", "assembly", "eigendecomposition", "forward", "run"]
    assert all(line[2] == "s" and line[3] == "peak" for line in lines)
    seconds = {line[0]: float(line[1]) for line in lines}
    assert all(value > 0.0 for value in seconds.values())
    assert seconds["run"] >= seconds["assembly"] + seconds["eigendecomposition"] \
        + seconds["forward"]


@pytest.mark.parametrize("op", ["example3", "example10", "verify-sweep"])
def test_benchmark_worker_runs_every_check(op, tmp_path):
    # perfbench/worker.py calls run_benchmark, result.extras["sigma"],
    # build_verify_entries and verify_kernels by name; an API change that
    # breaks it fails here, not as failed benchmark operations
    from pikfnn.runner import build_verify_entries

    src = os.path.dirname(os.path.dirname(os.path.abspath(pikfnn.__file__)))
    proc = subprocess.run([sys.executable, os.path.join(_ROOT, "perfbench", "worker.py"),
                           "--op", op, "--seed", "0", "--out", str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    report = json.loads(proc.stdout.splitlines()[-1])
    checks = report["checks"]
    assert len(checks) == (len(build_verify_entries()) if op == "verify-sweep" else 1)
    assert all(check["failed"] == 0 for check in checks), checks
