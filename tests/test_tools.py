"""The measurement tools under tools/ still find the stages they report."""

import os
import subprocess
import sys

import pytest

import pikfnn

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


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
