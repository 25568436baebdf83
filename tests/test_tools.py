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
    # the tool finds assembly and eigendecomposition by patching
    # runner.assemble and np.linalg.eigh by name; a rename drops a line
    src = os.path.dirname(os.path.dirname(os.path.abspath(pikfnn.__file__)))
    proc = subprocess.run([sys.executable, os.path.join(_TOOLS, "stage_rss.py"), "example3",
                           "--seed", "0"], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    stages = [line.split(" peak ")[0].strip() for line in proc.stdout.splitlines()]
    assert list(dict.fromkeys(stages)) == [
        "import", "set-up", "assembly", "eigendecomposition", "run"]
