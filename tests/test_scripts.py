"""The experiment scripts run to completion at small sizes."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [
    ["closure_survey.py", "--graphs-per-size", "2", "--max-vertices", "4"],
    ["steering_trials.py", "--trials", "1"],
    ["switch_tracking_demo.py"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(argv):
    # one BLAS thread: these matrices are tiny and threads only add jitter
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
