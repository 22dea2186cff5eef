"""Every demo runs to the end, with numpy's RuntimeWarnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_without_runtime_warnings(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.getenv("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
