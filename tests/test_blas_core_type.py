"""The golden pins hold on OpenBLAS's baseline x86-64 kernels too."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BLAS = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif(
    "openblas" not in BLAS.lower() or platform.machine() not in ("x86_64", "AMD64"),
    reason="OPENBLAS_CORETYPE selects the kernels of x86-64 OpenBLAS only",
)
def test_golden_pins_hold_on_prescott_kernels():
    # Prescott is the x86-64 baseline, which any x86-64 CPU can run; the
    # pins were taken on the kernels OpenBLAS picks for the host CPU
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.getenv("PYTHONPATH")]))
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/test_golden.py::test_cli_key_numbers_are_pinned",
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Prescott"),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
