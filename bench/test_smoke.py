"""Smoke test: every workload at a tiny size, untraced and traced.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
Checks that each run passes its own output checks and emits exactly the
metrics BENCHMARK.json names, each with its declared unit, and that the
benchmark fails without printing a result where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload the runner knows, including rough_smile, which
# BENCHMARK.json does not gate
WORKLOADS = ["rough_smile", "markov_smile", "cli_skew"]


def _run(workload: str, trace: int) -> dict:
    r = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1 + trace
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if workload == "cli_skew" and trace:
        # five maturities, each simulated three times by the CLI's timing loop
        assert res["metrics"]["sim_core.increments_calls"]["value"] == 15
        assert res["metrics"]["cli.useful_sim_fraction"]["value"] == pytest.approx(1 / 3)


def test_missing_program_fails_without_result():
    # a copy of the benchmark alone, without src/
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    r = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert r.returncode != 0
    assert r.stdout.strip() == ""
