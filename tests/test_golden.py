"""Pinned key numbers of small CLI runs, one case per command and model.

Each case runs one command in-process on a few hundred paths (600: two
full 256-path blocks and a short one, so a pool of two threads runs two
workers) and compares the key numbers of its artifacts with the values
below, at rtol 1e-12: moments for simulate, implied vols for smile, the
RMSE table for compare, the power law and psi for skew, and the errors of
fit-kernel.  A change that moves any Monte Carlo bit, or any bit of a
kernel, moves one of them; a change meant to keep every bit keeps them all.
The pins hold, as chosen below, across OpenBLAS's CPU-specific kernels,
which the least-squares kernel fit runs through.  The Monte Carlo cases
also run at --threads 1 and 2, whose artifacts must match byte for byte.
"""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from roughvol import cli

TABLE1 = {"xi0": 0.026, "eta": 1.9, "H": 0.07, "rho": -0.9}
LS = {"n": 3}
BASE = {
    "schema_version": 1,
    "params": TABLE1,
    "grid": {"T": 1.0, "N": 16},
    "paths": 600,
    "seed": 3,
    "strikes": [-0.1, -0.05, 0.0, 0.05, 0.1],
}
MODELS = {
    "rbergomi": {"model": "rbergomi"},
    "abergomi-ls": {"model": "abergomi", "kernel": LS},
    "bs": {"model": "bs", "params": {"vol": 0.2}},
}
# unsorted, so the first side's field (T = 0.5) is scaled both down and up
SKEW = {"maturities": [0.5, 0.25, 1.0], "bump": 0.05}
# Least squares at n = 3 only: its n = 2 and n = 4 fits move by about 2e-9
# between OpenBLAS's kernels for different CPUs, n = 3 by less than 1e-13.
# Its RMSE against rBergomi is a near-cancelling difference of smiles, and
# at N >= 16 even that moves it by about 1e-12, so the steps stay coarse.
COMPARE_STEPS = [4, 8]
TWO_FACTOR = {
    "schema_version": 1,
    "model": "bergomi2f",
    "params": {
        "omega": 2.0, "theta": 0.3, "kappa_X": 8.0, "kappa_Y": 0.5,
        "rho_SX": -0.7, "rho_SY": -0.6, "rho_XY": 0.2,
    },
    "maturities": [0.3, 0.6, 1.2],
}

# id -> (command, config)
CASES = {
    **{f"simulate-{m}": ("simulate", dict(BASE, **c)) for m, c in MODELS.items()},
    **{f"smile-{m}": ("smile", dict(BASE, **c)) for m, c in MODELS.items()},
    "compare-ls": ("compare", dict(BASE, compare={"terms": [3], "steps": COMPARE_STEPS})),
    **{
        f"skew-{m}": ("skew", dict(BASE, **MODELS[m], **SKEW))
        for m in ("rbergomi", "abergomi-ls")
    },
    "skew-bergomi2f": ("skew", TWO_FACTOR),
    "fit-kernel-ls": ("fit-kernel", {"schema_version": 1, "fit": {"H": 0.07, **LS}}),
}


def _csv_column(path: str, column: str) -> list:
    with open(path, encoding="utf-8") as fh:
        next(fh)  # the config_sha256 comment line
        return [float(row[column]) for row in csv.DictReader(fh)]


def key_numbers(command: str, out: str) -> list:
    """The pinned numbers of one run's artifacts in directory out."""
    [name] = [f for f in os.listdir(out) if f.endswith((".csv", ".json"))
              and not f.startswith(("paths_", "smile_summary_"))]
    path = os.path.join(out, name)
    if command == "smile":
        return _csv_column(path, "implied_vol")
    if command == "compare":
        return _csv_column(path, "rmse")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if command == "simulate":
        return [doc["moments"][k] for k in sorted(doc["moments"])]
    if command == "skew":
        return [doc["exponent"], doc["intercept"], *doc["psi"]]
    return [doc["l2_error"], doc["rmse"]]


def run(command: str, config: dict, out: str, *flags: str) -> dict:
    """Run one command into out; return its artifacts, name -> bytes."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    assert cli.main([command, "--config", path, "--out", out, *flags]) == 0
    os.remove(path)
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


def run_case(case: str, out: str) -> list:
    command, config = CASES[case]
    run(command, config, out)
    return key_numbers(command, out)


# recorded from the CLI; every value is a repr, so it round-trips exactly
PINNED = {
    "compare-ls": [
        2.1522483558011556e-05,
        9.676890561393485e-06,
    ],
    "fit-kernel-ls": [
        0.5524060162951481,
        0.00699016289429363,
    ],
    "simulate-abergomi-ls": [
        -0.009198601264390621,
        1.0023096360238355,
        0.018735283401259035,
        0.02494694044508028,
    ],
    "simulate-bs": [
        -0.02000000000000001,
        1.0009985685522838,
        0.040000000000000015,
        0.042112797992351604,
    ],
    "simulate-rbergomi": [
        -0.009183815825089274,
        1.0023249234767828,
        0.018700893095681865,
        0.024946470520574356,
    ],
    "skew-abergomi-ls": [
        -0.42333344069727563,
        -1.2232367548095482,
        0.39949743906541796,
        0.5259757247360591,
        0.2924782483433827,
    ],
    "skew-bergomi2f": [
        -0.41729954753197723,
        -1.8469382921790367,
        0.25907404313697235,
        0.19759610462522736,
        0.1452728781402496,
    ],
    "skew-rbergomi": [
        -0.42311033654106844,
        -1.2229013652207226,
        0.39946081112053305,
        0.5260611075036686,
        0.2926162156645115,
    ],
    "smile-abergomi-ls": [
        0.1679865798178079,
        0.15385882870122974,
        0.13908676791654173,
        0.12461100386689147,
        0.11539478926947394,
    ],
    "smile-bs": [
        0.209951505722337,
        0.21102944832159415,
        0.21074198197479999,
        0.20860286183725502,
        0.20736270482873098,
    ],
    "smile-rbergomi": [
        0.16802231739078533,
        0.15390790574220115,
        0.1391166671409586,
        0.12464628417574994,
        0.11541433990337308,
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_key_numbers_are_pinned(case, tmp_path):
    np.testing.assert_allclose(run_case(case, str(tmp_path)), PINNED[case], rtol=1e-12)


# The Monte Carlo cases, plus the rBergomi skew at N = 100, whose
# convolution runs the FFT length of 256 (N = 16 runs 64).
WIDTH_CASES = {
    **{c: CASES[c] for c in CASES if "paths" in CASES[c][1]},
    "skew-rbergomi-N100": (
        "skew", dict(CASES["skew-rbergomi"][1], grid={"T": 1.0, "N": 100})
    ),
}


@pytest.mark.parametrize("case", sorted(WIDTH_CASES))
def test_artifacts_are_byte_identical_at_any_pool_width(case, tmp_path, monkeypatch):
    # Two usable CPUs even on a one-core machine, so --threads 2 runs a pool.
    # 600 paths are three blocks, so the two workers stride; 601 leave an
    # odd last block, whose unpaired last row runs at both widths.  Both
    # widths write into one directory: the simulate summary embeds it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    command, config = WIDTH_CASES[case]
    runs = {}
    for paths in (600, 601):
        out, cfg = str(tmp_path / str(paths)), dict(config, paths=paths)
        runs[paths] = run(command, cfg, out, "--threads", "1")
        assert run(command, cfg, out, "--threads", "2") == runs[paths], paths
    if command == "simulate":  # a run's paths are a prefix of a longer run's
        [name] = [f for f in runs[600] if f.startswith("paths_")]
        rows = runs[600][name].splitlines()[2:]  # after the hash line and header
        assert runs[601][name].splitlines()[2:602] == rows
