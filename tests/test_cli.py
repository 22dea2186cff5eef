"""End-to-end checks of the batch front-end, run in-process via cli.main()."""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import roughvol as rv
from roughvol import cli


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def bs_config(**over):
    cfg = {
        "schema_version": 1,
        "model": "bs",
        "params": {"vol": 0.2},
        "grid": {"T": 0.25, "N": 10},
        "paths": 64,
        "seed": 11,
    }
    cfg.update(over)
    return cfg


def table1_config(**over):
    cfg = {
        "schema_version": 1,
        "model": "rbergomi",
        "params": {"xi0": 0.026, "eta": 1.9, "H": 0.07, "rho": -0.9},
        "grid": {"T": 0.25, "N": 8},
        "paths": 500,
        "seed": 5,
    }
    cfg.update(over)
    return cfg


TWO_FACTOR_PARAMS = {
    "omega": 2.0, "theta": 0.3, "kappa_X": 8.0, "kappa_Y": 0.5,
    "rho_SX": -0.7, "rho_SY": -0.6, "rho_XY": 0.2,
}
SMALL_KERNEL = {"n": 3}


def two_factor_config(**over):
    cfg = {
        "schema_version": 1,
        "model": "bergomi2f",
        "params": dict(TWO_FACTOR_PARAMS),
        "maturities": [0.3, 0.6, 1.2],
        "seed": 0,
    }
    cfg.update(over)
    return cfg


def fit_config(**over):
    cfg = {"schema_version": 1, "fit": {"H": 0.07, "n": 3}, "seed": 0}
    cfg.update(over)
    return cfg


def without(cfg, *keys):
    return {k: v for k, v in cfg.items() if k not in keys}


# ---------------------------------------------------------------------------
# determinism and reproducibility


def test_simulate_is_byte_identical_across_output_dirs(tmp_path):
    cfg = write_config(tmp_path, bs_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0

    csv_a = (out_a / "paths_bs_T0.25_N10.csv").read_bytes()
    csv_b = (out_b / "paths_bs_T0.25_N10.csv").read_bytes()
    assert csv_a == csv_b

    sum_a = json.loads((out_a / "summary_bs_T0.25_N10.json").read_text())
    sum_b = json.loads((out_b / "summary_bs_T0.25_N10.json").read_text())
    # the destination is the only run-specific field
    for doc in (sum_a, sum_b):
        doc["config"].pop("out_dir")
    assert sum_a == sum_b


def test_artifacts_get_the_mode_a_plain_open_gives(tmp_path):
    cfg = write_config(tmp_path, bs_config(out_dir=str(tmp_path / "out")))
    old = os.umask(0o022)
    try:
        assert cli.main(["simulate", "--config", cfg]) == 0
    finally:
        os.umask(old)
    for name in ("paths_bs_T0.25_N10.csv", "summary_bs_T0.25_N10.json"):
        assert (tmp_path / "out" / name).stat().st_mode & 0o777 == 0o644
    assert not list((tmp_path / "out").glob(".roughvol-*"))


def test_json_artifacts_write_nan_as_null(tmp_path):
    doc = {"a": np.float64("nan"), "b": [float("nan"), np.float32(1.5)], "c": np.int64(2)}
    assert json.dumps(cli._jsonify(doc), allow_nan=False) == (
        '{"a": null, "b": [null, 1.5], "c": 2}'
    )
    run = cli._Run("simulate", {"seed": 0}, "0" * 64, str(tmp_path))
    with pytest.raises(ValueError):  # an invalid document is never written
        run.write_json("bad.json", {"x": float("inf")})
    assert not list(tmp_path.iterdir())


def test_seed_flag_is_equivalent_to_config_seed(tmp_path):
    cfg_seeded = write_config(tmp_path, bs_config(seed=7), name="seeded.json")
    cfg_zero = write_config(tmp_path, bs_config(seed=0), name="zero.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg_seeded, "--out", str(out_a)]) == 0
    assert (
        cli.main(["simulate", "--config", cfg_zero, "--seed", "7", "--out", str(out_b)])
        == 0
    )
    name = "paths_bs_T0.25_N10.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_config_hash_ignores_out_dir_but_not_seed():
    raw = bs_config()
    a = cli.resolve_config(raw, "simulate", {"out_dir": "x"})
    b = cli.resolve_config(raw, "simulate", {"out_dir": "y"})
    c = cli.resolve_config(raw, "simulate", {"seed": 12, "out_dir": "x"})
    assert cli.config_sha(a) == cli.config_sha(b)
    assert cli.config_sha(a) != cli.config_sha(c)


# ---------------------------------------------------------------------------
# artifact schemas


def test_paths_csv_schema(tmp_path):
    cfg = write_config(tmp_path, bs_config(out_dir=str(tmp_path)))
    assert cli.main(["simulate", "--config", cfg]) == 0
    raw = (tmp_path / "paths_bs_T0.25_N10.csv").read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert re.fullmatch(r"# config_sha256=[0-9a-f]{64} seed=11", lines[0])
    assert lines[1] == "path,log_price_T"
    assert len(lines) == 2 + 64
    ids = [int(line.split(",")[0]) for line in lines[2:]]
    vals = [float(line.split(",")[1]) for line in lines[2:]]
    assert ids == list(range(64))
    assert np.all(np.isfinite(vals))


def test_smile_csv_schema_and_summary(tmp_path):
    cfg = write_config(
        tmp_path,
        bs_config(
            paths=4000,
            steps=[8, 10],
            strikes={"min": -0.1, "max": 0.1, "count": 5},
            out_dir=str(tmp_path),
        ),
    )
    assert cli.main(["smile", "--config", cfg]) == 0
    for n_steps in (8, 10):
        lines = (tmp_path / f"smile_bs_T0.25_N{n_steps}.csv").read_text().splitlines()
        assert lines[1] == "log_moneyness,strike,implied_vol,price,stderr"
        assert len(lines) == 2 + 5
        for line in lines[2:]:
            k, strike, vol, price, stderr = map(float, line.split(","))
            assert strike == pytest.approx(np.exp(k), rel=1e-15)
            assert vol == pytest.approx(0.2, abs=0.05)
            assert price > 0 and stderr > 0
    summary = json.loads((tmp_path / "smile_summary_bs_T0.25.json").read_text())
    assert summary["files"] == ["smile_bs_T0.25_N8.csv", "smile_bs_T0.25_N10.csv"]
    assert summary["skipped"] == {}
    assert "strikes_defaulted" not in summary


def smile_with_steps(tmp_path, grid):
    """The files of an aBergomi smile on steps [8, 16] and the given grid.

    The summary embeds out_dir, so every run writes to the same one.
    """
    out = tmp_path / "out"
    body = table1_config(model="abergomi", kernel=SMALL_KERNEL, steps=[8, 16])
    cfg = write_config(tmp_path, dict(body, grid=grid))
    assert cli.main(["smile", "--config", cfg, "--out", str(out)]) == 0
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_smile_with_steps_does_not_hash_grid_N(tmp_path):
    # grid.N only supplies smile's default steps, [grid.N]
    coarse = smile_with_steps(tmp_path, {"T": 0.25, "N": 8})
    assert smile_with_steps(tmp_path, {"T": 0.25, "N": 50}) == coarse
    assert sorted(coarse) == [
        "smile_abergomi_T0.25_N16.csv",
        "smile_abergomi_T0.25_N8.csv",
        "smile_summary_abergomi_T0.25.json",
    ]


def test_smile_with_steps_needs_no_grid_N(tmp_path):
    coarse = smile_with_steps(tmp_path, {"T": 0.25, "N": 8})
    assert smile_with_steps(tmp_path, {"T": 0.25}) == coarse


def test_compare_grid_has_one_row_per_cell(tmp_path):
    cfg = write_config(
        tmp_path,
        table1_config(
            paths=500,
            strikes={"min": -0.05, "max": 0.05, "count": 3},
            compare={"terms": [2, 3], "steps": [4, 6]},
            out_dir=str(tmp_path),
        ),
    )
    assert cli.main(["compare", "--config", cfg]) == 0
    lines = (tmp_path / "compare_rmse.csv").read_text().splitlines()
    # no run-specific column: both sides share one simulation per step count
    assert lines[1] == "terms,steps,rmse"
    rows = [line.split(",") for line in lines[2:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (2, 4), (3, 4), (2, 6), (3, 6),
    ]
    for r in rows:
        assert len(r) == 3
        rmse = float(r[2])
        assert np.isfinite(rmse) and rmse >= 0


def test_compare_reads_no_kernel_n(tmp_path):
    # compare's term counts come from compare.terms: it needs no kernel
    # section, and one it is given is neither read nor hashed
    rows = {}
    kernels = {"no_kernel": None, "no_n": {}, "n99": {"n": 99}}
    for name, kern in kernels.items():
        body = table1_config(
            paths=300,
            strikes={"min": -0.05, "max": 0.05, "count": 3},
            compare={"terms": [2, 3], "steps": [4]},
        )
        if kern is not None:
            body["kernel"] = kern
        cfg = write_config(tmp_path, body, name=f"{name}.json")
        out = tmp_path / name
        assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 0
        rows[name] = (out / "compare_rmse.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows["no_kernel"][2:]] == ["2", "3"]
    # the config_sha256 line too
    assert rows["no_kernel"] == rows["no_n"] == rows["n99"]


def test_simulate_one_path_writes_a_null_variance(tmp_path):
    # a sample variance needs two paths; tier-1 turns numpy's RuntimeWarning
    # on one path into an error
    cfg = write_config(tmp_path, bs_config(paths=1, out_dir=str(tmp_path)))
    assert cli.main(["simulate", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "summary_bs_T0.25_N10.json").read_text())
    assert doc["moments"]["var_log_price"] is None
    assert np.isfinite(doc["moments"]["mean_log_price"])


def _smile_columns(path):
    """(log-moneyness, implied vol) columns of a smile CSV."""
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    return np.array([[float(r[0]), float(r[2])] for r in rows]).T


def test_abergomi_smile_is_the_library_kernel_plan(tmp_path):
    # the CLI's aBergomi is the rBergomi pipeline with the fitted kernel's
    # cell averages in the plan (the hybrid multifactor scheme)
    body = table1_config(
        model="abergomi", grid={"T": 1.0, "N": 16}, paths=rv.BLOCK_SIZE + 904,
        kernel={"n": 5}, out_dir=str(tmp_path),
    )
    assert cli.main(["smile", "--config", write_config(tmp_path, body)]) == 0
    strikes, got = _smile_columns(tmp_path / "smile_abergomi_T1.0_N16.csv")

    params = rv.ModelParams(**body["params"])
    grid = rv.make_time_grid(1.0, 16)
    kern = rv.fit_kernel_ls(params.H, 1.0, 100, 5)
    plan = rv.make_hybrid_plan(grid, params.alpha, kernel=kern)
    inc = rv.sample_correlated_increments(grid, params.rho, body["paths"], body["seed"])
    V = rv.rbergomi_variance(rv.simulate_volterra(plan, inc), params)
    want = rv.mc_smile(rv.rbergomi_log_price(V, inc)[:, -1], strikes, T=1.0).vols
    assert np.isfinite(want).sum() >= 15
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_abergomi_smile_tracks_rbergomi_on_the_same_seed(tmp_path):
    # n = 25 least-squares terms, fitted on max(N, 100) points: on shared
    # draws only the kernel's cell averages separate the two smiles.  At
    # N = 200 a fixed 100-point fit grid misses the first lags (7.1e-5).
    for N, tol in ((100, 1e-4), (200, 1e-5)):
        vols = {}
        for model, kernel in (("rbergomi", None), ("abergomi", {"n": 25})):
            body = table1_config(
                model=model, grid={"T": 1.0, "N": N}, paths=20_000, seed=42,
                kernel=kernel, out_dir=str(tmp_path),
            )
            path = write_config(tmp_path, body, name=f"{model}.json")
            assert cli.main(["smile", "--config", path]) == 0
            _, vols[model] = _smile_columns(tmp_path / f"smile_{model}_T1.0_N{N}.csv")
        diff = vols["abergomi"] - vols["rbergomi"]
        assert np.isfinite(diff).all()
        assert np.sqrt(np.mean(diff**2)) < tol, N


def test_fit_kernel_least_squares_report(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "fit": {"H": 0.07, "T": 1.0, "N_grid": 60, "n": 3},
            "seed": 0,
            "out_dir": str(tmp_path),
        },
    )
    assert cli.main(["fit-kernel", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "kernel_least-squares_n3_H0.07.json").read_text())
    assert "method" not in doc and "bound" not in doc
    assert len(doc["weights"]) == 3 and len(doc["speeds"]) == 3
    assert doc["speeds"] == sorted(doc["speeds"])
    assert 0 < doc["rmse"] < 0.05
    assert doc["l2_error"] > 0
    assert doc["config_sha256"] == cli.config_sha(doc["config"])


def test_skew_analytic_two_factor(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": "bergomi2f",
            "params": {
                "omega": 2.0, "theta": 0.3, "kappa_X": 8.0, "kappa_Y": 0.5,
                "rho_SX": -0.7, "rho_SY": -0.6, "rho_XY": 0.2,
            },
            "maturities": [0.3, 0.6, 1.2],
            "seed": 0,
            "out_dir": str(tmp_path),
        },
    )
    assert cli.main(["skew", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "skew_bergomi2f.json").read_text())
    assert doc["analytic"] is True
    assert doc["n_paths"] == 0 and doc["bump"] is None
    assert len(doc["psi"]) == 3 and all(p > 0 for p in doc["psi"])
    assert np.isfinite(doc["exponent"]) and doc["exponent"] < 0


def test_skew_analytic_zero_skew_is_flagged(tmp_path, capsys):
    # with no spot-factor correlation the analytic skew is 0 at every
    # maturity: each is flagged, and the fit is not attempted on log 0
    params = dict(TWO_FACTOR_PARAMS, rho_SX=0.0, rho_SY=0.0)
    body = two_factor_config(
        params=params, maturities=[0.1, 0.25, 0.5, 1.0, 2.0], out_dir=str(tmp_path)
    )
    cfg = write_config(tmp_path, body)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["skew", "--config", cfg]) == 3
    assert "(flagged: [True, True, True, True, True])" in capsys.readouterr().err


def test_skew_monte_carlo_report(tmp_path):
    cfg = write_config(
        tmp_path,
        table1_config(
            grid={"T": 1.0, "N": 8},
            paths=256,
            maturities=[0.25, 0.5, 1.0],
            bump=0.05,
            out_dir=str(tmp_path),
        ),
    )
    assert cli.main(["skew", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "skew_rbergomi.json").read_text())
    assert doc["bump"] == 0.05 and doc["n_paths"] == 256
    assert len(doc["psi"]) == 3 == len(doc["richardson"])
    assert np.isfinite(doc["exponent"])


def test_abergomi_skew_tracks_rbergomi_on_the_same_seed(tmp_path):
    # the Markovian model's power law, one kernel fitted on [0, 1] and
    # rescaled to each maturity, on the draws rBergomi's skew uses
    docs = {}
    for model, kernel in (("rbergomi", None), ("abergomi", {"n": 10})):
        body = table1_config(
            model=model, grid={"T": 1.0, "N": 50}, paths=9000, seed=3,
            kernel=kernel, out_dir=str(tmp_path),
        )
        path = write_config(tmp_path, body, name=f"{model}.json")
        assert cli.main(["skew", "--config", path]) == 0
        docs[model] = json.loads((tmp_path / f"skew_{model}.json").read_text())
    rough, markov = docs["rbergomi"], docs["abergomi"]
    assert markov["model"] == "abergomi" and markov["n_paths"] == 9000
    assert markov["psi"] != rough["psi"]  # a different model on the same draws
    np.testing.assert_allclose(markov["psi"], rough["psi"], rtol=1e-3)
    assert abs(markov["exponent"] - rough["exponent"]) < 1e-3


def test_abergomi_skew_fits_one_kernel_and_runs_one_field(tmp_path, monkeypatch):
    from roughvol import kernel, models

    fits, fields = [], []
    fit, volterra_rows = kernel.fit_kernel_ls, models._volterra_rows

    def fit_spy(*args):
        fits.append(args)
        return fit(*args)

    def rows_spy(plan, *args):
        fields.append(plan.grid.T)
        volterra_rows(plan, *args)

    monkeypatch.setattr(kernel, "fit_kernel_ls", fit_spy)
    monkeypatch.setattr(models, "_volterra_rows", rows_spy)
    cli._build_kernel.cache_clear()  # a kernel cached by another test is not fitted
    mats = [0.5, 0.02, 2.0, 0.1, 0.005]
    body = table1_config(
        model="abergomi", grid={"T": 1.0, "N": 20}, paths=64, maturities=mats,
        kernel={"n": 5}, out_dir=str(tmp_path),
    )
    assert cli.main(["skew", "--config", write_config(tmp_path, body)]) == 0
    assert fits == [(0.07, 1.0, 100, 5)]  # (H, T, N_grid, n): on [0, 1]
    assert fields == [0.5]  # one 64-row slice, one field, the first maturity's


def test_every_simulation_runs_once(tmp_path, monkeypatch):
    # counts Gaussian tiles: each path block of each distinct draw is one
    from roughvol import sim_core

    draws = []
    real = sim_core._block_streams

    def counting(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim_core, "_block_streams", counting)
    cfg = write_config(
        tmp_path,
        bs_config(steps=[8, 16], out_dir=str(tmp_path)),
        name="smile.json",
    )
    assert cli.main(["smile", "--config", cfg]) == 0
    assert len(draws) == 2
    draws.clear()
    cfg = write_config(
        tmp_path,
        table1_config(
            paths=64, maturities=[0.25, 0.5, 1.0], bump=0.05, out_dir=str(tmp_path)
        ),
        name="skew.json",
    )
    assert cli.main(["skew", "--config", cfg]) == 0
    # one tile serves all three maturities
    assert len(draws) == 1
    draws.clear()
    cfg = write_config(
        tmp_path,
        table1_config(
            paths=64,
            compare={"terms": [2, 3], "steps": [20, 40]},
            out_dir=str(tmp_path),
        ),
        name="compare.json",
    )
    assert cli.main(["compare", "--config", cfg]) == 0
    # one tile per step count serves rBergomi and both kernels
    assert len(draws) == 2


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_exits_4(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 4
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [b"{not json", b'{"model": "bs" \xff}', b"[" * 100_000 + b"]" * 100_000],
    ids=["syntax", "not-utf-8", "nested-too-deep"],
)
def test_malformed_json_exits_2(tmp_path, capsys, body):
    path = tmp_path / "broken.json"
    path.write_bytes(body)
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_out_dir_with_a_nul_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, bs_config(out_dir=str(tmp_path / "a\u0000b")))
    assert cli.main(["simulate", "--config", cfg]) == 4
    assert "cannot create output directory" in capsys.readouterr().err


def test_schema_errors_name_every_offending_key(tmp_path, capsys):
    cfg = bs_config(schema_version=2, modell=1)
    cfg["params"]["volx"] = 1
    cfg["grid"]["M"] = 3
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path]) == 2
    err = capsys.readouterr().err
    for key in ("schema_version", "modell", "params.volx", "grid.M"):
        assert key in err


def test_nonfinite_simulation_exits_3(tmp_path, capsys):
    # pure drift overflow: -vol^2 T / 2 is -inf at vol = 1e200
    cfg = write_config(
        tmp_path, bs_config(params={"vol": 1e200}, out_dir=str(tmp_path))
    )
    assert cli.main(["simulate", "--config", cfg]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_failed_allocation_exits_3(tmp_path, capsys, monkeypatch):
    from roughvol import models

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 74.5 TiB for an array")

    monkeypatch.setattr(models, "simulate_terminal", out_of_memory)
    cfg = write_config(tmp_path, table1_config(out_dir=str(tmp_path)))
    assert cli.main(["simulate", "--config", cfg]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: Unable to allocate 74.5 TiB for an array\n"
    )


@pytest.mark.parametrize("n, N, paths", [(10, 8, 64), (4, 200, 600)])
def test_stiff_fitted_kernel_gives_a_finite_smile(tmp_path, n, N, paths):
    # fitted kernels carry fast mean reversions (speed * dt far above 2 at
    # dt = 1/8, where an explicit Euler step would blow up); the kernel
    # plan's factors decay exactly, so every speed is stable.  The n = 4 fit
    # on 200 points puts a huge weight on a speed the grid cannot see.
    cfg = write_config(
        tmp_path,
        table1_config(
            model="abergomi",
            grid={"T": 1.0, "N": N},
            paths=paths,
            kernel={"n": n},
            out_dir=str(tmp_path),
        ),
    )
    with np.errstate(over="raise", invalid="raise"):
        assert cli.main(["smile", "--config", cfg]) == 0
    lines = (tmp_path / f"smile_abergomi_T1.0_N{N}.csv").read_text().splitlines()
    assert len(lines) == 2 + 21
    assert np.all(np.isfinite([[float(v) for v in r.split(",")] for r in lines[2:]]))


def test_skew_requires_three_maturities(tmp_path, capsys):
    cfg = write_config(
        tmp_path, table1_config(maturities=[0.5, 1.0], out_dir=str(tmp_path))
    )
    assert cli.main(["skew", "--config", cfg]) == 2
    assert "at least 3" in capsys.readouterr().err


def test_abergomi_requires_a_kernel_block(tmp_path, capsys):
    cfg = write_config(
        tmp_path, table1_config(model="abergomi", out_dir=str(tmp_path))
    )
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "kernel: required" in capsys.readouterr().err


def test_two_factor_model_is_analytic_only(tmp_path, capsys):
    # a schema error: its params pass bergomi2f's own table, and nothing,
    # not even the output directory, is made
    body = two_factor_config(
        grid={"T": 0.5, "N": 10}, paths=16, out_dir=str(tmp_path / "out")
    )
    for command in ("simulate", "smile"):
        assert cli.main([command, "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err == (
            SCHEMA + f"model: must be one of {SIMULATED}, got 'bergomi2f'\n"
        )
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# runtime dependencies

# Imports every roughvol module and runs each command with scipy blocked and
# RuntimeWarnings raised, then prints the exit codes and every scipy module
# that got loaded anyway.
_NO_SCIPY_SCRIPT = """
import json, pkgutil, sys
sys.modules["scipy"] = None
import roughvol
from roughvol import cli
for mod in pkgutil.iter_modules(roughvol.__path__):
    __import__("roughvol." + mod.name)
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(
    m for m, v in sys.modules.items()
    if v is not None and (m == "scipy" or m.startswith("scipy."))
)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    tiny = {"grid": {"T": 0.5, "N": 8}, "paths": 64, "out_dir": str(tmp_path)}
    small_fit = {"H": 0.07, "T": 1.0, "N_grid": 30, "n": 2}
    runs = {
        "simulate": [table1_config(**tiny), bs_config(**tiny)],
        "smile": [
            table1_config(model="abergomi", kernel={"n": 2}, **tiny),
        ],
        "skew": [
            table1_config(maturities=[0.1, 0.25, 0.5], **tiny),
            two_factor_config(out_dir=str(tmp_path)),
        ],
        "compare": [
            table1_config(compare={"terms": [2], "steps": [4]}, **tiny)
        ],
        "fit-kernel": [fit_config(fit=small_fit, out_dir=str(tmp_path))],
    }
    argvs = [
        [command, "--config", write_config(tmp_path, body, f"{command}{i}.json")]
        for command, bodies in runs.items()
        for i, body in enumerate(bodies)
    ]
    src = os.path.dirname(os.path.dirname(rv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _NO_SCIPY_SCRIPT,
         json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": [0] * len(argvs), "scipy": []}, done.stderr


def test_package_exports_every_module_name():
    modules = (rv.sim_core, rv.hybrid_scheme, rv.kernel, rv.models, rv.analytics)
    names = {"__version__"}.union(*(m.__all__ for m in modules))
    assert set(rv.__all__) == names and len(rv.__all__) == len(names)
    for name in names - {"__version__"}:
        owner = next(m for m in modules if name in m.__all__)
        assert getattr(rv, name) is getattr(owner, name)


# ---------------------------------------------------------------------------
# schema: exact error text and resolved-config hashes, one case per rule

SCHEMA = "error: config schema errors: "
RB_REQUIRED = "; ".join(
    f"params.{k}: required for model 'rbergomi'" for k in ("xi0", "eta", "H", "rho")
)
SIMULATED = "['abergomi', 'bs', 'rbergomi']"  # the models simulate and smile take
KERNEL_BAD_EVERY_KEY = {"n": 0, "method": "x", "N_grid": 2, "terms": 1}
NOT_PSD = "must keep the (S, X, Y) correlation matrix positive semidefinite"

SCHEMA_ERROR_CASES = [
    # top level
    pytest.param(
        "simulate", bs_config(schema_version=2, modell=1, zeta=0),
        SCHEMA + "modell: unknown key; zeta: unknown key; schema_version: must be 1",
        id="top-unknown-and-version",
    ),
    pytest.param(
        "simulate", without(bs_config(), "schema_version"),
        SCHEMA + "schema_version: must be 1", id="top-version-missing",
    ),
    pytest.param(  # True == 1, but a boolean is not a number
        "simulate", bs_config(schema_version=True),
        SCHEMA + "schema_version: must be 1", id="top-version-bool",
    ),
    pytest.param(
        "simulate", bs_config(seed=-1),
        SCHEMA + "seed: must be an integer in [0, 2^64)", id="top-seed-negative",
    ),
    pytest.param(
        "smile", bs_config(seed=2**64),
        SCHEMA + "seed: must be an integer in [0, 2^64)", id="top-seed-too-large",
    ),
    pytest.param(
        "simulate", bs_config(seed=1.0),
        SCHEMA + "seed: must be an integer in [0, 2^64)", id="top-seed-float",
    ),
    pytest.param(
        "simulate", bs_config(out_dir=3),
        SCHEMA + "out_dir: must be a string", id="top-out-dir",
    ),
    # which models each command allows; a missing or unknown model falls
    # back to rbergomi's params, a known one keeps its own
    pytest.param(
        "simulate", without(bs_config(), "model"),
        SCHEMA + f"model: must be one of {SIMULATED}, got None; "
        "params.vol: unknown key for model 'rbergomi'; " + RB_REQUIRED,
        id="model-missing",
    ),
    pytest.param(
        "smile", bs_config(model="heston"),
        SCHEMA + f"model: must be one of {SIMULATED}, got 'heston'; "
        "params.vol: unknown key for model 'rbergomi'; " + RB_REQUIRED,
        id="model-unknown",
    ),
    pytest.param(
        "skew", bs_config(model="bs"),
        SCHEMA + "model: must be one of ['abergomi', 'bergomi2f', 'rbergomi'], got 'bs'",
        id="model-skew-allows-three",
    ),
    # compare reads no model: its params are rBergomi's whatever model says
    pytest.param(
        "compare", bs_config(),
        SCHEMA + "params.vol: unknown key for model 'rbergomi'; " + RB_REQUIRED,
        id="model-compare-rough-only",
    ),
    pytest.param(
        "simulate", two_factor_config(grid={"T": 0.5, "N": 10}, paths=16),
        SCHEMA + f"model: must be one of {SIMULATED}, got 'bergomi2f'",
        id="model-bergomi2f-simulate",
    ),
    pytest.param(
        "smile", two_factor_config(grid={"T": 0.5, "N": 10}, paths=16),
        SCHEMA + f"model: must be one of {SIMULATED}, got 'bergomi2f'",
        id="model-bergomi2f-smile",
    ),
    # params, per model
    pytest.param(
        "simulate", without(table1_config(), "params"),
        SCHEMA + "params: required", id="params-missing-rbergomi",
    ),
    pytest.param(
        "smile", without(bs_config(), "params"),
        SCHEMA + "params: required", id="params-missing-bs",
    ),
    pytest.param(
        "simulate", table1_config(params=[0.026]),
        SCHEMA + "params: must be an object", id="params-not-object",
    ),
    pytest.param(
        "simulate", table1_config(params=None),
        SCHEMA + "params: required", id="params-null",
    ),
    pytest.param(
        "simulate",
        table1_config(params={"xi0": -1, "eta": "x", "H": 0.6, "rho": 2, "vol": 0.2}),
        SCHEMA + "params.vol: unknown key for model 'rbergomi'; "
        "params.eta: must be a number; params.xi0: must be positive; "
        "params.H: must lie in (0, 1/2); params.rho: must lie in [-1, 1]",
        id="params-rbergomi-types-then-bounds",
    ),
    pytest.param(
        "smile",
        table1_config(
            model="abergomi", kernel=SMALL_KERNEL,
            params={"xi0": 0.026, "eta": True, "H": 0.0},
        ),
        SCHEMA + "params.eta: must be a number; "
        "params.rho: required for model 'abergomi'; params.H: must lie in (0, 1/2)",
        id="params-abergomi-missing-and-bool",
    ),
    pytest.param(
        "simulate", bs_config(params={"vol": 0}),
        SCHEMA + "params.vol: must be a positive number", id="params-bs-vol-zero",
    ),
    pytest.param(
        "smile", bs_config(params={"vol": "0.2", "eta": 1.0}),
        SCHEMA + "params.eta: unknown key for model 'bs'; "
        "params.vol: must be a positive number",
        id="params-bs-vol-string-and-extra",
    ),
    pytest.param(
        "skew",
        two_factor_config(
            params=dict(without(TWO_FACTOR_PARAMS, "omega"), theta="x", H=0.1)
        ),
        SCHEMA + "params.H: unknown key for model 'bergomi2f'; "
        "params.omega: required for model 'bergomi2f'; params.theta: must be a number",
        id="params-bergomi2f",
    ),
    # bergomi2f ranges, one case per rule
    pytest.param(
        "skew", two_factor_config(params=dict(TWO_FACTOR_PARAMS, omega=0)),
        SCHEMA + "params.omega: must be positive", id="params-bergomi2f-omega",
    ),
    pytest.param(
        "skew", two_factor_config(params=dict(TWO_FACTOR_PARAMS, theta=1.5)),
        SCHEMA + "params.theta: must lie in [0, 1]", id="params-bergomi2f-theta",
    ),
    pytest.param(
        "skew", two_factor_config(params=dict(TWO_FACTOR_PARAMS, rho_SX=-1.2)),
        SCHEMA + "params.rho_SX: must lie in [-1, 1]", id="params-bergomi2f-rho_SX",
    ),
    pytest.param(
        "skew", two_factor_config(params=dict(TWO_FACTOR_PARAMS, rho_SY=1.5)),
        SCHEMA + "params.rho_SY: must lie in [-1, 1]", id="params-bergomi2f-rho_SY",
    ),
    pytest.param(
        "skew", two_factor_config(params=dict(TWO_FACTOR_PARAMS, rho_XY=-3)),
        SCHEMA + "params.rho_XY: must lie in [-1, 1]", id="params-bergomi2f-rho_XY",
    ),
    # each correlation in [-1, 1], but no (S, X, Y) correlation matrix has them
    pytest.param(
        "skew",
        two_factor_config(
            params=dict(TWO_FACTOR_PARAMS, rho_SX=0.9, rho_SY=-0.9, rho_XY=0.9)
        ),
        SCHEMA + "params.rho_XY: " + NOT_PSD, id="params-bergomi2f-rho-infeasible",
    ),
    pytest.param(
        "skew",
        two_factor_config(
            params=dict(TWO_FACTOR_PARAMS, rho_SX=1, rho_SY=-0.6, rho_XY=0.3)
        ),
        SCHEMA + "params.rho_XY: " + NOT_PSD, id="params-bergomi2f-rho_SX-one",
    ),
    pytest.param(
        "skew", two_factor_config(params=dict(TWO_FACTOR_PARAMS, kappa_X=0.3)),
        SCHEMA + "params.kappa_Y: must lie in (0, kappa_X)",
        id="params-bergomi2f-kappa-order",
    ),
    pytest.param(
        "skew", two_factor_config(params=dict(TWO_FACTOR_PARAMS, kappa_Y=0)),
        SCHEMA + "params.kappa_Y: must lie in (0, kappa_X)",
        id="params-bergomi2f-kappa_Y-positive",
    ),
    pytest.param(
        "skew", two_factor_config(params=dict(TWO_FACTOR_PARAMS, kappa_X=-8.0)),
        SCHEMA + "params.kappa_X: must be positive; "
        "params.kappa_Y: must lie in (0, kappa_X)",
        id="params-bergomi2f-kappa_X-positive",
    ),
    pytest.param(
        "skew",
        two_factor_config(params=dict(TWO_FACTOR_PARAMS, kappa_X="fast", kappa_Y=-1)),
        SCHEMA + "params.kappa_X: must be a number; "
        "params.kappa_Y: must lie in (0, kappa_X)",
        id="params-bergomi2f-kappa_X-not-a-number",
    ),
    pytest.param(
        "skew", two_factor_config(params=dict(TWO_FACTOR_PARAMS, xi0=-0.02)),
        SCHEMA + "params.xi0: must be positive", id="params-bergomi2f-xi0",
    ),
    # grid
    pytest.param(
        "simulate", without(bs_config(), "grid"),
        SCHEMA + "grid: required", id="grid-missing",
    ),
    pytest.param(
        "smile", bs_config(grid=[0.25, 10]),
        SCHEMA + "grid: must be an object", id="grid-not-object",
    ),
    pytest.param(
        "simulate", bs_config(grid={"T": 0, "N": 1.5, "M": 3}),
        SCHEMA + "grid.M: unknown key; grid.T: must be a positive number; "
        "grid.N: must be an integer >= 2",
        id="grid-keys",
    ),
    pytest.param(
        "compare", table1_config(grid={}),
        SCHEMA + "grid.T: must be a positive number",  # compare reads no grid.N
        id="grid-empty",
    ),
    # paths
    pytest.param(
        "simulate", bs_config(paths=0),
        SCHEMA + "paths: must be an integer >= 1", id="paths-zero",
    ),
    pytest.param(
        "smile", without(table1_config(), "paths"),
        SCHEMA + "paths: must be an integer >= 1", id="paths-missing",
    ),
    pytest.param(
        "skew", table1_config(paths=2.5),
        SCHEMA + "paths: must be an integer >= 1", id="paths-skew-rbergomi",
    ),
    # the analytic skew needs no paths, but a given value must still be valid
    pytest.param(
        "skew", two_factor_config(paths="lots"),
        SCHEMA + "paths: must be an integer >= 1", id="paths-skew-bergomi2f",
    ),
    # strikes, as a list and as {min, max, count}
    pytest.param(
        "smile", bs_config(strikes=[]),
        SCHEMA + "strikes: must be a non-empty list of numbers", id="strikes-empty-list",
    ),
    pytest.param(
        "smile", bs_config(strikes=[0.1, "a"]),
        SCHEMA + "strikes: must be a non-empty list of numbers", id="strikes-list-entry",
    ),
    pytest.param(
        "smile", bs_config(strikes={"min": 0.2, "max": -0.2, "count": 5}),
        SCHEMA + "strikes.min/max: need numbers with min < max",
        id="strikes-min-above-max",
    ),
    pytest.param(
        "smile", bs_config(strikes={"min": -0.1, "max": 0.1, "count": 1, "step": 2}),
        SCHEMA + "strikes.step: unknown key; strikes.count: must be an integer >= 2",
        id="strikes-count-and-unknown",
    ),
    pytest.param(
        "smile", bs_config(strikes="wide"),
        SCHEMA + "strikes: must be a list or a {min, max, count} object",
        id="strikes-wrong-type",
    ),
    # every resolved strike, in either form, within the log-moneyness bound:
    # e^1000 overflowed, and a min/max span of inf resolved to [nan, inf, inf]
    pytest.param(
        "smile", bs_config(strikes=[1000.0]),
        SCHEMA + "strikes: every log-moneyness must lie in [-700, 700]",
        id="strikes-list-beyond-bound",
    ),
    pytest.param(
        "compare",
        table1_config(strikes={"min": -1e308, "max": 1e308, "count": 3}),
        SCHEMA + "strikes: every log-moneyness must lie in [-700, 700]",
        id="strikes-grid-beyond-bound",
    ),
    # kernel
    pytest.param(
        "simulate", table1_config(model="abergomi"),
        SCHEMA + "kernel: required", id="kernel-missing-abergomi",
    ),
    pytest.param(  # only compare, which reads compare.terms, goes without n
        "simulate", table1_config(model="abergomi", kernel={"method": "closed-form"}),
        SCHEMA + "kernel.method: unknown key; kernel.n: must be an integer >= 1",
        id="kernel-n-missing-abergomi",
    ),
    pytest.param(
        "smile", table1_config(model="abergomi", kernel=[2]),
        SCHEMA + "kernel: must be an object", id="kernel-not-object",
    ),
    pytest.param(
        "simulate", table1_config(model="abergomi", kernel=KERNEL_BAD_EVERY_KEY),
        # N_grid is gone: the fit grid follows the step count
        SCHEMA + "kernel.N_grid: unknown key; kernel.method: unknown key; "
        "kernel.terms: unknown key; kernel.n: must be an integer >= 1",
        id="kernel-every-key",
    ),
    pytest.param(
        "smile",
        table1_config(
            model="abergomi",
            kernel={"n": 2.0, "m2": "tabel", "theta": "1", "N_grid": True},
        ),
        # m2 and theta were keys of the OU-factor construction
        SCHEMA + "kernel.N_grid: unknown key; kernel.m2: unknown key; "
        "kernel.theta: unknown key; kernel.n: must be an integer >= 1",
        id="kernel-m2-and-theta-types",
    ),
    pytest.param(
        "simulate", table1_config(kernel={"n": 2, "method": "euler"}),
        SCHEMA + "kernel.method: unknown key", id="kernel-checked-for-rbergomi-too",
    ),
    pytest.param(  # the least-squares fit is the one kernel, chosen by no key
        "simulate",
        table1_config(model="abergomi", kernel={"n": 2, "method": "least-squares"}),
        SCHEMA + "kernel.method: unknown key", id="kernel-method-unknown",
    ),
    # fit
    pytest.param(
        "fit-kernel", without(fit_config(), "fit"),
        SCHEMA + "fit: required", id="fit-missing",
    ),
    pytest.param(
        "fit-kernel", fit_config(fit=[0.07, 3], paths=0),
        SCHEMA + "fit: must be an object", id="fit-not-object",
    ),
    pytest.param(
        "fit-kernel",
        fit_config(
            fit={"H": 0.5, "T": -1, "N_grid": 2, "n": 0, "method": "x", "m2": 1}
        ),
        SCHEMA + "fit.m2: unknown key; fit.method: unknown key; "
        "fit.H: must lie in (0, 1/2); fit.T: must be a positive number; "
        "fit.N_grid: must be an integer >= 3; fit.n: must be an integer >= 1",
        id="fit-every-key",
    ),
    pytest.param(
        "fit-kernel", fit_config(fit={"H": 0.07, "n": 3, "method": "least-squares"}),
        SCHEMA + "fit.method: unknown key", id="fit-method-unknown",
    ),
    pytest.param(
        "fit-kernel", fit_config(seed=-3, extra=1, fit={"H": "0.07", "n": 3}),
        SCHEMA + "extra: unknown key; seed: must be an integer in [0, 2^64); "
        "fit.H: must be a number",
        id="fit-top-level-first",
    ),
    # compare
    pytest.param(
        "compare", table1_config(compare=[2, 4]),
        SCHEMA + "compare: must be an object", id="compare-not-object",
    ),
    pytest.param(
        "compare",
        table1_config(compare={"terms": [0], "steps": [1, 2], "grid": 1}),
        SCHEMA + "compare.grid: unknown key; "
        "compare.terms: must be a non-empty integer list; "
        "compare.steps: must be a non-empty integer list",
        id="compare-every-key",
    ),
    pytest.param(
        "compare",
        table1_config(compare={"terms": [], "steps": "50"}),
        SCHEMA + "compare.terms: must be a non-empty integer list; "
        "compare.steps: must be a non-empty integer list",
        id="compare-empty-lists",
    ),
    # steps
    pytest.param(
        "smile", bs_config(steps=[8, 1]),
        SCHEMA + "steps: must be a list of integers >= 2", id="steps-too-small",
    ),
    pytest.param(
        "smile", bs_config(steps=[]),
        SCHEMA + "steps: must be a list of integers >= 2", id="steps-empty",
    ),
    pytest.param(
        "smile", bs_config(steps=8),
        SCHEMA + "steps: must be a list of integers >= 2", id="steps-not-list",
    ),
    # maturities
    pytest.param(
        "skew", table1_config(maturities=[0.5, -1, 1.0]),
        SCHEMA + "maturities: must be a list of positive numbers",
        id="maturities-negative",
    ),
    pytest.param(
        "skew", table1_config(maturities=[]),
        SCHEMA + "maturities: need at least 3 distinct maturities to fit a power law, got 0",
        id="maturities-too-few",
    ),
    # repeated maturities fix no slope, so the fit must not report one
    pytest.param(
        "skew", table1_config(maturities=[1, 1, 1]),
        SCHEMA + "maturities: need at least 3 distinct maturities to fit a power law, got 1",
        id="maturities-repeated",
    ),
    pytest.param(
        "skew", two_factor_config(maturities=[0.5, 1, 0.5, 1.0]),
        SCHEMA + "maturities: need at least 3 distinct maturities to fit a power law, got 2",
        id="maturities-two-distinct",
    ),
    pytest.param(
        "skew", two_factor_config(maturities="all"),
        SCHEMA + "maturities: must be a list of positive numbers",
        id="maturities-not-list",
    ),
    # bump
    pytest.param(
        "skew", table1_config(maturities=[0.25, 0.5, 1.0], bump=0),
        SCHEMA + "bump: must be a positive number", id="bump-zero",
    ),
    pytest.param(
        "skew", two_factor_config(bump="0.01"),
        SCHEMA + "bump: must be a positive number", id="bump-string",
    ),
    pytest.param(  # skew's probe strikes are +-bump
        "skew", table1_config(bump=1e300),
        SCHEMA + "bump: must be at most 700", id="bump-beyond-bound",
    ),
    # every section at once: the order of the messages
    pytest.param(
        "smile",
        table1_config(
            model="abergomi", seed=-1, out_dir=1, extra=1, params={"xi0": 0},
            grid={"N": 1}, paths=0, strikes=[], kernel={"n": 0}, steps=[],
        ),
        SCHEMA + "extra: unknown key; seed: must be an integer in [0, 2^64); "
        "out_dir: must be a string; params.eta: required for model 'abergomi'; "
        "params.H: required for model 'abergomi'; "
        "params.rho: required for model 'abergomi'; params.xi0: must be positive; "
        "grid.T: must be a positive number; grid.N: must be an integer >= 2; "
        "paths: must be an integer >= 1; "
        "strikes: must be a non-empty list of numbers; "
        "kernel.n: must be an integer >= 1; steps: must be a list of integers >= 2",
        id="every-section-smile",
    ),
    pytest.param(
        "skew",
        table1_config(
            params={"eta": -1}, grid="x", paths=None, strikes={"min": 0},
            kernel=[], maturities=[1.0], bump=-1,
        ),
        SCHEMA + "params.xi0: required for model 'rbergomi'; "
        "params.H: required for model 'rbergomi'; "
        "params.rho: required for model 'rbergomi'; params.eta: must be positive; "
        "grid: must be an object; paths: must be an integer >= 1; "
        "kernel: must be an object; "
        "maturities: need at least 3 distinct maturities to fit a power law, got 1; "
        "bump: must be a positive number",
        id="every-section-skew",
    ),
]


@pytest.mark.parametrize("command, body, line", SCHEMA_ERROR_CASES)
def test_schema_error_text(command, body, line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, body)
    assert cli.main([command, "--config", path]) == 2
    assert capsys.readouterr().err == line + "\n"


RESOLVED_SHA_CASES = [
    pytest.param(
        "simulate", table1_config(),
        "2603a699f98357b263c8203a2c115f24e2fabfde2e24acca56ad79273a0b1c89",
        id="simulate-rbergomi",
    ),
    pytest.param(
        "simulate", table1_config(model="abergomi", kernel={"n": 3}),
        "4bb0c73fd885e2d849440237804d014fd5aa31c0b621e89f4260a7fa9ae335f6",
        id="simulate-abergomi",
    ),
    pytest.param(
        "simulate", bs_config(grid={"T": 1, "N": 50}),
        "6bb2c7c04da0086f9d93866b55719543270f562b63aa4b82b19f3dbb0485fdf5",
        id="simulate-bs",
    ),
    pytest.param(
        "smile", table1_config(strikes=[-0.1, 0, 0.1]),
        "80d8e297b077015771a85113cd58b1465ecd6bd0cb19ff6436693c94beb4c583",
        id="smile-rbergomi",
    ),
    pytest.param(
        "smile",
        table1_config(
            model="abergomi",
            steps=[8, 16],
            kernel={"n": 2},
        ),
        "6b829d5b5f926606c35d68f21945903ce69b2f3c543536472855944e54896d3a",
        id="smile-abergomi",
    ),
    pytest.param(
        "smile", bs_config(strikes={"min": -0.1, "max": 0.1, "count": 5}),
        "75c1fc55481d9a4d13342340533943537e639afef215af4c78b582df73c07037",
        id="smile-bs",
    ),
    pytest.param(
        "compare", without(table1_config(), "model"),
        "8bc947383f489a7baf62d7bab421841a0b2e1db8266e371f28bcba1686e52eeb",
        id="compare-rbergomi",
    ),
    # a null section is an absent one: it takes its defaults
    pytest.param(
        "compare", without(table1_config(compare=None), "model"),
        "8bc947383f489a7baf62d7bab421841a0b2e1db8266e371f28bcba1686e52eeb",
        id="compare-rbergomi-null-compare",
    ),
    pytest.param(
        "skew", table1_config(),
        "b81a86e9887467bf4c9539db6cab3bd0be0378c3ca0bc2ea6945595e3965d9b7",
        id="skew-rbergomi",
    ),
    pytest.param(
        "skew", two_factor_config(bump=0.02),
        "0eed32a76913e50fed1070d16a9726bcb32b2038bc3520f45ca317dfcdd94eda",
        id="skew-bergomi2f",
    ),
    pytest.param(
        "fit-kernel", fit_config(),
        "b42ff97c7e7f8d417f1bd70483e3a8bda5f3bd5df99183619a63f20e8d61d12f",
        id="fit-kernel",
    ),
    # a null kernel is an absent one; null strikes take the default grid
    pytest.param(
        "simulate", table1_config(kernel=None),
        "2603a699f98357b263c8203a2c115f24e2fabfde2e24acca56ad79273a0b1c89",
        id="simulate-rbergomi-null-kernel",
    ),
    pytest.param(
        "smile", bs_config(strikes=None),
        "4a952ec8f64e57e9aabab5d8feaf2676c32054f3818507bc8b7c6b53b8574e14",
        id="smile-bs-null-strikes",
    ),
]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "command, body, line",
    [
        pytest.param(
            "simulate", bs_config(params={"vol": NAN}),
            "params.vol: must be a positive number", id="params.vol-nan",
        ),
        pytest.param(
            "simulate", table1_config(params=dict(table1_config()["params"], rho=NAN)),
            "params.rho: must be a number", id="params.rho-nan",
        ),
        pytest.param(
            "smile", bs_config(grid={"T": INF, "N": 10}),
            "grid.T: must be a positive number", id="grid.T-inf",
        ),
        pytest.param(
            "skew", table1_config(bump=INF),
            "bump: must be a positive number", id="bump-inf",
        ),
        pytest.param(
            "smile", bs_config(strikes=[-0.1, NAN, 0.1]),
            "strikes: must be a non-empty list of numbers", id="strikes-entry-nan",
        ),
        pytest.param(
            "skew", two_factor_config(maturities=[0.3, 0.6, INF]),
            "maturities: must be a list of positive numbers", id="maturities-entry-inf",
        ),
        # kernel has no float key left; Infinity in a removed one still exits 2
        pytest.param(
            "simulate", table1_config(model="abergomi", kernel={"n": 2, "theta": INF}),
            "kernel.theta: unknown key", id="kernel.theta-inf",
        ),
        pytest.param(
            "fit-kernel", fit_config(fit={"H": 0.07, "n": 3, "T": INF}),
            "fit.T: must be a positive number", id="fit.T-inf",
        ),
    ],
)
def test_non_finite_numbers_are_schema_errors(
    command, body, line, tmp_path, monkeypatch, capsys
):
    # json.load reads NaN and Infinity; they must not reach a simulation
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    assert cli.main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == SCHEMA + line + "\n"
    assert list(tmp_path.iterdir()) == [path]


def domain_edge(model, name, edge, inward, closed=False, **over):
    """A value just inside and one just outside an edge of name's domain.

    The domain lies on the inward side (+-inf) of edge; a closed edge is
    inside, an open one outside.  over sets the other parameters the edge
    needs.
    """
    inside = edge if closed else math.nextafter(edge, inward)
    outside = math.nextafter(edge, -inward) if closed else edge
    return [
        pytest.param(model, dict(over, **{name: x}), ok, id=f"{model}-{name}-{x!r}")
        for x, ok in ((inside, True), (outside, False))
    ]


def psd_edges(sx, sy):
    """The rho_XY range that keeps the (S, X, Y) correlations feasible."""
    half = math.sqrt((1 - sx * sx) * (1 - sy * sy))
    return sx * sy - half, sx * sy + half


RB_PARAMS = table1_config()["params"]
RB, TWO, TF = "rbergomi", "bergomi2f", TWO_FACTOR_PARAMS
DOMAIN_CASES = [
    *domain_edge(RB, "xi0", 0.0, INF),
    *domain_edge(RB, "eta", 0.0, INF),
    # the compensator takes eta^2/2
    *domain_edge(RB, "eta", math.nextafter(math.sqrt(sys.float_info.max), INF), -INF),
    # below 2^-55, H - 1/2 rounds to -1/2; 0 and the smallest double lie outside
    *domain_edge(RB, "H", 2.0**-55, INF),
    *(pytest.param(RB, {"H": h}, False, id=f"{RB}-H-{h!r}") for h in (0.0, 5e-324)),
    *domain_edge(RB, "H", 0.5, -INF),
    *domain_edge(RB, "rho", -1.0, INF, closed=True),
    *domain_edge(RB, "rho", 1.0, -INF, closed=True),
    # kappa_X > kappa_Y > 0: the smallest kappa_X needs the smallest kappa_Y
    *domain_edge(TWO, "kappa_X", 5e-324, INF, kappa_Y=5e-324),
    pytest.param(TWO, {"kappa_X": 0.0}, False, id=f"{TWO}-kappa_X-0.0"),
    *domain_edge(TWO, "kappa_Y", 0.0, INF),
    *domain_edge(TWO, "kappa_Y", TF["kappa_X"], -INF),
    *domain_edge(TWO, "omega", 0.0, INF),
    # at rho_SX = +-1 the only feasible rho_XY is +-rho_SY, and vice versa
    *domain_edge(TWO, "rho_SX", -1.0, INF, closed=True, rho_XY=-TF["rho_SY"]),
    *domain_edge(TWO, "rho_SX", 1.0, -INF, closed=True, rho_XY=TF["rho_SY"]),
    *domain_edge(TWO, "rho_SY", -1.0, INF, closed=True, rho_XY=-TF["rho_SX"]),
    *domain_edge(TWO, "rho_SY", 1.0, -INF, closed=True, rho_XY=TF["rho_SX"]),
    *domain_edge(TWO, "rho_XY", -1.0, INF, closed=True, rho_SX=-0.7, rho_SY=0.7),
    *domain_edge(TWO, "rho_XY", 1.0, -INF, closed=True, rho_SX=-0.7, rho_SY=-0.7),
    # inside [-1, 1], but the (S, X, Y) correlation matrix must stay PSD; the
    # determinant's 1e-12 slack lets a value a few ulp outside in
    *(
        pytest.param(TWO, {"rho_XY": edge + d}, ok, id=f"{TWO}-rho_XY-psd-{edge + d!r}")
        for edge, inward in zip(psd_edges(TF["rho_SX"], TF["rho_SY"]), (1, -1))
        for d, ok in ((inward * 1e-9, True), (-inward * 1e-9, False))
    ),
    *domain_edge(TWO, "theta", 0.0, INF, closed=True),
    *domain_edge(TWO, "theta", 1.0, -INF, closed=True),
    *(pytest.param(RB, {k: NAN}, False, id=f"{RB}-{k}-nan") for k in RB_PARAMS),
    *(pytest.param(TWO, {k: NAN}, False, id=f"{TWO}-{k}-nan") for k in TF),
]


@pytest.mark.parametrize("model, over, inside", DOMAIN_CASES)
def test_schema_and_constructor_share_each_domain(model, over, inside):
    # the schema exits 2 exactly when the model's constructor raises
    if model == RB:
        params, build, cfg = dict(RB_PARAMS, **over), rv.ModelParams, table1_config
    else:
        params, build, cfg = dict(TF, **over), rv.TwoFactorParams, two_factor_config
    try:
        build(**params)
    except ValueError:
        raised = True
    else:
        raised = False
    assert raised is not inside
    try:
        cli.resolve_config(cfg(params=params), "skew", {})
    except cli.CliError as err:
        assert err.code == cli.EXIT_SCHEMA
        assert raised, err
    else:
        assert not raised


@pytest.mark.parametrize("command, body, sha", RESOLVED_SHA_CASES)
def test_resolved_config_hash_is_pinned(command, body, sha):
    # defaults are filled in before hashing, so a changed default changes the hash
    assert cli.config_sha(cli.resolve_config(body, command, {})) == sha


def with_key(cfg, dotted, value):
    """A copy of cfg with the key at the dotted path set to value.

    A section on the path that cfg lacks is added, empty.
    """
    cfg = json.loads(json.dumps(cfg))
    *sections, key = dotted.split(".")
    inner = cfg
    for name in sections:
        inner = inner.setdefault(name, {})
    inner[key] = value
    return cfg


COMPARE_BODY = without(table1_config(), "model")


# (command, config without the key, key, values): the key is one the command
# does not read, so no value of it, valid or not, is checked or hashed
@pytest.mark.parametrize(
    "command, body, key, values",
    [
        pytest.param(
            "simulate", table1_config(), "strikes", [[-0.1, 0.1], "wide"],
            id="simulate-strikes",
        ),
        pytest.param(
            "skew", table1_config(), "strikes", [[-0.1, 0.1], {"min": 0}],
            id="skew-strikes",
        ),
        pytest.param(
            "skew", table1_config(grid={"N": 8}), "grid.T", [2.0, 0],
            id="skew-grid.T",
        ),
        pytest.param(
            "compare", with_key(COMPARE_BODY, "grid", {"T": 0.25}), "grid.N", [16, 1],
            id="compare-grid.N",
        ),
        pytest.param(  # smile's steps replace [grid.N]
            "smile", table1_config(steps=[8, 16]), "grid.N", [50, 1, "x"],
            id="smile-grid.N-with-steps",
        ),
        pytest.param(
            "compare", COMPARE_BODY, "model", ["abergomi", "sabr"], id="compare-model",
        ),
        pytest.param(
            "compare", COMPARE_BODY, "kernel.n", [5, 0], id="compare-kernel.n",
        ),
        pytest.param(
            "fit-kernel", fit_config(), "model", ["rbergomi", "heston"],
            id="fit-kernel-model",
        ),
    ],
)
def test_unread_keys_do_not_move_the_hash(command, body, key, values):
    sha = cli.config_sha(cli.resolve_config(body, command, {}))
    for value in values:
        resolved = cli.resolve_config(with_key(body, key, value), command, {})
        assert cli.config_sha(resolved) == sha, value


# (command, config, key, another valid value, a malformed value)
@pytest.mark.parametrize(
    "command, body, key, other, bad",
    [
        pytest.param(
            "smile", table1_config(), "strikes", [-0.1, 0.1], "wide",
            id="smile-strikes",
        ),
        pytest.param(
            "compare", COMPARE_BODY, "strikes", [-0.1, 0.1], "wide",
            id="compare-strikes",
        ),
        pytest.param("compare", COMPARE_BODY, "grid.T", 2.0, 0, id="compare-grid.T"),
        pytest.param("skew", table1_config(), "grid.N", 16, 1, id="skew-grid.N"),
        pytest.param(  # with the kernel section aBergomi needs
            "skew", table1_config(kernel={"n": 2}), "model", "abergomi", "bs",
            id="skew-model",
        ),
        pytest.param("fit-kernel", fit_config(), "fit.n", 4, 0, id="fit-kernel-fit.n"),
    ],
)
def test_read_keys_move_the_hash_and_are_checked(command, body, key, other, bad):
    def sha(cfg):
        return cli.config_sha(cli.resolve_config(cfg, command, {}))

    assert sha(with_key(body, key, other)) != sha(body)
    with pytest.raises(cli.CliError, match=re.escape(key) + ": ") as err:
        sha(with_key(body, key, bad))
    assert err.value.code == cli.EXIT_SCHEMA


# ---------------------------------------------------------------------------
# thread pool width


@pytest.fixture
def thread_env(monkeypatch, tmp_path):
    # eight usable CPUs, so that any cap below eight shows in the pool width
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    return write_config(tmp_path, bs_config(paths=8, out_dir=str(tmp_path)))


@pytest.fixture
def command_env(monkeypatch):
    """OMP_NUM_THREADS and the pool width as the running `simulate` sees them."""
    seen = {}
    real, *row = cli._COMMANDS["simulate"]

    def recording(*args):
        seen["OMP_NUM_THREADS"] = os.environ.get("OMP_NUM_THREADS")
        seen["width"] = cli.sim_core._pool_width()
        return real(*args)

    monkeypatch.setitem(cli._COMMANDS, "simulate", (recording, *row))
    return seen


def test_threads_env_var_pins_the_pools(thread_env, command_env):
    assert cli.main(["simulate", "--config", thread_env]) == 0
    assert command_env == {"OMP_NUM_THREADS": "3", "width": 3}


def test_threads_flag_beats_the_env_var(thread_env, command_env):
    assert cli.main(["simulate", "--config", thread_env, "--threads", "2"]) == 0
    assert command_env == {"OMP_NUM_THREADS": "2", "width": 2}


def test_threads_zero_means_leave_alone(thread_env, command_env):
    assert cli.main(["simulate", "--config", thread_env, "--threads", "0"]) == 0
    assert command_env == {"OMP_NUM_THREADS": "3", "width": 3}


def test_threads_setting_ends_when_main_returns(thread_env, command_env, monkeypatch):
    assert cli.main(["simulate", "--config", thread_env, "--threads", "5"]) == 0
    assert command_env == {"OMP_NUM_THREADS": "5", "width": 5}
    assert os.environ["OMP_NUM_THREADS"] == "3"
    monkeypatch.delenv("OMP_NUM_THREADS")
    assert cli.main(["simulate", "--config", thread_env, "--threads", "2"]) == 0
    assert command_env["OMP_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ


def test_threads_validation(thread_env, capsys):
    assert cli.main(["simulate", "--config", thread_env, "--threads", "-1"]) == 2
    assert "--threads must be >= 0" in capsys.readouterr().err


def test_thread_count_leaves_smile_csvs_byte_identical(thread_env, tmp_path, monkeypatch):
    # two usable CPUs even on a one-core machine, so --threads 2 runs a pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = write_config(
        tmp_path,
        table1_config(
            paths=rv.BLOCK_SIZE + 5,
            steps=[8, 16],
            strikes={"min": -0.1, "max": 0.1, "count": 5},
        ),
        name="smile.json",
    )
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert cli.main(["smile", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        outs[threads] = sorted(out.glob("smile_rbergomi_*.csv"))
    assert [p.name for p in outs["1"]] == [p.name for p in outs["2"]]
    assert len(outs["1"]) == 2
    for a, b in zip(outs["1"], outs["2"]):
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# extreme values the schema's types accept


EXTREMES = [5e-324, 1e-300, 1e-100, 1e-10, 1e10, 1e100, 1e300]


def _extreme_base(command, model):
    if command == "fit-kernel":
        return fit_config(fit={"H": 0.07, "n": 2})
    params = {"bs": {"vol": 0.2}, "bergomi2f": dict(TF)}.get(model, dict(RB_PARAMS))
    cfg = {"schema_version": 1, "seed": 3, "paths": 40, "params": params}
    if command == "skew":
        cfg.update(model=model, grid={"N": 8}, maturities=[0.3, 0.6, 1.2])
    else:
        cfg["grid"] = {"T": 1.0, "N": 8}
    if command == "compare":
        cfg["compare"] = {"terms": [2], "steps": [8]}
    elif command != "skew":
        cfg["model"] = model
    if model == "abergomi":
        cfg["kernel"] = {"n": 2}
    return cfg


def _extreme_cases():
    for command, models in [
        ("simulate", (RB, "abergomi", "bs")),
        ("smile", (RB, "abergomi", "bs")),
        ("compare", (RB,)),
        ("skew", (RB, "abergomi", TWO)),
        ("fit-kernel", (None,)),
    ]:
        for model in models:
            keys = ["grid.T"] if command in ("simulate", "smile", "compare") else []
            if model in (RB, "abergomi"):
                keys += ["params.xi0", "params.eta", "params.H"]
            if model == TWO:
                keys += ["params.omega", "params.kappa_X", "params.kappa_Y", "params.xi0"]
            if command == "skew":
                keys += ["maturities", "bump"]
            if command == "fit-kernel":
                keys += ["fit.T", "fit.H"]
            for key in keys:
                yield pytest.param(command, model, key, id=f"{command}-{model}-{key}")


# what a failed run may name: a config key, or the quantity that failed
NAMED_CAUSE = re.compile(
    r"^error: config schema errors: [\w.]+: "
    r"|^error: skew power-law fit failed: "
    r"|^error: summary moment \w+ is not finite: "
    r"|^numeric failure: no strike survived in both smiles"
    r"|^numeric failure: T/N must be positive, got "
)


@pytest.mark.parametrize("command, model, key", _extreme_cases())
def test_extreme_values_exit_with_a_named_cause(tmp_path, capsys, command, model, key):
    # every run ends in 0, 2 or 3 without a RuntimeWarning; a failed one
    # names its cause and leaves no artifact
    for i, v in enumerate(EXTREMES):
        cfg = _extreme_base(command, model)
        if key == "maturities":
            cfg["maturities"][0] = v
        elif "." in key:
            section, name = key.split(".")
            cfg[section][name] = v
        else:
            cfg[key] = v
        out = tmp_path / f"out{i}"
        cfg["out_dir"] = str(out)
        code = cli.main([command, "--config", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (v, code, err)
        if code:
            assert NAMED_CAUSE.search(err), (v, err)
            assert not out.exists() or not list(out.iterdir()), (v, err)
