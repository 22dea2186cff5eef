"""End-to-end checks of the batch front-end, run in-process via cli.main()."""

import json
import os
import re

import numpy as np
import pytest

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
    # wall time and destination are the only run-specific fields
    for doc in (sum_a, sum_b):
        doc.pop("runtime_seconds")
        doc["config"].pop("out_dir")
    assert sum_a == sum_b


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
    assert summary["strikes_defaulted"] is False


def test_compare_grid_has_one_row_per_cell(tmp_path):
    cfg = write_config(
        tmp_path,
        table1_config(
            paths=500,
            strikes={"min": -0.05, "max": 0.05, "count": 3},
            kernel={"n": 2, "method": "closed-form", "m2": "none"},
            compare={"terms": [2, 3], "steps": [4, 6]},
            out_dir=str(tmp_path),
        ),
    )
    assert cli.main(["compare", "--config", cfg]) == 0
    lines = (tmp_path / "compare_rmse.csv").read_text().splitlines()
    assert lines[1] == "terms,steps,rmse,runtime_rbergomi,runtime_abergomi"
    rows = [line.split(",") for line in lines[2:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (2, 4), (3, 4), (2, 6), (3, 6),
    ]
    for r in rows:
        rmse, rt_r, rt_a = float(r[2]), float(r[3]), float(r[4])
        assert np.isfinite(rmse) and rmse >= 0
        assert rt_r > 0 and rt_a > 0
    # the rBergomi side is shared across term counts at fixed step count
    assert rows[0][3] == rows[1][3]


def test_compare_pair_must_share_the_experiment_frame(tmp_path):
    base = table1_config(
        paths=500,
        strikes={"min": -0.05, "max": 0.05, "count": 3},
        kernel={"n": 2, "method": "closed-form", "m2": "none"},
        compare={"terms": [2], "steps": [4]},
        out_dir=str(tmp_path),
    )
    cfg_a = write_config(tmp_path, base, name="a.json")
    mismatched = dict(base, paths=600)
    cfg_bad = write_config(tmp_path, mismatched, name="bad.json")
    rc = cli.main(["compare", "--config", cfg_a, "--config-b", cfg_bad])
    assert rc == 2

    # a pair differing only in the aBergomi discretization choices is fine
    paired = dict(base)
    paired["kernel"] = dict(base["kernel"], driver="direct")
    cfg_b = write_config(tmp_path, paired, name="b.json")
    assert cli.main(["compare", "--config", cfg_a, "--config-b", cfg_b]) == 0


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
    assert doc["method"] == "least-squares"
    assert doc["normalized"] is True
    assert doc["bound"] is None
    assert len(doc["weights"]) == 3 and len(doc["speeds"]) == 3
    assert doc["speeds"] == sorted(doc["speeds"])
    assert 0 < doc["rmse"] < 0.05
    assert doc["l2_error"] > 0
    assert doc["config_sha256"] == cli.config_sha(doc["config"])


def test_fit_kernel_closed_form_report(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "fit": {"H": 0.07, "T": 1.0, "N_grid": 60, "n": 4,
                    "method": "closed-form"},
            "seed": 0,
            "out_dir": str(tmp_path),
        },
    )
    assert cli.main(["fit-kernel", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "kernel_closed-form_n4_H0.07.json").read_text())
    assert doc["normalized"] is False
    assert doc["bound_satisfied"] is True
    assert doc["l2_error"] <= doc["bound"]


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


def test_every_simulation_runs_once(tmp_path, monkeypatch):
    from roughvol import sim_core

    draws = []
    real = sim_core.sample_correlated_increments

    def counting(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim_core, "sample_correlated_increments", counting)
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
    assert len(draws) == 3


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_exits_4(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 4
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["simulate", "--config", str(path)]) == 2


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


def test_stiff_factor_recursion_exits_3(tmp_path, capsys):
    # fitted kernels carry fast mean reversions; an explicit Euler step at
    # dt = 1/8 amplifies them geometrically until exp() overflows
    cfg = write_config(
        tmp_path,
        table1_config(
            model="abergomi",
            grid={"T": 1.0, "N": 8},
            paths=64,
            kernel={"n": 10, "method": "least-squares", "m2": "none",
                    "driver": "direct"},
            out_dir=str(tmp_path),
        ),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["simulate", "--config", cfg])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


def test_skew_requires_three_maturities(tmp_path, capsys):
    cfg = write_config(
        tmp_path, table1_config(maturities=[0.5, 1.0], out_dir=str(tmp_path))
    )
    assert cli.main(["skew", "--config", cfg]) == 2
    assert "at least 3" in capsys.readouterr().err


def test_m2_table_rejects_untabulated_step_counts(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        table1_config(
            model="abergomi",
            grid={"T": 1.0, "N": 37},
            paths=64,
            kernel={"n": 2, "method": "closed-form"},
            out_dir=str(tmp_path),
        ),
    )
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "no tabulated smile factor" in err and "37" in err


def test_abergomi_requires_a_kernel_block(tmp_path, capsys):
    cfg = write_config(
        tmp_path, table1_config(model="abergomi", out_dir=str(tmp_path))
    )
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "kernel: required" in capsys.readouterr().err


def test_two_factor_model_is_analytic_only(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": "bergomi2f",
            "params": {
                "omega": 2.0, "theta": 0.3, "kappa_X": 8.0, "kappa_Y": 0.5,
                "rho_SX": -0.7, "rho_SY": -0.6, "rho_XY": 0.2,
            },
            "grid": {"T": 0.5, "N": 10},
            "paths": 16,
            "seed": 0,
            "out_dir": str(tmp_path),
        },
    )
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "analytic-only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# thread pinning


THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@pytest.fixture
def thread_env(monkeypatch, tmp_path):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "sentinel")
    monkeypatch.delenv("ROUGHVOL_THREADS", raising=False)
    return write_config(tmp_path, bs_config(paths=8, out_dir=str(tmp_path)))


def test_threads_env_var_pins_the_pools(thread_env, monkeypatch):
    monkeypatch.setenv("ROUGHVOL_THREADS", "3")
    assert cli.main(["simulate", "--config", thread_env]) == 0
    assert all(os.environ[var] == "3" for var in THREAD_VARS)


def test_threads_flag_beats_the_env_var(thread_env, monkeypatch):
    monkeypatch.setenv("ROUGHVOL_THREADS", "3")
    assert cli.main(["simulate", "--config", thread_env, "--threads", "2"]) == 0
    assert all(os.environ[var] == "2" for var in THREAD_VARS)


def test_threads_zero_means_leave_alone(thread_env):
    assert cli.main(["simulate", "--config", thread_env, "--threads", "0"]) == 0
    assert all(os.environ[var] == "sentinel" for var in THREAD_VARS)


def test_threads_validation(thread_env, monkeypatch, capsys):
    assert cli.main(["simulate", "--config", thread_env, "--threads", "-1"]) == 2
    monkeypatch.setenv("ROUGHVOL_THREADS", "many")
    assert cli.main(["simulate", "--config", thread_env]) == 2
    assert "ROUGHVOL_THREADS" in capsys.readouterr().err


def test_thread_count_leaves_smile_csvs_byte_identical(thread_env, tmp_path, monkeypatch):
    # two usable CPUs even on a one-core machine, so --threads 2 runs a pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = write_config(
        tmp_path,
        table1_config(
            paths=4096 + 5,
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
