"""Batch front-end: configure, run, and export experiments as CSV/JSON.

Subcommands
-----------
simulate    terminal log-prices (CSV, one row per path) + summary JSON
fit-kernel  sum-of-exponentials kernel fit -> kernel JSON + residual report
smile       implied-vol smile CSV, one file per (model, T, N)
compare     rBergomi-vs-aBergomi smile RMSE table over a (terms x steps) grid
skew        ATM-skew term structure + fitted power-law exponent (JSON)

All commands read a single JSON config (--config); --seed/--out override
the config's seed/out_dir.  Unknown config keys are errors, and schema
errors name every offending key.  Every artifact embeds the sha256 of the
resolved config plus the seed, so runs are reproducible from their own
outputs.  CSVs are comma-separated, '.' decimal, LF line endings, header
mandatory; files are written atomically (temp + rename).

Exit codes: 0 ok, 2 schema error, 3 numeric failure, 4 I/O error.

Thread control: --threads N (0 = auto) or the ROUGHVOL_THREADS env var set
the BLAS/OpenMP pool sizes; this must happen before numpy is first
imported, which is why this module defers all numeric imports into the
command bodies.  The same setting (through OMP_NUM_THREADS) caps the
thread pool that draws increment blocks and runs the FFT convolution; with
0, an OMP_NUM_THREADS inherited from the environment still caps that pool.
Results are bit-identical at any thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_SIM_BLOCK = 4096  # paths per model-evaluation block (memory control)

DEFAULT_STRIKE_SPEC = {"min": -0.2, "max": 0.2, "count": 21}
DEFAULT_MATURITIES = [0.1, 0.25, 0.5, 1.0, 2.0]
DEFAULT_COMPARE_TERMS = [15, 20, 25]
DEFAULT_COMPARE_STEPS = [50, 100, 150, 200]

_TOP_KEYS = {
    "schema_version",
    "model",
    "params",
    "grid",
    "paths",
    "seed",
    "kernel",
    "strikes",
    "steps",
    "maturities",
    "compare",
    "fit",
    "out_dir",
    "bump",
}
_KERNEL_KEYS = {"n", "method", "N_grid", "m2", "driver", "compensator", "theta"}
_FIT_KEYS = {"H", "T", "N_grid", "n", "method"}
_GRID_KEYS = {"T", "N"}
_COMPARE_KEYS = {"terms", "steps"}
_RB_PARAM_KEYS = {"xi0", "eta", "H", "rho"}
_BS_PARAM_KEYS = {"vol"}
_TF_PARAM_KEYS = {
    "omega",
    "theta",
    "kappa_X",
    "kappa_Y",
    "rho_SX",
    "rho_SY",
    "rho_XY",
    "xi0",
}


class CliError(Exception):
    """Command failure carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _setup_threads(threads: int | None):
    """Pin BLAS/OpenMP pools before numpy loads.  0 or None = leave auto."""
    if threads is None:
        env = os.environ.get("ROUGHVOL_THREADS", "").strip()
        if not env:
            return
        try:
            threads = int(env)
        except ValueError:
            raise CliError(
                EXIT_SCHEMA, f"ROUGHVOL_THREADS must be an integer, got {env!r}"
            )
    if threads < 0:
        raise CliError(EXIT_SCHEMA, f"--threads must be >= 0, got {threads}")
    if threads == 0:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(threads)


# ---------------------------------------------------------------------------
# config loading / validation


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(EXIT_SCHEMA, f"config {path} is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise CliError(EXIT_SCHEMA, f"config {path} must be a JSON object")
    return raw


def _check_params(model: str, params, errors) -> dict:
    if not isinstance(params, dict):
        errors.append("params: must be an object")
        return {}
    allowed = {
        "rbergomi": _RB_PARAM_KEYS,
        "abergomi": _RB_PARAM_KEYS,
        "bs": _BS_PARAM_KEYS,
        "bergomi2f": _TF_PARAM_KEYS,
    }.get(model, _RB_PARAM_KEYS | _BS_PARAM_KEYS | _TF_PARAM_KEYS)
    for k in sorted(set(params) - allowed):
        errors.append(f"params.{k}: unknown key for model {model!r}")
    out = dict(params)
    if model in ("rbergomi", "abergomi"):
        for k in ("xi0", "eta", "H", "rho"):
            if k not in params:
                errors.append(f"params.{k}: required for model {model!r}")
            elif not _is_num(params[k]):
                errors.append(f"params.{k}: must be a number")
        if _is_num(params.get("xi0")) and params["xi0"] <= 0:
            errors.append("params.xi0: must be positive")
        if _is_num(params.get("eta")) and params["eta"] <= 0:
            errors.append("params.eta: must be positive")
        if _is_num(params.get("H")) and not (0 < params["H"] < 0.5):
            errors.append("params.H: must lie in (0, 1/2)")
        if _is_num(params.get("rho")) and abs(params["rho"]) > 1:
            errors.append("params.rho: must lie in [-1, 1]")
    elif model == "bs":
        if "vol" not in params:
            errors.append("params.vol: required for model 'bs'")
        elif not _is_num(params["vol"]) or params["vol"] <= 0:
            errors.append("params.vol: must be a positive number")
    elif model == "bergomi2f":
        for k in sorted(_TF_PARAM_KEYS - {"xi0"}):
            if k not in params:
                errors.append(f"params.{k}: required for model 'bergomi2f'")
            elif not _is_num(params[k]):
                errors.append(f"params.{k}: must be a number")
        out.setdefault("xi0", 0.026)
    return out


def _check_grid(grid, errors) -> dict:
    if not isinstance(grid, dict):
        errors.append("grid: must be an object with keys T, N")
        return {"T": 1.0, "N": 100}
    for k in sorted(set(grid) - _GRID_KEYS):
        errors.append(f"grid.{k}: unknown key")
    if not _is_num(grid.get("T")) or grid.get("T", 0) <= 0:
        errors.append("grid.T: must be a positive number")
    if not _is_int(grid.get("N")) or grid.get("N", 0) < 2:
        errors.append("grid.N: must be an integer >= 2")
    return {"T": grid.get("T", 1.0), "N": grid.get("N", 100)}


def _check_strikes(spec, errors) -> list:
    if spec is None:
        spec = dict(DEFAULT_STRIKE_SPEC)
    if isinstance(spec, list):
        if not spec or not all(_is_num(v) for v in spec):
            errors.append("strikes: must be a non-empty list of numbers")
            return []
        return [float(v) for v in spec]
    if isinstance(spec, dict):
        extra = set(spec) - {"min", "max", "count"}
        for k in sorted(extra):
            errors.append(f"strikes.{k}: unknown key")
        lo, hi, cnt = spec.get("min"), spec.get("max"), spec.get("count")
        if not (_is_num(lo) and _is_num(hi) and lo < hi):
            errors.append("strikes.min/max: need numbers with min < max")
            return []
        if not _is_int(cnt) or cnt < 2:
            errors.append("strikes.count: must be an integer >= 2")
            return []
        return [lo + (hi - lo) * i / (cnt - 1) for i in range(cnt)]
    errors.append("strikes: must be a list or a {min, max, count} object")
    return []


def _check_kernel(spec, errors, required: bool) -> dict | None:
    if spec is None:
        if required:
            errors.append("kernel: required for model 'abergomi'")
        return None
    if not isinstance(spec, dict):
        errors.append("kernel: must be an object")
        return None
    for k in sorted(set(spec) - _KERNEL_KEYS):
        errors.append(f"kernel.{k}: unknown key")
    out = {
        "n": spec.get("n"),
        "method": spec.get("method", "least-squares"),
        "N_grid": spec.get("N_grid"),
        "m2": spec.get("m2", "table"),
        "driver": spec.get("driver", "rescaled"),
        "compensator": spec.get("compensator", "power"),
        "theta": spec.get("theta"),
    }
    if not _is_int(out["n"]) or out["n"] < 1:
        errors.append("kernel.n: must be an integer >= 1")
    if out["method"] not in ("closed-form", "least-squares"):
        errors.append("kernel.method: must be 'closed-form' or 'least-squares'")
    if out["N_grid"] is not None and (not _is_int(out["N_grid"]) or out["N_grid"] < 3):
        errors.append("kernel.N_grid: must be an integer >= 3")
    m2 = out["m2"]
    if not (m2 in ("table", "none") or (_is_num(m2) and m2 > 0)):
        errors.append("kernel.m2: must be 'table', 'none', or a positive number")
    if out["driver"] not in ("rescaled", "direct"):
        errors.append("kernel.driver: must be 'rescaled' or 'direct'")
    if out["compensator"] not in ("power", "exact"):
        errors.append("kernel.compensator: must be 'power' or 'exact'")
    if out["theta"] is not None and (not _is_num(out["theta"]) or out["theta"] <= 0):
        errors.append("kernel.theta: must be a positive number")
    return out


def resolve_config(raw: dict, command: str, overrides: dict) -> dict:
    """Validate raw config for `command`, apply overrides, fill defaults.

    Returns the fully materialized config (defaults included), which is
    what gets hashed and embedded into artifacts.  Raises CliError(2)
    listing every invalid key.
    """
    errors = []
    cfg = dict(raw)
    if overrides.get("seed") is not None:
        cfg["seed"] = overrides["seed"]
    if overrides.get("out_dir") is not None:
        cfg["out_dir"] = overrides["out_dir"]

    for k in sorted(set(cfg) - _TOP_KEYS):
        errors.append(f"{k}: unknown key")
    if cfg.get("schema_version") != 1:
        errors.append("schema_version: must be 1")

    out = {"schema_version": 1}
    seed = cfg.get("seed", 0)
    if not _is_int(seed) or not (0 <= seed < 2**64):
        errors.append("seed: must be an integer in [0, 2^64)")
        seed = 0
    out["seed"] = seed
    out["out_dir"] = cfg.get("out_dir", ".")
    if not isinstance(out["out_dir"], str):
        errors.append("out_dir: must be a string")
        out["out_dir"] = "."

    needs_model = command in ("simulate", "smile", "skew")
    model = cfg.get("model", "rbergomi" if command == "compare" else None)
    if needs_model or "model" in cfg:
        valid = {"rbergomi", "abergomi", "bergomi2f", "bs"}
        if command == "skew":
            valid = {"rbergomi", "bergomi2f"}
        if model not in valid:
            errors.append(f"model: must be one of {sorted(valid)}, got {model!r}")
            model = "rbergomi"
    out["model"] = model

    if command == "fit-kernel":
        fit = cfg.get("fit")
        if not isinstance(fit, dict):
            errors.append("fit: required object for fit-kernel")
            fit = {}
        for k in sorted(set(fit) - _FIT_KEYS):
            errors.append(f"fit.{k}: unknown key")
        fo = {
            "H": fit.get("H"),
            "T": fit.get("T", 1.0),
            "N_grid": fit.get("N_grid", 100),
            "n": fit.get("n"),
            "method": fit.get("method", "least-squares"),
        }
        if not _is_num(fo["H"]) or not (0 < fo["H"] < 0.5):
            errors.append("fit.H: must be a number in (0, 1/2)")
        if not _is_num(fo["T"]) or fo["T"] <= 0:
            errors.append("fit.T: must be a positive number")
        if not _is_int(fo["N_grid"]) or fo["N_grid"] < 3:
            errors.append("fit.N_grid: must be an integer >= 3")
        if not _is_int(fo["n"]) or fo["n"] < 1:
            errors.append("fit.n: must be an integer >= 1")
        if fo["method"] not in ("closed-form", "least-squares"):
            errors.append("fit.method: must be 'closed-form' or 'least-squares'")
        out["fit"] = fo
        if errors:
            raise CliError(
                EXIT_SCHEMA, "config schema errors: " + "; ".join(errors)
            )
        return out

    out["params"] = _check_params(model, cfg.get("params", {}), errors)
    if "params" not in cfg:
        errors.append("params: required")
    if "grid" in cfg:
        out["grid"] = _check_grid(cfg["grid"], errors)
    elif command == "skew":
        # maturities supply T; N only matters for the MC (rbergomi) route
        out["grid"] = {"T": 1.0, "N": 100}
    else:
        errors.append("grid: required")
        out["grid"] = {"T": 1.0, "N": 100}

    paths = cfg.get("paths")
    if not _is_int(paths) or paths < 1:
        if command == "skew" and model == "bergomi2f":
            paths = 0  # analytic path, no MC
        else:
            errors.append("paths: must be an integer >= 1")
            paths = 1
    out["paths"] = paths

    out["strikes"] = _check_strikes(cfg.get("strikes"), errors)
    out["strikes_defaulted"] = "strikes" not in cfg

    kernel_required = model == "abergomi" or command == "compare"
    out["kernel"] = _check_kernel(cfg.get("kernel"), errors, kernel_required)

    if command == "smile":
        steps = cfg.get("steps", [out["grid"]["N"]])
        if not (
            isinstance(steps, list)
            and steps
            and all(_is_int(v) and v >= 2 for v in steps)
        ):
            errors.append("steps: must be a list of integers >= 2")
            steps = [out["grid"]["N"]]
        out["steps"] = steps

    if command == "compare":
        comp = cfg.get("compare", {})
        if not isinstance(comp, dict):
            errors.append("compare: must be an object")
            comp = {}
        for k in sorted(set(comp) - _COMPARE_KEYS):
            errors.append(f"compare.{k}: unknown key")
        terms = comp.get("terms", list(DEFAULT_COMPARE_TERMS))
        steps = comp.get("steps", list(DEFAULT_COMPARE_STEPS))
        for name, lst in (("terms", terms), ("steps", steps)):
            if not (
                isinstance(lst, list)
                and lst
                and all(_is_int(v) and v >= (1 if name == "terms" else 2) for v in lst)
            ):
                errors.append(f"compare.{name}: must be a non-empty integer list")
        out["compare"] = {"terms": terms, "steps": steps}

    if command == "skew":
        mats = cfg.get("maturities", list(DEFAULT_MATURITIES))
        if not (
            isinstance(mats, list) and all(_is_num(v) and v > 0 for v in mats)
        ):
            errors.append("maturities: must be a list of positive numbers")
            mats = list(DEFAULT_MATURITIES)
        if len(mats) < 3:
            errors.append(
                "maturities: need at least 3 maturities to fit a power law, "
                f"got {len(mats)}"
            )
        out["maturities"] = [float(v) for v in mats]
        bump = cfg.get("bump", 0.01)
        if not _is_num(bump) or bump <= 0:
            errors.append("bump: must be a positive number")
            bump = 0.01
        out["bump"] = bump

    if errors:
        raise CliError(EXIT_SCHEMA, "config schema errors: " + "; ".join(errors))
    return out


def config_sha(resolved: dict) -> str:
    """Hash of the resolved config, excluding out_dir.

    The hash identifies the experiment; where its artifacts land must not
    change it, or re-running from an embedded config into a fresh
    directory could never reproduce the original files byte-for-byte.
    """
    body = {k: v for k, v in resolved.items() if k != "out_dir"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# output helpers


def _ensure_outdir(resolved: dict) -> str:
    d = resolved["out_dir"]
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot create output directory {d}: {e}")
    return d


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".roughvol-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot write {path}: {e}")


def _fmt(x) -> str:
    """Shortest round-trip decimal form; '.'-decimal by construction."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_text(sha: str, seed: int, header: list, rows: list) -> str:
    lines = [f"# config_sha256={sha} seed={seed}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _jsonify(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    import numpy as np

    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and obj != obj:  # NaN -> null for valid JSON
        return None
    return obj


def _write_json(path: str, doc: dict):
    _write_atomic(path, json.dumps(_jsonify(doc), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# simulation plumbing (numpy-importing; called after thread setup)


def _resolve_mult(kcfg: dict, N: int) -> float:
    from .models import SMILE_FACTOR_M2

    m2 = kcfg["m2"]
    if m2 == "none":
        return 1.0
    if m2 == "table":
        if N not in SMILE_FACTOR_M2:
            raise CliError(
                EXIT_SCHEMA,
                f"kernel.m2: no tabulated smile factor for N={N} "
                f"(available: {sorted(SMILE_FACTOR_M2)}); pass a number or 'none'",
            )
        m2 = SMILE_FACTOR_M2[N]
    return float(m2) ** 0.5


def _build_kernel(kcfg: dict, H: float, T: float):
    """Kernel per config.

    The regression grid defaults to 100 points regardless of the
    simulation step count: the fit is a property of the kernel
    approximation, and coarse grids (few points per decade of tau) can
    make the unregularized least-squares land on spiky optima that match
    the grid but explode between its points.
    """
    from .kernel import closed_form_kernel, fit_kernel_ls

    n = kcfg["n"]
    if kcfg["method"] == "closed-form":
        kern, _ = closed_form_kernel(n, H, T)
        return kern
    n_grid = kcfg["N_grid"] if kcfg["N_grid"] is not None else 100
    return fit_kernel_ls(H, T, n_grid, n)


def _make_sim(resolved: dict, N: int, T: float, kern=None):
    """Return sim() -> (logS_T, V_T) for the configured model.

    The closure runs the full simulation, increment draw included.  Paths
    are processed in blocks to bound peak memory.
    """
    import numpy as np

    from .sim_core import ModelParams, make_time_grid, sample_correlated_increments

    model = resolved["model"]
    paths = resolved["paths"]
    seed = resolved["seed"]
    grid = make_time_grid(T, N)

    if model == "bs":
        vol = resolved["params"]["vol"]

        def sim():
            inc = sample_correlated_increments(grid, 0.0, paths, seed)
            w_T = inc.dW.sum(axis=1)
            logS = -0.5 * vol * vol * T + vol * w_T
            return logS, np.full(paths, vol * vol)

        return sim

    if model == "rbergomi":
        p = resolved["params"]
        params = ModelParams(xi0=p["xi0"], eta=p["eta"], H=p["H"], rho=p["rho"])

        from .hybrid_scheme import make_hybrid_plan, simulate_volterra
        from .models import rbergomi_log_price, rbergomi_variance
        from .sim_core import PathIncrements

        plan = make_hybrid_plan(grid, params.alpha)

        def sim():
            inc = sample_correlated_increments(grid, params.rho, paths, seed)
            logS_T = np.empty(paths)
            V_T = np.empty(paths)
            for lo in range(0, paths, _SIM_BLOCK):
                hi = min(lo + _SIM_BLOCK, paths)
                blk = PathIncrements(
                    n_paths=hi - lo,
                    dW=inc.dW[lo:hi],
                    dB=inc.dB[lo:hi],
                    dU=inc.dU[lo:hi],
                    rho=inc.rho,
                    seed=inc.seed,
                    grid=inc.grid,
                )
                vol_paths = simulate_volterra(plan, blk)
                V = rbergomi_variance(vol_paths, params)
                logS = rbergomi_log_price(V, blk)
                logS_T[lo:hi] = logS[:, -1]
                V_T[lo:hi] = V.values[:, -1]
            return logS_T, V_T

        return sim

    if model == "abergomi":
        p = resolved["params"]
        params = ModelParams(xi0=p["xi0"], eta=p["eta"], H=p["H"], rho=p["rho"])
        kcfg = resolved["kernel"]
        if kern is None:
            kern = _build_kernel(kcfg, params.H, T)
        mult = _resolve_mult(kcfg, N)

        from .models import (
            AbergomiConfig,
            abergomi_driver,
            abergomi_variance,
            rbergomi_log_price,
            simulate_ou_factors,
        )
        from .sim_core import PathIncrements

        acfg = AbergomiConfig(
            kernel=kern,
            params=params,
            theta=kcfg["theta"],
            mult_factor=mult,
            driver=kcfg["driver"],
            compensator=kcfg["compensator"],
        )

        def sim():
            inc = sample_correlated_increments(grid, params.rho, paths, seed)
            logS_T = np.empty(paths)
            V_T = np.empty(paths)
            for lo in range(0, paths, _SIM_BLOCK):
                hi = min(lo + _SIM_BLOCK, paths)
                blk = PathIncrements(
                    n_paths=hi - lo,
                    dW=inc.dW[lo:hi],
                    dB=inc.dB[lo:hi],
                    dU=inc.dU[lo:hi],
                    rho=inc.rho,
                    seed=inc.seed,
                    grid=inc.grid,
                )
                factors = simulate_ou_factors(acfg, blk)
                drv = abergomi_driver(acfg, factors)
                V = abergomi_variance(acfg, drv)
                logS = rbergomi_log_price(V, blk)
                logS_T[lo:hi] = logS[:, -1]
                V_T[lo:hi] = V.values[:, -1]
            return logS_T, V_T

        return sim

    raise CliError(EXIT_SCHEMA, f"model {model!r} cannot be simulated")


def _timed(sim):
    """Run sim() once; return its result and its wall time."""
    t0 = time.perf_counter()
    result = sim()
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    resolved = resolve_config(
        load_config(args.config),
        "simulate",
        {"seed": args.seed, "out_dir": args.out},
    )
    sha = config_sha(resolved)
    out_dir = _ensure_outdir(resolved)
    model = resolved["model"]
    T, N = resolved["grid"]["T"], resolved["grid"]["N"]
    if model == "bergomi2f":
        raise CliError(
            EXIT_SCHEMA, "model: 'bergomi2f' is analytic-only (use the skew command)"
        )

    import numpy as np

    sim = _make_sim(resolved, N, T)
    (logS_T, V_T), runtime = _timed(sim)
    if not np.all(np.isfinite(logS_T)):
        raise CliError(EXIT_NUMERIC, "simulation produced non-finite log-prices")

    tag = f"{model}_T{_fmt(float(T))}_N{N}"
    paths_file = os.path.join(out_dir, f"paths_{tag}.csv")
    rows = [(i, float(v)) for i, v in enumerate(logS_T)]
    _write_atomic(
        paths_file,
        _csv_text(sha, resolved["seed"], ["path", "log_price_T"], rows),
    )
    summary = {
        "command": "simulate",
        "config": resolved,
        "config_sha256": sha,
        "seed": resolved["seed"],
        "n_paths": resolved["paths"],
        "moments": {
            "mean_log_price": float(logS_T.mean()),
            "var_log_price": float(logS_T.var(ddof=1)),
            "mean_price": float(np.exp(logS_T).mean()),
            "mean_terminal_variance": float(V_T.mean()),
        },
        "runtime_seconds": runtime,
        "files": [os.path.basename(paths_file)],
    }
    _write_json(os.path.join(out_dir, f"summary_{tag}.json"), summary)
    print(f"wrote {paths_file} ({resolved['paths']} paths, {runtime:.4f}s)")
    return EXIT_OK


def cmd_fit_kernel(args) -> int:
    resolved = resolve_config(
        load_config(args.config),
        "fit-kernel",
        {"seed": args.seed, "out_dir": args.out},
    )
    sha = config_sha(resolved)
    out_dir = _ensure_outdir(resolved)
    fo = resolved["fit"]
    H, T, n, n_grid, method = fo["H"], fo["T"], fo["n"], fo["N_grid"], fo["method"]

    import numpy as np

    from .kernel import (
        KernelFitError,
        closed_form_kernel,
        fit_kernel_ls,
        kernel_l2_error,
    )

    tau = np.arange(1, n_grid) * (T / n_grid)
    doc = {
        "command": "fit-kernel",
        "config": resolved,
        "config_sha256": sha,
        "seed": resolved["seed"],
        "H": H,
        "T": T,
        "n": n,
        "N_grid": n_grid,
        "method": method,
    }
    exit_code = EXIT_OK
    if method == "closed-form":
        kern, cert = closed_form_kernel(n, H, T)
        target = tau ** (H - 0.5)
        doc.update(
            {
                "normalized": False,
                "rmse": float(np.sqrt(np.mean((kern(tau) - target) ** 2))),
                "l2_error": cert.l2_error,
                "bound": cert.bound,
                "bound_satisfied": bool(cert.l2_error <= cert.bound),
            }
        )
    else:
        try:
            kern = fit_kernel_ls(H, T, n_grid, n)
            err = None
        except KernelFitError as e:
            kern = e.kernel
            err = str(e)
            exit_code = EXIT_NUMERIC
        target = np.sqrt(2 * H) * tau ** (H - 0.5)
        doc.update(
            {
                "normalized": True,
                "rmse": float(np.sqrt(np.mean((kern(tau) - target) ** 2))),
                "l2_error": kernel_l2_error(kern, H, T),
                "bound": None,
            }
        )
        if err is not None:
            doc["error"] = err
    doc["weights"] = kern.weights
    doc["speeds"] = kern.speeds
    path = os.path.join(out_dir, f"kernel_{method}_n{n}_H{_fmt(float(H))}.json")
    _write_json(path, doc)
    print(f"wrote {path} (rmse={doc['rmse']:.6g}, l2_error={doc['l2_error']:.6g})")
    return exit_code


def _smile_for(resolved: dict, N: int, T: float, kern=None):
    import numpy as np

    from .analytics import mc_smile

    sim = _make_sim(resolved, N, T, kern=kern)
    (logS_T, _), runtime = _timed(sim)
    sm = mc_smile(
        logS_T,
        strikes=np.asarray(resolved["strikes"]),
        T=T,
        model=resolved["model"],
        seed=resolved["seed"],
    )
    return sm, runtime


def cmd_smile(args) -> int:
    resolved = resolve_config(
        load_config(args.config),
        "smile",
        {"seed": args.seed, "out_dir": args.out},
    )
    sha = config_sha(resolved)
    out_dir = _ensure_outdir(resolved)
    model = resolved["model"]
    if model == "bergomi2f":
        raise CliError(
            EXIT_SCHEMA, "model: 'bergomi2f' is analytic-only (use the skew command)"
        )
    T = resolved["grid"]["T"]

    import math

    files = []
    skipped_all = {}
    for N in resolved["steps"]:
        sm, _ = _smile_for(resolved, N, T)
        tag = f"{model}_T{_fmt(float(T))}_N{N}"
        rows = []
        for i, k in enumerate(sm.strikes):
            rows.append(
                (
                    float(k),
                    float(math.exp(k)),
                    float(sm.vols[i]),
                    float(sm.prices[i]),
                    float(sm.price_stderr[i]),
                )
            )
        path = os.path.join(out_dir, f"smile_{tag}.csv")
        _write_atomic(
            path,
            _csv_text(
                sha,
                resolved["seed"],
                ["log_moneyness", "strike", "implied_vol", "price", "stderr"],
                rows,
            ),
        )
        files.append(os.path.basename(path))
        if sm.skipped:
            skipped_all[str(N)] = list(sm.skipped)

    summary = {
        "command": "smile",
        "config": resolved,
        "config_sha256": sha,
        "seed": resolved["seed"],
        "strikes": resolved["strikes"],
        "strikes_defaulted": resolved["strikes_defaulted"],
        "skipped": skipped_all,
        "files": files,
    }
    _write_json(
        os.path.join(out_dir, f"smile_summary_{model}_T{_fmt(float(T))}.json"), summary
    )
    print(f"wrote {len(files)} smile file(s) to {out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    resolved = resolve_config(
        load_config(args.config),
        "compare",
        {"seed": args.seed, "out_dir": args.out},
    )
    if args.config_b:
        resolved_b = resolve_config(
            load_config(args.config_b),
            "compare",
            {"seed": args.seed, "out_dir": args.out},
        )
        for key, label in (
            ("strikes", "strike grids"),
            ("grid", "time grids"),
            ("paths", "path counts"),
            ("seed", "seeds (CRN requires a shared seed)"),
        ):
            if resolved[key] != resolved_b[key]:
                raise CliError(
                    EXIT_SCHEMA,
                    f"config pair mismatch: {label} differ "
                    f"({resolved[key]!r} vs {resolved_b[key]!r})",
                )
    else:
        resolved_b = resolved
    sha = config_sha(resolved)
    out_dir = _ensure_outdir(resolved)
    T = resolved["grid"]["T"]
    terms = resolved["compare"]["terms"]
    steps = resolved["compare"]["steps"]
    p = resolved["params"]

    from .analytics import smile_rmse

    side_a = dict(resolved, model="rbergomi")
    side_b = dict(resolved_b, model="abergomi")

    rows = []
    kern_cache = {}
    for N in steps:
        smile_r, rt_r = _smile_for(side_a, N, T)
        for n in terms:
            kcfg = dict(side_b["kernel"], n=n)
            if n not in kern_cache:
                kern_cache[n] = _build_kernel(kcfg, p["H"], T)
            smile_a, rt_a = _smile_for(
                dict(side_b, kernel=kcfg), N, T, kern=kern_cache[n]
            )
            rows.append((n, N, smile_rmse(smile_r, smile_a), rt_r, rt_a))

    path = os.path.join(out_dir, "compare_rmse.csv")
    _write_atomic(
        path,
        _csv_text(
            sha,
            resolved["seed"],
            ["terms", "steps", "rmse", "runtime_rbergomi", "runtime_abergomi"],
            rows,
        ),
    )
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_skew(args) -> int:
    resolved = resolve_config(
        load_config(args.config),
        "skew",
        {"seed": args.seed, "out_dir": args.out},
    )
    sha = config_sha(resolved)
    out_dir = _ensure_outdir(resolved)
    model = resolved["model"]
    mats = resolved["maturities"]

    import numpy as np

    from .analytics import atm_skew

    if model == "rbergomi":
        N = resolved["grid"]["N"]

        def smile_fn(T, strikes):
            sub = dict(resolved, strikes=[float(k) for k in strikes])
            sm, _ = _smile_for(sub, N, T)
            return sm

        report = atm_skew(smile_fn, mats, bump=resolved["bump"])
        doc_extra = {"bump": resolved["bump"], "n_paths": resolved["paths"]}
    else:  # bergomi2f: analytic ATM skew, no MC
        from .analytics import (
            TwoFactorParams,
            expansion_terms,
            two_factor_coeffs,
        )

        p = resolved["params"]
        tf = TwoFactorParams(
            omega=p["omega"],
            theta=p["theta"],
            kappa_X=p["kappa_X"],
            kappa_Y=p["kappa_Y"],
            rho_SX=p["rho_SX"],
            rho_SY=p["rho_SY"],
            rho_XY=p["rho_XY"],
        )
        xi0 = p["xi0"]
        psi = np.empty(len(mats))
        for i, T in enumerate(mats):
            coeffs = two_factor_coeffs(tf, T, xi0)
            _, s_t, _ = expansion_terms(coeffs, xi0 * T, T)
            psi[i] = abs(s_t)
        tarr = np.asarray(mats)
        A = np.vstack([np.ones(tarr.size), np.log(tarr)]).T
        coef, *_ = np.linalg.lstsq(A, np.log(psi), rcond=None)

        from .analytics import SkewReport

        report = SkewReport(
            maturities=tarr,
            psi=psi,
            bump=0.0,
            exponent=float(coef[1]),
            intercept=float(coef[0]),
            residual=float(np.sqrt(np.mean((A @ coef - np.log(psi)) ** 2))),
            flagged=np.zeros(tarr.size, dtype=bool),
            richardson=psi.copy(),
        )
        doc_extra = {"bump": None, "n_paths": 0, "analytic": True}

    if not np.isfinite(report.exponent):
        raise CliError(
            EXIT_NUMERIC,
            "skew power-law fit failed: fewer than 2 usable maturities "
            f"(flagged: {report.flagged.tolist()})",
        )
    doc = {
        "command": "skew",
        "config": resolved,
        "config_sha256": sha,
        "seed": resolved["seed"],
        "model": model,
        "maturities": report.maturities,
        "psi": report.psi,
        "exponent": report.exponent,
        "intercept": report.intercept,
        "residual": report.residual,
        "flagged": report.flagged,
        "richardson": report.richardson,
    }
    doc.update(doc_extra)
    path = os.path.join(out_dir, f"skew_{model}.json")
    _write_json(path, doc)
    print(f"wrote {path} (exponent={report.exponent:.4f})")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to JSON config")
    common.add_argument("--out", default=None, help="output directory override")
    common.add_argument("--seed", type=int, default=None, help="seed override (u64)")
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help="BLAS/OpenMP threads, also the cap on the simulation's own thread "
        "pool (0 = auto, though an inherited OMP_NUM_THREADS still caps "
        "the pool; env ROUGHVOL_THREADS as fallback)",
    )
    parser = argparse.ArgumentParser(
        prog="roughvol",
        description="Monte Carlo engine for rough volatility: simulate, fit "
        "kernels, price smiles, compare models, measure ATM skew.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="paths CSV + summary JSON")
    sub.add_parser("fit-kernel", parents=[common], help="kernel JSON + residuals")
    sub.add_parser("smile", parents=[common], help="smile CSV per (model, T, N)")
    cmp_p = sub.add_parser("compare", parents=[common], help="RMSE table CSV")
    cmp_p.add_argument(
        "--config-b", default=None, help="second config (aBergomi side) of the pair"
    )
    sub.add_parser("skew", parents=[common], help="ATM-skew term structure JSON")
    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "fit-kernel": cmd_fit_kernel,
    "smile": cmd_smile,
    "compare": cmd_compare,
    "skew": cmd_skew,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_threads(args.threads)
        return _DISPATCH[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
