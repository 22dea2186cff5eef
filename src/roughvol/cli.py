"""Batch front-end: configure, run, and export experiments as CSV/JSON.

Subcommands
-----------
simulate    terminal log-prices (CSV, one row per path) + summary JSON
fit-kernel  sum-of-exponentials kernel fit -> kernel JSON + residual report
smile       implied-vol smile CSV, one file per (model, T, N)
compare     rBergomi-vs-aBergomi smile RMSE table over a (terms x steps) grid
skew        ATM-skew term structure + fitted power-law exponent (JSON)

All commands read a single JSON config (--config); --seed/--out override
the config's seed/out_dir.  The config is checked against one table
(_CONFIG): unknown keys are errors, numbers must be finite (json.load
accepts NaN and Infinity, the table does not), and schema errors name
every offending key.  Every artifact embeds the sha256 of the resolved
config (defaults filled in) plus the seed, so runs are reproducible from
their own outputs.  CSVs are comma-separated, '.' decimal, LF line endings,
header mandatory; files are written atomically (temp + rename).

Exit codes: 0 ok, 2 schema error, 3 numeric failure, 4 I/O error.

Thread control: --threads N (0 = auto) or the ROUGHVOL_THREADS env var set
the BLAS/OpenMP pool sizes; this must happen before numpy is first
imported, which is why this module defers all numeric imports into the
command bodies.  The same setting (through OMP_NUM_THREADS) caps the
thread pool that draws increment blocks and runs the FFT convolution; with
0, an OMP_NUM_THREADS inherited from the environment still caps that pool.
The setting lasts for one main() call: main restores the thread variables
when it returns.  Results are bit-identical at any thread count.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from typing import Any, Callable, NamedTuple

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


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
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


# ---------------------------------------------------------------------------
# config loading and the schema table


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


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _num(v) -> bool:
    """A finite number: NaN and +-Infinity are not."""
    return _int(v) or (isinstance(v, float) and math.isfinite(v))


def _pos(v) -> bool:
    return _num(v) and v > 0


def _int_from(lo: int):
    return lambda v: _int(v) and v >= lo


def _int_list(lo: int):
    return lambda v: isinstance(v, list) and bool(v) and all(_int_from(lo)(x) for x in v)


def _one_of(*names):
    return lambda v: v in names


def _optional(test):
    return lambda v: v is None or test(v)


_ABSENT = object()  # the value of a missing key, as a `check` function sees it


class _Key(NamedTuple):
    """One row of the config table: test(value) must hold, else msg.

    An absent key resolves to default (called with the config resolved so
    far when callable) and is reported if required.  bound(value, block)
    names the range an accepted value is outside of, if any, given the
    block's rows resolved before it; cast maps an accepted value into the
    resolved config.  check(value, ctx, errors) -> resolved value replaces
    all of these for a rule a row cannot state.  A key outside `commands`
    (empty: all) is accepted but not checked or resolved.
    """

    test: Callable[[Any], bool] | None = None
    msg: str = ""
    default: Any = None
    required: bool = False
    bound: Callable[[Any], str | None] | None = None
    cast: Callable[[Any], Any] | None = None
    check: Callable[[Any, dict, list], Any] | None = None
    commands: tuple = ()


def _walk(prefix: str, obj: dict, table: dict, ctx: dict, errors: list, model=None):
    """Check obj against table; return it resolved, defaults filled in.

    Unknown keys are reported first, sorted, then each key in table order.
    In a model's parameter block, messages name the model and every range
    error follows every type error.
    """
    suffix = f" for model {model!r}" if model else ""
    for k in sorted(set(obj) - set(table)):
        errors.append(f"{prefix}{k}: unknown key{suffix}")
    out, ranges = {}, []
    for name, key in table.items():
        v = obj.get(name, _ABSENT)
        if key.commands and ctx["command"] not in key.commands:
            continue
        if key.check:
            out[name] = key.check(v, ctx, errors)
        elif v is _ABSENT:
            default = key.default
            out[name] = default(out) if callable(default) else copy.copy(default)
            if key.required:
                why = f"required{suffix}" if model else key.msg
                errors.append(f"{prefix}{name}: {why}")
        elif not key.test(v):
            out[name] = v
            errors.append(f"{prefix}{name}: {key.msg}")
        else:
            out[name] = key.cast(v) if key.cast else v
            why = key.bound(v, out) if key.bound else None
            if why:
                (ranges if model else errors).append(f"{prefix}{name}: {why}")
    errors += ranges
    return out


# The rules below the key level: which models a command takes and how an
# absent or malformed object section is reported.


def _check_model(v, ctx: dict, errors: list):
    command = ctx["command"]
    if v is _ABSENT:
        if command == "fit-kernel":
            return None
        v = "rbergomi" if command == "compare" else None
    valid = _COMMAND_MODELS.get(command, _MODELS)
    if v not in valid:
        errors.append(f"model: must be one of {sorted(valid)}, got {v!r}")
        v = "rbergomi"
    ctx["model"] = v
    return v


def _check_fit(v, ctx: dict, errors: list):
    if not isinstance(v, dict):
        errors.append("fit: required object for fit-kernel")
        v = {}
    return _walk("fit.", v, _FIT, ctx, errors)


def _check_params(v, ctx: dict, errors: list):
    if v is not _ABSENT and not isinstance(v, dict):
        errors.append("params: must be an object")
        return {}
    model = ctx["model"]
    obj = {} if v is _ABSENT else v
    out = _walk("params.", obj, _PARAMS[model], ctx, errors, model)
    if v is _ABSENT:
        errors.append("params: required")
    return out


def _check_grid(v, ctx: dict, errors: list):
    if v is _ABSENT and ctx["command"] == "skew":
        v = {"T": 1.0, "N": 100}  # maturities supply T; N only matters for MC
    if isinstance(v, dict):
        return _walk("grid.", v, _GRID, ctx, errors)
    if v is _ABSENT:
        errors.append("grid: required")
    else:
        errors.append("grid: must be an object with keys T, N")
    return {"T": 1.0, "N": 100}


def _check_paths(v, ctx: dict, errors: list):
    if _int_from(1)(v):
        return v
    if ctx["command"] != "skew" or ctx["model"] != "bergomi2f":  # analytic: no MC
        errors.append("paths: must be an integer >= 1")
    return 0


def _check_strikes(v, ctx: dict, errors: list):
    if v is _ABSENT or v is None:
        v = {"min": -0.2, "max": 0.2, "count": 21}
    if isinstance(v, list):
        if v and all(_num(x) for x in v):
            return [float(x) for x in v]
        errors.append("strikes: must be a non-empty list of numbers")
        return []
    if not isinstance(v, dict):
        errors.append("strikes: must be a list or a {min, max, count} object")
        return []
    for k in sorted(set(v) - {"min", "max", "count"}):
        errors.append(f"strikes.{k}: unknown key")
    lo, hi, cnt = v.get("min"), v.get("max"), v.get("count")
    if not (_num(lo) and _num(hi) and lo < hi):
        errors.append("strikes.min/max: need numbers with min < max")
        return []
    if not _int_from(2)(cnt):
        errors.append("strikes.count: must be an integer >= 2")
        return []
    return [lo + (hi - lo) * i / (cnt - 1) for i in range(cnt)]


def _check_kernel(v, ctx: dict, errors: list):
    if isinstance(v, dict):
        return _walk("kernel.", v, _KERNEL, ctx, errors)
    if v is not _ABSENT and v is not None:
        errors.append("kernel: must be an object")
    elif ctx["model"] == "abergomi" or ctx["command"] == "compare":
        errors.append("kernel: required for model 'abergomi'")
    return None


def _check_compare(v, ctx: dict, errors: list):
    if v is not _ABSENT and not isinstance(v, dict):
        errors.append("compare: must be an object")
    return _walk("compare.", v if isinstance(v, dict) else {}, _COMPARE, ctx, errors)


def _param(ok: Callable[[Any], bool], range_msg: str) -> _Key:
    """A required model parameter: a number first, then inside its range."""
    return _Key(
        _num, _NUM, required=True, bound=lambda v, _: None if ok(v) else range_msg
    )


def _below_kappa_X(v, block: dict):
    kx = block["kappa_X"]
    if not 0 < v < (kx if _num(kx) else math.inf):
        return "must lie in (0, kappa_X)"


def _at_least_3(v: list, _):
    if len(v) < 3:
        return f"need at least 3 maturities to fit a power law, got {len(v)}"


_PRICING = ("simulate", "smile", "compare", "skew")
_MODELS = ("abergomi", "bergomi2f", "bs", "rbergomi")
_COMMAND_MODELS = {"skew": ("bergomi2f", "rbergomi"), "compare": ("abergomi", "rbergomi")}
_NUM, _POS = "must be a number", "must be a positive number"
_INT_LIST = "must be a non-empty integer list"
_METHOD = _Key(
    _one_of("closed-form", "least-squares"),
    "must be 'closed-form' or 'least-squares'",
    "least-squares",
)
_RB_PARAMS = {
    "xi0": _param(lambda v: v > 0, "must be positive"),
    "eta": _param(lambda v: v > 0, "must be positive"),
    "H": _param(lambda v: 0 < v < 0.5, "must lie in (0, 1/2)"),
    "rho": _param(lambda v: abs(v) <= 1, "must lie in [-1, 1]"),
}
_RHO = _param(lambda v: abs(v) <= 1, "must lie in [-1, 1]")
# TwoFactorParams' own ranges, so that each exits as a schema error
_TWO_FACTOR_PARAMS = {
    "kappa_X": _param(lambda v: v > 0, "must be positive"),
    "kappa_Y": _Key(_num, _NUM, required=True, bound=_below_kappa_X),
    "omega": _param(lambda v: v > 0, "must be positive"),
    "rho_SX": _RHO,
    "rho_SY": _RHO,
    "rho_XY": _RHO,
    "theta": _param(lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
}
_TWO_FACTOR = tuple(_TWO_FACTOR_PARAMS)
_PARAMS = {
    "rbergomi": _RB_PARAMS,
    "abergomi": _RB_PARAMS,
    "bs": {"vol": _Key(_pos, _POS, required=True)},
    "bergomi2f": {
        **_TWO_FACTOR_PARAMS,
        "xi0": _Key(_num, _NUM, 0.026, bound=_RB_PARAMS["xi0"].bound),
    },
}
_FIT = {
    "H": _Key(
        lambda v: _pos(v) and v < 0.5, "must be a number in (0, 1/2)", required=True
    ),
    "T": _Key(_pos, _POS, 1.0),
    "N_grid": _Key(_int_from(3), "must be an integer >= 3", 100),
    "n": _Key(_int_from(1), "must be an integer >= 1", required=True),
    "method": _METHOD,
}
_GRID = {
    "T": _Key(_pos, _POS, 1.0, required=True),
    "N": _Key(_int_from(2), "must be an integer >= 2", 100, required=True),
}
_KERNEL = {
    "n": _Key(_int_from(1), "must be an integer >= 1", required=True),
    "method": _METHOD,
    "N_grid": _Key(_optional(_int_from(3)), "must be an integer >= 3"),
}
_COMPARE = {
    "terms": _Key(_int_list(1), _INT_LIST, [15, 20, 25]),
    "steps": _Key(_int_list(2), _INT_LIST, [50, 100, 150, 200]),
}
# The whole schema, in the order its messages are reported.
_CONFIG = {
    "schema_version": _Key(lambda v: v == 1, "must be 1", 1, True, cast=lambda v: 1),
    "seed": _Key(
        lambda v: _int(v) and 0 <= v < 2**64, "must be an integer in [0, 2^64)", 0
    ),
    "out_dir": _Key(lambda v: isinstance(v, str), "must be a string", "."),
    "model": _Key(check=_check_model),
    "fit": _Key(check=_check_fit, commands=("fit-kernel",)),
    "params": _Key(check=_check_params, commands=_PRICING),
    "grid": _Key(check=_check_grid, commands=_PRICING),
    "paths": _Key(check=_check_paths, commands=_PRICING),
    "strikes": _Key(check=_check_strikes, commands=_PRICING),
    "kernel": _Key(check=_check_kernel, commands=_PRICING),
    "steps": _Key(
        _int_list(2),
        "must be a list of integers >= 2",
        lambda out: [out["grid"]["N"]],
        commands=("smile",),
    ),
    "compare": _Key(check=_check_compare, commands=("compare",)),
    "maturities": _Key(
        lambda v: isinstance(v, list) and all(_pos(x) for x in v),
        "must be a list of positive numbers",
        [0.1, 0.25, 0.5, 1.0, 2.0],
        bound=_at_least_3,
        cast=lambda v: [float(x) for x in v],
        commands=("skew",),
    ),
    "bump": _Key(_pos, _POS, 0.01, commands=("skew",)),
}


def resolve_config(raw: dict, command: str, overrides: dict) -> dict:
    """Validate raw config for `command`, apply overrides, fill defaults.

    Returns the fully materialized config (defaults included), which is
    what gets hashed and embedded into artifacts.  Raises CliError(2)
    listing every invalid key.
    """
    cfg = dict(raw)
    cfg.update((k, v) for k, v in overrides.items() if v is not None)
    errors = []
    out = _walk("", cfg, _CONFIG, {"command": command, "model": None}, errors)
    if command in _PRICING:
        out["strikes_defaulted"] = "strikes" not in cfg
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


class _Run(NamedTuple):
    """A command's resolved config, its hash and its (created) output directory.

    Every artifact carries the hash and the seed: a CSV in its first line, a
    JSON document next to the command name and the resolved config.
    """

    command: str
    config: dict
    sha: str
    out_dir: str

    def write_csv(self, name: str, header: list, rows: list) -> str:
        lines = [f"# config_sha256={self.sha} seed={self.config['seed']}"]
        lines += [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
        path = os.path.join(self.out_dir, name)
        _write_atomic(path, "\n".join(lines) + "\n")
        return path

    def write_json(self, name: str, doc: dict) -> str:
        doc = dict(
            doc,
            command=self.command,
            config=self.config,
            config_sha256=self.sha,
            seed=self.config["seed"],
        )
        path = os.path.join(self.out_dir, name)
        _write_atomic(path, json.dumps(_jsonify(doc), indent=2, sort_keys=True) + "\n")
        return path


# ---------------------------------------------------------------------------
# simulation plumbing (numpy-importing; called after thread setup)


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


def _simulate(resolved: dict, N: int, T: float, kern=None):
    """Simulate the configured model on N steps to T.

    Returns ((logS_T, V_T), seconds): terminal log-prices and variances, and
    the wall time of the simulation itself (increment draw included, plan
    and kernel set-up excluded).  The rough models are evaluated one
    sim_core.iter_blocks block at a time to bound peak memory.
    """
    import numpy as np

    from .models import rbergomi_log_price
    from .sim_core import (
        ModelParams,
        iter_blocks,
        make_time_grid,
        sample_correlated_increments,
    )

    model, paths, p = resolved["model"], resolved["paths"], resolved["params"]
    grid = make_time_grid(T, N)
    if model != "bs":
        from .hybrid_scheme import make_hybrid_plan, simulate_volterra
        from .models import rbergomi_variance

        params = ModelParams(xi0=p["xi0"], eta=p["eta"], H=p["H"], rho=p["rho"])
        if model == "abergomi" and kern is None:
            kern = _build_kernel(resolved["kernel"], params.H, T)
        # the Markovian model is the rough one with kernel cell averages in
        # its tail (the hybrid multifactor scheme); kern is None for rbergomi
        plan = make_hybrid_plan(grid, params.alpha, kernel=kern)

    t0 = time.perf_counter()
    if model == "bs":
        vol = p["vol"]
        inc = sample_correlated_increments(grid, 0.0, paths, resolved["seed"])
        logS_T = -0.5 * vol * vol * T + vol * inc.dW.sum(axis=1)
        V_T = np.full(paths, vol * vol)
    else:
        inc = sample_correlated_increments(grid, params.rho, paths, resolved["seed"])
        logS_T = np.empty(paths)
        V_T = np.empty(paths)
        for rows, blk in iter_blocks(inc):
            V = rbergomi_variance(simulate_volterra(plan, blk), params)
            logS_T[rows] = rbergomi_log_price(V, blk)[:, -1]
            V_T[rows] = V.values[:, -1]
    return (logS_T, V_T), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments and the _Run that main set up


def cmd_simulate(args, run: _Run) -> int:
    resolved = run.config
    model = resolved["model"]
    T, N = resolved["grid"]["T"], resolved["grid"]["N"]

    import numpy as np

    (logS_T, V_T), runtime = _simulate(resolved, N, T)
    if not np.all(np.isfinite(logS_T)):
        raise CliError(EXIT_NUMERIC, "simulation produced non-finite log-prices")

    tag = f"{model}_T{_fmt(float(T))}_N{N}"
    rows = [(i, float(v)) for i, v in enumerate(logS_T)]
    paths_file = run.write_csv(f"paths_{tag}.csv", ["path", "log_price_T"], rows)
    summary = {
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
    run.write_json(f"summary_{tag}.json", summary)
    print(f"wrote {paths_file} ({resolved['paths']} paths, {runtime:.4f}s)")
    return EXIT_OK


def cmd_fit_kernel(args, run: _Run) -> int:
    fo = run.config["fit"]
    H, T, n, n_grid, method = fo["H"], fo["T"], fo["n"], fo["N_grid"], fo["method"]

    import numpy as np

    from .kernel import (
        KernelFitError,
        closed_form_kernel,
        fit_kernel_ls,
        kernel_l2_error,
    )

    tau = np.arange(1, n_grid) * (T / n_grid)
    doc = dict(fo)
    exit_code = EXIT_OK
    if method == "closed-form":
        kern, cert = closed_form_kernel(n, H, T)
        target = tau ** (H - 0.5)
        doc.update(
            {
                "normalized": False,
                "l2_error": cert.l2_error,
                "bound": cert.bound,
                "bound_satisfied": bool(cert.l2_error <= cert.bound),
            }
        )
    else:
        try:
            kern = fit_kernel_ls(H, T, n_grid, n)
        except KernelFitError as e:
            kern = e.kernel
            doc["error"] = str(e)
            exit_code = EXIT_NUMERIC
        target = np.sqrt(2 * H) * tau ** (H - 0.5)
        doc.update(
            {
                "normalized": True,
                "l2_error": kernel_l2_error(kern, H, T),
                "bound": None,
            }
        )
    doc["rmse"] = float(np.sqrt(np.mean((kern(tau) - target) ** 2)))
    doc["weights"] = kern.weights
    doc["speeds"] = kern.speeds
    path = run.write_json(f"kernel_{method}_n{n}_H{_fmt(float(H))}.json", doc)
    print(f"wrote {path} (rmse={doc['rmse']:.6g}, l2_error={doc['l2_error']:.6g})")
    return exit_code


def _smile_for(resolved: dict, N: int, T: float, kern=None):
    import numpy as np

    from .analytics import mc_smile

    (logS_T, _), runtime = _simulate(resolved, N, T, kern=kern)
    sm = mc_smile(
        logS_T,
        strikes=np.asarray(resolved["strikes"]),
        T=T,
        model=resolved["model"],
        seed=resolved["seed"],
    )
    return sm, runtime


def cmd_smile(args, run: _Run) -> int:
    resolved = run.config
    model = resolved["model"]
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
        path = run.write_csv(
            f"smile_{tag}.csv",
            ["log_moneyness", "strike", "implied_vol", "price", "stderr"],
            rows,
        )
        files.append(os.path.basename(path))
        if sm.skipped:
            skipped_all[str(N)] = list(sm.skipped)

    summary = {
        "strikes": resolved["strikes"],
        "strikes_defaulted": resolved["strikes_defaulted"],
        "skipped": skipped_all,
        "files": files,
    }
    run.write_json(f"smile_summary_{model}_T{_fmt(float(T))}.json", summary)
    print(f"wrote {len(files)} smile file(s) to {run.out_dir}")
    return EXIT_OK


def cmd_compare(args, run: _Run) -> int:
    resolved = run.config
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

    path = run.write_csv(
        "compare_rmse.csv",
        ["terms", "steps", "rmse", "runtime_rbergomi", "runtime_abergomi"],
        rows,
    )
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_skew(args, run: _Run) -> int:
    resolved = run.config
    model = resolved["model"]
    mats = resolved["maturities"]

    import numpy as np

    from .analytics import SkewReport, atm_skew, fit_power_law

    if model == "rbergomi":
        N = resolved["grid"]["N"]

        def smile_fn(T, strikes):
            sub = dict(resolved, strikes=[float(k) for k in strikes])
            sm, _ = _smile_for(sub, N, T)
            return sm

        report = atm_skew(smile_fn, mats, bump=resolved["bump"])
        doc_extra = {"bump": resolved["bump"], "n_paths": resolved["paths"]}
    else:  # bergomi2f: analytic ATM skew, no MC
        from .analytics import TwoFactorParams, expansion_terms, two_factor_coeffs

        p = resolved["params"]
        tf = TwoFactorParams(**{k: p[k] for k in _TWO_FACTOR})
        xi0 = p["xi0"]
        psi = np.empty(len(mats))
        for i, T in enumerate(mats):
            coeffs = two_factor_coeffs(tf, T, xi0)
            _, s_t, _ = expansion_terms(coeffs, xi0 * T, T)
            psi[i] = abs(s_t)
        tarr = np.asarray(mats)
        intercept, exponent, residual = fit_power_law(tarr, psi)
        report = SkewReport(
            maturities=tarr,
            psi=psi,
            bump=0.0,
            exponent=exponent,
            intercept=intercept,
            residual=residual,
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
    doc = dict(dataclasses.asdict(report), model=model, **doc_extra)
    path = run.write_json(f"skew_{model}.json", doc)
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
    saved = {var: os.environ.get(var) for var in _THREAD_VARS}
    try:
        _setup_threads(args.threads)
        resolved = resolve_config(
            load_config(args.config),
            args.command,
            {"seed": args.seed, "out_dir": args.out},
        )
        sha, out_dir = config_sha(resolved), _ensure_outdir(resolved)
        run = _Run(args.command, resolved, sha, out_dir)
        if resolved["model"] == "bergomi2f" and args.command in ("simulate", "smile"):
            raise CliError(
                EXIT_SCHEMA, "model: 'bergomi2f' is analytic-only (use the skew command)"
            )
        return _DISPATCH[args.command](args, run)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        # --threads is scoped to this call: later library calls in the same
        # process must not stay capped
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


if __name__ == "__main__":
    sys.exit(main())
