"""Batch front-end: configure, run, and export experiments as CSV/JSON.

Subcommands
-----------
simulate    terminal log-prices (CSV, one row per path) + summary JSON
fit-kernel  sum-of-exponentials kernel fit -> kernel JSON + residual report
smile       implied-vol smile CSV, one file per (model, T, N)
compare     rBergomi-vs-aBergomi smile RMSE table over a (terms x steps) grid
skew        ATM-skew term structure + fitted power-law exponent (JSON)

Models: rbergomi, abergomi and bs for simulate and smile; rbergomi, abergomi
and the analytic bergomi2f for skew (each command is one row of _COMMANDS).
compare runs rBergomi against aBergomi at each compare.terms count, with the
kernel.method kernel.  A command checks and hashes only the keys it reads
(the `commands` column of _CONFIG; smile reads grid.N only without steps);
any other key of the table is accepted and ignored.

All commands read a single JSON config (--config); --seed/--out override
the config's seed/out_dir.  The config is checked against one table
(_CONFIG): unknown keys are errors, numbers must be finite (json.load
accepts NaN and Infinity, the table does not), and schema errors name
every offending key.  The config is a command's only input: every
artifact embeds the sha256 of its resolved form (defaults filled in,
out_dir left out) plus the seed, so runs are reproducible from their own
outputs.  CSVs are comma-separated, '.' decimal, LF line endings, header
mandatory; files are written atomically (temp + rename).

Exit codes: 0 ok, 2 schema error, 3 numeric failure or failed allocation,
4 I/O error.

Thread control: --threads N sets OMP_NUM_THREADS, the cap on the thread
pool that draws increment blocks and runs the FFT convolution
(sim_core.run_chunks); with 0 (auto) an OMP_NUM_THREADS inherited from the
environment still caps that pool.  The setting lasts for one main() call:
main restores the variable when it returns.  Results are bit-identical at
any thread count.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from typing import Any, Callable, NamedTuple

import numpy as np

from . import analytics, kernel, models, sim_core

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class CliError(Exception):
    """Command failure carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# config loading and the schema table


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot read config {path}: {e}")
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, too deep
        raise CliError(EXIT_SCHEMA, f"config {path} is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise CliError(EXIT_SCHEMA, f"config {path} must be a JSON object")
    return raw


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_num = sim_core._number  # the parameter domains' own meaning of a number


def _pos(v) -> bool:
    return _num(v) and v > 0


def _int_from(lo: int):
    return lambda v: _int(v) and v >= lo


def _int_list(lo: int):
    return lambda v: isinstance(v, list) and bool(v) and all(_int_from(lo)(x) for x in v)


def _one_of(*names):
    return lambda v: v in names


_ABSENT = object()  # the value of a missing key, as a `check` function sees it


class _Key(NamedTuple):
    """One row of the config table: test(value) must hold, else msg.

    An absent key resolves to default (called with the config resolved so
    far when callable) and is reported if required (called with the context
    when callable).  bound(value, block) names the range an accepted value
    is outside of, if any, given the block's rows resolved before it; cast
    maps an accepted value into the resolved config.  A row with a table is
    a section (see _walk).  check(value, ctx, errors) -> resolved value
    replaces all of these for a rule a row cannot state.  A key outside
    `commands` (empty: all), or whose required gives None, is accepted but
    not checked or resolved.
    """

    test: Callable[[Any], bool] | None = None
    msg: str = ""
    default: Any = None
    required: bool | Callable[[dict], bool | None] = False
    bound: Callable[[Any, dict], str | None] | None = None
    cast: Callable[[Any], Any] | None = None
    check: Callable[[Any, dict, list], Any] | None = None
    commands: tuple = ()
    table: dict | Callable[[str], dict] | None = None


def _walk(prefix: str, obj: dict, table: dict, ctx: dict, errors: list, model=None):
    """Check obj against table; return it resolved, defaults filled in.

    Unknown keys are reported first, sorted, then each key in table order.
    In a model's parameter block, messages name the model and every range
    error follows every type error.  One rule for every object section:
    absent or null takes the default (or is reported if required), an
    object is walked, anything else is reported.  A callable sub-table maps
    the model to its rows.
    """
    suffix = f" for model {model!r}" if model else ""
    for k in sorted(set(obj) - set(table)):
        errors.append(f"{prefix}{k}: unknown key{suffix}")
    out, ranges = {}, []
    for name, key in table.items():
        v, section = obj.get(name, _ABSENT), key.table is not None
        required = key.required(ctx) if callable(key.required) else key.required
        if required is None or key.commands and ctx["command"] not in key.commands:
            continue
        if key.check:
            out[name] = key.check(v, ctx, errors)
        elif v is _ABSENT or (section and v is None):
            default = key.default
            out[name] = default(out) if callable(default) else copy.deepcopy(default)
            if required:
                why = f"required{suffix}" if section or model else key.msg
                errors.append(f"{prefix}{name}: {why}")
        elif section and isinstance(v, dict):
            by_model = ctx["model"] if callable(key.table) else None
            rows = key.table(by_model) if by_model else key.table
            out[name] = _walk(f"{prefix}{name}.", v, rows, ctx, errors, by_model)
        elif section:
            out[name] = copy.deepcopy(key.default)
            errors.append(f"{prefix}{name}: must be an object")
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


# The rules a row cannot state: the models a command takes (its _COMMANDS
# row) and the two forms of a strike grid.


def _check_model(v, ctx: dict, errors: list):
    v = None if v is _ABSENT else v
    valid = _COMMANDS[ctx["command"]][2]
    if v not in valid:
        errors.append(f"model: must be one of {sorted(valid)}, got {v!r}")
        if v not in _PARAMS:  # a known model's params are checked as its own
            v = "rbergomi"
    ctx["model"] = v
    return v


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


def _params(domains: dict) -> dict:
    """A model's parameter rows: a required number, then inside its domain."""
    return {k: _Key(_num, _NUM, required=True, bound=f) for k, f in domains.items()}


def _at_least_3(v: list, _):
    n = len(set(v))
    if n < 3:
        return f"need at least 3 distinct maturities to fit a power law, got {n}"


_PRICING = ("simulate", "smile", "compare", "skew")
_NUM, _POS = "must be a number", "must be a positive number"
_INT_LIST = "must be a non-empty integer list"
_METHOD = _Key(
    _one_of("closed-form", "least-squares"),
    "must be 'closed-form' or 'least-squares'",
    "least-squares",
)
_RB_PARAMS = _params(sim_core.ModelParams.DOMAINS)
_PARAMS = {
    "rbergomi": _RB_PARAMS,
    "abergomi": _RB_PARAMS,
    "bs": {"vol": _Key(_pos, _POS, required=True)},
    "bergomi2f": {
        **_params(analytics.TwoFactorParams.DOMAINS),
        "xi0": _Key(_num, _NUM, 0.026, bound=_RB_PARAMS["xi0"].bound),
    },
}
_STEPS = _int_list(2)
_GRID = {  # skew's maturities supply T; compare's steps, and smile's, supply N
    "T": _Key(_pos, _POS, required=True, commands=("simulate", "smile", "compare")),
    "N": _Key(
        _int_from(2), "must be an integer >= 2",
        required=lambda ctx: None if ctx["steps"] else True,
        commands=("simulate", "smile", "skew"),
    ),
}
_KERNEL = {  # compare takes its term counts from compare.terms
    "n": _Key(
        _int_from(1), "must be an integer >= 1", required=True,
        commands=("fit-kernel", "simulate", "smile", "skew"),
    ),
    "method": _METHOD,
}
_FIT = {
    "H": _Key(
        lambda v: _pos(v) and v < 0.5, "must be a number in (0, 1/2)", required=True
    ),
    "T": _Key(_pos, _POS, 1.0),
    "N_grid": _Key(_int_from(3), "must be an integer >= 3", 100),
    **_KERNEL,
}
_COMPARE = {
    "terms": _Key(_int_list(1), _INT_LIST, [15, 20, 25]),
    "steps": _Key(_int_list(2), _INT_LIST, [50, 100, 150, 200]),
}
# The whole schema, in the order its messages are reported.
_CONFIG = {
    "schema_version": _Key(
        lambda v: _num(v) and v == 1, "must be 1", 1, True, cast=lambda v: 1
    ),
    "seed": _Key(
        lambda v: _int(v) and 0 <= v < 2**64, "must be an integer in [0, 2^64)", 0
    ),
    "out_dir": _Key(lambda v: isinstance(v, str), "must be a string", "."),
    "model": _Key(check=_check_model, commands=("simulate", "smile", "skew")),
    "fit": _Key(required=True, table=_FIT, commands=("fit-kernel",)),
    "params": _Key(required=True, table=_PARAMS.__getitem__, commands=_PRICING),
    "grid": _Key(  # N only matters for a Monte Carlo skew
        default={"N": 100},
        required=lambda ctx: ctx["command"] != "skew",
        table=_GRID,
        commands=_PRICING,
    ),
    "paths": _Key(  # the bergomi2f skew is analytic: it needs no paths
        _int_from(1), "must be an integer >= 1", 0,
        required=lambda ctx: (ctx["command"], ctx["model"]) != ("skew", "bergomi2f"),
        commands=_PRICING,
    ),
    "strikes": _Key(check=_check_strikes, commands=("smile", "compare")),
    "kernel": _Key(
        required=lambda ctx: ctx["model"] == "abergomi" or ctx["command"] == "compare",
        table=_KERNEL,
        commands=_PRICING,
    ),
    "steps": _Key(
        _STEPS,
        "must be a list of integers >= 2",
        lambda out: [out["grid"]["N"]],
        commands=("smile",),
    ),
    "compare": _Key(
        default={k: key.default for k, key in _COMPARE.items()},
        table=_COMPARE,
        commands=("compare",),
    ),
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
    # compare reads no model: its params are rBergomi's, which aBergomi shares;
    # smile reads grid.N only for its default steps, [grid.N]
    model = "rbergomi" if command == "compare" else None
    steps = command == "smile" and _STEPS(cfg.get("steps"))
    ctx = {"command": command, "model": model, "steps": steps}
    out = _walk("", cfg, _CONFIG, ctx, errors)
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
    except (OSError, ValueError) as e:  # ValueError: an embedded NUL
        raise CliError(EXIT_IO, f"cannot create output directory {d!r}: {e}")
    return d


def _write_atomic(path: str, text: str):
    """Write through a temp file and a rename, with the mode open() would give."""
    d = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".roughvol-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.chmod(tmp, 0o666 & ~umask)
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
    return repr(float(x)) if isinstance(x, float) else str(x)


def _jsonify(obj):
    """Recursively convert numpy scalars/arrays for json.dumps; NaN -> null."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and obj != obj:
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
        text = json.dumps(_jsonify(doc), indent=2, sort_keys=True, allow_nan=False)
        _write_atomic(path, text + "\n")
        return path


# ---------------------------------------------------------------------------
# simulation plumbing


@functools.lru_cache
def _build_kernel(n: int, method: str, H: float, T: float, n_grid: int):
    """The configured kernel on [0, T]; cached, so each is fitted once.

    A simulation builds it on [0, 1], which simulate_terminal rescales to
    each maturity.  A least-squares kernel is fitted on n_grid points,
    max(N, 100) for a simulation on N steps.  Above 100 steps that grid
    holds every lag the simulation uses; the 100-point floor keeps coarse
    grids from landing the unregularized least-squares on spiky optima that
    match the grid but explode between its points.
    """
    if method == "closed-form":
        return kernel.closed_form_kernel(n, H, T)
    return kernel.fit_kernel_ls(H, T, n_grid, n)


def _sides(resolved: dict, maturities) -> list:
    """The (T, kernel) sides of the configured model, one per maturity."""
    kern = resolved["kernel"] if resolved["model"] == "abergomi" else None
    return [(T, kern) for T in maturities]


def _simulate(resolved: dict, N: int, sides: list) -> list:
    """Terminal (logS_T, V_T) of each (T, kernel) side on N steps, from one draw.

    The sides share resolved's params, paths and seed.  A side's kernel is
    a kernel section ({n, method}) for aBergomi, built once on [0, 1], and
    None for rBergomi; simulate_terminal runs them.  bs, one side only,
    draws only dW.  compare's config has no model: its sides are rough.
    """
    paths, seed, p = resolved["paths"], resolved["seed"], resolved["params"]
    if resolved.get("model") == "bs":
        [(T, _)], vol = sides, p["vol"]
        grid = sim_core.make_time_grid(T, N)
        W_T = sim_core.sample_terminal_brownian(grid, paths, seed)
        return [(-0.5 * vol * vol * T + vol * W_T, np.full(paths, vol * vol))]
    params = sim_core.ModelParams(xi0=p["xi0"], eta=p["eta"], H=p["H"], rho=p["rho"])
    rough_sides = [
        (T, k and _build_kernel(k["n"], k["method"], params.H, 1.0, max(N, 100)))
        for T, k in sides
    ]
    return models.simulate_terminal(rough_sides, params, N, paths, seed)


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments and the _Run that main set up


def cmd_simulate(args, run: _Run) -> int:
    resolved = run.config
    model = resolved["model"]
    T, N = resolved["grid"]["T"], resolved["grid"]["N"]

    t0 = time.perf_counter()
    [(logS_T, V_T)] = _simulate(resolved, N, _sides(resolved, [T]))
    runtime = time.perf_counter() - t0
    if not np.all(np.isfinite(logS_T)):
        raise CliError(EXIT_NUMERIC, "simulation produced non-finite log-prices")

    tag = f"{model}_T{_fmt(float(T))}_N{N}"
    rows = [(i, float(v)) for i, v in enumerate(logS_T)]
    paths_file = run.write_csv(f"paths_{tag}.csv", ["path", "log_price_T"], rows)
    summary = {
        "n_paths": resolved["paths"],
        "moments": {
            "mean_log_price": float(logS_T.mean()),
            "var_log_price": float(logS_T.var(ddof=1)) if logS_T.size > 1 else None,
            "mean_price": float(np.exp(logS_T).mean()),
            "mean_terminal_variance": float(V_T.mean()),
        },
        "files": [os.path.basename(paths_file)],
    }
    run.write_json(f"summary_{tag}.json", summary)
    print(f"wrote {paths_file} ({resolved['paths']} paths, {runtime:.4f}s)")
    return EXIT_OK


def cmd_fit_kernel(args, run: _Run) -> int:
    fo = run.config["fit"]
    H, T, n, n_grid, method = fo["H"], fo["T"], fo["n"], fo["N_grid"], fo["method"]
    tau = np.arange(1, n_grid) * (T / n_grid)
    kern = _build_kernel(n, method, H, T, n_grid)
    doc = dict(fo, bound=None, l2_error=kernel.kernel_l2_error(kern, H, T))
    if method == "closed-form":
        doc["bound"] = kernel.closed_form_bound(n, H, T)
        doc["bound_satisfied"] = bool(doc["l2_error"] <= doc["bound"])
    doc["rmse"] = float(np.sqrt(np.mean((kern(tau) - kernel._target(tau, H)) ** 2)))
    doc["weights"] = kern.weights
    doc["speeds"] = kern.speeds
    path = run.write_json(f"kernel_{method}_n{n}_H{_fmt(float(H))}.json", doc)
    print(f"wrote {path} (rmse={doc['rmse']:.6g}, l2_error={doc['l2_error']:.6g})")
    return EXIT_OK


def _smile_for(resolved: dict, N: int, T: float):
    [(logS_T, _)] = _simulate(resolved, N, _sides(resolved, [T]))
    return analytics.mc_smile(logS_T, resolved["strikes"], T=T)


def cmd_smile(args, run: _Run) -> int:
    resolved = run.config
    model = resolved["model"]
    T = resolved["grid"]["T"]

    files, skipped_all = [], {}
    for N in resolved["steps"]:
        sm = _smile_for(resolved, N, T)
        tag = f"{model}_T{_fmt(float(T))}_N{N}"
        k = sm.strikes
        path = run.write_csv(
            f"smile_{tag}.csv",
            ["log_moneyness", "strike", "implied_vol", "price", "stderr"],
            zip(k, map(math.exp, k), sm.vols, sm.prices, sm.price_stderr),
        )
        files.append(os.path.basename(path))
        if sm.skipped:
            skipped_all[str(N)] = list(sm.skipped)

    summary = {
        "strikes": resolved["strikes"],
        "skipped": skipped_all,
        "files": files,
    }
    run.write_json(f"smile_summary_{model}_T{_fmt(float(T))}.json", summary)
    print(f"wrote {len(files)} smile file(s) to {run.out_dir}")
    return EXIT_OK


def cmd_compare(args, run: _Run) -> int:
    resolved = run.config
    T, terms = resolved["grid"]["T"], resolved["compare"]["terms"]
    sides = [(T, None)] + [(T, dict(resolved["kernel"], n=n)) for n in terms]
    rows = []
    for N in resolved["compare"]["steps"]:  # one draw per N serves every side
        terminal = _simulate(resolved, N, sides)
        smile_r, *smiles_a = (
            analytics.mc_smile(s_T, resolved["strikes"], T=T) for s_T, _ in terminal
        )
        rows += [
            (n, N, analytics.smile_rmse(smile_r, sm)) for n, sm in zip(terms, smiles_a)
        ]

    path = run.write_csv("compare_rmse.csv", ["terms", "steps", "rmse"], rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_skew(args, run: _Run) -> int:
    resolved = run.config
    model = resolved["model"]
    mats = resolved["maturities"]

    if model == "bergomi2f":  # analytic ATM skew, no MC
        p = resolved["params"]
        domains = analytics.TwoFactorParams.DOMAINS
        tf = analytics.TwoFactorParams(**{k: p[k] for k in domains})
        xi0 = p["xi0"]
        psi = np.empty(len(mats))
        for i, T in enumerate(mats):
            coeffs = analytics.two_factor_coeffs(tf, T, xi0)
            _, s_t, _ = analytics.expansion_terms(coeffs, xi0 * T, T)
            psi[i] = abs(s_t)
        report = analytics.skew_report(mats, psi, 0.0, psi.copy())
        doc_extra = {"bump": None, "n_paths": 0, "analytic": True}
    else:  # the rough models, one plan per maturity, on one draw
        N = resolved["grid"]["N"]
        terminal = _simulate(resolved, N, _sides(resolved, mats))
        log_S = {T: s_T for T, (s_T, _) in zip(mats, terminal)}
        report = analytics.atm_skew(
            lambda T, strikes: analytics.mc_smile(log_S[T], strikes, T=T),
            mats,
            bump=resolved["bump"],
        )
        doc_extra = {"bump": resolved["bump"], "n_paths": resolved["paths"]}

    if not np.isfinite(report.exponent):
        raise CliError(
            EXIT_NUMERIC,
            "skew power-law fit failed: fewer than 2 distinct usable maturities "
            f"(flagged: {report.flagged.tolist()})",
        )
    doc = dict(dataclasses.asdict(report), model=model, **doc_extra)
    path = run.write_json(f"skew_{model}.json", doc)
    print(f"wrote {path} (exponent={report.exponent:.4f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# One row per command: its handler, its help line and the models it takes
# (none for compare and fit-kernel, which read no model key).

_ROUGH = ("abergomi", "rbergomi")
_COMMANDS = {
    "simulate": (cmd_simulate, "paths CSV + summary JSON", (*_ROUGH, "bs")),
    "fit-kernel": (cmd_fit_kernel, "kernel JSON + residuals", ()),
    "smile": (cmd_smile, "smile CSV per (model, T, N)", (*_ROUGH, "bs")),
    "compare": (cmd_compare, "RMSE table CSV", ()),
    "skew": (cmd_skew, "ATM-skew term structure JSON", (*_ROUGH, "bergomi2f")),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to JSON config")
    common.add_argument("--out", default=None, help="output directory override")
    common.add_argument("--seed", type=int, default=None, help="seed override (u64)")
    common.add_argument(
        "--threads",
        type=int,
        default=0,
        help="cap on the simulation's thread pool, set through OMP_NUM_THREADS "
        "(0 = auto, though an inherited OMP_NUM_THREADS still caps the pool)",
    )
    parser = argparse.ArgumentParser(
        prog="roughvol",
        description="Monte Carlo engine for rough volatility: simulate, fit "
        "kernels, price smiles, compare models, measure ATM skew.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_line)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    saved = os.environ.get("OMP_NUM_THREADS")
    try:
        if args.threads < 0:
            raise CliError(EXIT_SCHEMA, f"--threads must be >= 0, got {args.threads}")
        if args.threads:
            os.environ["OMP_NUM_THREADS"] = str(args.threads)
        resolved = resolve_config(
            load_config(args.config),
            args.command,
            {"seed": args.seed, "out_dir": args.out},
        )
        sha, out_dir = config_sha(resolved), _ensure_outdir(resolved)
        run = _Run(args.command, resolved, sha, out_dir)
        return _COMMANDS[args.command][0](args, run)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, MemoryError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        # --threads is scoped to this call: later library calls in the same
        # process must not stay capped
        if saved is None:
            os.environ.pop("OMP_NUM_THREADS", None)
        else:
            os.environ["OMP_NUM_THREADS"] = saved


if __name__ == "__main__":
    sys.exit(main())
