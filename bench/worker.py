"""One benchmark instance, run in a fresh interpreter by ``bench/run.py``.

Usage: ``python3 bench/worker.py '<json spec>'``.  The spec's ``mode`` is

* ``imports`` - import numpy, scipy and every roughvol module, then exit
  (the set-up of the CLI workload);
* ``setup``   - imports plus the library workload's set-up, then exit;
* ``lib``     - set-up, then one measured run of a library workload;
* ``cli``     - one ``roughvol`` CLI invocation, in this process.

The last line of standard output is a JSON object.  ``ready`` is the
``CLOCK_MONOTONIC`` reading when set-up ended; the parent subtracts its own
reading taken just before it started this process.  The parent sets the
BLAS thread variables and ``PYTHONPATH``; nothing here imports numpy before
the spec is read.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_source(src: str):
    import roughvol

    here = os.path.dirname(os.path.realpath(roughvol.__file__))
    if os.path.dirname(here) != os.path.realpath(src):
        raise SystemExit(f"roughvol imported from {here}, expected under {src}")


def _env() -> dict:
    import platform

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _import_all():
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401

    from roughvol import analytics, cli, hybrid_scheme, kernel, models, sim_core  # noqa: F401


def _setup(spec):
    """The library workload's set-up: everything before the first path is drawn."""
    import numpy as np

    from roughvol import hybrid_scheme, kernel, models, sim_core

    p = spec["params"]
    params = sim_core.ModelParams(xi0=p["xi0"], eta=p["eta"], H=p["H"], rho=p["rho"])
    grid = sim_core.make_time_grid(spec["T"], spec["N"])
    if spec["workload"] == "rough_smile":
        return params, grid, hybrid_scheme.make_hybrid_plan(grid, params.alpha)
    kern = kernel.fit_kernel_ls(params.H, spec["T"], N_grid=spec["N_grid"], n=spec["n_terms"])
    cfg = models.AbergomiConfig(
        kernel=kern,
        params=params,
        mult_factor=float(np.sqrt(models.SMILE_FACTOR_M2[spec["N"]])),
    )
    return params, grid, cfg


def _smile_doc(sm) -> dict:
    import numpy as np

    atm = int(np.argmin(np.abs(sm.strikes)))
    return {
        "vols": [None if v != v else float(v) for v in sm.vols],
        "prices": [float(v) for v in sm.prices],
        "atm_price": float(sm.prices[atm]),
        "atm_stderr": float(sm.price_stderr[atm]),
        "skipped": len(sm.skipped),
    }


def _kernel_health(kern, grid, N_grid) -> dict:
    import numpy as np

    from roughvol import kernel

    tau = np.arange(1, N_grid) * (kern.T / N_grid)
    target = np.sqrt(2 * kern.H) * tau ** (kern.H - 0.5)
    return {
        "kernel.fit_grid_rmse": float(np.sqrt(np.mean((kern(tau) - target) ** 2))),
        "kernel.l2_error": kernel.kernel_l2_error(kern, kern.H, kern.T),
        "kernel.max_speed_dt": float(kern.speeds.max() * grid.dt),
    }


def run_lib(spec, tracer) -> dict:
    import numpy as np

    from roughvol import analytics, hybrid_scheme, models, sim_core

    params, grid, prep = _setup(spec)
    out = {"ready": _now()}
    rough = spec["workload"] == "rough_smile"

    t0 = time.perf_counter()
    inc = sim_core.sample_correlated_increments(grid, params.rho, spec["paths"], spec["seed"])
    if rough:
        V = models.rbergomi_variance(hybrid_scheme.simulate_volterra(prep, inc), params)
    else:
        factors = models.simulate_ou_factors(prep, inc)
        V = models.abergomi_variance(prep, models.abergomi_driver(prep, factors))
        del factors
    log_s = models.rbergomi_log_price(V, inc)
    smile = analytics.mc_smile(log_s[:, -1], T=grid.T)
    out["wall_s"] = time.perf_counter() - t0
    out["rss_mb"] = _rss_mb()

    if tracer is not None:
        tracer.active = False
    v_T = V.values[:, -1] / params.xi0
    out.update(_smile_doc(smile))
    out["finite"] = bool(np.all(np.isfinite(log_s)) and np.all(np.isfinite(V.values)))
    out["martingale_ratio"] = float(v_T.mean())
    out["martingale_stderr"] = float(v_T.std(ddof=1) / np.sqrt(v_T.size))
    if not rough and tracer is not None:
        out["kernel"] = _kernel_health(prep.kernel, grid, spec["N_grid"])
    del V, log_s
    if spec.get("reference"):
        # The rBergomi smile on the same increments: the accuracy reference
        # for the Markovian workload, computed outside the timed section.
        plan = hybrid_scheme.make_hybrid_plan(grid, params.alpha)
        Vr = models.rbergomi_variance(hybrid_scheme.simulate_volterra(plan, inc), params)
        ref = analytics.mc_smile(models.rbergomi_log_price(Vr, inc)[:, -1], T=grid.T)
        out["reference_vols"] = _smile_doc(ref)["vols"]
    return out


def run_cli(spec) -> dict:
    from roughvol import cli

    code = cli.main(spec["argv"])
    return {"exit_code": code, "rss_mb": _rss_mb()}


def main(argv) -> int:
    spec = json.loads(argv[1])
    mode = spec["mode"]
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _check_source(spec["src"])
    if mode == "imports":
        _import_all()
        out = {"ready": _now()}
    elif mode == "setup":
        _setup(spec)
        out = {"ready": _now()}
    elif mode == "lib":
        out = run_lib(spec, tracer)
    elif mode == "cli":
        out = run_cli(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["env"] = _env()
    if tracer is not None:
        tracer.active = False
        out["trace"] = tracer.summary()
        out["spans"] = tracer.spans
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
