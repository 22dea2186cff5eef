"""roughvol benchmark: three pricing workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload markov_smile --seed 1 --seconds 50 --trace 0

Workloads (Table-1 parameters xi0=0.026, eta=1.9, H=0.07, rho=-0.9; T=1;
the 21 default strikes in [-0.2, 0.2]):

* ``rough_smile``  - rBergomi smile from one 100 000 x 200 simulation
  through the public API (increments -> hybrid scheme -> variance ->
  log-price -> smile).  Not gated: BENCHMARK.json lists only the other
  two (see README.md).
* ``markov_smile`` - the shipped aBergomi default (least-squares kernel,
  n=25, N_grid=100, rescaled driver, tabulated m^2, power compensator),
  20 000 x 200.  The rBergomi smile on the same increments is computed
  once per run, outside the timed section, as the accuracy reference.
* ``cli_skew``     - one ``roughvol skew`` process for rBergomi (default
  maturities, N=100, 20 000 paths, bump 0.01, ``--threads`` = nproc).

Each measured instance runs in a fresh interpreter (``bench/worker.py``)
with the BLAS pool pinned to nproc threads.  Instances repeat until
``--seconds`` have passed; every instance of a run uses the run's seed, so
all of them must produce identical results, and that is checked.  Set-up
is timed in at least nine fresh processes per run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced instances and prints the per-layer metrics, taken from
spans recorded around roughvol's public functions (``bench/tracer.py``).
The last line of standard output is the JSON result; the lines above it are
a readable report.  A full record (environment, quartiles, per-instance
data, raw spans) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PARAMS = {"xi0": 0.026, "eta": 1.9, "H": 0.07, "rho": -0.9}
SIZES = {
    "full": {
        "rough_smile": {"paths": 100_000, "N": 200},
        "markov_smile": {"paths": 20_000, "N": 200},
        "cli_skew": {"paths": 20_000, "N": 100},
    },
    # for the smoke test only
    "tiny": {
        "rough_smile": {"paths": 2_000, "N": 50},
        "markov_smile": {"paths": 2_000, "N": 50},
        "cli_skew": {"paths": 2_000, "N": 20},
    },
}
WORKLOADS = tuple(SIZES["full"])
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 60
# rough_smile: the martingale check allows this many standard errors
MARTINGALE_Z_MAX = 4.0

# metric name -> unit, in BENCHMARK.json's order
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Metrics computed from array shapes rather than measured.
COMPUTED = {"sim_core.increment_mb", "sim_core.normals_drawn", "models.factor_tensor_mb"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def l3_bytes() -> int:
    try:
        r = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        )
        return int(r.stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return 0


class Runner:
    """Starts workers one at a time and collects their JSON results."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.threads = nproc()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        # relative to ROOT, the workers' working directory, so that the CLI
        # artifact (which embeds its --out path) does not depend on where
        # the checkout lives
        self.out_dir = OUT.relative_to(ROOT) / f"{workload}_s{seed}"
        # no artifact of an earlier run may stand in for this run's
        shutil.rmtree(ROOT / self.out_dir, ignore_errors=True)
        (ROOT / self.out_dir).mkdir(parents=True)
        self.errors: list[str] = []

    def spec(self, mode: str, **extra) -> dict:
        s = {"mode": mode, "workload": self.workload, "seed": self.seed,
             "src": str(SRC), "params": PARAMS, "T": 1.0,
             "N_grid": 100, "n_terms": 25}
        s.update(SIZES[self.size][self.workload])
        s.update(extra)
        return s

    def worker(self, spec: dict):
        """Run one worker; return (result or None, wall seconds, start clock)."""
        start = _now()
        try:
            r = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{spec['mode']}: timed out after {WORKER_TIMEOUT_S} s")
            return None, _now() - start, start
        wall = _now() - start
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            tail = r.stderr.strip().splitlines()[-3:]
            self.errors.append(f"{spec['mode']}: exit {r.returncode}: {' | '.join(tail)}")
            return None, wall, start
        return json.loads(lines[-1]), wall, start

    def cli_argv(self) -> list:
        cfg = self.out_dir / "skew_config.json"
        size = SIZES[self.size]["cli_skew"]
        (ROOT / cfg).write_text(json.dumps({
            "schema_version": 1, "model": "rbergomi", "params": PARAMS,
            "grid": {"T": 1.0, "N": size["N"]}, "paths": size["paths"],
        }))
        return ["skew", "--config", str(cfg), "--out", str(self.out_dir / "artifacts"),
                "--seed", str(self.seed), "--threads", str(self.threads)]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def run_instance(runner: Runner, traced: bool, reference: bool, fingerprint: dict):
    """One measured instance; returns its record with ``ok`` and ``why``."""
    if runner.workload == "cli_skew":
        argv = runner.cli_argv()
        res, wall, _ = runner.worker(runner.spec("cli", argv=argv, trace=traced))
        if res is None:
            return {"ok": False, "why": runner.errors[-1]}
        rec = {"wall_s": wall, "rss_mb": res["rss_mb"], "env": res["env"]}
        art = ROOT / argv[argv.index("--out") + 1] / "skew_rbergomi.json"
        why = check_cli(res, art, fingerprint)
        if why is None:
            doc = json.loads(art.read_bytes())
            rec["accuracy_err"] = abs(doc["exponent"] - (PARAMS["H"] - 0.5))
            rec["exponent"] = doc["exponent"]
            rec["artifact_bytes"] = art.stat().st_size
    else:
        res, _, start = runner.worker(
            runner.spec("lib", trace=traced, reference=reference))
        if res is None:
            return {"ok": False, "why": runner.errors[-1]}
        rec = {"wall_s": res["wall_s"], "rss_mb": res["rss_mb"],
               "setup_s": res["ready"] - start, "env": res["env"]}
        why = check_lib(runner.workload, res, fingerprint)
        if "reference_vols" in res:
            fingerprint["reference"] = res["reference_vols"]
        rec["atm_stderr_x_sqrt_s"] = res["atm_stderr"] * math.sqrt(res["wall_s"])
        if runner.workload == "rough_smile":
            rec["accuracy_err"] = rec["atm_stderr_x_sqrt_s"]
        rec["martingale_ratio"] = res["martingale_ratio"]
        rec["skipped"] = res["skipped"]
        rec["vols"] = res["vols"]
        if "kernel" in res:
            rec["kernel"] = res["kernel"]
    if traced and "trace" in res:
        rec["trace"] = res["trace"]
        rec["spans"] = res["spans"]
        if not res["trace"]["finite"]:
            why = why or "non-finite log-prices or variance seen by the tracer"
    rec["ok"] = why is None
    rec["why"] = why
    return rec


def check_lib(workload: str, res: dict, fingerprint: dict):
    """Output checks for a library instance; returns the failure or None."""
    if not res["finite"]:
        return "non-finite log-prices or variance"
    key = (tuple(res["vols"]), tuple(res["prices"]))
    if fingerprint.setdefault("smile", key) != key:
        return "smile differs from an earlier instance with the same seed"
    if workload == "rough_smile":
        if res["skipped"]:
            return f"{res['skipped']} strike(s) skipped"
        z = (res["martingale_ratio"] - 1.0) / res["martingale_stderr"]
        if abs(z) > MARTINGALE_Z_MAX:
            return f"E[V_T]/xi0 = {res['martingale_ratio']:.5f} is {z:.1f} stderr from 1"
    return None


def check_cli(res: dict, art: Path, fingerprint: dict):
    if res["exit_code"] != 0:
        return f"roughvol skew exited with {res['exit_code']}"
    try:
        blob = art.read_bytes()
        doc = json.loads(blob)
    except (OSError, ValueError) as e:
        return f"cannot read the skew artifact: {e}"
    if fingerprint.setdefault("artifact", blob) != blob:
        return "a repeated run into the same --out wrote different bytes"
    exponent = doc.get("exponent")
    if not (isinstance(exponent, float) and math.isfinite(exponent) and exponent < 0):
        return f"fitted exponent {exponent!r} is not finite and negative"
    if any(doc["flagged"]) or not all(
        isinstance(v, float) and math.isfinite(v) for v in doc["psi"]
    ):
        return "a maturity's ATM skew is flagged or not finite"
    return None


def setup_sample(runner: Runner):
    mode = "imports" if runner.workload == "cli_skew" else "setup"
    res, _, start = runner.worker(runner.spec(mode))
    return None if res is None else res["ready"] - start


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics from one traced instance."""
    tr = rec["trace"]
    stems = tr["stems"]

    def self_s(stem):
        return stems.get(stem, {}).get("self_s", 0.0)

    def calls(stem):
        return stems.get(stem, {}).get("calls", 0)

    c = tr["counts"]
    m = {
        "sim_core.increments_s": self_s("sim_core.increments"),
        "sim_core.increments_calls": calls("sim_core.increments"),
        "sim_core.normals_drawn": c["normals_drawn"],
        "sim_core.increment_mb": c["increment_mb"],
        "hybrid_scheme.plan_s": self_s("hybrid_scheme.plan"),
        "hybrid_scheme.volterra_s": self_s("hybrid_scheme.volterra"),
        "hybrid_scheme.volterra_calls": calls("hybrid_scheme.volterra"),
        "hybrid_scheme.fft_len": c["fft_len"],
        "hybrid_scheme.driver_var_ratio": tr["driver_var_ratio"],
        "kernel.fit_s": self_s("kernel.fit"),
        "kernel.fit_grid_rmse": 0.0,
        "kernel.l2_error": 0.0,
        "kernel.max_speed_dt": 0.0,
        "models.ou_factors_s": self_s("models.ou_factors"),
        "models.driver_s": self_s("models.driver"),
        "models.factor_tensor_mb": c["factor_tensor_mb"],
        "models.variance_s": self_s("models.variance"),
        "models.log_price_s": self_s("models.log_price"),
        "models.martingale_ratio": tr["martingale_ratio"],
        "models.martingale_z": tr["martingale_z"],
        "models.exponent_var_ratio": tr["exponent_var_ratio"],
        # mc_smile's own work plus the implied-vol solves beneath it
        "analytics.smile_s": self_s("analytics.smile") + self_s("analytics.implied_vol")
        + self_s("analytics.bs_price"),
        "analytics.implied_vol_calls": calls("analytics.implied_vol"),
        "analytics.bs_price_calls": calls("analytics.bs_price"),
        "analytics.skipped_strikes": c["skipped_strikes"],
        "analytics.atm_skew_s": self_s("analytics.atm_skew"),
        "cli.main_s": stems.get("cli.main", {}).get("total_s", 0.0),
        "cli.self_s": self_s("cli.main") + self_s("cli.smile_for"),
        "cli.useful_sim_fraction": tr["distinct_draws"] / max(calls("sim_core.increments"), 1),
        "cli.artifact_bytes": rec.get("artifact_bytes", 0),
    }
    m.update(rec.get("kernel", {}))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    args = ap.parse_args(argv)

    if not (SRC / "roughvol" / "__init__.py").is_file():
        print(f"error: no roughvol sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.size)
    traced_run = bool(args.trace)
    fingerprint: dict = {}
    records = []
    t_end = _now() + args.seconds
    last = 0.0
    # A traced run alternates untraced and traced instances, at least one
    # each.  No instance starts that the previous one says would end late.
    while len(records) < 1 + traced_run or _now() + last < t_end:
        traced = traced_run and len(records) % 2 == 1
        reference = args.workload == "markov_smile" and "reference" not in fingerprint
        t0 = _now()
        records.append(run_instance(runner, traced, reference, fingerprint))
        last = _now() - t0

    # The first instance is the run's warm-up (cold page cache, first
    # allocations): checked like the others, but not timed when others are.
    setups = [r["setup_s"] for r in records[1:] if "setup_s" in r]
    setup_failed = 0
    while len(setups) < SETUP_SAMPLES and not setup_failed:
        s = setup_sample(runner)
        if s is None:
            setup_failed = 1
        else:
            setups.append(s)

    if args.workload == "markov_smile":
        for r in records:
            if not r["ok"]:
                continue
            if "reference" not in fingerprint:
                r["ok"], r["why"] = False, "the rBergomi reference smile was not computed"
            else:
                r["accuracy_err"] = smile_rmse(fingerprint["reference"], r["vols"])
    ok = [r for r in records if r["ok"]]
    attempted = len(records) + setup_failed
    failed = attempted - len(ok)

    untraced = [r for r in ok if "trace" not in r]
    untraced = [r for r in untraced if r is not records[0]] or untraced
    traced = [r for r in ok if "trace" in r]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size,
              "env": environment(runner, records), "errors": runner.errors,
              "instances": [{k: v for k, v in r.items() if k != "spans"} for r in records]}
    metrics = {}
    if untraced and setups:
        e2e = {
            "wall_s": [r["wall_s"] for r in untraced],
            "setup_s": setups,
            "peak_rss_mb": [r["rss_mb"] for r in untraced],
            "success_fraction": [len(ok) / attempted],
            "accuracy_err": [r["accuracy_err"] for r in untraced],
        }
        report["end_to_end"] = {k: summarize(v, END_TO_END[k]) for k, v in e2e.items()}
        # the same figures under the names the per-workload definitions use
        named = {"failed_fraction": [failed / attempted]}
        if args.workload != "cli_skew":
            named["atm_stderr_x_sqrt_s"] = [r["atm_stderr_x_sqrt_s"] for r in untraced]
        if args.workload == "markov_smile":
            named["smile_rmse_vs_rough"] = e2e["accuracy_err"]
        if args.workload == "cli_skew":
            named["skew_exponent_err"] = e2e["accuracy_err"]
        report["named"] = {k: summarize(v, "1") for k, v in named.items()}
        if not traced_run:
            metrics = {k: {"value": v["median"], "unit": v["unit"]}
                       for k, v in report["end_to_end"].items()}
    if traced_run and traced and untraced:
        per = [layer_metrics(r) for r in traced]
        layers = {k: summarize([p[k] for p in per], PER_LAYER[k]) for k in per[0]}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in untraced))
        layers["trace.overhead_s"] = summarize([overhead], "s")
        report["per_layer"] = layers
        metrics = {k: {"value": v["median"], "unit": v["unit"]} for k, v in layers.items()}
        spans_file = OUT / f"trace_{args.workload}_s{args.seed}.json"
        spans_file.write_text(json.dumps([r["spans"] for r in traced]))
        report["spans_file"] = str(spans_file.relative_to(ROOT))

    if not metrics:
        failed = attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    name = f"result_{args.workload}_s{args.seed}_t{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))
    print_report(report)
    print(json.dumps(result))
    return 0


def smile_rmse(ref, vols) -> float:
    pairs = [(a, b) for a, b in zip(ref, vols) if a is not None and b is not None]
    return math.sqrt(sum((a - b) ** 2 for a, b in pairs) / len(pairs))


def summarize(xs, unit: str) -> dict:
    q1, q3 = quartiles(xs)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs), "unit": unit}


def environment(runner: Runner, records) -> dict:
    env = next((r["env"] for r in records if "env" in r), {})
    return {"nproc": runner.threads, "thread_pin": runner.threads,
            "machine": platform.machine(), "l3_bytes": l3_bytes(), **env}


def print_report(report: dict):
    env = report["env"]
    print(f"# {report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']} size={report['size']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for err in report["errors"]:
        print(f"# error {err}")
    for r in report["instances"]:
        if not r["ok"]:
            print(f"# failed instance: {r['why']}")
    for section in ("end_to_end", "named", "per_layer"):
        for k, v in report.get(section, {}).items():
            tag = " (computed)" if k in COMPUTED else ""
            print(f"{k:32s} {v['median']:.6g} {v['unit']}  "
                  f"[q1 {v['q1']:.6g}, q3 {v['q3']:.6g}, n={v['n']}]{tag}")


if __name__ == "__main__":
    sys.exit(main())
