"""In-memory span tracer for the benchmark.

The tracer wraps roughvol's public functions by replacing module attributes
from the benchmark's side; the program itself is not edited.  Calls made
through the module (``models.rbergomi_variance(...)``) and the CLI's lazy
``from .models import rbergomi_variance`` both resolve to the wrapper,
because they look the attribute up after the wrapper is installed.

Each call records one span ``[key, parent, start, end]`` in memory.  After a
call returns, a few exact counts and model-health sums are taken from its
result; that bookkeeping runs inside a span of its own
(``trace.observe``), so it is charged to the tracer and not to the caller's
self time.  ``summary()`` reduces the spans to per-layer self times and
returns them together with the counts.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

import numpy as np

# (module, attribute) -> metric stem "<layer>.<name>".  Two functions may
# share a stem; their times are then summed.
TRACED = {
    ("sim_core", "sample_correlated_increments"): "sim_core.increments",
    ("hybrid_scheme", "make_hybrid_plan"): "hybrid_scheme.plan",
    ("hybrid_scheme", "simulate_volterra"): "hybrid_scheme.volterra",
    ("kernel", "fit_kernel_ls"): "kernel.fit",
    ("models", "simulate_ou_factors"): "models.ou_factors",
    ("models", "abergomi_driver"): "models.driver",
    ("models", "rbergomi_variance"): "models.variance",
    ("models", "abergomi_variance"): "models.variance",
    ("models", "rbergomi_log_price"): "models.log_price",
    ("analytics", "mc_smile"): "analytics.smile",
    ("analytics", "implied_vol"): "analytics.implied_vol",
    ("analytics", "bs_price"): "analytics.bs_price",
    ("analytics", "atm_skew"): "analytics.atm_skew",
    ("cli", "main"): "cli.main",
    # The CLI's per-maturity simulate-and-price helper: wrapping it charges
    # the CLI's own block loop to the cli layer instead of to atm_skew.
    ("cli", "_smile_for"): "cli.smile_for",
}
OBSERVE = "trace.observe"
MB = 1e6


class _Moments:
    """Pooled within-group variance: each distinct simulated block is a group."""

    def __init__(self):
        self.n = 0
        self.sum = 0.0
        self.ss_within = 0.0
        self.dof = 0

    def add(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        self.n += z.size
        self.sum += float(z.sum())
        self.ss_within += float(((z - z.mean()) ** 2).sum())
        self.dof += z.size - 1

    def var(self) -> float:
        return self.ss_within / self.dof if self.dof > 0 else 0.0


class Tracer:
    """Span recorder plus the counters the benchmark reports per layer."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = True
        self.finite = True
        self._seen = set()  # (stem, fingerprint) of results already counted
        self.draws = set()
        self.counts = {
            "normals_drawn": 0,
            "increment_mb": 0.0,
            "fft_len": 0,
            "factor_tensor_mb": 0.0,
            "skipped_strikes": 0,
        }
        self.driver = _Moments()
        self.exponent = _Moments()
        self.vt_ratio = _Moments()

    # -- installation -------------------------------------------------------

    def install(self):
        for (mod_name, attr), stem in TRACED.items():
            mod = importlib.import_module(f"roughvol.{mod_name}")
            setattr(mod, attr, self._wrap(getattr(mod, attr), stem))

    def _wrap(self, fn, stem):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(stem)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            obs = self._open(OBSERVE)
            try:
                self._observe(stem, result)
            finally:
                self._close(obs)
            return result

        return traced

    def _open(self, key) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([key, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][3] = time.perf_counter()

    # -- counts and model health -------------------------------------------

    def _first_seen(self, stem, fingerprint) -> bool:
        key = (stem, fingerprint)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def _observe(self, stem, result):
        c = self.counts
        if stem == "sim_core.increments":
            from roughvol.sim_core import BLOCK_SIZE

            grid = result.grid
            n = result.n_paths
            blocks = -(-n // BLOCK_SIZE)
            # every block draws its full (3, BLOCK_SIZE, N) tile
            c["normals_drawn"] += 3 * BLOCK_SIZE * grid.N * blocks
            planes = result.dW.nbytes + result.dB.nbytes + result.dU.nbytes
            c["increment_mb"] = max(c["increment_mb"], planes / MB)
            self.draws.add((grid.T, grid.N, n, result.rho, result.seed))
        elif stem == "hybrid_scheme.volterra":
            N = result.grid.N
            c["fft_len"] = max(c["fft_len"], 1 << math.ceil(math.log2(2 * N - 1)))
            x_T = result.values[:, -1]
            self._check(result.values)
            if self._first_seen(stem, (result.grid.T, N, float(x_T.sum()))):
                self.driver.add(x_T / result.grid.T ** (result.alpha + 0.5))
        elif stem == "models.ou_factors":
            c["factor_tensor_mb"] = max(c["factor_tensor_mb"], result.Y.nbytes / MB)
        elif stem == "models.variance":
            self._check(result.values)
            p, grid = result.params, result.grid
            v_T = result.values[:, -1]
            if self._first_seen(stem, (grid.T, grid.N, float(v_T.sum()))):
                self.vt_ratio.add(v_T / p.xi0)
                self.exponent.add(np.log(v_T) / (p.eta * grid.T**p.H))
        elif stem == "models.log_price":
            self._check(result)
        elif stem == "analytics.smile":
            if self._first_seen(stem, (result.maturity, result.prices.tobytes())):
                c["skipped_strikes"] += len(result.skipped)

    def _check(self, a):
        if not np.all(np.isfinite(a)):
            self.finite = False

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-stem self time and call count, plus counts and health figures.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        self_time = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                self_time[s[1]] -= s[3] - s[2]
        stems = {}
        for s, t in zip(self.spans, self_time):
            e = stems.setdefault(s[0], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            e["self_s"] += t
            e["total_s"] += s[3] - s[2]
            e["calls"] += 1
        m = self.vt_ratio
        mean = m.sum / m.n if m.n else 0.0
        stderr = math.sqrt(m.var() / m.n) if m.n else 0.0
        return {
            "stems": stems,
            "counts": dict(self.counts),
            "distinct_draws": len(self.draws),
            "finite": self.finite,
            "martingale_ratio": mean,
            "martingale_z": (mean - 1.0) / stderr if stderr > 0 else 0.0,
            "exponent_var_ratio": self.exponent.var(),
            "driver_var_ratio": self.driver.var(),
        }
