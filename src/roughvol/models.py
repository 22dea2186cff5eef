"""Variance and log-price simulators: rBergomi and its Markovian approximation.

Both models run one pipeline.  A HybridPlan (make_hybrid_plan) is fed to
simulate_volterra, and rbergomi_variance turns the Volterra paths into the
lognormal variance

    V_t = xi0 * exp(eta * X_t - (eta^2/2) * t^(2*alpha+1)).

The rBergomi plan carries the power kernel's cell averages.  The Markovian
plan, make_hybrid_plan(grid, alpha, kernel=kernel), carries a
sum-of-exponentials kernel's: the hybrid multifactor scheme, whose tail is
the n-factor recursion Y^i_{j+1} = e^(-x_i dt) (Y^i_j + dB_j) with exact
decay.  Both consume the same PathIncrements, so rBergomi/aBergomi
comparisons are common-random-number by construction.

Each chain step runs on sim_core's pool, one BLOCK_SIZE-row block per task,
and writes straight into the array it returns: the variance steps need no
scratch, rbergomi_log_price two (BLOCK_SIZE, N) planes per worker, and
abergomi_driver convolves into y[:, 1:], each block of exact antithetic
pairs on its even rows (see hybrid_scheme).

simulate_terminal runs that chain, with rbergomi_log_price, one path block
at a time on sim_core's pool, and keeps only the terminal values of
(T, kernel) sides on one N (kernel None for rBergomi).  They share each
block's Gaussians and, per kernel, one Volterra field.  Both routes call
the same helpers for each step (sim_core._scale_increments,
hybrid_scheme._volterra_rows, _lognormal_variance, _euler_steps); the chain
stays as the tests' reference.

The affine structure of the Markovian model is kept in closed form:
quadratic_variation_chi is the kernel's quadratic variation over a window,
and variance_conditional_expectation gives E[V_t | F_s] from the
[n_paths x n_terms] factor levels at time s.

The paper's rescaled + m^2 construction
---------------------------------------
SMILE_FACTOR_M2, AbergomiConfig, simulate_ou_factors, abergomi_driver,
abergomi_variance, OUFactorPaths and DriverPaths are the Euler-stepped OU
factors of that construction: speeds kappa_i*(1 - theta/T) with the
truncated horizon theta = T - dt, the driver consumed as sqrt(theta/T)*y_t,
and a smile-level factor m whose square is tabulated per step count.  On
the uniform grid the weighted factor sum is one Toeplitz product,

    y_j = sum_{k<j} c_{j-1-k} dB_k,   c_m = sum_i w_i (1 - kappa_i*dt)^m,

which abergomi_driver evaluates by FFT.  It does not approximate rBergomi
(about 3x off in ATM vol at T=1, N=100).  It is kept, with its output
unchanged, for the benchmark's markov_smile workload and for the rescaled
smile RMSE that acceptance criterion 7a prints; it goes once the benchmark
runs the kernel plan (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hybrid_scheme import (
    VolterraPaths,
    _convolve_into,
    _fft_buffers,
    _plan_spectrum,
    _volterra_rows,
    make_hybrid_plan,
)
from .kernel import ExpKernel
from .sim_core import (
    ModelParams,
    PathIncrements,
    TimeGrid,
    _block_normals,
    _check_int,
    _negate_pairs,
    _positive,
    _readonly,
    _require,
    _scale_increments,
    make_time_grid,
    run_chunks,
)

__all__ = [
    "SMILE_FACTOR_M2",
    "VariancePaths",
    "OUFactorPaths",
    "DriverPaths",
    "AbergomiConfig",
    "rbergomi_variance",
    "rbergomi_log_price",
    "simulate_terminal",
    "simulate_ou_factors",
    "abergomi_driver",
    "abergomi_variance",
    "quadratic_variation_chi",
    "variance_conditional_expectation",
]

# Squared smile-level multiplication factors m^2 of the rescaled
# construction, tabulated per step count.  Stored exactly as published.
SMILE_FACTOR_M2 = {
    50: 0.750323909,
    100: 0.550447453,
    150: 0.485093611,
    200: 0.450392126,
}


@dataclass(frozen=True, eq=False)
class VariancePaths:
    """Spot-variance paths, values[p, j] = V_{t_j}; values[:, 0] = xi0."""

    values: np.ndarray
    grid: TimeGrid
    params: ModelParams


@dataclass(frozen=True, eq=False)
class OUFactorPaths:
    """Shared-noise OU factors of the rescaled construction, as noise and decay.

    The factors follow Y^i_{j+1} = decay_i * Y^i_j + dB_j from Y^i_0 = 0,
    with decay = 1 - kappa_i*(1 - theta/T)*dt.  dB is the increments' own
    plane (not a copy).  Y, the [n_paths x (N+1) x n_terms] tensor, is built
    by that recursion on first read and cached; abergomi_driver never reads
    it.
    """

    dB: np.ndarray
    decay: np.ndarray
    grid: TimeGrid
    kernel: ExpKernel
    theta: float

    @cached_property
    def Y(self) -> np.ndarray:
        Y = np.zeros((self.dB.shape[0], self.grid.N + 1, self.kernel.n))
        for j in range(self.grid.N):
            Y[:, j + 1, :] = Y[:, j, :] * self.decay + self.dB[:, j, None]
        return _readonly(Y)


@dataclass(frozen=True, eq=False)
class DriverPaths:
    """The scalar Gaussian driver y_t = sum_i w_i Y^i_t on a grid."""

    values: np.ndarray
    grid: TimeGrid
    prefactor: float  # sqrt(theta/T)


@dataclass(frozen=True, eq=False)
class AbergomiConfig:
    """The rescaled construction's kernel, parameters and smile factor m.

    mult_factor is m (the sqrt of a SMILE_FACTOR_M2 entry at the tabulated
    step counts).
    """

    kernel: ExpKernel
    params: ModelParams
    mult_factor: float = 1.0

    def __post_init__(self):
        _require(_positive, mult_factor=self.mult_factor)


def rbergomi_variance(volterra: VolterraPaths, params: ModelParams) -> VariancePaths:
    """V_t = xi0 * exp(eta * X_t - (eta^2/2) * t^(2*alpha+1)).

    The compensator makes V a (discretization-exact, up to the hybrid
    scheme's cell approximation) martingale in t with mean xi0.  This is
    the variance of both models: X comes from the rBergomi plan or from a
    kernel plan.
    """
    _check_alpha(volterra.alpha, params)
    comp = _compensator(params, volterra.grid.nodes)
    V = _lognormal_paths(volterra.values, params.eta, comp, params.xi0)
    return VariancePaths(values=V, grid=volterra.grid, params=params)


def _check_alpha(alpha: float, params: ModelParams) -> None:
    if alpha != params.alpha:
        raise ValueError(
            f"volterra paths were simulated with alpha={alpha}, "
            f"params have alpha={params.alpha}"
        )


def _compensator(params: ModelParams, t: np.ndarray) -> np.ndarray:
    """(eta^2/2) * t^(2*alpha+1) on the grid nodes t."""
    return 0.5 * params.eta**2 * t ** (2 * params.alpha + 1)


def _lognormal_variance(X, scale, comp, xi0, out) -> None:
    """out = xi0 * exp(scale*X - comp), in that order of operations; out may be X."""
    np.multiply(X, scale, out=out)
    np.subtract(out, comp, out=out)
    np.exp(out, out=out)
    np.multiply(out, xi0, out=out)


def _lognormal_paths(X, scale, comp, xi0) -> np.ndarray:
    """_lognormal_variance of the paths X into a new read-only array.

    One pool task per block.
    """
    V = np.empty_like(X)

    def rows_task(rows: slice, _) -> None:
        _lognormal_variance(X[rows], scale, comp, xi0, V[rows])

    run_chunks(X.shape[0], rows_task, lambda height: None)
    return _readonly(V)


def _euler_steps(V, dW, dt, out, tmp) -> None:
    """out_j = sqrt(V_j)*dW_j - 0.5*V_j*dt for j < N, in that order of operations.

    V is [rows x (N+1)]; dW, out and tmp are [rows x N].  out and tmp are
    two separate planes that alias neither V nor dW: sqrt(V) goes into out
    before it is multiplied by dW.  V_j*(0.5*dt) is one multiply with the
    bits of (V_j*0.5)*dt: halving is exact.
    """
    v = V[:, :-1]
    np.sqrt(v, out=out)
    np.multiply(out, dW, out=out)
    np.multiply(v, 0.5 * dt, out=tmp)
    np.subtract(out, tmp, out=out)


def rbergomi_log_price(V: VariancePaths, inc: PathIncrements) -> np.ndarray:
    """Euler log-price: log S_{t+dt} = log S_t + sqrt(V_t)*dW_t - V_t*dt/2.

    S_0 = 1.  Works for any VariancePaths; the model enters only through V.
    Returns an [n_paths x (N+1)] matrix.  Each block is one pool task,
    which writes its steps into the worker's scratch and their running sum
    straight into its rows of the result.
    """
    if inc.grid != V.grid:
        raise ValueError("variance paths and increments live on different grids")
    n, N = inc.n_paths, V.grid.N
    logS = np.empty((n, N + 1))

    def euler(rows: slice, bufs: np.ndarray) -> None:
        steps, tmp = bufs[:, : rows.stop - rows.start]
        _euler_steps(V.values[rows], inc.dW[rows], V.grid.dt, steps, tmp)
        logS[rows, 0] = 0.0
        np.cumsum(steps, axis=1, out=logS[rows, 1:])

    run_chunks(n, euler, lambda height: np.empty((2, height, N)))
    return logS


def simulate_terminal(
    sides: list[tuple[float, ExpKernel | None]],
    params: ModelParams,
    N: int,
    n_paths: int,
    seed: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Terminal (log S_T, V_T) of each (T, kernel) side on N steps, streamed in path blocks.

    kernel is an ExpKernel built for params.H, rescaled from its own
    horizon kernel.T to T (see make_hybrid_plan), or None for rBergomi.
    Per side, the last columns of the chain on grid = make_time_grid(T, N)
    with plan = make_hybrid_plan(grid, params.alpha, kernel=kernel):
    sample_correlated_increments(grid, params.rho, n_paths, seed) ->
    simulate_volterra(plan, ...) -> rbergomi_variance -> rbergomi_log_price.

    The sides of one kernel (one ExpKernel object, or None) share the first
    one's Volterra field: both plans are self-similar at a fixed N (see
    hybrid_scheme), so on the same Gaussians X^(T) = (T/T_ref)^H * X^(T_ref),
    and each side's variance takes the scale eta*(T/T_ref)^H.  The
    reference and a repeat of its T (scale eta) equal the chain bit for bit;
    a side of another T agrees with it to within 1e-13 in log S_T, and
    relative in V_T: its field is the reference's, scaled, not one built at
    its own dt, so it rounds differently (measured: a few 1e-15).

    Each BLOCK_SIZE-path block is one run_chunks task.  It draws the
    block's half-rows once (antithetic pairs, see sim_core._block_normals),
    which depend on (seed, block, N) only: its half-rows of each plane from
    that plane's stream.  Every field runs on the block's even rows only:
    scaling into increments and simulate_volterra's own row routine
    (hybrid_scheme._volterra_rows), once.  The field is odd in (dB, dU),
    bit for bit, so the odd rows take its negation.  Then, per side, the
    variance and the Euler log-price on every row; log S_T adds the steps
    in rbergomi_log_price's cumsum order, down the columns of a transposed
    copy (a lone row by cumsum).  So a worker holds one block's Gaussians
    and paths, and the draw is shared by all sides.  Every buffer is made
    in the calling thread (see sim_core).
    """
    if not sides:
        raise ValueError("need at least one side")
    n_paths = _check_int("n_paths", n_paths, 1)
    seed = _check_int("seed", seed, 0)
    out, fields = [], {}  # per kernel object: (reference plan, its spectrum, its sides)
    for T, kern in sides:
        grid = make_time_grid(T, N)
        if kern not in fields:  # the first side of a kernel is its reference
            ref = make_hybrid_plan(grid, params.alpha, kernel=kern)
            K, L = _plan_spectrum(ref)  # L follows N alone
            fields[kern] = (ref, K, [])
        ref, _, members = fields[kern]
        scale = params.eta * (grid.T / ref.grid.T) ** params.H
        out.append((np.empty(n_paths), np.empty(n_paths)))
        members.append((grid.dt, scale, _compensator(params, grid.nodes), out[-1]))

    def scratch(height):
        return (
            np.empty((3, (height + 1) // 2, N)),  # a block's half-rows
            np.empty((3, height, N)),
            np.empty((height, N + 1)),
            _fft_buffers(L, height),
        )

    def run_block(rows: slice, bufs) -> None:
        stage, planes, X, fft_bufs = bufs
        k = rows.stop - rows.start
        z = _block_normals(seed, rows, stage)
        h = z.shape[1]  # the block's half-rows
        dW, dB, dU = planes[:, :k]
        x = X[:k]
        # V goes into the FFT signal buffer, idle once X is built
        v = fft_bufs[1].reshape(-1)[: k * (N + 1)].reshape(k, N + 1)
        # the steps, transposed, go into dU's plane, idle after the Euler step
        steps_t = dU.reshape(-1)[: N * k].reshape(N, k)
        for ref, K, members in fields.values():
            _scale_increments(z, ref.grid.dt, params.rho, dW[:h], dB[:h], dU[:h])
            np.multiply(z[2], np.sqrt(ref.grid.dt), out=dU[:h])
            _volterra_rows(ref, K, dB[:h], dU[:h], x[::2], fft_bufs)
            _negate_pairs(x)
            for dt, scale, comp, (log_S, V_T) in members:
                np.multiply(z[0], np.sqrt(dt), out=dW[::2])
                _negate_pairs(dW)
                _lognormal_variance(x, scale, comp, params.xi0, v)
                V_T[rows] = v[:, -1]
                _euler_steps(v, dW, dt, dB, dU)
                if k == 1:  # add.reduce would sum a lone row pairwise
                    log_S[rows] = np.cumsum(dB[0])[-1]
                else:
                    np.copyto(steps_t, dB.T)
                    np.add.reduce(steps_t, axis=0, out=log_S[rows])

    run_chunks(n_paths, run_block, scratch)
    return out


def simulate_ou_factors(cfg: AbergomiConfig, inc: PathIncrements) -> OUFactorPaths:
    """Set up the rescaled construction's OU factors, Euler-stepped from 0:

        Y^i_{t_{j+1}} = Y^i_{t_j} - kappa_eff_i * Y^i_{t_j} * dt + dB_j

    with kappa_eff = kappa*(1 - theta/T) and theta = T - dt (all factors are
    driven by the same variance noise dB).  No step is taken here: the
    result keeps inc.dB and the decay 1 - kappa_eff*dt, and runs the
    recursion only if its Y tensor is read.
    """
    grid = inc.grid
    theta = grid.T - grid.dt
    eff = cfg.kernel.speeds * (1.0 - theta / grid.T)
    return OUFactorPaths(
        dB=inc.dB,
        decay=_readonly(1.0 - eff * grid.dt),
        grid=grid,
        kernel=cfg.kernel,
        theta=theta,
    )


def abergomi_driver(cfg: AbergomiConfig, factors: OUFactorPaths) -> DriverPaths:
    """The scalar driver y_t = sum_i w_i Y^i_t, as one Toeplitz convolution.

    Unrolling the factor recursion gives y_{t_j} = sum_{k<j} c_{j-1-k} dB_k
    with c_m = sum_i w_i decay_i^m; the sum is evaluated by FFT
    (hybrid_scheme._convolve_into), so the factor tensor is never built and the cost
    does not depend on the number of terms.  Downstream, sqrt(theta/T)*y_t
    stands in for the Volterra process; that prefactor is recorded on the
    result.
    """
    if factors.kernel is not cfg.kernel:
        raise ValueError("factors were simulated under a different config")
    N = factors.grid.N
    c = np.power.outer(factors.decay, np.arange(N)).T @ cfg.kernel.weights
    y = np.empty((factors.dB.shape[0], N + 1))
    y[:, 0] = 0.0
    _convolve_into(c, factors.dB, y[:, 1:])
    pref = np.sqrt(factors.theta / factors.grid.T)
    return DriverPaths(values=_readonly(y), grid=factors.grid, prefactor=float(pref))


def abergomi_variance(cfg: AbergomiConfig, y: DriverPaths) -> VariancePaths:
    """V_t = xi0 * exp(m * eta * prefactor * y_t - (eta^2/2)*t^(2*alpha+1)).

    The kernel carries sqrt(2H) already, so eta multiplies the driver
    unchanged; the compensator is rBergomi's.
    """
    params = cfg.params
    scale = cfg.mult_factor * params.eta * y.prefactor
    comp = _compensator(params, y.grid.nodes)
    V = _lognormal_paths(y.values, scale, comp, params.xi0)
    return VariancePaths(values=V, grid=y.grid, params=params)


def quadratic_variation_chi(kernel: ExpKernel, s: float, t: float) -> float:
    """chi(s, t) = int_{t-s}^{t} (sum_i w_i e^(-x_i u))^2 du in closed form.

        sum_ij w_i w_j e^(-(x_i+x_j)(t-s)) (1 - e^(-(x_i+x_j)s)) / (x_i+x_j)

    The quadratic variation accumulated by the kernel-smoothed driver over
    the window (t-s, t]; s = 0 gives 0, s = t gives the full int_0^t.
    """
    if not (0 <= s <= t < np.inf):
        raise ValueError(f"need 0 <= s <= t < inf, got s={s}, t={t}")
    w = kernel.weights
    xs = np.add.outer(kernel.speeds, kernel.speeds)
    ww = np.multiply.outer(w, w)
    val = ww / xs * np.exp(-xs * (t - s)) * (1.0 - np.exp(-xs * s))
    return float(val.sum())


def variance_conditional_expectation(
    kernel: ExpKernel,
    Y: np.ndarray,
    s: float,
    t: float,
    sigma: float,
    xi0: float,
) -> np.ndarray:
    """E[V^n_t | F_s] for the affine variance V^n_u = xi0*exp(sigma*sum_i w_i Y^i_u).

    Y is the [n_paths x n_terms] array of the factor levels
    Y^i_s = int_0^s e^(-x_i (s-u)) dB_u at time s.  Conditionally on F_s
    the exponent is Gaussian: mean
    sigma * sum_i w_i e^(-x_i (t-s)) Y^i_s, variance sigma^2 * chi(t-s, t-s).
    Hence, per path,

        E[V^n_t | F_s] = xi0 * exp( (sigma^2/2) * sum_ij w_i w_j
                              (1 - e^(-(x_i+x_j)(t-s))) / (x_i+x_j)
                          + sigma * sum_i w_i e^(-x_i (t-s)) Y^i_s ).

    The variance term is the full double sum over (i, j) — the exponent is
    a *sum* of correlated OU factors, so its conditional variance has cross
    terms; dropping them (a single sum over i) understates E[V] by ~10% at
    typical parameters and fails a nested Monte Carlo check.

    At t = s this reduces to xi0*exp(sigma*sum_i w_i Y^i_s), the time-s
    variance itself.  This module's kernels carry sqrt(2H), so sigma = eta
    for them.
    """
    if not (0 <= s <= t < np.inf):
        raise ValueError(f"need 0 <= s <= t < inf, got s={s}, t={t}")
    if not (-np.inf < sigma < np.inf):
        raise ValueError(f"sigma must be finite, got {sigma}")
    _require(_positive, xi0=xi0)
    if np.shape(Y)[-1:] != (kernel.n,):
        raise ValueError(f"Y must have {kernel.n} columns, got shape {np.shape(Y)}")
    delta = t - s
    w = kernel.weights
    x = kernel.speeds
    resid_var = quadratic_variation_chi(kernel, delta, delta)
    loading = w * np.exp(-x * delta)
    return xi0 * np.exp(0.5 * sigma**2 * resid_var + sigma * (Y @ loading))
