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

from .hybrid_scheme import VolterraPaths, toeplitz_convolve
from .kernel import ExpKernel
from .sim_core import ModelParams, PathIncrements, TimeGrid, _readonly

__all__ = [
    "SMILE_FACTOR_M2",
    "VariancePaths",
    "OUFactorPaths",
    "DriverPaths",
    "AbergomiConfig",
    "rbergomi_variance",
    "rbergomi_log_price",
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
        if self.mult_factor <= 0:
            raise ValueError(f"mult_factor must be positive, got {self.mult_factor}")

    def eta_scale(self) -> float:
        """Vol-of-vol multiplier matching the kernel's normalization flavor.

        A normalized kernel already carries sqrt(2H), so eta multiplies it
        directly; a plain kernel needs the full sigma = eta*sqrt(2H).
        """
        if self.kernel.normalized:
            return self.params.eta
        return self.params.eta * np.sqrt(2 * self.kernel.H)


def rbergomi_variance(volterra: VolterraPaths, params: ModelParams) -> VariancePaths:
    """V_t = xi0 * exp(eta * X_t - (eta^2/2) * t^(2*alpha+1)).

    The compensator makes V a (discretization-exact, up to the hybrid
    scheme's cell approximation) martingale in t with mean xi0.  This is
    the variance of both models: X comes from the rBergomi plan or from a
    kernel plan.
    """
    if volterra.alpha != params.alpha:
        raise ValueError(
            f"volterra paths were simulated with alpha={volterra.alpha}, "
            f"params have alpha={params.alpha}"
        )
    t = volterra.grid.nodes
    comp = 0.5 * params.eta**2 * t ** (2 * params.alpha + 1)
    V = params.xi0 * np.exp(params.eta * volterra.values - comp)
    return VariancePaths(values=_readonly(V), grid=volterra.grid, params=params)


def rbergomi_log_price(V: VariancePaths, inc: PathIncrements) -> np.ndarray:
    """Euler log-price: log S_{t+dt} = log S_t + sqrt(V_t)*dW_t - V_t*dt/2.

    S_0 = 1.  Works for any VariancePaths; the model enters only through V.
    Returns an [n_paths x (N+1)] matrix.
    """
    if inc.grid != V.grid:
        raise ValueError("variance paths and increments live on different grids")
    dt = V.grid.dt
    vols = np.sqrt(V.values[:, :-1])
    steps = vols * inc.dW - 0.5 * V.values[:, :-1] * dt
    logS = np.zeros((inc.n_paths, V.grid.N + 1))
    np.cumsum(steps, axis=1, out=logS[:, 1:])
    return logS


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
    (toeplitz_convolve), so the factor tensor is never built and the cost
    does not depend on the number of terms.  Downstream, sqrt(theta/T)*y_t
    stands in for the Volterra process; that prefactor is recorded on the
    result.
    """
    if factors.kernel is not cfg.kernel:
        raise ValueError("factors were simulated under a different config")
    N = factors.grid.N
    c = np.power.outer(factors.decay, np.arange(N)).T @ cfg.kernel.weights
    y = np.zeros((factors.dB.shape[0], N + 1))
    y[:, 1:] = toeplitz_convolve(c, factors.dB)
    pref = np.sqrt(factors.theta / factors.grid.T)
    return DriverPaths(values=_readonly(y), grid=factors.grid, prefactor=float(pref))


def abergomi_variance(cfg: AbergomiConfig, y: DriverPaths) -> VariancePaths:
    """V_t = xi0 * exp(m * eta_k * prefactor * y_t - (eta^2/2)*t^(2*alpha+1)).

    eta_k is eta adjusted for the kernel's normalization flavor (see
    AbergomiConfig.eta_scale); the compensator is rBergomi's.
    """
    params = cfg.params
    t = y.grid.nodes
    scale = cfg.mult_factor * cfg.eta_scale() * y.prefactor
    comp = 0.5 * params.eta**2 * t ** (2 * params.alpha + 1)
    V = params.xi0 * np.exp(scale * y.values - comp)
    return VariancePaths(values=_readonly(V), grid=y.grid, params=params)


def quadratic_variation_chi(kernel: ExpKernel, s: float, t: float) -> float:
    """chi(s, t) = int_{t-s}^{t} (sum_i w_i e^(-x_i u))^2 du in closed form.

        sum_ij w_i w_j e^(-(x_i+x_j)(t-s)) (1 - e^(-(x_i+x_j)s)) / (x_i+x_j)

    The quadratic variation accumulated by the kernel-smoothed driver over
    the window (t-s, t]; s = 0 gives 0, s = t gives the full int_0^t.
    """
    if s < 0 or t < 0 or s > t:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
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
    variance itself.
    """
    if s > t:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    delta = t - s
    w = kernel.weights
    x = kernel.speeds
    resid_var = quadratic_variation_chi(kernel, delta, delta)
    loading = w * np.exp(-x * delta)
    return xi0 * np.exp(0.5 * sigma**2 * resid_var + sigma * (Y @ loading))
