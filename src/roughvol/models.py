"""Variance and log-price simulators: rBergomi and the n-term aBergomi model.

rBergomi turns hybrid-scheme Volterra paths into the lognormal variance

    V_t = xi0 * exp(eta * X_t - (eta^2/2) * t^(2*alpha+1)),

aBergomi replaces the Volterra process with a superposition of Euler-stepped
OU factors Y^i_{j+1} = (1 - kappa_i*dt) Y^i_j + dB_j sharing one driving
noise (kappa_i the effective speeds of the driver convention below).  On the
uniform grid their weighted sum y = sum_i w_i Y^i is a lower-triangular
Toeplitz product,

    y_j = sum_{k<j} c_{j-1-k} dB_k,   c_m = sum_i w_i (1 - kappa_i*dt)^m,

so abergomi_driver evaluates it with the FFT convolution the hybrid scheme
uses: its cost does not depend on the number of terms, and the
[n_paths x (N+1) x n_terms] factor tensor is built only when OUFactorPaths.Y
is read.  Two driver conventions are supported:

* ``rescaled`` (default) — the truncated-horizon construction: factors run
  at effective speeds kappa_i*(1 - theta/T) and the driver y is consumed as
  sqrt(theta/T)*y_t, with a smile-level multiplication factor m (whose
  square is tabulated per step count in SMILE_FACTOR_M2).
* ``direct`` — the factors run at the kernel's own speeds and y approximates
  the Volterra integral itself (prefactor 1, m typically 1).  This is the
  convention under which the n -> infinity moment convergence to rBergomi is
  observable.

The drift compensator is (eta^2/2)*t^(2*alpha+1) by default (the power-law
quadratic variation, exact in the n -> infinity limit); ``compensator =
"exact"`` replaces it with the fitted kernel's own quadratic variation so
that E[V_t] = xi0 holds exactly at finite n.

Both models consume the same PathIncrements, so rBergomi/aBergomi
comparisons are common-random-number by construction.

The OU-factor construction above is what AbergomiConfig and the CLI
default to; with the rescaled driver it does not approximate rBergomi (about
3x off in ATM vol at T=1, N=100).  The approximation that does is the hybrid
multifactor scheme: make_hybrid_plan(grid, alpha, kernel=kernel) fed through
simulate_volterra and rbergomi_variance.
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
    "OUFactorState",
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

# Squared smile-level multiplication factors m^2, tabulated per step count
# for the rescaled driver.  Stored exactly as published.
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
class OUFactorState:
    """Factor levels at a single time: Y is [n_paths x n_terms]."""

    Y: np.ndarray
    kernel: ExpKernel
    theta: float
    eff_speeds: np.ndarray


@dataclass(frozen=True, eq=False)
class OUFactorPaths:
    """Shared-noise OU factors on a grid, held as their noise and decay.

    The factors follow Y^i_{j+1} = decay_i * Y^i_j + dB_j from Y^i_0 = 0,
    with decay = 1 - eff_speeds*dt.  dB is the increments' own plane (not a
    copy).  Y, the [n_paths x (N+1) x n_terms] tensor, is built by that
    recursion on first read and cached; abergomi_driver never reads it.
    Indexing with a node index j returns the OUFactorState at t_j; it runs
    the same recursion up to node j on a [n_paths x n_terms] state and
    builds no tensor.
    """

    dB: np.ndarray
    decay: np.ndarray
    grid: TimeGrid
    kernel: ExpKernel
    theta: float
    eff_speeds: np.ndarray

    def _steps(self, stop: int):
        """Yield Y at t_0..t_stop, each a fresh [n_paths x n_terms] array."""
        state = np.zeros((self.dB.shape[0], self.kernel.n))
        yield state
        for j in range(stop):
            state = state * self.decay + self.dB[:, j, None]
            yield state

    @cached_property
    def Y(self) -> np.ndarray:
        Y = np.empty((self.dB.shape[0], self.grid.N + 1, self.kernel.n))
        for j, state in enumerate(self._steps(self.grid.N)):
            Y[:, j, :] = state
        return _readonly(Y)

    def __len__(self) -> int:
        return self.grid.N + 1

    def __getitem__(self, j: int) -> OUFactorState:
        """The state at t_j, stepped to node j only."""
        j = range(self.grid.N + 1)[j]
        for Y in self._steps(j):  # keeps only the last state alive
            pass
        return OUFactorState(
            Y=_readonly(Y),
            kernel=self.kernel,
            theta=self.theta,
            eff_speeds=self.eff_speeds,
        )


@dataclass(frozen=True, eq=False)
class DriverPaths:
    """The scalar Gaussian driver y_t = sum_i w_i Y^i_t on a grid."""

    values: np.ndarray
    grid: TimeGrid
    prefactor: float  # sqrt(theta/T) for the rescaled driver, 1.0 for direct


@dataclass(frozen=True, eq=False)
class AbergomiConfig:
    """Everything the aBergomi simulator needs besides increments.

    theta = None resolves to T - dt at simulation time (the truncated
    horizon); mult_factor is the smile-level factor m (sqrt of a SMILE_FACTOR_M2
    entry for the rescaled driver at the tabulated step counts).
    """

    kernel: ExpKernel
    params: ModelParams
    theta: float | None = None
    mult_factor: float = 1.0
    driver: str = "rescaled"
    compensator: str = "power"

    def __post_init__(self):
        if self.mult_factor <= 0:
            raise ValueError(f"mult_factor must be positive, got {self.mult_factor}")
        if self.driver not in ("rescaled", "direct"):
            raise ValueError(f"driver must be 'rescaled' or 'direct', got {self.driver!r}")
        if self.compensator not in ("power", "exact"):
            raise ValueError(
                f"compensator must be 'power' or 'exact', got {self.compensator!r}"
            )

    def resolve_theta(self, grid: TimeGrid) -> float:
        theta = grid.T - grid.dt if self.theta is None else self.theta
        if not (0.0 < theta < grid.T):
            raise ValueError(f"theta must lie in (0, T), got {theta}")
        return theta

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
    scheme's cell approximation) martingale in t with mean xi0.
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

    S_0 = 1.  Works for any VariancePaths (aBergomi included); the model
    enters only through V.  Returns an [n_paths x (N+1)] matrix.
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
    """Set up the shared-noise OU factors Y^i, Euler-stepped from Y^i_0 = 0:

        Y^i_{t_{j+1}} = Y^i_{t_j} - kappa_eff_i * Y^i_{t_j} * dt + dB_j

    (mean-reverting drift; all factors are driven by the same variance
    noise dB).  kappa_eff = kappa*(1 - theta/T) for the rescaled driver,
    the kernel's own kappa for the direct driver.  No step is taken here:
    the result keeps inc.dB and the decay 1 - kappa_eff*dt, and runs the
    recursion only if its Y tensor is read.
    """
    grid = inc.grid
    theta = cfg.resolve_theta(grid)
    kappa = cfg.kernel.speeds
    if cfg.driver == "rescaled":
        eff = kappa * (1.0 - theta / grid.T)
    else:
        eff = kappa.copy()
    return OUFactorPaths(
        dB=inc.dB,
        decay=_readonly(1.0 - eff * grid.dt),
        grid=grid,
        kernel=cfg.kernel,
        theta=theta,
        eff_speeds=_readonly(eff),
    )


def abergomi_driver(cfg: AbergomiConfig, factors: OUFactorPaths) -> DriverPaths:
    """The scalar driver y_t = sum_i w_i Y^i_t, as one Toeplitz convolution.

    Unrolling the factor recursion gives y_{t_j} = sum_{k<j} c_{j-1-k} dB_k
    with c_m = sum_i w_i decay_i^m, decay = 1 - kappa_eff*dt; the sum is
    evaluated by FFT (toeplitz_convolve), so the factor tensor is never
    built and the cost does not depend on the number of terms.

    For the rescaled construction downstream consumers use
    sqrt(theta/T)*y_t as the Volterra surrogate; that prefactor is recorded
    on the result (1.0 for the direct driver).
    """
    if factors.kernel is not cfg.kernel:
        raise ValueError("factors were simulated under a different config")
    N = factors.grid.N
    c = np.power.outer(factors.decay, np.arange(N)).T @ cfg.kernel.weights
    y = np.zeros((factors.dB.shape[0], N + 1))
    y[:, 1:] = toeplitz_convolve(c, factors.dB)
    pref = (
        np.sqrt(factors.theta / factors.grid.T) if cfg.driver == "rescaled" else 1.0
    )
    return DriverPaths(values=_readonly(y), grid=factors.grid, prefactor=float(pref))


def abergomi_variance(cfg: AbergomiConfig, y: DriverPaths) -> VariancePaths:
    """V_t = xi0 * exp(m * eta_k * prefactor * y_t - compensator(t)).

    eta_k is eta adjusted for the kernel's normalization flavor (see
    AbergomiConfig.eta_scale).  compensator='power' uses the rBergomi
    (eta^2/2)*t^(2*alpha+1); 'exact' uses half the actual variance of the
    exponent, (m*eta_k*prefactor)^2/2 * chi_eff(t,t), making E[V_t] = xi0
    exact at finite n.
    """
    params = cfg.params
    t = y.grid.nodes
    scale = cfg.mult_factor * cfg.eta_scale() * y.prefactor
    if cfg.compensator == "power":
        comp = 0.5 * params.eta**2 * t ** (2 * params.alpha + 1)
    else:
        theta = cfg.resolve_theta(y.grid)
        eff = (
            cfg.kernel.speeds * (1.0 - theta / y.grid.T)
            if cfg.driver == "rescaled"
            else cfg.kernel.speeds
        )
        var_y = _chi_diag(cfg.kernel.weights, eff, t[1:])
        comp = np.concatenate([[0.0], 0.5 * scale**2 * var_y])
    V = params.xi0 * np.exp(scale * y.values - comp)
    return VariancePaths(values=_readonly(V), grid=y.grid, params=params)


def _chi_diag(w: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """chi(t,t) = sum_ij w_i w_j (1 - e^(-(x_i+x_j)t)) / (x_i+x_j), vectorized in t."""
    ww = np.multiply.outer(w, w)
    xs = np.add.outer(x, x)
    expo = -np.exp(-np.multiply.outer(t, xs))  # [t, i, j]
    return np.einsum("ij,tij->t", ww / xs, 1.0 + expo)


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
    state: OUFactorState,
    s: float,
    t: float,
    sigma: float,
    xi0: float,
) -> np.ndarray:
    """E[V^n_t | F_s] for the affine variance V^n_u = xi0*exp(sigma*sum_i w_i Y^i_u).

    Conditionally on F_s the exponent is Gaussian: mean
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
    return xi0 * np.exp(0.5 * sigma**2 * resid_var + sigma * (state.Y @ loading))
