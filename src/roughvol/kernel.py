"""Sum-of-exponentials approximation of rBergomi's Volterra kernel.

Every ExpKernel K^n(tau) = sum_i w_i * exp(-x_i * tau) approximates the one
target sqrt(2H) * tau^(H-1/2) on [0, T], the kernel under which the
vol-of-vol eta multiplies the approximation downstream unchanged.  One
construction, ``fit_kernel_ls``: damped Gauss-Newton least squares on a
fixed grid, started from the cell-average nodes of the Laplace
representation tau^(H-1/2) = int_0^inf e^(-x*tau) mu(dx) (Abi Jaber &
El Euch 2019).  ``kernel_l2_error`` measures any kernel on [0, T].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim_core import ModelParams, _check_int, _positive, _readonly, _require

__all__ = [
    "ExpKernel",
    "kernel_l2_error",
    "fit_kernel_ls",
]

@dataclass(frozen=True, eq=False)
class ExpKernel:
    """K^n(tau) = sum_i weights[i] * exp(-speeds[i] * tau).

    weights and speeds positive and finite, speeds strictly increasing;
    K^n is then positive, strictly decreasing, and completely monotone on
    (0, inf).  It approximates sqrt(2H) * tau^(H-1/2) on [0, T], with H
    inside ModelParams.DOMAINS["H"] and T positive and finite.
    """

    weights: np.ndarray
    speeds: np.ndarray
    H: float
    T: float

    def __post_init__(self):
        w = _readonly(np.atleast_1d(np.asarray(self.weights, dtype=float)))
        x = _readonly(np.atleast_1d(np.asarray(self.speeds, dtype=float)))
        if w.ndim != 1 or x.ndim != 1:
            raise ValueError("weights and speeds must be scalars or 1-D arrays")
        if w.size != x.size or w.size < 1:
            raise ValueError("weights and speeds must be equal-length, non-empty")
        if not (np.all((0 < w) & (w < np.inf)) and np.all((0 < x) & (x < np.inf))):
            raise ValueError("weights and speeds must all be positive and finite")
        if not np.all(np.diff(x) > 0):
            raise ValueError("speeds must be strictly increasing")
        _require(ModelParams.DOMAINS["H"], H=self.H)
        _require(_positive, T=self.T)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "speeds", x)

    @property
    def n(self) -> int:
        return self.weights.size

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        return np.exp(-np.multiply.outer(tau, self.speeds)) @ self.weights


def _closed_form_nodes(n: int, H: float, T: float):
    """Unscaled cell-average weights and speeds, fit_kernel_ls's start.

    Partition (0, n*pi_n] into cells of width pi_n = n^(-1/5)/T *
    (sqrt(10)*(1/2-H)/(5/2-H))^(2/5); weight i is the mu-mass of cell i and
    speed i its mu-barycenter, so sum_i w_i e^(-x_i tau) approximates the
    plain tau^(H-1/2).  Started from the sqrt(2H)-scaled nodes, Gauss-Newton
    lands in a different optimum.  ROADMAP item 3 replaces this start.
    """
    beta = 0.5 - H
    pi_n = n ** (-0.2) / T * (np.sqrt(10.0) * beta / (2.5 - H)) ** 0.4
    i = np.arange(1, n + 1, dtype=float)
    hi = (i * pi_n) ** beta
    lo = ((i - 1) * pi_n) ** beta
    w = (hi - lo) / (beta * math.gamma(beta))
    num = (i * pi_n) ** (1.5 - H) - ((i - 1) * pi_n) ** (1.5 - H)
    x = (1.0 - 2 * H) / (3.0 - 2 * H) * num / (hi - lo)
    return w, x


def kernel_l2_error(k: ExpKernel, H: float, T: float) -> float:
    """L2([0,T]) distance between K^n and its target sqrt(2H) * tau^(H-1/2).

    The integrand (K^n(tau) - sqrt(2H) * tau^(H-1/2))^2 inherits the
    tau^(2H-1) singularity at 0, so a uniform mesh underestimates the
    singular mass; the substitution tau = T * u^(1/(2H)) makes the singular
    part of the integrand O(1) and 400-node Gauss-Legendre in u converges
    fast.  The target times sqrt(jacobian) is exactly T^H, so the target is
    never evaluated: below H ~ 0.008 the first node's tau underflows to 0.
    """
    _require(ModelParams.DOMAINS["H"], H=H)
    _require(_positive, T=T)
    g = 1.0 / (2 * H)
    u, gl_w = np.polynomial.legendre.leggauss(400)
    u = 0.5 * (u + 1.0)
    resid = np.sqrt(T * g) * u ** ((g - 1.0) / 2) * k(T * u**g) - T**H
    return float(np.sqrt(np.sum(0.5 * gl_w * resid**2)))


def _target(tau, H):
    # the Volterra kernel sqrt(2*alpha+1) * tau^alpha, alpha = H - 1/2
    return np.sqrt(2 * H) * tau ** (H - 0.5)


def fit_kernel_ls(H: float, T: float, N_grid: int, n: int) -> ExpKernel:
    """Least-squares fit of an n-term kernel to sqrt(2H) * tau^(H-1/2).

    Fit grid: tau_j = j*T/N_grid for j = 1..N_grid-1 (the singular point 0
    and the truncated endpoint T are excluded).  Damped Gauss-Newton on
    log-parameters (positivity for free), analytic Jacobian, Levenberg
    damping with accept-if-decrease; stops on max|J^T r| < 1e-10 or after
    500 sweeps, returning the last accepted iterate, which has the lowest
    grid RMSE seen.  A single deterministic start at the unscaled
    cell-average nodes is used — multi-start selection by grid RMSE favors
    degenerate near-cancelling pairs that explode off-grid, so it is
    deliberately avoided.  The iterate is always finite: it starts at the
    finite cell-average nodes and moves only to a finite, lower RMSE.
    """
    _require(ModelParams.DOMAINS["H"], H=H)
    _require(_positive, T=T)
    N_grid = _check_int("N_grid", N_grid, 3)
    n = _check_int("n", n, 1)
    tau = np.arange(1, N_grid) * (T / N_grid)
    y = _target(tau, H)
    w, x = _closed_form_nodes(n, H, T)
    lw = np.log(w)
    lx = np.log(x)

    def model_and_resid(lw, lx):
        E = np.exp(-np.multiply.outer(tau, np.exp(lx)))
        f = E @ np.exp(lw)
        return E, f - y

    E, r = model_and_resid(lw, lx)
    rmse = float(np.sqrt(np.mean(r**2)))
    lam = 1e-3
    for _ in range(500):
        w = np.exp(lw)
        x = np.exp(lx)
        Jw = E * w  # d r / d log w_i
        Jx = -E * (w * x) * tau[:, None]  # d r / d log x_i
        J = np.hstack([Jw, Jx])
        g = J.T @ r
        if np.max(np.abs(g)) < 1e-10:
            break
        JTJ = J.T @ J
        # identity (not diagonal-scaled) damping: the scaled variant takes
        # different step directions and, on this problem, walks into spiky
        # local optima (a huge weight on a speed too fast for the grid to
        # see) that match the grid but are useless between its points.
        eye = np.eye(2 * n)
        for _ in range(40):
            try:
                step = np.linalg.solve(JTJ + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            lw_t = lw + step[:n]
            lx_t = lx + step[n:]
            # an overflowed trial, 0 * inf in its matmul too, is rejected
            with np.errstate(over="ignore", invalid="ignore"):
                E_t, r_t = model_and_resid(lw_t, lx_t)
                rmse_t = float(np.sqrt(np.mean(r_t**2)))
            if np.isfinite(rmse_t) and rmse_t < rmse:
                lw, lx, E, r, rmse = lw_t, lx_t, E_t, r_t, rmse_t
                lam = max(lam * 0.3, 1e-12)
                break
            lam *= 10.0
        else:  # no trial lowered the RMSE
            break

    # log-params keep everything positive, but exp() of a very negative
    # log-weight/log-speed can underflow to 0.0 exactly (a dead term);
    # floor at the smallest normal so the positivity contract holds.  A
    # floored term contributes ~1e-308 to the kernel, i.e. nothing.
    tiny = np.finfo(float).tiny
    w = np.maximum(np.exp(lw), tiny)
    x = np.maximum(np.exp(lx), tiny)
    # restore strict ordering
    order = np.argsort(x, kind="stable")
    x = x[order]
    w = w[order]
    for i in range(1, n):
        if x[i] <= x[i - 1]:
            x[i] = np.nextafter(x[i - 1], np.inf)
    return ExpKernel(weights=w, speeds=x, H=H, T=T)
