"""Volterra-process simulation via the hybrid scheme with FFT convolution.

Simulates X_t = sqrt(2*alpha+1) * int_0^t (t-s)^alpha dB_s on a uniform
grid.  The kernel singularity at s = t is handled cell-exactly: the cell
nearest the singularity is sampled from the exact joint Gaussian law of
(int_cell (t-s)^alpha dB_s, dB) — this is what makes the per-node variance
land on t^{2H} — while the remaining cells use the optimally displaced
left-rule nodes b_k^* and a single lower-triangular Toeplitz convolution,
evaluated in O(N log N) by zero-padded FFT.

The same scheme simulates the Markovian approximation: given a
sum-of-exponentials kernel K(tau) = sum_i w_i e^(-x_i tau), the cells k >= 2
take the cell averages of K instead of those of tau^alpha, while the singular
cell stays exact.  Those averages are a sum of exponentials in k, so the tail
is exactly the n-factor recursion Z_{j+1} = e^(-x dt) (Z_j + dB_j) — Markovian,
with exact decay, stable for any speed — evaluated by the same convolution.
This is the hybrid multifactor scheme of Romer (2022), "Hybrid multifactor
scheme for stochastic Volterra equations with completely monotone kernels",
and it is how the Markovian (aBergomi) model is simulated: the CLI and the
library feed one plan per model into simulate_volterra, and the variance
step (models.rbergomi_variance) is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .sim_core import PathIncrements, TimeGrid, _readonly, run_chunks

if TYPE_CHECKING:  # runtime import would pull scipy into every rough-only run
    from .kernel import ExpKernel

__all__ = [
    "HybridPlan",
    "VolterraPaths",
    "optimal_nodes",
    "first_cell_coefficients",
    "make_hybrid_plan",
    "toeplitz_convolve",
    "simulate_volterra",
]

# Signal rows per FFT task.  Fixed, so each row goes through the same
# transform calls whatever the thread count.
FFT_CHUNK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class HybridPlan:
    """Precomputed discretization of the Volterra kernel on one grid.

    Attributes
    ----------
    grid : TimeGrid
    alpha : float
        Kernel exponent in (-1/2, 0).
    b_star : ndarray or None
        Optimal evaluation points b_k^*, k = 2..N; b_k^* lies in [k-1, k].
        None for a kernel plan, whose weights do not use them.
    kernel_weights : ndarray
        Cell averages c_k, k = 2..N, of the kernel over [(k-1)*dt, k*dt]:
        (b_k^* * dt)^alpha for the power kernel, the sum-of-exponentials
        average for a kernel plan; strictly decreasing in k.
    kernel : ExpKernel or None
        The sum-of-exponentials kernel of a kernel plan; None for rBergomi.
    """

    grid: TimeGrid
    alpha: float
    b_star: np.ndarray | None
    kernel_weights: np.ndarray
    kernel: ExpKernel | None = None


@dataclass(frozen=True, eq=False)
class VolterraPaths:
    """Simulated X paths, values[p, j] = X_{t_j}, values[:, 0] = 0."""

    values: np.ndarray
    grid: TimeGrid
    alpha: float


def optimal_nodes(alpha: float, N: int) -> np.ndarray:
    """Optimal displaced evaluation points b_k^* for k = 2..N.

    b_k^* = ((k^(a+1) - (k-1)^(a+1)) / (a+1))^(1/a) minimizes the L2 kernel
    error of a left-rule cell evaluation; it always lies in [k-1, k].

    Parameters
    ----------
    alpha : float
        Exponent in (-1/2, 0).
    N : int
        Number of grid steps (>= 2).

    Returns
    -------
    ndarray of shape (N-1,), entries b_2^*, ..., b_N^*.
    """
    if not (-0.5 < alpha < 0.0):
        raise ValueError(f"alpha must lie in (-1/2, 0), got {alpha}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    k = np.arange(2, N + 1, dtype=float)
    return ((k ** (alpha + 1) - (k - 1) ** (alpha + 1)) / (alpha + 1)) ** (1.0 / alpha)


def first_cell_coefficients(alpha: float, dt: float) -> tuple[float, float]:
    """Coefficients (a1, b1) of the exact singular-cell draw a1*dB + b1*dU.

        a1 = dt^alpha / (alpha+1),
        b1 = dt^alpha * sqrt(1/(2*alpha+1) - 1/(alpha+1)^2),

    so that, for dU independent of dB with the same variance dt, the draw has
    the law of int_0^dt (dt - s)^alpha dB_s jointly with dB: variance
    dt^(2*alpha+1)/(2*alpha+1) and covariance dt^(alpha+1)/(alpha+1).
    """
    a1 = dt**alpha / (alpha + 1.0)
    b1 = dt**alpha * np.sqrt(1.0 / (2 * alpha + 1) - 1.0 / (alpha + 1) ** 2)
    return a1, b1


def make_hybrid_plan(
    grid: TimeGrid,
    alpha: float,
    kernel: ExpKernel | None = None,
) -> HybridPlan:
    """Assemble the HybridPlan (nodes and kernel weights) for a grid.

    Without ``kernel`` the cells k >= 2 carry (b_k^* dt)^alpha, which is the
    cell average of the power kernel tau^alpha (rBergomi).  With an ExpKernel
    they carry its cell average

        c_k = sum_i w_i e^(-x_i (k-1) dt) (1 - e^(-x_i dt)) / (x_i dt),

    divided by sqrt(2H) for a normalized kernel, because simulate_volterra
    applies sqrt(2*alpha+1) itself.  Plain and normalized kernels of the same
    function therefore give the same paths.  The kernel must share alpha:
    kernel.H = alpha + 1/2.
    """
    if kernel is None:
        b = _readonly(optimal_nodes(alpha, grid.N))
        w = (b * grid.dt) ** alpha
    else:
        if not (-0.5 < alpha < 0.0):
            raise ValueError(f"alpha must lie in (-1/2, 0), got {alpha}")
        if abs(kernel.H - 0.5 - alpha) > 1e-12:
            raise ValueError(
                f"kernel was built for H={kernel.H}, plan has alpha={alpha} "
                f"(H={alpha + 0.5})"
            )
        b = None
        x_dt = kernel.speeds * grid.dt
        cell_mass = kernel.weights * -np.expm1(-x_dt) / x_dt
        lags = np.arange(1, grid.N) * grid.dt
        w = np.exp(-np.multiply.outer(lags, kernel.speeds)) @ cell_mass
        if kernel.normalized:
            w = w / np.sqrt(2 * kernel.H)
    return HybridPlan(
        grid=grid,
        alpha=alpha,
        b_star=b,
        kernel_weights=_readonly(w),
        kernel=kernel,
    )


def toeplitz_convolve(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz multiply: out[p, j] = sum_k kernel[k] * signal[p, j-k].

    Computed as a linear convolution via FFT with zero padding to the next
    power of two >= len(kernel) + n_cols - 1, truncated back to the signal
    width.  O(N log N) per path instead of the O(N^2) triangular loop.  The
    kernel is transformed once; the rows are transformed in chunks of
    FFT_CHUNK_ROWS, one run_chunks task each, into per-worker buffers made
    in the calling thread.

    Parameters
    ----------
    kernel : 1-d array, length <= signal.shape[1]
    signal : 2-d array [n_paths x N]
    """
    kernel = np.asarray(kernel, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if kernel.ndim != 1 or kernel.size == 0:
        raise ValueError("kernel must be a non-empty 1-d array")
    if signal.ndim != 2:
        raise ValueError("signal must be a 2-d [n_paths x N] array")
    rows, n = signal.shape
    if kernel.size > n:
        raise ValueError(
            f"kernel length {kernel.size} exceeds signal columns {n}"
        )
    L = 1 << int(np.ceil(np.log2(kernel.size + n - 1)))
    K = np.fft.rfft(kernel, L)
    out = np.empty((rows, n))
    buf_rows = min(FFT_CHUNK_ROWS, rows)

    def convolve(chunk: int, bufs: tuple[np.ndarray, np.ndarray]) -> None:
        lo = chunk * FFT_CHUNK_ROWS
        hi = min(lo + FFT_CHUNK_ROWS, rows)
        spec, full = bufs[0][: hi - lo], bufs[1][: hi - lo]
        np.fft.rfft(signal[lo:hi], L, axis=1, out=spec)
        np.multiply(K, spec, out=spec)  # K first: complex multiply is not operand-symmetric
        np.fft.irfft(spec, L, axis=1, out=full)
        out[lo:hi] = full[:, :n]

    run_chunks(
        (rows + FFT_CHUNK_ROWS - 1) // FFT_CHUNK_ROWS,
        convolve,
        lambda: (np.empty((buf_rows, L // 2 + 1), complex), np.empty((buf_rows, L))),
    )
    return out


def simulate_volterra(plan: HybridPlan, inc: PathIncrements) -> VolterraPaths:
    """Simulate the normalized Volterra process on plan.grid.

    X_{t_j} = sqrt(2*alpha+1) * [ first-cell term + sum_{k=2..j}
    c_k * dB_{j-k+1} ], with c_k = plan.kernel_weights: (b_k^* dt)^alpha for
    rBergomi, the sum-of-exponentials cell averages for a kernel plan.  The
    singular cell integral int_{t_{j-1}}^{t_j} (t_j - s)^alpha dB_s is drawn
    from its exact joint law with dB_j as a1 * dB_j + b1 * dU_j (see
    first_cell_coefficients), using the orthogonal stream inc.dU.

    The sqrt(2*alpha+1) normalization is applied here, so Var(X_{t_j}) ~
    t_j^{2H}.
    """
    if inc.grid != plan.grid:
        raise ValueError("increments and plan were built on different grids")
    alpha = plan.alpha
    dt = plan.grid.dt
    N = plan.grid.N
    c = np.zeros(N)
    c[1:] = plan.kernel_weights
    a1, b1 = first_cell_coefficients(alpha, dt)
    body = toeplitz_convolve(c, inc.dB)
    body += a1 * inc.dB + b1 * inc.dU
    values = np.zeros((inc.n_paths, N + 1))
    values[:, 1:] = np.sqrt(2 * alpha + 1) * body
    return VolterraPaths(values=_readonly(values), grid=plan.grid, alpha=alpha)
