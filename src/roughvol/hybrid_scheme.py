"""Volterra-process simulation via the hybrid scheme with FFT convolution.

Simulates X_t = sqrt(2*alpha+1) * int_0^t (t-s)^alpha dB_s on a uniform
grid.  The kernel singularity at s = t is handled cell-exactly: the cell
nearest the singularity is sampled from the exact joint Gaussian law of
(int_cell (t-s)^alpha dB_s, dB) — this is what makes the per-node variance
land on t^{2H} — while the remaining cells use the optimally displaced
left-rule nodes b_k^* and a single lower-triangular Toeplitz convolution,
evaluated in O(N log N) by zero-padded FFT.

The convolution runs in sim_core's BLOCK_SIZE-row blocks, one
sim_core.run_chunks task each: a block goes through its worker's FFT
buffers and lands straight in its rows of the output.  _volterra_rows,
which simulate_volterra and models.simulate_terminal run on each block,
writes one block into X[:, 1:] and adds the first cell to those rows, with
its two scratch planes taken from the block's idle FFT signal buffer, so
the only full-size array simulate_volterra makes is the one it returns.

On a uniform grid with fixed N the power plan is self-similar: the tail
weights (b_k^* dt)^alpha and the first cell's a1, b1 scale as dt^alpha,
and the increments as sqrt(dt), so on the same Gaussians the field of
maturity T is (T/T_ref)^H times that of T_ref; so is a kernel plan's (see
make_hybrid_plan).  models.simulate_terminal therefore builds one field per
block for all its sides of one kernel (None for rBergomi) and scales it in
each side's variance.  Every field is odd in (dB, dU), bit for bit: the
rfft, the spectrum product, the irfft, the first cell and the scaling each
map negated inputs to negated outputs.  So every convolution of exactly
paired rows (sim_core's antithetic pairs) runs on a block's even rows and
is negated into the odd ones: simulate_terminal's always, and each block
of simulate_volterra and abergomi_driver whose input _run_paired finds
paired; any other block runs whole, with the same bits.

The same scheme simulates the Markovian approximation: given a
sum-of-exponentials kernel K(tau) = sum_i w_i e^(-x_i tau), the cells k >= 2
take the cell averages of K instead of those of tau^alpha, while the singular
cell stays exact.  Those averages are a sum of exponentials in k, so the tail
is exactly the n-factor recursion Z_{j+1} = e^(-x dt) (Z_j + dB_j) — Markovian,
with exact decay, stable for any speed — evaluated by the same convolution.
This is the hybrid multifactor scheme of Romer (2022), "Hybrid multifactor
scheme for stochastic Volterra equations with completely monotone kernels",
and it is how the Markovian (aBergomi) model is simulated: one plan per
model goes into simulate_volterra, or one (T, kernel) side per model into
models.simulate_terminal (the CLI's route), and the variance step is shared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernel import ExpKernel
from .sim_core import (
    ModelParams,
    PathIncrements,
    TimeGrid,
    _check_int,
    _negate_pairs,
    _positive,
    _readonly,
    _require,
    run_chunks,
)

__all__ = [
    "HybridPlan",
    "VolterraPaths",
    "optimal_nodes",
    "first_cell_coefficients",
    "make_hybrid_plan",
    "simulate_volterra",
]

@dataclass(frozen=True, eq=False)
class HybridPlan:
    """Precomputed discretization of the Volterra kernel on one grid.

    Attributes
    ----------
    grid : TimeGrid
    alpha : float
        Kernel exponent H - 1/2, for an H inside ModelParams.DOMAINS["H"].
    kernel_weights : ndarray
        Cell averages c_k, k = 2..N, of the kernel over [(k-1)*dt, k*dt]:
        (b_k^* * dt)^alpha for the power kernel, the sum-of-exponentials
        average for a kernel plan; strictly decreasing in k.
    """

    grid: TimeGrid
    alpha: float
    kernel_weights: np.ndarray


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
        Exponent H - 1/2, for an H inside ModelParams.DOMAINS["H"].
    N : int
        Number of grid steps (>= 2).

    Returns
    -------
    ndarray of shape (N-1,), entries b_2^*, ..., b_N^*.
    """
    _require(ModelParams.DOMAINS["H"], **{"alpha + 1/2": alpha + 0.5})
    N = _check_int("N", N, 2)
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
    _require(ModelParams.DOMAINS["H"], **{"alpha + 1/2": alpha + 0.5})
    _require(_positive, dt=dt)
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
    they carry the cell average of the kernel rescaled from kernel.T to T,
    with speeds x = speeds * kernel.T/T and weights w = weights * (T/kernel.T)^alpha,

        c_k = sum_i w_i e^(-x_i (k-1) dt) (1 - e^(-x_i dt)) / (x_i dt),

    divided by sqrt(2H): the kernel approximates sqrt(2H) * tau^alpha, and
    simulate_volterra applies sqrt(2*alpha+1) itself.  x*dt does not depend
    on T at a fixed N, so the c_k scale as T^alpha, as the power plan's do
    (both factors are 1 at T == kernel.T).  The kernel must share alpha:
    kernel.H = alpha + 1/2.
    """
    if kernel is None:
        w = (optimal_nodes(alpha, grid.N) * grid.dt) ** alpha
    else:
        _require(ModelParams.DOMAINS["H"], **{"alpha + 1/2": alpha + 0.5})
        if not abs(kernel.H - 0.5 - alpha) <= 1e-12:
            raise ValueError(
                f"kernel was built for H={kernel.H}, plan has alpha={alpha} "
                f"(H={alpha + 0.5})"
            )
        x = kernel.speeds * (kernel.T / grid.T)
        x_dt = x * grid.dt
        cell_mass = kernel.weights * (grid.T / kernel.T) ** alpha * -np.expm1(-x_dt) / x_dt
        lags = np.arange(1, grid.N) * grid.dt
        w = np.exp(-np.multiply.outer(lags, x)) @ cell_mass
        w = w / np.sqrt(2 * kernel.H)
    return HybridPlan(grid=grid, alpha=alpha, kernel_weights=_readonly(w))


def _convolve_into(kernel, signal, out) -> None:
    """Lower-triangular Toeplitz multiply: out[p, j] = sum_k kernel[k] * signal[p, j-k].

    A linear convolution via FFT, zero-padded to the next power of two >=
    len(kernel) + n - 1 and truncated to the signal's n columns: O(N log N)
    per path, not O(N^2).  The 1-d kernel, at most n long, is transformed
    once; the rows go through _run_paired.  out is [rows x n] like signal
    and may be a strided view.
    """
    K, L = _kernel_spectrum(kernel, signal.shape[1])
    _run_paired(L, functools.partial(_convolve_rows, K), (signal,), out)


def _kernel_spectrum(kernel: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """(K, L): the rfft K of kernel zero-padded to length L.

    L is the next power of two >= len(kernel) + n - 1, so the circular
    convolution with an n-column signal is the linear one.
    """
    L = 1 << int(np.ceil(np.log2(kernel.size + n - 1)))
    return np.fft.rfft(kernel, L), L


def _run_paired(L: int, rows_fn, planes: tuple, out: np.ndarray) -> None:
    """Run rows_fn(*planes[rows], out[rows], fft_bufs) on each run_chunks block.

    fft_bufs are a worker's _fft_buffers(L, ...).  A block where row 2j+1
    of every plane is the exact negation of row 2j runs on its even rows
    and is negated into the odd ones; any other block runs whole, with the
    same bits.  For finite doubles x + y == 0 only when y == -x; a NaN or
    an inf reads as unpaired.  The sums go into the idle FFT signal buffer.
    """

    def block(rows: slice, fft_bufs) -> None:
        ins, dst = [p[rows] for p in planes], out[rows]
        m, n = ins[0].shape
        t = fft_bufs[1].reshape(-1)[: m // 2 * n].reshape(m // 2, n)
        with np.errstate(invalid="ignore"):  # inf + -inf
            paired = not any(np.add(a[1::2], a[: m - 1 : 2], out=t).any() for a in ins)
        if paired:
            rows_fn(*(a[::2] for a in ins), dst[::2], fft_bufs)
            _negate_pairs(dst)
        else:
            rows_fn(*ins, dst, fft_bufs)

    run_chunks(out.shape[0], block, lambda height: _fft_buffers(L, height))


def _fft_buffers(L: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """One worker's spectrum and length-L signal buffers for blocks of `rows` rows."""
    return np.empty((rows, L // 2 + 1), complex), np.empty((rows, L))


def _convolve_rows(K, signal, out, bufs) -> None:
    """out = the first n columns of irfft(K * rfft(signal, L), L).

    signal and out are [rows x n] with rows no more than the buffers'
    (_fft_buffers); K is _kernel_spectrum's spectrum for the buffers' L.
    """
    rows, n = signal.shape
    spec, full = bufs[0][:rows], bufs[1][:rows]
    L = full.shape[1]
    np.fft.rfft(signal, L, axis=1, out=spec)
    np.multiply(K, spec, out=spec)  # K first: complex multiply is not operand-symmetric
    np.fft.irfft(spec, L, axis=1, out=full)
    out[...] = full[:, :n]


def _plan_spectrum(plan: HybridPlan) -> tuple[np.ndarray, int]:
    """_kernel_spectrum of the tail cells' kernel 0, c_2..c_N on N columns."""
    c = np.concatenate(([0.0], plan.kernel_weights))
    return _kernel_spectrum(c, plan.grid.N)


def _volterra_rows(plan: HybridPlan, K, dB, dU, out, fft_bufs) -> None:
    """out = X on the rows of dB and dU, at most BLOCK_SIZE of them.

    The tail convolution (K = _plan_spectrum(plan)'s spectrum) goes
    through fft_bufs (_fft_buffers) into out[:, 1:], and then the first cell
    is added there: X_{t_j} = sqrt(2*alpha+1) * (tail + a1*dB + b1*dU) at
    j >= 1, X_0 = 0, in that order of operations.  The first cell's two
    scratch planes are the FFT signal buffer, idle by then: it has L >= 2N
    columns, so its memory holds a contiguous (2, rows, N) view.  out is
    [rows x (N+1)]; dB and dU are only read.
    """
    a1, b1 = first_cell_coefficients(plan.alpha, plan.grid.dt)
    body = out[:, 1:]
    _convolve_rows(K, dB, body, fft_bufs)
    tmp_b, tmp_u = fft_bufs[1].reshape(-1)[: 2 * dB.size].reshape(2, *dB.shape)
    np.multiply(dB, a1, out=tmp_b)
    np.multiply(dU, b1, out=tmp_u)
    np.add(tmp_b, tmp_u, out=tmp_b)
    np.add(body, tmp_b, out=body)
    out[:, 0] = 0.0
    np.multiply(body, np.sqrt(2 * plan.alpha + 1), out=body)


def simulate_volterra(plan: HybridPlan, inc: PathIncrements) -> VolterraPaths:
    """Simulate the normalized Volterra process on plan.grid.

    X_{t_j} = sqrt(2*alpha+1) * [ first-cell term + sum_{k=2..j}
    c_k * dB_{j-k+1} ], with c_k = plan.kernel_weights: (b_k^* dt)^alpha for
    rBergomi, the sum-of-exponentials cell averages for a kernel plan.  The
    singular cell integral int_{t_{j-1}}^{t_j} (t_j - s)^alpha dB_s is drawn
    from its exact joint law with dB_j as a1 * dB_j + b1 * dU_j (see
    first_cell_coefficients), using the orthogonal stream inc.dU.

    The sqrt(2*alpha+1) normalization is applied here, so Var(X_{t_j}) ~
    t_j^{2H}.  A block whose dB and dU are exact antithetic pairs is built
    on its even rows and negated into the odd ones.
    """
    if inc.grid != plan.grid:
        raise ValueError("increments and plan were built on different grids")
    values = np.empty((inc.n_paths, plan.grid.N + 1))
    K, L = _plan_spectrum(plan)
    # read here, not in a worker: a first read of dU draws it on the pool
    planes = (inc.dB, inc.dU)
    _run_paired(L, functools.partial(_volterra_rows, plan, K), planes, values)
    values[:, 0] = 0.0  # not the -0.0 a paired block negates into its odd rows
    return VolterraPaths(values=_readonly(values), grid=plan.grid, alpha=plan.alpha)
