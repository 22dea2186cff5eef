from dataclasses import replace

import numpy as np
import pytest

import roughvol as rv


# Reference grid for the implied-vol round-trip property: the solver must
# recover the input vol to 1e-8 at every (K/S0, T, vol) combination whose
# vega is at least IV_MIN_VEGA.  Below that vega the map vol -> float64
# price is locally flat (moving the vol by 1e-8 moves the price by less
# than one ulp), so the input vol is not recoverable by *any* solver; such
# combinations are excluded from the round-trip check (price reproduction
# still holds wherever the solver returns at all).  At 1e-7 the measured
# worst-case recovery error on this grid is 4e-10.
IV_GRID_MONEYNESS = np.linspace(0.6, 1.6, 11)
IV_GRID_MATURITIES = (0.05, 0.25, 0.5, 1.0, 2.0, 3.0)
IV_GRID_VOLS = (0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
IV_MIN_VEGA = 1e-7


@pytest.fixture(scope="session")
def table1():
    """The reference rBergomi parameter set used throughout."""
    return rv.ModelParams(xi0=0.026, eta=1.9, H=0.07, rho=-0.9)


@pytest.fixture(scope="session")
def toy_kernel():
    # small, slow speeds: Euler-friendly at any grid used in tests
    return rv.ExpKernel(weights=[0.7, 0.2], speeds=[0.9, 4.0], H=0.07, T=1.0)


def cell_kernel(n, H, T):
    """fit_kernel_ls's cell-average start, scaled by sqrt(2H): a kernel without BLAS."""
    w, x = rv.kernel._closed_form_nodes(n, H, T)
    return rv.ExpKernel(weights=w * np.sqrt(2 * H), speeds=x, H=H, T=T)


def aggregate_increments(fine, N, alpha):
    """Coarsen fine increments to N steps, drawn from the same Gaussians.

    dW and dB are block sums.  dU is set so that the coarse exact first cell
    a1*dB + b1*dU equals the fine hybrid scheme's own representation of the
    coarse cell integral int_{t_{J-1}}^{t_J} (t_J - s)^alpha dB_s: the exact
    draw on its last fine cell plus the power-kernel weights on the fine
    cells before it.  A coarse simulation then shares with the fine rBergomi
    run every Gaussian it consumes, including its singular cells.
    """
    r, rem = divmod(fine.grid.N, N)
    if rem:
        raise ValueError(f"N={N} does not divide the fine step count {fine.grid.N}")
    coarse = rv.make_time_grid(fine.grid.T, N)
    shape = (fine.n_paths, N, r)
    dB_fine = fine.dB.reshape(shape)
    dB = dB_fine.sum(axis=2)
    a1_f, b1_f = rv.first_cell_coefficients(alpha, fine.grid.dt)
    lag_weights = rv.make_hybrid_plan(fine.grid, alpha).kernel_weights[: r - 1]
    # fine cell m of a block sits at lag r - m from the block's right end
    cell = (
        a1_f * dB_fine[..., -1]
        + b1_f * fine.dU.reshape(shape)[..., -1]
        + dB_fine[..., -2::-1] @ lag_weights
    )
    a1, b1 = rv.first_cell_coefficients(alpha, coarse.dt)
    return rv.PathIncrements(
        n_paths=fine.n_paths,
        dW=fine.dW.reshape(shape).sum(axis=2),
        dB=dB,
        dU=(cell - a1 * dB) / b1,
        rho=fine.rho,
        seed=fine.seed,
        grid=coarse,
    )


def convolve(kernel, signal):
    """Lower-triangular Toeplitz product of each signal row with kernel.

    hybrid_scheme._convolve_into, the FFT convolution the library runs,
    written into a fresh array.
    """
    out = np.empty_like(signal)
    rv.hybrid_scheme._convolve_into(kernel, signal, out)
    return out


def iter_blocks(inc):
    """Yield (rows, block) over inc in BLOCK_SIZE-path blocks, in row order.

    block holds views of inc's rows `rows` (no copy) with the same grid, rho
    and seed; the last block may be shorter.  A model evaluated block by
    block keeps only one block's intermediate paths in memory.
    """
    for lo in range(0, inc.n_paths, rv.BLOCK_SIZE):
        rows = slice(lo, min(lo + rv.BLOCK_SIZE, inc.n_paths))
        yield rows, replace(
            inc,
            n_paths=rows.stop - rows.start,
            dW=inc.dW[rows],
            dB=inc.dB[rows],
            dU=inc.dU[rows],
        )
