"""Optimal nodes, the FFT Toeplitz product, and Volterra path statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughvol as rv
from roughvol import BLOCK_SIZE, sim_core

ALPHA = 0.07 - 0.5  # H = 0.07


def test_optimal_nodes_frozen_value():
    # b_2^* at alpha = -0.43: ((2^0.57 - 1)/0.57)^(1/-0.43), evaluated
    # independently at high precision
    b = rv.optimal_nodes(ALPHA, 5)
    assert b[0] == pytest.approx(1.4591263460127544, rel=1e-14)
    assert b.shape == (4,)


def test_optimal_nodes_validation():
    with pytest.raises(ValueError):
        rv.optimal_nodes(-0.5, 10)
    with pytest.raises(ValueError):
        rv.optimal_nodes(0.0, 10)
    with pytest.raises(ValueError):
        rv.optimal_nodes(ALPHA, 1)


@given(alpha=st.floats(-0.49, -0.01), N=st.integers(2, 60))
@settings(max_examples=60, deadline=None)
def test_optimal_nodes_lie_in_their_cells(alpha, N):
    # b_k^* is the power mean of the kernel over cell [k-1, k]; the mean
    # value theorem puts it strictly inside the cell
    b = rv.optimal_nodes(alpha, N)
    k = np.arange(2, N + 1)
    assert np.all(b >= k - 1)
    assert np.all(b <= k)


def test_plan_kernel_weights_decrease():
    g = rv.make_time_grid(1.0, 50)
    plan = rv.make_hybrid_plan(g, ALPHA)
    assert np.all(np.diff(plan.kernel_weights) < 0)


def test_toeplitz_semantics_lower_triangular():
    # out[j] = sum_k ker[k] * sig[j-k], hand-checked
    ker = np.array([2.0, 3.0, 5.0])
    sig = np.array([[1.0, 10.0, 100.0, 1000.0]])
    out = rv.toeplitz_convolve(ker, sig)[0]
    np.testing.assert_allclose(out, [2.0, 23.0, 235.0, 2350.0], rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 129])
def test_toeplitz_matches_direct_convolution(n):
    rng = np.random.default_rng(0)
    ker = rng.standard_normal(min(n, 5))
    sig = rng.standard_normal((3, n))
    out = rv.toeplitz_convolve(ker, sig)
    want = np.stack([np.convolve(ker, row)[:n] for row in sig])
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_toeplitz_validation():
    with pytest.raises(ValueError):
        rv.toeplitz_convolve(np.array([]), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        rv.toeplitz_convolve(np.ones(5), np.zeros((2, 4)))  # kernel too long
    with pytest.raises(ValueError):
        rv.toeplitz_convolve(np.ones(2), np.zeros(4))  # signal not 2-d


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_toeplitz_linearity(seed):
    rng = np.random.default_rng(seed)
    ker = rng.standard_normal(6)
    a = rng.standard_normal((2, 16))
    b = rng.standard_normal((2, 16))
    lhs = rv.toeplitz_convolve(ker, a + b)
    rhs = rv.toeplitz_convolve(ker, a) + rv.toeplitz_convolve(ker, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_volterra_starts_at_zero_and_tracks_power_law():
    g = rv.make_time_grid(1.0, 100)
    inc = rv.sample_correlated_increments(g, 0.0, 30_000, 5)
    X = rv.simulate_volterra(rv.make_hybrid_plan(g, ALPHA), inc)
    assert X.values.shape == (30_000, 101)
    assert np.all(X.values[:, 0] == 0.0)
    for t in (0.25, 0.5, 1.0):
        j = int(round(t * g.N))
        v = X.values[:, j].var()
        assert v == pytest.approx(t ** (2 * 0.07), rel=0.04), f"t={t}"
    # zero-mean Gaussian driver
    assert abs(X.values[:, -1].mean()) < 4 * X.values[:, -1].std() / np.sqrt(30_000)


def test_first_step_variance_is_exact():
    # on the very first step the singular cell is the whole integral, so
    # its exact joint sampling must reproduce Var(X_{t_1}) = t_1^{2H}
    g = rv.make_time_grid(1.0, 8)
    inc = rv.sample_correlated_increments(g, 0.0, 200_000, 17)
    X = rv.simulate_volterra(rv.make_hybrid_plan(g, ALPHA), inc)
    assert X.values[:, 1].var() == pytest.approx(g.dt ** (2 * 0.07), rel=0.02)


def test_volterra_grid_mismatch_rejected():
    g1 = rv.make_time_grid(1.0, 10)
    g2 = rv.make_time_grid(1.0, 20)
    plan = rv.make_hybrid_plan(g1, ALPHA)
    inc = rv.sample_correlated_increments(g2, 0.0, 5, 0)
    with pytest.raises(ValueError):
        rv.simulate_volterra(plan, inc)


def _factor_recursion(kern, alpha, inc):
    """The kernel plan's oracle, by the n-factor recursion with exact decay.

    X_j = sqrt(2*alpha+1) * (a1 dB_j + b1 dU_j + sum_i wbar_i Z^i_j), with
    Z_1 = 0, Z_{j+1} = e^(-x dt) (Z_j + dB_j) and wbar_i the weight times the
    cell average (1 - e^(-x_i dt)) / (x_i dt) of one exponential.
    """
    dt = inc.grid.dt
    x = kern.speeds
    a1, b1 = rv.first_cell_coefficients(alpha, dt)
    wbar = kern.weights * (1.0 - np.exp(-x * dt)) / (x * dt)
    if kern.normalized:
        wbar = wbar / np.sqrt(2 * kern.H)
    decay = np.exp(-x * dt)
    Z = np.zeros((inc.n_paths, kern.n))
    X = np.zeros((inc.n_paths, inc.grid.N + 1))
    for j in range(inc.grid.N):
        X[:, j + 1] = a1 * inc.dB[:, j] + b1 * inc.dU[:, j] + Z @ wbar
        Z = decay * (Z + inc.dB[:, j, None])
    return np.sqrt(2 * alpha + 1) * X


@pytest.mark.parametrize("N", [50, 200])
def test_kernel_plan_equals_factor_recursion(N):
    # a fitted kernel reaches speeds with x*dt far above 1; exact decay keeps
    # the recursion, and so the convolution, stable there
    kern = rv.fit_kernel_ls(0.07, 1.0, 100, 25)
    g = rv.make_time_grid(1.0, N)
    assert kern.speeds[-1] * g.dt > 1.0
    inc = rv.sample_correlated_increments(g, -0.9, 300, 11)
    got = rv.simulate_volterra(rv.make_hybrid_plan(g, ALPHA, kernel=kern), inc)
    want = _factor_recursion(kern, ALPHA, inc)
    np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_kernel_plan_flavors_give_identical_paths():
    # a normalized kernel carries sqrt(2H) already; the plan must divide it
    # out because simulate_volterra applies sqrt(2*alpha+1) itself
    plain, _ = rv.closed_form_kernel(10, 0.07, 1.0)
    g = rv.make_time_grid(1.0, 64)
    inc = rv.sample_correlated_increments(g, 0.0, 200, 3)
    a = rv.simulate_volterra(rv.make_hybrid_plan(g, ALPHA, kernel=plain), inc)
    b = rv.simulate_volterra(
        rv.make_hybrid_plan(g, ALPHA, kernel=rv.normalized_copy(plain)), inc
    )
    np.testing.assert_allclose(a.values, b.values, rtol=1e-13, atol=1e-15)


def test_kernel_plan_first_step_variance_is_exact():
    # the first step is the exact singular cell alone, whatever the kernel
    kern = rv.fit_kernel_ls(0.07, 1.0, 100, 10)
    g = rv.make_time_grid(1.0, 8)
    inc = rv.sample_correlated_increments(g, 0.0, 200_000, 17)
    plan = rv.make_hybrid_plan(g, ALPHA, kernel=kern)
    assert plan.b_star is None and plan.kernel is kern
    assert np.all(np.diff(plan.kernel_weights) < 0)
    X = rv.simulate_volterra(plan, inc)
    assert X.values[:, 1].var() == pytest.approx(g.dt ** (2 * 0.07), rel=0.02)


def test_kernel_plan_rejects_a_kernel_for_another_H():
    kern = rv.fit_kernel_ls(0.1, 1.0, 50, 3)
    with pytest.raises(ValueError, match="H=0.1"):
        rv.make_hybrid_plan(rv.make_time_grid(1.0, 10), ALPHA, kernel=kern)


@pytest.mark.parametrize("rows", [1, 1023, 1025, BLOCK_SIZE + 5, 3 * BLOCK_SIZE + 7])
def test_toeplitz_does_not_depend_on_the_thread_count(rows, monkeypatch):
    rng = np.random.default_rng(rows)
    ker = rng.standard_normal(50)
    sig = rng.standard_normal((rows, 50))
    runs = []
    for width in (1, 2):
        monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
        runs.append(rv.toeplitz_convolve(ker, sig))
    assert runs[0].shape == (rows, 50)
    assert np.array_equal(runs[0], runs[1])
