"""Optimal nodes, the FFT Toeplitz product, and Volterra path statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughvol as rv
from roughvol import BLOCK_SIZE, hybrid_scheme, sim_core

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
    with pytest.raises(ValueError, match="N must be an integer >= 2"):
        rv.optimal_nodes(ALPHA, 2.5)


def test_first_cell_coefficients_validation():
    # a negative dt would give complex coefficients, a NaN alpha NaN ones
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        rv.first_cell_coefficients(ALPHA, -1.0)
    with pytest.raises(ValueError, match="alpha must lie"):
        rv.first_cell_coefficients(float("nan"), 0.1)


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
    cell average (1 - e^(-x_i dt)) / (x_i dt) of one exponential, over the
    sqrt(2H) that the kernel carries.
    """
    dt = inc.grid.dt
    x = kern.speeds
    a1, b1 = rv.first_cell_coefficients(alpha, dt)
    wbar = kern.weights * (1.0 - np.exp(-x * dt)) / (x * dt) / np.sqrt(2 * kern.H)
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


def test_kernel_plan_first_step_variance_is_exact():
    # the first step is the exact singular cell alone, whatever the kernel
    kern = rv.fit_kernel_ls(0.07, 1.0, 100, 10)
    g = rv.make_time_grid(1.0, 8)
    inc = rv.sample_correlated_increments(g, 0.0, 200_000, 17)
    plan = rv.make_hybrid_plan(g, ALPHA, kernel=kern)
    assert np.all(np.diff(plan.kernel_weights) < 0)
    X = rv.simulate_volterra(plan, inc)
    assert X.values[:, 1].var() == pytest.approx(g.dt ** (2 * 0.07), rel=0.02)


@pytest.mark.parametrize("T", [0.005, 0.3, 2.0])
def test_kernel_plan_rescales_the_kernel_to_the_grid(T):
    # a kernel built at T0 = 1 acts on a grid of maturity T as
    # K_T(tau) = T^alpha * K(tau/T): speeds / T, weights * T^alpha
    kern = rv.fit_kernel_ls(0.07, 1.0, 100, 10)
    by_hand = rv.ExpKernel(kern.weights * T**ALPHA, kern.speeds / T, H=0.07, T=T)
    g = rv.make_time_grid(T, 50)
    got = rv.make_hybrid_plan(g, ALPHA, kernel=kern).kernel_weights
    want = rv.make_hybrid_plan(g, ALPHA, kernel=by_hand).kernel_weights
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    # self-similar: the unit-horizon plan times T^alpha
    unit = rv.make_hybrid_plan(rv.make_time_grid(1.0, 50), ALPHA, kernel=kern)
    np.testing.assert_allclose(got, T**ALPHA * unit.kernel_weights, rtol=1e-13, atol=0)
    # the closed-form kernel is of this form already: built at T or rescaled
    # from T = 1, it gives one plan
    at_T = rv.make_hybrid_plan(g, ALPHA, kernel=rv.closed_form_kernel(8, 0.07, T)[0])
    rescaled = rv.make_hybrid_plan(g, ALPHA, kernel=rv.closed_form_kernel(8, 0.07, 1.0)[0])
    np.testing.assert_allclose(at_T.kernel_weights, rescaled.kernel_weights, rtol=1e-13)


def test_kernel_plan_at_its_own_horizon_is_the_unscaled_cell_average():
    # at grid.T == kernel.T both rescale factors are exactly 1, bit for bit
    kern = rv.fit_kernel_ls(0.07, 0.4, 100, 10)
    g = rv.make_time_grid(0.4, 50)
    x_dt = kern.speeds * g.dt
    cell_mass = kern.weights * -np.expm1(-x_dt) / x_dt
    lags = np.arange(1, g.N) * g.dt
    want = np.exp(-np.multiply.outer(lags, kern.speeds)) @ cell_mass / np.sqrt(2 * 0.07)
    got = rv.make_hybrid_plan(g, ALPHA, kernel=kern).kernel_weights
    assert np.array_equal(got, want)


def test_kernel_plan_rejects_a_kernel_for_another_H():
    kern = rv.fit_kernel_ls(0.1, 1.0, 50, 3)
    with pytest.raises(ValueError, match="H=0.1"):
        rv.make_hybrid_plan(rv.make_time_grid(1.0, 10), ALPHA, kernel=kern)


@pytest.mark.parametrize(
    "rows", [1, 1023, 1025, 16 * BLOCK_SIZE + 5, 48 * BLOCK_SIZE + 7]
)
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


def _whole_array_convolution(kernel, signal):
    """The first n columns of irfft(rfft(kernel, L) * rfft(signal, L), L)."""
    n = signal.shape[1]
    L = 1 << int(np.ceil(np.log2(kernel.size + n - 1)))
    spec = np.fft.rfft(kernel, L) * np.fft.rfft(signal, L, axis=1)
    return np.fft.irfft(spec, L, axis=1)[:, :n]


def _whole_array_volterra(plan, inc):
    """X = sqrt(2*alpha+1) * (tail convolution + a1*dB + b1*dU), X_0 = 0."""
    body = _whole_array_convolution(np.r_[0.0, plan.kernel_weights], inc.dB)
    a1, b1 = rv.first_cell_coefficients(plan.alpha, plan.grid.dt)
    X = np.zeros((inc.n_paths, plan.grid.N + 1))
    X[:, 1:] = (body + (a1 * inc.dB + b1 * inc.dU)) * np.sqrt(2 * plan.alpha + 1)
    return X


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize(
    "n_paths",
    [
        1,
        BLOCK_SIZE + 3,
        2 * BLOCK_SIZE + 5,
        4 * BLOCK_SIZE + 3,
        16 * BLOCK_SIZE + 5,
        16 * BLOCK_SIZE + 7,
        32 * BLOCK_SIZE + 7,
    ],
)
@pytest.mark.parametrize("kind", ["rbergomi", "kernel"])
def test_volterra_equals_the_whole_array_formula(kind, n_paths, width, monkeypatch):
    # each block task builds its rows of X on the even rows of its
    # antithetic pairs, with its own worker's scratch, and negates them into
    # the odd rows; X_0 stays +0.0
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    g = rv.make_time_grid(1.0, 12)
    kern = rv.closed_form_kernel(4, 0.07, 2.0)[0] if kind == "kernel" else None
    plan = rv.make_hybrid_plan(g, ALPHA, kernel=kern)
    inc = rv.sample_correlated_increments(g, -0.9, n_paths, 6)
    got = rv.simulate_volterra(plan, inc).values
    assert np.array_equal(got, _whole_array_volterra(plan, inc))
    assert not np.signbit(got[:, 0]).any()
    ker = np.r_[0.0, plan.kernel_weights]
    want = _whole_array_convolution(ker, inc.dB)
    assert np.array_equal(rv.toeplitz_convolve(ker, inc.dB), want)


@pytest.mark.parametrize("N", [20, 100, 257])
@pytest.mark.parametrize("kind", ["rbergomi", "kernel"])
def test_volterra_field_is_odd_over_the_antithetic_pairs(kind, N):
    # rows 2j+1 of dB and dU negate rows 2j, and every step of the field
    # (rfft, spectrum product, irfft, first cell, scaling) is odd, so X's
    # rows do too, bit for bit: models.simulate_terminal builds the even
    # rows only
    g = rv.make_time_grid(1.0, N)
    kern = rv.closed_form_kernel(4, 0.07, 2.0)[0] if kind == "kernel" else None
    plan = rv.make_hybrid_plan(g, ALPHA, kernel=kern)
    n = 2 * BLOCK_SIZE + 5
    X = rv.simulate_volterra(plan, rv.sample_correlated_increments(g, -0.9, n, 13)).values
    assert np.array_equal(X[1 : n - 1 : 2], -X[0 : n - 1 : 2])


def _spy_rows(monkeypatch):
    """The row count of each hybrid_scheme._convolve_rows call, as a list."""
    calls, convolve_rows = [], hybrid_scheme._convolve_rows

    def spy(K, signal, out, bufs):
        calls.append(signal.shape[0])
        convolve_rows(K, signal, out, bufs)

    monkeypatch.setattr(hybrid_scheme, "_convolve_rows", spy)
    return calls


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("step", ["toeplitz", "volterra", "driver"])
def test_sampled_pairs_are_convolved_on_their_even_rows(
    step, width, toy_kernel, table1, monkeypatch
):
    # every block of sampled increments holds exact antithetic pairs, so each
    # step convolves its even rows only (the lone last row of an odd block
    # included): half of each block's FFT work
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    g = rv.make_time_grid(1.0, 12)
    inc = rv.sample_correlated_increments(g, -0.9, 2 * BLOCK_SIZE + 5, 6)
    cfg = rv.AbergomiConfig(kernel=toy_kernel, params=table1)
    calls = _spy_rows(monkeypatch)
    if step == "toeplitz":
        rv.toeplitz_convolve(np.arange(1.0, 6.0), inc.dB)
    elif step == "volterra":
        rv.simulate_volterra(rv.make_hybrid_plan(g, ALPHA), inc)
    else:
        rv.abergomi_driver(cfg, rv.simulate_ou_factors(cfg, inc))
    assert sorted(calls) == [3, BLOCK_SIZE // 2, BLOCK_SIZE // 2]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the FFT of an inf
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("defect", ["shifted", "nan", "infinite"])
def test_a_block_with_an_unpaired_row_is_convolved_whole(defect, width, monkeypatch):
    # the pairing is tested exactly, per block: one pair of block 1 that is
    # not an exact negation (a shifted entry, a NaN, or -inf under +inf,
    # whose sum is NaN) sends that block, and only it, through every row;
    # in simulate_volterra either plane's defect does
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    g = rv.make_time_grid(1.0, 12)
    plan = rv.make_hybrid_plan(g, ALPHA)
    n = 2 * BLOCK_SIZE + 5
    inc = rv.sample_correlated_increments(g, -0.9, n, 6)
    r = BLOCK_SIZE + 6  # an even row of block 1
    bad = {}
    for name in ("dB", "dU"):
        a = getattr(inc, name).copy()
        if defect == "shifted":
            a[r + 1, 3] += 1.0
        elif defect == "nan":
            a[r, 3] = np.nan
        else:
            a[r : r + 2, 3] = np.inf, -np.inf
        bad[name] = a
    ker = np.r_[0.0, plan.kernel_weights]
    calls = _spy_rows(monkeypatch)
    got = rv.toeplitz_convolve(ker, bad["dB"])
    assert np.array_equal(got, _whole_array_convolution(ker, bad["dB"]), equal_nan=True)
    assert sorted(calls) == [3, BLOCK_SIZE // 2, BLOCK_SIZE]
    for dB, dU in ((bad["dB"], inc.dU), (inc.dB, bad["dU"])):
        calls.clear()
        built = rv.PathIncrements(n, inc.dW, dB, inc.rho, inc.seed, g, dU=dU)
        X = rv.simulate_volterra(plan, built).values
        assert np.array_equal(X, _whole_array_volterra(plan, built), equal_nan=True)
        assert not np.signbit(X[:, 0]).any()
        assert sorted(calls) == [3, BLOCK_SIZE // 2, BLOCK_SIZE]
