"""Variance models: martingale checks, OU oracles, conditional expectations,
and moment convergence of the kernel plan."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import roughvol as rv
from conftest import cell_kernel
from roughvol import sim_core


def test_tabulated_smile_factors_frozen():
    assert rv.SMILE_FACTOR_M2 == {
        50: 0.750323909,
        100: 0.550447453,
        150: 0.485093611,
        200: 0.450392126,
    }


def test_rbergomi_variance_is_a_martingale(table1):
    g = rv.make_time_grid(1.0, 100)
    inc = rv.sample_correlated_increments(g, table1.rho, 20_000, 21)
    X = rv.simulate_volterra(rv.make_hybrid_plan(g, table1.alpha), inc)
    V = rv.rbergomi_variance(X, table1).values
    assert np.all(V[:, 0] == table1.xi0)
    for t in (0.25, 0.5, 1.0):
        j = int(round(t * g.N))
        m = V[:, j].mean()
        se = V[:, j].std(ddof=1) / np.sqrt(V.shape[0])
        assert abs(m - table1.xi0) < 3 * se, f"t={t}: mean {m}, stderr {se}"


def test_rbergomi_variance_alpha_mismatch(table1):
    g = rv.make_time_grid(1.0, 10)
    inc = rv.sample_correlated_increments(g, table1.rho, 5, 0)
    X = rv.simulate_volterra(rv.make_hybrid_plan(g, -0.3), inc)
    with pytest.raises(ValueError):
        rv.rbergomi_variance(X, table1)


def test_log_price_euler_and_martingale(table1):
    # with V held constant the Euler recursion telescopes exactly
    g = rv.make_time_grid(1.0, 50)
    inc = rv.sample_correlated_increments(g, 0.0, 10_000, 4)
    vol2 = 0.04
    V = rv.VariancePaths(
        values=np.full((10_000, 51), vol2), grid=g, params=table1
    )
    logS = rv.rbergomi_log_price(V, inc)
    assert np.all(logS[:, 0] == 0.0)
    want = np.sqrt(vol2) * np.cumsum(inc.dW, axis=1) - 0.5 * vol2 * g.nodes[1:]
    np.testing.assert_allclose(logS[:, 1:], want, atol=1e-12)
    S_T = np.exp(logS[:, -1])
    se = S_T.std(ddof=1) / np.sqrt(10_000)
    assert abs(S_T.mean() - 1.0) < 3 * se


def test_log_price_grid_mismatch(table1):
    g1, g2 = rv.make_time_grid(1.0, 10), rv.make_time_grid(1.0, 20)
    V = rv.VariancePaths(values=np.full((5, 11), 0.04), grid=g1, params=table1)
    inc = rv.sample_correlated_increments(g2, 0.0, 5, 0)
    with pytest.raises(ValueError):
        rv.rbergomi_log_price(V, inc)


def _chained_terminal(side, N, params, n_paths, seed):
    """(log S_T, V_T) of one (T, kernel) side through the public chain, all paths at once."""
    T, kern = side
    grid = rv.make_time_grid(T, N)
    plan = rv.make_hybrid_plan(grid, params.alpha, kernel=kern)
    inc = rv.sample_correlated_increments(grid, params.rho, n_paths, seed)
    V = rv.rbergomi_variance(rv.simulate_volterra(plan, inc), params)
    return rv.rbergomi_log_price(V, inc)[:, -1], V.values[:, -1]


def _side(kind, T, H):
    return T, cell_kernel(4, H, 2.0) if kind == "kernel" else None


# a single path, a partial block of 3, 5, 3 and 7 rows after one, sixteen,
# seventeen and forty-eight full blocks, and a count whose last block has one
# row: numpy sums a lone row pairwise unless it is summed in cumsum order
STREAM_ROWS = [
    1,
    rv.BLOCK_SIZE + 3,
    16 * rv.BLOCK_SIZE + 5,
    17 * rv.BLOCK_SIZE + 3,
    48 * rv.BLOCK_SIZE + 7,
    rv.BLOCK_SIZE + 1,
]


@pytest.mark.parametrize("n_paths", STREAM_ROWS)
@pytest.mark.parametrize("kind", ["rbergomi", "kernel"])
def test_streamed_terminal_equals_the_chain(kind, n_paths, table1, monkeypatch):
    # several seeds: a lone row summed in another order still matches the
    # chain's bits on about three seeds in five
    side = _side(kind, 1.0, table1.H)
    for seed in range(4, 10):
        want = _chained_terminal(side, 12, table1, n_paths, seed)
        for width in (1, 2):
            monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
            [got] = rv.simulate_terminal([side], table1, 12, n_paths, seed)
            at = f"seed {seed}, width {width}"
            assert np.array_equal(got[0], want[0]), f"log S_T at {at}"
            assert np.array_equal(got[1], want[1]), f"V_T at {at}"


@pytest.mark.parametrize("width", [1, 2])
def test_one_streamed_call_equals_one_chain_per_maturity(width, table1, monkeypatch):
    # every side reads the same tile, so a side that altered it would shift
    # the ones after it; the second rBergomi side takes the first one's field,
    # scaled, so it agrees to a bound instead of bit for bit
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    sides = [_side("rbergomi", 0.25, table1.H), _side("kernel", 2.0, table1.H),
             _side("rbergomi", 1.0, table1.H)]
    n_paths = 2 * rv.BLOCK_SIZE + 3
    got = rv.simulate_terminal(sides, table1, 12, n_paths, 9)
    for i, (side, (log_S, V_T)) in enumerate(zip(sides, got)):
        want = _chained_terminal(side, 12, table1, n_paths, 9)
        if i < 2:
            assert np.array_equal(log_S, want[0]), f"log S_T at T={side[0]}"
            assert np.array_equal(V_T, want[1]), f"V_T at T={side[0]}"
        else:
            np.testing.assert_allclose(log_S, want[0], rtol=0, atol=1e-13)
            np.testing.assert_allclose(V_T, want[1], rtol=1e-13, atol=0)


@pytest.mark.parametrize("width", [1, 2])
def test_scaled_plans_agree_with_their_own_run(width, table1, monkeypatch):
    # a T=0.02 reference field, scaled down to 0.005 and up to 0.1 and 2
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    sides = [(T, None) for T in (0.02, 0.005, 0.1, 2.0)]
    n_paths = 2 * rv.BLOCK_SIZE + 3
    got = rv.simulate_terminal(sides, table1, 12, n_paths, 5)
    for i, (side, (log_S, V_T)) in enumerate(zip(sides, got)):
        [(want_S, want_V)] = rv.simulate_terminal([side], table1, 12, n_paths, 5)
        if i == 0:
            assert np.array_equal(log_S, want_S) and np.array_equal(V_T, want_V)
        else:
            assert not np.array_equal(V_T, want_V), "scaled field is not shared"
            np.testing.assert_allclose(log_S, want_S, rtol=0, atol=1e-13)
            np.testing.assert_allclose(V_T, want_V, rtol=1e-13, atol=0)


@pytest.mark.parametrize("width", [1, 2])
def test_repeated_and_kernel_plans_stay_bit_identical(width, table1, monkeypatch):
    # the repeated T=0.25 side follows the T=1.0 side on the rBergomi field,
    # so its dW must be rebuilt, not left at T=1.0's; each kernel object, a
    # repeated one too, runs its own field
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    kern = cell_kernel(4, table1.H, 2.0)
    sides = [
        _side("rbergomi", 0.25, table1.H),
        _side("kernel", 2.0, table1.H),
        _side("rbergomi", 1.0, table1.H),
        _side("rbergomi", 0.25, table1.H),
        (0.5, kern),
        _side("kernel", 2.0, table1.H),
    ]
    n_paths = rv.BLOCK_SIZE + 5
    got = rv.simulate_terminal(sides, table1, 12, n_paths, 2)
    for i in (0, 1, 3, 4, 5):
        want = _chained_terminal(sides[i], 12, table1, n_paths, 2)
        assert np.array_equal(got[i][0], want[0]), f"log S_T of side {i}"
        assert np.array_equal(got[i][1], want[1]), f"V_T of side {i}"


@pytest.mark.parametrize("width", [1, 2])
def test_later_sides_of_a_kernel_agree_with_the_chain(width, table1, monkeypatch):
    # one fitted unit-horizon kernel: a T=0.02 reference field, scaled down to
    # 0.005 and up to 0.5 and 2, against each side's own chain on the kernel
    # rescaled to its T
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    kern = rv.fit_kernel_ls(table1.H, 1.0, 100, 5)
    sides = [(T, kern) for T in (0.02, 0.005, 0.5, 2.0)]
    n_paths = 2 * rv.BLOCK_SIZE + 3
    got = rv.simulate_terminal(sides, table1, 12, n_paths, 5)
    for i, (side, (log_S, V_T)) in enumerate(zip(sides, got)):
        want_S, want_V = _chained_terminal(side, 12, table1, n_paths, 5)
        if i == 0:
            assert np.array_equal(log_S, want_S) and np.array_equal(V_T, want_V)
        else:
            np.testing.assert_allclose(log_S, want_S, rtol=0, atol=1e-13)
            np.testing.assert_allclose(V_T, want_V, rtol=1e-13, atol=0)


def _field_maturities(monkeypatch):
    """The maturity of each _volterra_rows call simulate_terminal makes, in order."""
    from roughvol import models

    calls = []
    volterra_rows = models._volterra_rows

    def spy(plan, *args):
        calls.append(plan.grid.T)
        volterra_rows(plan, *args)

    monkeypatch.setattr(models, "_volterra_rows", spy)
    return calls


@pytest.mark.parametrize("width", [1, 2])
def test_one_volterra_field_per_slice_serves_every_rbergomi_plan(
    width, table1, monkeypatch
):
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    calls = _field_maturities(monkeypatch)
    sides = [(T, None) for T in (0.005, 0.02, 0.1, 0.5, 2.0)]
    n_paths = 2 * rv.BLOCK_SIZE + 3
    rv.simulate_terminal(sides, table1, 12, n_paths, 1)
    assert calls == [0.005] * 3


@pytest.mark.parametrize("width", [1, 2])
def test_one_volterra_field_per_slice_serves_every_side_of_a_kernel(
    width, table1, monkeypatch
):
    # five maturities on one kernel object make one field; another object,
    # even an equal one, makes its own
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    calls = _field_maturities(monkeypatch)
    kern, twin = (cell_kernel(4, table1.H, 1.0) for _ in range(2))
    sides = [(T, kern) for T in (0.1, 0.005, 0.02, 0.5, 2.0)] + [(1.0, twin)]
    n_paths = 2 * rv.BLOCK_SIZE + 3
    rv.simulate_terminal(sides, table1, 12, n_paths, 1)
    assert sorted(calls) == sorted([0.1, 1.0] * 3)


@pytest.mark.parametrize("width", [1, 2])
def test_each_field_convolves_only_the_even_rows_of_a_slice(width, table1, monkeypatch):
    # the field is odd in the Gaussians, so a block of k rows convolves its
    # ceil(k/2) even rows, once per field, and negates them into the odd ones
    from roughvol import models

    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    calls = []
    volterra_rows = models._volterra_rows

    def spy(plan, K, dB, dU, out, fft_bufs):
        calls.append((plan.grid.T, dB.shape[0], dU.shape[0], out.shape[0]))
        volterra_rows(plan, K, dB, dU, out, fft_bufs)

    monkeypatch.setattr(models, "_volterra_rows", spy)
    sides = [(0.5, None), _side("kernel", 2.0, table1.H), (1.0, None)]
    n_paths = 2 * rv.BLOCK_SIZE + 3  # the last block has 3 rows
    rv.simulate_terminal(sides, table1, 12, n_paths, 1)
    halves = [rv.BLOCK_SIZE // 2] * 2 + [2]
    want = [(T, h, h, h) for T in (0.5, 2.0) for h in halves]
    assert sorted(calls) == sorted(want)


@pytest.mark.parametrize(
    "n1,n2", [(7, 8), (16 * rv.BLOCK_SIZE + 3, 32 * rv.BLOCK_SIZE)]
)
def test_streamed_terminal_keeps_the_prefix_property_at_odd_counts(n1, n2, table1):
    # an odd count keeps the first row of its last pair, on every side
    sides = [(0.5, None), _side("kernel", 2.0, table1.H), (1.0, None)]
    small = rv.simulate_terminal(sides, table1, 12, n1, 6)
    big = rv.simulate_terminal(sides, table1, 12, n2, 6)
    for (log_S, V_T), (big_S, big_V) in zip(small, big):
        assert np.array_equal(log_S, big_S[:n1]) and np.array_equal(V_T, big_V[:n1])


def test_streamed_terminal_rejects_mismatched_plans(table1):
    with pytest.raises(ValueError, match="kernel was built for H"):
        rv.simulate_terminal([_side("kernel", 1.0, 0.2)], table1, 12, 5, 0)
    with pytest.raises(ValueError, match="n_paths"):
        rv.simulate_terminal([(1.0, None)], table1, 12, 0, 0)
    with pytest.raises(ValueError, match="side"):
        rv.simulate_terminal([], table1, 12, 5, 0)


# a single path, then a partial block after one, two, four, sixteen and
# thirty-two full blocks: from four on, each of two workers runs several;
# the odd counts end on the lone first row of a pair
CHAIN_ROWS = [
    1,
    rv.BLOCK_SIZE + 3,
    2 * rv.BLOCK_SIZE + 5,
    4 * rv.BLOCK_SIZE + 3,
    16 * rv.BLOCK_SIZE + 5,
    16 * rv.BLOCK_SIZE + 7,
    32 * rv.BLOCK_SIZE + 7,
]


def _whole_array_log_price(V, inc):
    """log S on whole arrays: steps sqrt(V)*dW - V*dt/2, summed from 0."""
    v = V.values[:, :-1]
    steps = np.sqrt(v) * inc.dW - v * 0.5 * V.grid.dt
    logS = np.zeros((inc.n_paths, V.grid.N + 1))
    logS[:, 1:] = np.cumsum(steps, axis=1)
    return logS


def _whole_array_variance(X, scale, params, grid):
    comp = 0.5 * params.eta**2 * grid.nodes ** (2 * params.alpha + 1)
    return np.exp(X * scale - comp) * params.xi0


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("n_paths", CHAIN_ROWS)
def test_rbergomi_chain_equals_the_whole_array_formulas(
    n_paths, width, table1, monkeypatch
):
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    plan = rv.make_hybrid_plan(rv.make_time_grid(1.0, 12), table1.alpha)
    inc = rv.sample_correlated_increments(plan.grid, table1.rho, n_paths, 8)
    X = rv.simulate_volterra(plan, inc)
    V = rv.rbergomi_variance(X, table1)
    want = _whole_array_variance(X.values, table1.eta, table1, plan.grid)
    assert np.array_equal(V.values, want)
    assert np.array_equal(rv.rbergomi_log_price(V, inc), _whole_array_log_price(V, inc))


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("n_paths", CHAIN_ROWS)
def test_rescaled_chain_equals_the_whole_array_formulas(
    n_paths, width, toy_kernel, table1, monkeypatch
):
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    g = rv.make_time_grid(1.0, 12)
    cfg = rv.AbergomiConfig(kernel=toy_kernel, params=table1, mult_factor=0.8)
    inc = rv.sample_correlated_increments(g, table1.rho, n_paths, 8)
    fac = rv.simulate_ou_factors(cfg, inc)
    y = rv.abergomi_driver(cfg, fac)
    c = np.power.outer(fac.decay, np.arange(g.N)).T @ toy_kernel.weights
    L = 1 << int(np.ceil(np.log2(2 * g.N - 1)))
    spec = np.fft.rfft(c, L) * np.fft.rfft(inc.dB, L, axis=1)
    want = np.zeros((n_paths, g.N + 1))
    want[:, 1:] = np.fft.irfft(spec, L, axis=1)[:, : g.N]
    assert np.array_equal(y.values, want)
    V = rv.abergomi_variance(cfg, y)
    scale = cfg.mult_factor * table1.eta * y.prefactor
    assert np.array_equal(V.values, _whole_array_variance(y.values, scale, table1, g))
    assert np.array_equal(rv.rbergomi_log_price(V, inc), _whole_array_log_price(V, inc))


def _traced_peak(step, *args):
    """(step(*args), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        return step(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_steps_allocate_little_beyond_their_output(table1, monkeypatch):
    # tracemalloc sees numpy's buffers: a step that writes straight into the
    # array it returns peaks near that array's size (an increments worker
    # may hold one 256-row block's (2, 128, N) stage of dW and dB half-rows,
    # 102 kB at N = 50, with a 1 MB allowance; the first read of dU draws
    # its plane through a (1, 128, N) stage per worker; a simulate_volterra
    # worker holds only its FFT buffers)
    monkeypatch.setattr(sim_core, "_pool_width", lambda: 2)
    plan = rv.make_hybrid_plan(rv.make_time_grid(1.0, 50), table1.alpha)
    inc, peak = _traced_peak(
        rv.sample_correlated_increments, plan.grid, table1.rho, 100_000, 2
    )
    planes = inc.dW.nbytes + inc.dB.nbytes
    stage = 8 * 128 * plan.grid.N  # one half-plane of a block
    assert peak - planes <= 2 * 2 * stage + 1e6, f"increments {peak - planes} B"
    assert "dU" not in vars(inc)
    dU, peak = _traced_peak(getattr, inc, "dU")
    assert peak - dU.nbytes <= 2 * stage + 1e6, f"first dU read {peak - dU.nbytes} B"
    assert inc.dU is dU
    X, peak = _traced_peak(rv.simulate_volterra, plan, inc)
    assert peak <= 1.13 * X.values.nbytes, f"volterra {peak / X.values.nbytes:.3f}x"
    V, peak = _traced_peak(rv.rbergomi_variance, X, table1)
    assert peak <= 1.25 * V.values.nbytes, f"variance {peak / V.values.nbytes:.2f}x"
    logS, peak = _traced_peak(rv.rbergomi_log_price, V, inc)
    assert peak <= 1.25 * logS.nbytes, f"log-price {peak / logS.nbytes:.2f}x"


def test_streamed_terminal_memory_stays_flat(table1, monkeypatch):
    # beyond its 16 bytes per path of output, simulate_terminal holds only
    # its workers' scratch, all sized by one block: its B/2 half-rows of the
    # three Gaussian planes, three increment planes, one (B, N+1) path array
    # and the FFT buffers (about 3.2 MB in all at width 2, with the 1 MB
    # allowance)
    monkeypatch.setattr(sim_core, "_pool_width", lambda: 2)
    N, B = 50, rv.BLOCK_SIZE
    sides = [(1.0, None)]
    rv.simulate_terminal(sides, table1, N, 3 * B, 1)  # warm-up: numpy's FFT caches
    L = 128  # the power of two >= 2N - 1
    fft = B * (16 * (L // 2 + 1) + 8 * L)
    worker = 8 * (3 * (B // 2) * N + 3 * B * N + B * (N + 1)) + fft
    extra = {}
    for blocks in (48, 192):
        _, peak = _traced_peak(rv.simulate_terminal, sides, table1, N, blocks * B, 1)
        extra[blocks] = peak - 16 * blocks * B
        assert extra[blocks] <= 2 * worker + 1e6, f"{blocks} blocks: {extra[blocks]} B"
    assert abs(extra[192] - extra[48]) <= 0.5e6, extra


def _factor_state(kernel, inc, j):
    """Factor levels at node j from one matmul over dB[:, :j], exact decay.

    Y^i_{t_j} = sum_{k<j} e^(-x_i (j-k) dt) dB_k: the kernel plan's factor
    recursion Z_{k+1} = e^(-x dt) (Z_k + dB_k), unrolled.
    """
    lags = (j - np.arange(j)) * inc.grid.dt
    return inc.dB[:, :j] @ np.exp(-np.multiply.outer(lags, kernel.speeds))


def test_abergomi_config_validation(toy_kernel, table1):
    for m in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="mult_factor"):
            rv.AbergomiConfig(kernel=toy_kernel, params=table1, mult_factor=m)
    # the rescaled construction truncates the horizon at theta = T - dt
    g = rv.make_time_grid(1.0, 10)
    inc = rv.sample_correlated_increments(g, 0.0, 3, 0)
    cfg = rv.AbergomiConfig(kernel=toy_kernel, params=table1)
    assert rv.simulate_ou_factors(cfg, inc).theta == pytest.approx(1.0 - 0.1)


def test_ou_factor_containers(toy_kernel, table1):
    g = rv.make_time_grid(1.0, 16)
    inc = rv.sample_correlated_increments(g, table1.rho, 7, 3)
    cfg = rv.AbergomiConfig(kernel=toy_kernel, params=table1)
    fac = rv.simulate_ou_factors(cfg, inc)
    assert fac.dB is inc.dB
    assert "Y" not in vars(fac)
    assert fac.Y.shape == (7, 17, 2)
    assert not fac.Y.flags.writeable
    assert np.all(fac.Y[:, 0, :] == 0.0)
    np.testing.assert_array_equal(
        fac.Y[:, 5, :], fac.Y[:, 4, :] * fac.decay + inc.dB[:, 4, None]
    )


def test_only_the_planes_read_are_drawn(toy_kernel, table1, monkeypatch):
    # a spy on the streams: the sampler asks each block for planes (0, 1);
    # the rescaled chain never reads dU, so it asks for nothing more; the
    # first read of dU asks each block for plane 2, and a second read none
    asked = []
    real = sim_core._block_streams

    def spy(seed, block, planes):
        asked.append((block, tuple(planes)))
        return real(seed, block, planes)

    monkeypatch.setattr(sim_core, "_block_streams", spy)
    g = rv.make_time_grid(1.0, 16)
    inc = rv.sample_correlated_increments(g, table1.rho, 2 * rv.BLOCK_SIZE + 3, 3)
    assert sorted(asked) == [(b, (0, 1)) for b in range(3)]
    asked.clear()
    cfg = rv.AbergomiConfig(kernel=toy_kernel, params=table1)
    driver = rv.abergomi_driver(cfg, rv.simulate_ou_factors(cfg, inc))
    rv.rbergomi_log_price(rv.abergomi_variance(cfg, driver), inc)
    assert asked == [] and "dU" not in vars(inc)
    assert inc.dU is inc.dU
    assert sorted(asked) == [(b, (2,)) for b in range(3)]


def test_ou_variance_oracles(toy_kernel, table1):
    # theta = T - dt runs the factors at k_i*dt/T, so a kernel with speeds
    # k_i*N runs them at the toy speeds k_i.  Per-factor
    # Var(Y^i_t) -> (1-e^(-2k_i t))/(2k_i) and, because every factor shares
    # one dB, the combined driver variance is the full double sum, chi(t, t)
    g = rv.make_time_grid(1.0, 512)
    fast = rv.ExpKernel(
        weights=toy_kernel.weights, speeds=toy_kernel.speeds * g.N, H=0.07, T=1.0
    )
    inc = rv.sample_correlated_increments(g, 0.0, 100_000, 11)
    cfg = rv.AbergomiConfig(kernel=fast, params=table1)
    fac = rv.simulate_ou_factors(cfg, inc)
    for i, kap in enumerate(toy_kernel.speeds):
        want = (1 - np.exp(-2 * kap)) / (2 * kap)
        assert fac.Y[:, -1, i].var() == pytest.approx(want, rel=0.02)
    y = rv.abergomi_driver(cfg, fac)
    want = rv.quadratic_variation_chi(toy_kernel, 1.0, 1.0)
    assert y.values[:, -1].var() == pytest.approx(want, rel=0.02)


def test_rescaled_driver_variance_oracle(table1):
    # rescaled: factors run at k_i*(1 - theta/T) = k_i*dt/T and y is consumed
    # as sqrt(theta/T)*y; the variance of y follows the double-sum law at
    # the effective speeds
    g = rv.make_time_grid(1.0, 256)
    kern = rv.ExpKernel(weights=[0.7, 0.2], speeds=[50.0, 400.0], H=0.07, T=1.0)
    inc = rv.sample_correlated_increments(g, 0.0, 100_000, 13)
    cfg = rv.AbergomiConfig(kernel=kern, params=table1)
    fac = rv.simulate_ou_factors(cfg, inc)
    eff = kern.speeds * g.dt
    np.testing.assert_allclose((1 - fac.decay) / g.dt, eff, rtol=1e-10)
    y = rv.abergomi_driver(cfg, fac)
    assert y.prefactor == pytest.approx(np.sqrt(1.0 - g.dt))
    eff_kernel = rv.ExpKernel(weights=kern.weights, speeds=eff, H=kern.H, T=kern.T)
    want = rv.quadratic_variation_chi(eff_kernel, 1.0, 1.0)
    assert y.values[:, -1].var() == pytest.approx(want, rel=0.02)


@pytest.mark.parametrize("N", [100, 512], ids=lambda N: f"rescaled-{N}")
def test_driver_convolution_matches_the_factor_recursion(table1, N):
    # theta = T - dt runs the factors at kappa*dt/T; the stiff term has
    # kappa_eff*dt = 1.5: its decay 1 - kappa_eff*dt is negative but
    # stable, so a sign, lag or decay slip in c_m shows
    g = rv.make_time_grid(1.0, N)
    kern = rv.ExpKernel(
        weights=[0.5, 0.3, 0.2], speeds=[0.25 * N, 10.0 * N, 1.5 * N * N], H=0.1, T=1.0
    )
    cfg = rv.AbergomiConfig(kernel=kern, params=table1)
    inc = rv.sample_correlated_increments(g, table1.rho, 64, 17)
    fac = rv.simulate_ou_factors(cfg, inc)
    assert fac.decay.min() == pytest.approx(-0.5)
    y = rv.abergomi_driver(cfg, fac).values
    assert "Y" not in vars(fac), "the driver built the factor tensor"
    want = fac.Y @ kern.weights
    assert np.all(y[:, 0] == 0.0)
    assert np.max(np.abs(y - want)) <= 1e-12 * np.max(np.abs(want))


def test_driver_rejects_foreign_factors(toy_kernel, table1):
    g = rv.make_time_grid(1.0, 16)
    inc = rv.sample_correlated_increments(g, 0.0, 5, 0)
    cfg = rv.AbergomiConfig(kernel=toy_kernel, params=table1)
    fac = rv.simulate_ou_factors(cfg, inc)
    other = rv.AbergomiConfig(
        kernel=rv.ExpKernel(weights=[1.0], speeds=[1.0], H=0.07, T=1.0),
        params=table1,
    )
    with pytest.raises(ValueError):
        rv.abergomi_driver(other, fac)


def test_quadratic_variation_chi_against_quadrature(toy_kernel):
    w, x = toy_kernel.weights, toy_kernel.speeds
    f = lambda u: (w[0] * np.exp(-x[0] * u) + w[1] * np.exp(-x[1] * u)) ** 2
    for s, t in [(0.3, 1.0), (1.0, 1.0), (0.25, 2.0)]:
        want = integrate.quad(f, t - s, t, epsabs=1e-14, epsrel=1e-14)[0]
        assert rv.quadratic_variation_chi(toy_kernel, s, t) == pytest.approx(
            want, rel=1e-12
        )
    assert rv.quadratic_variation_chi(toy_kernel, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        rv.quadratic_variation_chi(toy_kernel, 2.0, 1.0)


@pytest.mark.parametrize(
    "s, t",
    [(-1.0, 0.5), (0.6, 0.5), (float("nan"), 0.5), (0.2, float("nan")),
     (0.2, float("inf"))],
    ids=["s-negative", "s-after-t", "s-nan", "t-nan", "t-inf"],
)
def test_affine_functions_reject_bad_windows(toy_kernel, s, t):
    Y = np.zeros((3, toy_kernel.n))
    with pytest.raises(ValueError, match="0 <= s <= t < inf"):
        rv.quadratic_variation_chi(toy_kernel, s, t)
    with pytest.raises(ValueError, match="0 <= s <= t < inf"):
        rv.variance_conditional_expectation(toy_kernel, Y, s, t, 0.8, 0.026)


def test_conditional_expectation_reduces_at_t_equals_s(toy_kernel, table1):
    g = rv.make_time_grid(1.0, 64)
    inc = rv.sample_correlated_increments(g, 0.0, 500, 7)
    Y = _factor_state(toy_kernel, inc, 32)
    sigma = 0.8
    got = rv.variance_conditional_expectation(toy_kernel, Y, 0.5, 0.5, sigma, table1.xi0)
    want = table1.xi0 * np.exp(sigma * (Y @ toy_kernel.weights))
    np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError):
        rv.variance_conditional_expectation(toy_kernel, Y, 0.6, 0.5, sigma, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        rv.variance_conditional_expectation(toy_kernel, Y, 0.5, 0.5, float("nan"), 1.0)
    with pytest.raises(ValueError, match="xi0"):
        rv.variance_conditional_expectation(toy_kernel, Y, 0.5, 0.5, sigma, -1.0)
    with pytest.raises(ValueError, match="Y must have 2 columns"):
        rv.variance_conditional_expectation(toy_kernel, Y[:, :1], 0.5, 0.5, sigma, 1.0)


def test_conditional_expectation_tower_property(toy_kernel, table1):
    # E[ E[V_t | F_s] ] must equal E[V_t] = xi0 * exp(sigma^2/2 * chi(t,t))
    g = rv.make_time_grid(1.0, 512)
    inc = rv.sample_correlated_increments(g, 0.0, 100_000, 11)
    sigma, s, t = 0.8, 0.4, 1.0
    Y = _factor_state(toy_kernel, inc, int(round(s * g.N)))
    ce = rv.variance_conditional_expectation(toy_kernel, Y, s, t, sigma, table1.xi0)
    want = table1.xi0 * np.exp(
        0.5 * sigma**2 * rv.quadratic_variation_chi(toy_kernel, t, t)
    )
    se = ce.std(ddof=1) / np.sqrt(ce.size)
    assert abs(ce.mean() - want) < 4 * se


def test_moments_converge_to_the_rough_limit(table1):
    """E[V^n_1] and E[(V^n_1)^2] approach the rough-model moments as n grows.

    The kernel plan (hybrid multifactor scheme) with the cell-average kernel,
    one shared set of increments across n (so the orderings are not noise).
    Reference moments are analytic: m1 = xi0, m2 = xi0^2 * exp(eta^2 *
    t^(2H)) at t = 1.
    """
    m1_ref = table1.xi0
    m2_ref = table1.xi0**2 * np.exp(table1.eta**2)
    terms = (5, 10, 25)
    kernels = [cell_kernel(n, table1.H, 1.0) for n in terms]
    sides = [(1.0, kern) for kern in kernels]
    gaps = {}
    for n, (_, V1) in zip(terms, rv.simulate_terminal(sides, table1, 256, 102_400, 99)):
        gaps[n] = (abs(V1.mean() - m1_ref), abs((V1**2).mean() - m2_ref))
    assert gaps[5][0] > gaps[10][0] > gaps[25][0], f"m1 gaps {gaps}"
    assert gaps[5][1] > gaps[10][1] > gaps[25][1], f"m2 gaps {gaps}"


@pytest.mark.parametrize("T", [0.1, 1.0])
@pytest.mark.parametrize("eta", [0.1, 0.2])
def test_atm_vol_matches_the_second_order_expansion(table1, eta, T):
    """The Monte Carlo ATM implied vol against Bergomi & Guyon's expansion.

    rBergomi at small vol-of-vol, 100 000 paths on N = 100 steps.  The
    control is a Black-Scholes price at vol sqrt(xi0) on the same W_T, which
    removes most of the Monte Carlo noise: (iv_MC - iv_BS) is compared with
    (sigma_ATM - sqrt(xi0)).  Over seeds 1-10 the gap's sd was 4.5e-5 to
    5.7e-5 at eta = 0.1 and 8.4e-5 to 1.1e-4 at eta = 0.2, with means within
    1.4e-5 of 0; the tolerance is three times the largest sd per unit eta.
    """
    params = rv.ModelParams(xi0=table1.xi0, eta=eta, H=table1.H, rho=table1.rho)
    paths, N, seed, vol = 100_000, 100, 1, np.sqrt(table1.xi0)
    coeffs = rv.rbergomi_expansion_coeffs(params, T)
    sigma_atm = rv.expansion_terms(coeffs, table1.xi0 * T, T)[0]
    [(logS, _)] = rv.simulate_terminal([(T, None)], params, N, paths, seed)
    W_T = rv.sample_terminal_brownian(rv.make_time_grid(T, N), paths, seed)
    atm = np.array([0.0])
    iv_mc = rv.mc_smile(logS, atm, T=T).vols[0]
    iv_bs = rv.mc_smile(-0.5 * vol * vol * T + vol * W_T, atm, T=T).vols[0]
    gap = (iv_mc - iv_bs) - (sigma_atm - vol)
    assert abs(gap) <= 1.7e-3 * eta, f"gap {gap:.3e}"
