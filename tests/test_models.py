"""Variance models: martingale checks, OU oracles, conditional expectations,
and moment convergence of the kernel plan."""

import numpy as np
import pytest
from scipy import integrate

import roughvol as rv


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


def _factor_state(kernel, inc, j):
    """Factor levels at node j from one matmul over dB[:, :j], exact decay.

    Y^i_{t_j} = sum_{k<j} e^(-x_i (j-k) dt) dB_k: the kernel plan's factor
    recursion Z_{k+1} = e^(-x dt) (Z_k + dB_k), unrolled.
    """
    lags = (j - np.arange(j)) * inc.grid.dt
    return inc.dB[:, :j] @ np.exp(-np.multiply.outer(lags, kernel.speeds))


def test_abergomi_config_validation(toy_kernel, table1):
    with pytest.raises(ValueError):
        rv.AbergomiConfig(kernel=toy_kernel, params=table1, mult_factor=0.0)
    # the rescaled construction truncates the horizon at theta = T - dt
    g = rv.make_time_grid(1.0, 10)
    inc = rv.sample_correlated_increments(g, 0.0, 3, 0)
    cfg = rv.AbergomiConfig(kernel=toy_kernel, params=table1)
    assert rv.simulate_ou_factors(cfg, inc).theta == pytest.approx(1.0 - 0.1)


def test_eta_scale_tracks_kernel_flavor(table1):
    plain, _ = rv.closed_form_kernel(3, table1.H, 1.0)
    norm = rv.normalized_copy(plain)
    a = rv.AbergomiConfig(kernel=plain, params=table1)
    b = rv.AbergomiConfig(kernel=norm, params=table1)
    assert a.eta_scale() == pytest.approx(table1.eta * np.sqrt(2 * table1.H))
    assert b.eta_scale() == pytest.approx(table1.eta)


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

    The kernel plan (hybrid multifactor scheme) with the closed-form kernel,
    one shared set of increments across n (so the orderings are not noise).
    Reference moments are analytic: m1 = xi0, m2 = xi0^2 * exp(eta^2 *
    t^(2H)) at t = 1.
    """
    grid = rv.make_time_grid(1.0, 256)
    n_paths = 102_400
    m1_ref = table1.xi0
    m2_ref = table1.xi0**2 * np.exp(table1.eta**2)
    gaps = {}
    for n in (5, 10, 25):
        kern, _ = rv.closed_form_kernel(n, table1.H, 1.0)
        plan = rv.make_hybrid_plan(grid, table1.alpha, kernel=kern)
        s1 = s2 = 0.0
        full = rv.sample_correlated_increments(grid, table1.rho, n_paths, 99)
        for _, inc in rv.iter_blocks(full):
            V1 = rv.rbergomi_variance(rv.simulate_volterra(plan, inc), table1).values[:, -1]
            s1 += V1.sum()
            s2 += (V1**2).sum()
        gaps[n] = (abs(s1 / n_paths - m1_ref), abs(s2 / n_paths - m2_ref))
    assert gaps[5][0] > gaps[10][0] > gaps[25][0], f"m1 gaps {gaps}"
    assert gaps[5][1] > gaps[10][1] > gaps[25][1], f"m2 gaps {gaps}"
