"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test prints a one-line summary with the measured numbers (visible with
pytest -rA, or on failure) and asserts both the tolerance and the runtime
budget.  Monte Carlo criteria run at frozen seeds so the whole gate is
deterministic.
"""

import time

import numpy as np
import pytest
from scipy.linalg import toeplitz

import roughvol as rv
from conftest import aggregate_increments

TABLE1 = rv.ModelParams(xi0=0.026, eta=1.9, H=0.07, rho=-0.9)


def _fit_grid_rmse(kern, H, T, N_grid):
    tau = np.arange(1, N_grid) * (T / N_grid)
    target = np.sqrt(2 * H) * tau ** (H - 0.5)
    return float(np.sqrt(np.mean((kern(tau) - target) ** 2)))


def _blocks(grid, n_paths, seed):
    """Path blocks of one increment draw under the Table 1 correlation."""
    inc = rv.sample_correlated_increments(grid, TABLE1.rho, n_paths, seed)
    return rv.iter_blocks(inc)


def _terminal_log_price(plan, blk):
    V = rv.rbergomi_variance(rv.simulate_volterra(plan, blk), TABLE1)
    return rv.rbergomi_log_price(V, blk)[:, -1]


def _stream_terminal(plan, n_paths, seed):
    """Terminal log-prices under one hybrid plan, streamed in path blocks."""
    [(logS, _)] = rv.simulate_terminal([plan], TABLE1, n_paths, seed)
    return logS


def _rb_terminal(T, N, n_paths, seed):
    """Terminal rBergomi log-prices."""
    plan = rv.make_hybrid_plan(rv.make_time_grid(T, N), TABLE1.alpha)
    return _stream_terminal(plan, n_paths, seed)


def _ab_terminal(T, N, n_paths, seed, kern):
    """Terminal log-prices of the Markovian approximation with kernel kern.

    Hybrid multifactor scheme: exact singular cell, sum-of-exponentials tail
    with exact decay, m = 1 and the same power compensator as rBergomi.
    """
    plan = rv.make_hybrid_plan(rv.make_time_grid(T, N), TABLE1.alpha, kernel=kern)
    return _stream_terminal(plan, n_paths, seed)


def _ab_rescaled_terminal(T, N, n_paths, seed, kern):
    """Terminal log-prices of the paper's rescaled + m^2 OU construction."""
    grid = rv.make_time_grid(T, N)
    cfg = rv.AbergomiConfig(
        kernel=kern,
        params=TABLE1,
        mult_factor=float(np.sqrt(rv.SMILE_FACTOR_M2[N])),
    )
    logS = np.empty(n_paths)
    for rows, blk in _blocks(grid, n_paths, seed):
        drv = rv.abergomi_driver(cfg, rv.simulate_ou_factors(cfg, blk))
        V = rv.abergomi_variance(cfg, drv)
        logS[rows] = rv.rbergomi_log_price(V, blk)[:, -1]
    return logS


def _fixed_reference_terminals(kern, steps, N_ref, n_paths, seed):
    """rBergomi at N_ref and the approximation at each N in steps, one draw.

    The coarse increments are aggregated from the fine ones
    (conftest.aggregate_increments), so every simulation consumes the same
    Gaussians and only the step size and the kernel separate them.
    """
    fine_plan = rv.make_hybrid_plan(rv.make_time_grid(1.0, N_ref), TABLE1.alpha)
    plans = {
        N: rv.make_hybrid_plan(rv.make_time_grid(1.0, N), TABLE1.alpha, kernel=kern)
        for N in steps
    }
    ref = np.empty(n_paths)
    approx = {N: np.empty(n_paths) for N in steps}
    for rows, blk in _blocks(fine_plan.grid, n_paths, seed):
        ref[rows] = _terminal_log_price(fine_plan, blk)
        for N, plan in plans.items():
            coarse = aggregate_increments(blk, N, TABLE1.alpha)
            approx[N][rows] = _terminal_log_price(plan, coarse)
    return ref, approx


def test_criterion_01_25_term_fit_rmse():
    t0 = time.perf_counter()
    kern = rv.fit_kernel_ls(0.07, 1.0, 100, 25)
    rmse = _fit_grid_rmse(kern, 0.07, 1.0, 100)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: 25-term fit RMSE {rmse:.5e} (tol 2e-5) in {elapsed:.2f}s")
    assert rmse <= 2e-5
    assert elapsed < 5.0


def test_criterion_02_closed_form_error_bound():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for H in (0.07, 0.1, 0.3):
        errs = []
        for n in (5, 10, 25, 50, 100):
            _, cert = rv.closed_form_kernel(n, H, 1.0)
            assert cert.l2_error <= cert.bound, f"H={H}, n={n}"
            errs.append(cert.l2_error)
            worst_ratio = max(worst_ratio, cert.l2_error / cert.bound)
        assert all(a > b for a, b in zip(errs, errs[1:])), (
            f"L2 error not strictly decreasing at H={H}: {errs}"
        )
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 2: bound holds for all 15 (n, H) pairs, worst "
        f"error/bound {worst_ratio:.3f}, decreasing in n, {elapsed:.2f}s"
    )
    assert elapsed < 10.0


def test_criterion_03_volterra_law_and_variance_martingale():
    t0 = time.perf_counter()
    n_paths = 100_000
    grid = rv.make_time_grid(1.0, 100)
    plan = rv.make_hybrid_plan(grid, TABLE1.alpha)
    idx = [25, 50, 100]
    xs, vs = [], []
    for _, blk in _blocks(grid, n_paths, seed=17):
        X = rv.simulate_volterra(plan, blk)
        V = rv.rbergomi_variance(X, TABLE1)
        xs.append(X.values[:, idx])
        vs.append(V.values[:, idx])
    X3 = np.vstack(xs)
    V3 = np.vstack(vs)
    lines = []
    for j, t in enumerate((0.25, 0.5, 1.0)):
        var = X3[:, j].var(ddof=1)
        target = t ** (2 * TABLE1.H)
        assert abs(var - target) <= 0.05 * target, f"Var(X_{t})"
        mean_v = V3[:, j].mean()
        se = V3[:, j].std(ddof=1) / np.sqrt(n_paths)
        assert abs(mean_v - TABLE1.xi0) <= 3 * se, f"mean V_{t}"
        lines.append(
            f"t={t}: Var(X)={var:.4f}/{target:.4f}, "
            f"mean V={mean_v:.5f}±{se:.5f}"
        )
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: {'; '.join(lines)}; {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_04_fft_convolution_equals_naive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for N in (64, 256, 1024):
        kern = rng.standard_normal(N)
        signal = rng.standard_normal((100, N))
        fft = rv.toeplitz_convolve(kern, signal)
        lower = np.tril(toeplitz(kern))
        naive = signal @ lower.T
        scale = np.abs(naive).max()
        np.testing.assert_allclose(fft, naive, rtol=1e-10, atol=1e-10 * scale)
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: FFT == naive O(N^2) at N=64/256/1024, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_05_conditional_expectation_vs_nested_mc():
    t0 = time.perf_counter()
    kern = rv.fit_kernel_ls(0.07, 1.0, 100, 3)
    x, w = kern.speeds, kern.weights
    s, t, sigma, xi0 = 0.5, 1.0, TABLE1.eta, TABLE1.xi0
    n_outer, n_inner = 50, 100_000

    xs = np.add.outer(x, x)
    outer = np.random.default_rng(55).standard_normal((n_outer, kern.n)) @ (
        np.linalg.cholesky((1 - np.exp(-xs * s)) / xs).T
    )
    formula = rv.variance_conditional_expectation(kern, outer, s, t, sigma, xi0)

    delta = t - s
    decay = np.exp(-x * delta)
    L_inner = np.linalg.cholesky((1 - np.exp(-xs * delta)) / xs)
    hits = 0
    for j in range(n_outer):
        z = np.random.default_rng((55, j)).standard_normal((n_inner, kern.n))
        Y_t = outer[j] * decay + z @ L_inner.T
        V = xi0 * np.exp(sigma * (Y_t @ w))
        se = V.std(ddof=1) / np.sqrt(n_inner)
        hits += abs(V.mean() - formula[j]) <= 3 * se
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 5: {hits}/{n_outer} outer states within 3 stderr "
        f"(need >= 47), {elapsed:.1f}s"
    )
    assert hits >= 47
    assert elapsed < 120.0


def test_criterion_06_atm_skew_power_law():
    t0 = time.perf_counter()
    n_paths = 200_000
    mats = [0.1, 0.25, 0.5, 1.0, 2.0]
    plans = [rv.make_hybrid_plan(rv.make_time_grid(T, 100), TABLE1.alpha) for T in mats]
    terminal = rv.simulate_terminal(plans, TABLE1, n_paths, seed=6)
    log_S = {T: s_T for T, (s_T, _) in zip(mats, terminal)}

    def smile_fn(T, strikes):
        return rv.mc_smile(log_S[T], strikes, T=T)

    report = rv.atm_skew(smile_fn, mats, bump=0.01)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 6: skew exponent {report.exponent:.4f} "
        f"(target -0.43 ± 0.1), psi={np.round(report.psi, 4)}, {elapsed:.1f}s"
    )
    assert not report.flagged.any()
    assert abs(report.exponent - (TABLE1.H - 0.5)) <= 0.1
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def smile_rmse_grid():
    """Smile RMSEs shared by the two ordering criteria (seed 42).

    Same-N CRN pairs (7a) isolate the kernel error; the fixed N=400 rBergomi
    reference (7b) measures convergence in the step size.
    """
    t0 = time.perf_counter()
    n_paths, seed = 20_000, 42
    kern15 = rv.fit_kernel_ls(0.07, 1.0, 100, 15)
    kern25 = rv.fit_kernel_ls(0.07, 1.0, 100, 25)
    ref100 = rv.mc_smile(_rb_terminal(1.0, 100, n_paths, seed), T=1.0)

    def rmse_at_100(terminal, kern):
        approx = rv.mc_smile(terminal(1.0, 100, n_paths, seed, kern), T=1.0)
        return rv.smile_rmse(ref100, approx)

    ref, approx = _fixed_reference_terminals(kern25, (50, 200), 400, n_paths, seed)
    ref_smile = rv.mc_smile(ref, T=1.0)
    out = {
        (15, 100): rmse_at_100(_ab_terminal, kern15),
        (25, 100): rmse_at_100(_ab_terminal, kern25),
        ("rescaled", 15, 100): rmse_at_100(_ab_rescaled_terminal, kern15),
        ("rescaled", 25, 100): rmse_at_100(_ab_rescaled_terminal, kern25),
        ("ref400", 25, 50): rv.smile_rmse(ref_smile, rv.mc_smile(approx[50], T=1.0)),
        ("ref400", 25, 200): rv.smile_rmse(ref_smile, rv.mc_smile(approx[200], T=1.0)),
        "elapsed": time.perf_counter() - t0,
    }
    return out


def test_criterion_07a_more_terms_should_tighten_the_smile(smile_rmse_grid):
    r = smile_rmse_grid
    print(
        f"criterion 7a: RMSE 25-term {r[(25, 100)]:.3e} vs 15-term "
        f"{r[(15, 100)]:.3e} at N=100 (CRN, 20000 paths); rescaled "
        f"+ m^2 OU construction, not asserted: 25-term {r[('rescaled', 25, 100)]:.5f}, "
        f"15-term {r[('rescaled', 15, 100)]:.5f}; {r['elapsed']:.1f}s shared"
    )
    assert r["elapsed"] < 180.0
    assert r[(25, 100)] <= r[(15, 100)], (
        "Under same-N CRN the singular cell and every Gaussian are shared "
        "with rBergomi, so the only error left is the kernel's cell averages "
        "on the lags k*dt, k >= 2, of the N=100 grid. A failure means the "
        "25-term kernel's cell averages sit farther from the power-law cell "
        "averages (b_k^* dt)^alpha on those lags than the 15-term ones: "
        "check the least-squares fit (fit_kernel_ls) and the cell averages "
        "of make_hybrid_plan(..., kernel=...)."
    )


def test_criterion_07b_finer_steps_tighten_the_smile(smile_rmse_grid):
    r = smile_rmse_grid
    print(
        f"criterion 7b: 25-term RMSE against rBergomi at N=400 "
        f"{r[('ref400', 25, 200)]:.3e} at N=200 vs "
        f"{r[('ref400', 25, 50)]:.3e} at N=50 (increments aggregated from "
        f"the same 20000 paths)"
    )
    assert r["elapsed"] < 180.0
    assert r[("ref400", 25, 200)] <= r[("ref400", 25, 50)]


def test_criterion_08_runtime_comparison_soft():
    n_paths, N, seed = 20_000, 200, 8
    kern = rv.fit_kernel_ls(0.07, 1.0, 100, 10)

    def timed(fn):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return sorted(times)[1]

    t_rb = timed(lambda: _rb_terminal(1.0, N, n_paths, seed))
    t_ab = timed(lambda: _ab_terminal(1.0, N, n_paths, seed, kern))
    flag = "" if t_ab < t_rb else "  [FLAG: inverted on this hardware]"
    print(
        f"criterion 8 (soft): rBergomi {t_rb:.4f}s vs 10-term aBergomi "
        f"{t_ab:.4f}s at N=200, 20000 paths{flag}"
    )
    assert t_rb > 0 and t_ab > 0  # report-only criterion: flag, never fail


def test_criterion_09_two_factor_coeffs_vs_quadrature():
    from test_analytics import quad_factor_coeffs, two_factor_factors

    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(5):
        p = rv.TwoFactorParams(
            omega=rng.uniform(0.5, 3.0),
            theta=rng.uniform(0.1, 0.9),
            kappa_X=rng.uniform(3.0, 12.0),
            kappa_Y=rng.uniform(0.1, 2.0),
            rho_SX=rng.uniform(-0.9, 0.2),
            rho_SY=rng.uniform(-0.9, 0.2),
            rho_XY=rng.uniform(-0.4, 0.8),
        )
        T = rng.uniform(0.3, 2.0)
        xi0 = rng.uniform(0.01, 0.09)
        got = rv.two_factor_coeffs(p, T, xi0)
        want = quad_factor_coeffs(*two_factor_factors(p), T, xi0)
        for g, w in zip((got.c_xxi, got.c_xixi, got.c_mu), want):
            rel = abs(g - w) / abs(w)
            worst = max(worst, rel)
            assert rel <= 1e-6

    I, J, K, H = rv.helper_functions(1e-9)
    for value, limit in zip((I, J, K, H), (1.0, 0.5, 0.5, 1 / 6)):
        assert abs(value - limit) <= 1e-8
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 9: coeffs within {worst:.2e} of quadrature over 5 random "
        f"sets (tol 1e-6); helper z->0 limits within 1e-8; {elapsed:.1f}s"
    )
    assert elapsed < 10.0


def test_criterion_10_implied_vol_round_trip_on_module_grid():
    t0 = time.perf_counter()
    tested = low_vega = refused = 0
    worst_vol = worst_price = 0.0
    for m in rv.IV_GRID_MONEYNESS:
        for T in rv.IV_GRID_MATURITIES:
            for vol in rv.IV_GRID_VOLS:
                K = float(m)
                price = rv.bs_price(1.0, K, T, vol)
                vega = rv.bs_vega(1.0, K, T, vol)
                try:
                    iv = rv.implied_vol(price, 1.0, K, T)
                except ValueError:
                    # price indistinguishable from intrinsic in float64;
                    # must only ever happen below the resolvability floor
                    assert vega < rv.IV_MIN_VEGA
                    refused += 1
                    continue
                worst_price = max(
                    worst_price, abs(rv.bs_price(1.0, K, T, iv) - price)
                )
                if vega >= rv.IV_MIN_VEGA:
                    tested += 1
                    worst_vol = max(worst_vol, abs(iv - vol))
                else:
                    low_vega += 1
    elapsed = time.perf_counter() - t0
    total = tested + low_vega + refused
    print(
        f"criterion 10: {tested}/{total} grid points recover vol to "
        f"{worst_vol:.2e} (tol 1e-8); {low_vega + refused} below the "
        f"1e-7 vega floor ({refused} at intrinsic); price reproduction "
        f"{worst_price:.2e}; {elapsed:.2f}s"
    )
    assert total == (
        len(rv.IV_GRID_MONEYNESS)
        * len(rv.IV_GRID_MATURITIES)
        * len(rv.IV_GRID_VOLS)
    )
    assert worst_vol <= 1e-8
    assert worst_price <= 1e-10
    assert elapsed < 1.0
