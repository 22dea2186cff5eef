"""Pricing, implied vol, smiles, skew fits, and the vol expansions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import roughvol as rv
from conftest import IV_GRID_MATURITIES, IV_GRID_MONEYNESS, IV_GRID_VOLS, IV_MIN_VEGA
from roughvol.analytics import _factor_coeffs, _norm_cdf


# ---------------------------------------------------------------- pricing


def test_bs_price_frozen_atm():
    # S0=K=1, T=1, vol=0.2: 2*Phi(0.1) - 1 at high precision
    assert rv.bs_price(1.0, 1.0, 1.0, 0.2) == pytest.approx(
        0.07965567455405798, abs=1e-16
    )


def test_norm_cdf_matches_scipy_ndtr():
    # down to Phi(-30) ~ 5e-198, where 1 - Phi(30) would have underflowed
    x = np.linspace(-30.0, 9.0, 3901)
    got = np.array([_norm_cdf(v) for v in x])
    np.testing.assert_allclose(got, special.ndtr(x), rtol=1e-12, atol=0)


def test_bs_price_shape():
    # increasing in vol, decreasing in strike, above intrinsic
    p1 = rv.bs_price(1.0, 1.1, 1.0, 0.2)
    p2 = rv.bs_price(1.0, 1.1, 1.0, 0.4)
    assert 0 < p1 < p2 < 1.0
    assert rv.bs_price(1.0, 0.8, 1.0, 0.2) > 0.2
    with pytest.raises(ValueError):
        rv.bs_price(1.0, 1.0, 0.0, 0.2)
    with pytest.raises(ValueError):
        rv.bs_price(1.0, 1.0, 1.0, -0.1)


def test_bs_vega_matches_finite_difference():
    h = 1e-6
    fd = (rv.bs_price(1.0, 1.1, 0.7, 0.3 + h) - rv.bs_price(1.0, 1.1, 0.7, 0.3 - h)) / (
        2 * h
    )
    assert rv.bs_vega(1.0, 1.1, 0.7, 0.3) == pytest.approx(fd, rel=1e-8)


def test_implied_vol_round_trip_spot_checks():
    for vol in (0.05, 0.2, 0.8):
        for K in (0.8, 1.0, 1.3):
            price = rv.bs_price(1.0, K, 1.0, vol)
            assert rv.implied_vol(price, 1.0, K, 1.0) == pytest.approx(vol, abs=1e-8)


@pytest.mark.parametrize("vol", [3000.0, 1e4])
def test_implied_vol_recovers_a_vol_above_1024(vol):
    # at T = 1e-8 a vol of thousands is an ordinary ATM price (about 0.12
    # and 0.40); the bracket keeps doubling until it holds the root
    price = rv.bs_price(1.0, 1.0, 1e-8, vol)
    assert price < 1.0
    assert rv.implied_vol(price, 1.0, 1.0, 1e-8) == pytest.approx(vol, rel=1e-8)


def test_implied_vol_names_the_violated_bound():
    with pytest.raises(ValueError, match="lower no-arbitrage bound"):
        rv.implied_vol(0.1, 1.0, 0.8, 1.0)  # below intrinsic 0.2
    with pytest.raises(ValueError, match="upper no-arbitrage bound"):
        rv.implied_vol(1.5, 1.0, 0.8, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        rv.implied_vol(float("nan"), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        rv.implied_vol(0.1, 0.0, 1.0, 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: rv.bs_price(NAN, 1.0, 1.0, 0.2),
        lambda: rv.bs_price(1.0, NAN, 1.0, 0.2),
        lambda: rv.bs_price(1.0, 1.0, NAN, 0.2),
        lambda: rv.bs_price(1.0, 1.0, 1.0, NAN),
        lambda: rv.bs_price(1.0, 1.0, INF, 0.2),
        lambda: rv.implied_vol(0.1, NAN, 1.0, 1.0),
        lambda: rv.implied_vol(0.1, 1.0, NAN, 1.0),
        lambda: rv.implied_vol(0.1, 1.0, 1.0, NAN),
        lambda: rv.implied_vol(0.1, 1.0, INF, 1.0),
        lambda: rv.mc_smile(np.zeros(4), T=NAN),
        lambda: rv.mc_smile(np.zeros(4), T=INF),
        lambda: rv.mc_smile(np.zeros(4), T=0.0),
    ],
    ids=[
        "bs-S0-nan", "bs-K-nan", "bs-T-nan", "bs-vol-nan", "bs-T-inf",
        "iv-S0-nan", "iv-K-nan", "iv-T-nan", "iv-K-inf",
        "smile-T-nan", "smile-T-inf", "smile-T-zero",
    ],
)
def test_pricing_rejects_non_finite_inputs(call):
    with pytest.raises(ValueError, match=r"^(S0|K|T|vol) must be positive, got "):
        call()


@pytest.mark.parametrize("bump", [NAN, INF])
def test_atm_skew_rejects_a_non_finite_bump_before_pricing(bump):
    def smile_fn(T, strikes):
        raise AssertionError("smile_fn called")

    with pytest.raises(ValueError, match="^bump must be positive, got "):
        rv.atm_skew(smile_fn, [0.5, 1.0], bump=bump)


@pytest.mark.parametrize("T", [NAN, 0.0, INF])
def test_atm_skew_rejects_a_bad_maturity_before_pricing(T):
    def smile_fn(T, strikes):
        raise AssertionError("smile_fn called")

    with pytest.raises(ValueError, match="maturities must be positive and finite"):
        rv.atm_skew(smile_fn, [T, 1.0, 2.0])


def test_implied_vol_deep_otm_tiny_price():
    # far OTM, short maturity: the solver still converges without overflow
    price = rv.bs_price(1.0, np.exp(0.4), 0.25, 0.3)
    assert rv.implied_vol(price, 1.0, np.exp(0.4), 0.25) == pytest.approx(
        0.3, abs=1e-8
    )
    # genuinely tiny price (~6e-9) right at the edge of vega resolvability
    tiny = rv.bs_price(1.0, 1.6, 0.05, 0.4)
    assert tiny < 1e-7
    assert rv.bs_vega(1.0, 1.6, 0.05, 0.4) >= IV_MIN_VEGA
    assert rv.implied_vol(tiny, 1.0, 1.6, 0.05) == pytest.approx(0.4, abs=1e-8)


@given(
    vol=st.floats(0.1, 1.0),
    k=st.floats(-0.3, 0.3),
    T=st.floats(0.3, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_implied_vol_round_trip_property(vol, k, T):
    K = float(np.exp(k))
    price = rv.bs_price(1.0, K, T, vol)
    assert abs(rv.implied_vol(price, 1.0, K, T) - vol) < 1e-8


def test_iv_reference_grid_spans_the_stated_ranges():
    assert IV_GRID_MONEYNESS[0] == 0.6 and IV_GRID_MONEYNESS[-1] == 1.6
    assert min(IV_GRID_MATURITIES) == 0.05 and max(IV_GRID_MATURITIES) == 3.0
    assert min(IV_GRID_VOLS) == 0.05 and max(IV_GRID_VOLS) == 1.0


# ----------------------------------------------------------------- smiles


def _bs_terminal_log_price(vol, T, n_paths, seed):
    g = rv.make_time_grid(T, 16)
    inc = rv.sample_correlated_increments(g, 0.0, n_paths, seed)
    return vol * inc.dW.sum(axis=1) - 0.5 * vol**2 * T


def test_constant_variance_smile_is_flat():
    vol, T = 0.2, 1.0
    logS = _bs_terminal_log_price(vol, T, 50_000, 31)
    sm = rv.mc_smile(logS, T=T)
    assert sm.n_paths == 50_000
    assert not sm.skipped
    for i, k in enumerate(sm.strikes):
        # within 3 MC standard errors at every strike, propagated through vega
        se_vol = sm.price_stderr[i] / rv.bs_vega(1.0, np.exp(k), T, vol)
        assert abs(sm.vols[i] - vol) < 3 * se_vol, f"k={k}"


def test_mc_smile_prices_and_stderr():
    logS = _bs_terminal_log_price(0.2, 1.0, 20_000, 5)
    strikes = np.array([-0.1, 0.0, 0.1])
    sm = rv.mc_smile(logS, strikes, T=1.0)
    payoff_atm = np.maximum(np.exp(logS) - 1.0, 0.0)
    assert sm.prices[1] == pytest.approx(payoff_atm.mean())
    # the stderr of the mean of 10 000 antithetic pair means
    pair_means = payoff_atm.reshape(10_000, 2).mean(axis=1)
    assert sm.price_stderr[1] == pytest.approx(
        pair_means.std(ddof=1) / np.sqrt(10_000)
    )
    # a monotone payoff of antithetic pairs: below the i.i.d.-row formula
    assert sm.price_stderr[1] < payoff_atm.std(ddof=1) / np.sqrt(20_000)
    assert np.all(np.diff(sm.prices) < 0)  # call prices decrease in strike


def test_pair_mean_stderr_at_an_odd_path_count():
    # an odd n's last row enters the price, not the pair-mean variance; the
    # stderr sqrt(2*s^2/n) is unbiased for independent rows, whose pair means
    # have half a row's variance
    rng = np.random.default_rng(3)
    logS = 0.2 * rng.standard_normal(2001) - 0.02
    sm = rv.mc_smile(logS, np.array([0.0]), T=1.0)
    payoff = np.maximum(np.exp(logS) - 1.0, 0.0)
    pair_means = payoff[:2000].reshape(1000, 2).mean(axis=1)
    assert sm.prices[0] == pytest.approx(payoff.mean(), rel=1e-14)
    assert sm.price_stderr[0] == pytest.approx(
        np.sqrt(2 * pair_means.var(ddof=1) / 2001), rel=1e-14
    )
    # over 400 independent sets of 31 rows, the mean squared stderr matches
    # the variance of the price
    sets = 0.2 * rng.standard_normal((400, 31))
    stderr2, prices = [], []
    for row in sets:
        sm = rv.mc_smile(row, np.array([0.0]), T=1.0)
        stderr2.append(sm.price_stderr[0] ** 2)
        prices.append(sm.prices[0])
    assert np.mean(stderr2) == pytest.approx(np.var(prices, ddof=1), rel=0.2)
    # fewer than 2 pairs give no stderr
    assert np.isnan(rv.mc_smile(np.zeros(3), np.array([0.0]), T=1.0).price_stderr[0])


@pytest.mark.parametrize(
    "log_prices",
    [
        np.array([]), np.zeros((3, 4)), np.float64(0.1),
        np.array([0.0, NAN]), np.array([-INF, 0.0]),
    ],
    ids=["empty", "matrix", "scalar", "nan", "inf"],
)
def test_mc_smile_rejects_log_prices_not_1d_non_empty_and_finite(log_prices):
    # an empty set has no mean, a path matrix would be flattened into rows
    # of every time step, and a non-finite value would price every strike
    # non-finite
    with pytest.raises(ValueError, match="log_price_terminal"):
        rv.mc_smile(log_prices, np.array([0.0]), T=1.0)


def test_mc_smile_rejects_strikes_not_1d():
    # a strike matrix used to fail in numpy's broadcasting, naming no input
    with pytest.raises(ValueError, match="strikes must be 1-D"):
        rv.mc_smile(np.zeros(4), [[0.0, 0.1]], T=1.0)


def test_mc_smile_records_skipped_strikes():
    # all paths end at the same huge value: price > S0 at every strike
    logS = np.full(100, 4.0)
    sm = rv.mc_smile(logS, np.array([0.0]), T=1.0)
    assert np.isnan(sm.vols[0])
    assert len(sm.skipped) == 1
    strike, reason = sm.skipped[0]
    assert strike == 0.0
    assert "bound" in reason


def test_smile_rmse_is_a_metric():
    logS = _bs_terminal_log_price(0.2, 1.0, 5_000, 8)
    a = rv.mc_smile(logS, T=1.0)
    b = rv.mc_smile(_bs_terminal_log_price(0.3, 1.0, 5_000, 8), T=1.0)
    c = rv.mc_smile(_bs_terminal_log_price(0.25, 1.0, 5_000, 9), T=1.0)
    assert rv.smile_rmse(a, a) == 0.0
    assert rv.smile_rmse(a, b) == pytest.approx(rv.smile_rmse(b, a))
    assert rv.smile_rmse(a, b) > 0
    assert rv.smile_rmse(a, b) <= rv.smile_rmse(a, c) + rv.smile_rmse(c, b) + 1e-12


def test_smile_rmse_requires_matching_setups():
    logS = _bs_terminal_log_price(0.2, 1.0, 1_000, 8)
    a = rv.mc_smile(logS, np.array([-0.1, 0.0, 0.1]), T=1.0)
    b = rv.mc_smile(logS, np.array([0.0, 0.1]), T=1.0)
    with pytest.raises(ValueError):
        rv.smile_rmse(a, b)
    c = rv.mc_smile(logS, np.array([-0.1, 0.0, 0.1]), T=2.0)
    with pytest.raises(ValueError):
        rv.smile_rmse(a, c)


# ------------------------------------------------------------------- skew


def _synthetic_smile(c, beta):
    """smile_fn with vols a + |S(T)|*k, S(T) = -c*T^beta: a pure power law."""

    def fn(T, strikes):
        strikes = np.asarray(strikes, dtype=float)
        vols = 0.2 - c * T**beta * strikes
        return rv.SmileResult(
            maturity=T,
            strikes=strikes,
            vols=vols,
            prices=np.zeros_like(strikes),
            price_stderr=np.zeros_like(strikes),
            n_paths=0,
        )

    return fn


def test_atm_skew_recovers_a_power_law():
    rep = rv.atm_skew(_synthetic_smile(0.3, -0.43), [0.1, 0.25, 0.5, 1.0, 2.0])
    assert rep.exponent == pytest.approx(-0.43, abs=1e-10)
    assert rep.intercept == pytest.approx(np.log(0.3), abs=1e-10)
    assert rep.residual < 1e-12
    assert not rep.flagged.any()
    np.testing.assert_allclose(rep.richardson, rep.psi, rtol=1e-9)
    np.testing.assert_allclose(rep.psi, 0.3 * np.array([0.1, 0.25, 0.5, 1.0, 2.0]) ** -0.43)


def test_fit_power_law_recovers_an_exact_power_law_and_matches_atm_skew():
    T = np.array([0.1, 0.25, 0.5, 1.0, 2.0])
    intercept, exponent, residual = rv.fit_power_law(T, 0.3 * T**-0.43)
    assert exponent == pytest.approx(-0.43, abs=1e-12)
    assert intercept == pytest.approx(np.log(0.3), abs=1e-12)
    assert residual < 1e-12
    # atm_skew reports the fit of its own psi, flagged maturities excluded
    rep = rv.atm_skew(_synthetic_smile(0.3, -0.43), T)
    assert (rep.intercept, rep.exponent, rep.residual) == rv.fit_power_law(T, rep.psi)
    noisy = 0.3 * T**-0.43 * np.exp([0.01, -0.02, 0.015, 0.0, -0.01])
    assert rv.fit_power_law(T, noisy)[2] > 1e-3


@pytest.mark.parametrize(
    "maturities, psi",
    [
        ([1.0, 1.0], [1.0, 0.5]),  # one distinct maturity: no slope
        ([1.0, 2.0], [1.0, -0.5]),
        ([1.0, 2.0], [1.0, NAN]),
        ([0.0, 1.0], [1.0, 0.5]),
        ([1.0, INF], [1.0, 0.5]),
        ([1.0, 2.0, 3.0], [1.0, 0.5]),
    ],
    ids=["one-T", "psi-negative", "psi-nan", "T-zero", "T-inf", "lengths"],
)
def test_fit_power_law_rejects_an_undetermined_or_invalid_fit(maturities, psi):
    with pytest.raises(ValueError):
        rv.fit_power_law(maturities, psi)


def test_atm_skew_flags_flat_smiles():
    rep = rv.atm_skew(_synthetic_smile(0.0, -0.43), [0.5, 1.0, 2.0])
    assert rep.flagged.all()
    assert np.isnan(rep.exponent)
    with pytest.raises(ValueError):
        rv.atm_skew(_synthetic_smile(0.3, -0.43), [0.5, 1.0], bump=0.0)


def test_skew_report_needs_two_distinct_maturities():
    # one maturity (repeated, or left after flagging) fixes no slope: lstsq's
    # minimum-norm answer for the rank-1 design would be a made-up power law
    for mats, psi in (
        ([0.5, 0.5, 0.5], [1.0, 1.1, 1.2]),
        ([1.0, 1.0, 2.0], [1.0, 1.1, 0.0]),  # T = 2 flagged
    ):
        rep = rv.skew_report(mats, psi, 0.01, np.array(psi))
        assert np.isnan([rep.exponent, rep.intercept, rep.residual]).all()
    rep = rv.skew_report([1.0, 1.0, 2.0], [1.0, 1.0, 0.5], 0.01, np.ones(3))
    assert rep.exponent == pytest.approx(-1.0, abs=1e-12)


# ------------------------------------------------- helpers and two-factor


def test_helper_functions_frozen_at_one():
    I, J, K = rv.helper_functions(1.0)
    assert I == pytest.approx(0.6321205588285577, rel=1e-15)
    assert J == pytest.approx(0.36787944117144233, rel=1e-15)
    assert K == pytest.approx(0.26424111765711533, rel=1e-15)


def test_helper_functions_limits_and_continuity():
    I, J, K = rv.helper_functions(1e-9)
    assert abs(I - 1.0) < 1e-8
    assert abs(J - 0.5) < 1e-8
    assert abs(K - 0.5) < 1e-8
    # the series branch hands over smoothly to the direct branch at 0.05
    lo = np.array(rv.helper_functions(np.nextafter(0.05, 0)))
    hi = np.array(rv.helper_functions(0.05))
    np.testing.assert_allclose(lo, hi, rtol=1e-10)
    with pytest.raises(ValueError):
        rv.helper_functions(-0.1)


def test_two_factor_params_validation():
    ok = dict(
        omega=2.0, theta=0.3, kappa_X=8.0, kappa_Y=0.5,
        rho_SX=-0.7, rho_SY=-0.6, rho_XY=0.2,
    )
    rv.TwoFactorParams(**ok)
    for bad in (
        {"omega": 0.0},
        {"theta": 1.5},
        {"kappa_X": 0.4},       # violates kappa_X > kappa_Y
        {"rho_SX": -1.2},
        # rho combination forcing |chi| > 1: X, Y nearly parallel to spot
        # but anti-correlated with each other
        {"rho_SX": 0.95, "rho_SY": 0.95, "rho_XY": -0.5},
        {"rho_SX": 0.9, "rho_SY": -0.9, "rho_XY": 0.9},
        # at rho_SX = 1 only rho_XY = rho_SY is feasible
        {"rho_SX": 1.0, "rho_SY": -0.6, "rho_XY": 0.3},
    ):
        kw = {**ok, **bad}
        with pytest.raises(ValueError):
            rv.TwoFactorParams(**kw)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"kappa_X": 0.0}, "kappa_X must be positive, got 0.0"),
        ({"kappa_Y": 8.0}, "kappa_Y must lie in (0, kappa_X), got 8.0"),
        ({"omega": float("nan")}, "omega must be positive, got nan"),
        ({"rho_SY": -1.5}, "rho_SY must lie in [-1, 1], got -1.5"),
        (
            {"rho_SX": 0.9, "rho_SY": -0.9, "rho_XY": 0.9},
            "rho_XY must keep the (S, X, Y) correlation matrix positive "
            "semidefinite, got 0.9",
        ),
        ({"theta": 1.5}, "theta must lie in [0, 1], got 1.5"),
        # the first parameter outside its domain, in DOMAINS order
        (
            {"omega": -2.0, "kappa_Y": -0.5},
            "kappa_Y must lie in (0, kappa_X), got -0.5",
        ),
    ],
)
def test_two_factor_params_name_the_first_domain_broken(kw, message):
    ok = dict(
        omega=2.0, theta=0.3, kappa_X=8.0, kappa_Y=0.5,
        rho_SX=-0.7, rho_SY=-0.6, rho_XY=0.2,
    )
    with pytest.raises(ValueError) as err:
        rv.TwoFactorParams(**{**ok, **kw})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "rho_SX, rho_SY, rho_XY",
    [
        (-0.7, -0.6, 0.2),  # inside
        (0.8, 0.6, 0.0),  # chi = -1
        (1.0, -0.6, -0.6),  # rho_SX = 1: chi is 0/0
        (-0.5, 1.0, -0.5),  # rho_SY = 1
        (1.0, 1.0, 1.0),
    ],
)
def test_two_factor_loadings_reproduce_the_correlations(rho_SX, rho_SY, rho_XY):
    p = rv.TwoFactorParams(
        omega=2.0, theta=0.3, kappa_X=8.0, kappa_Y=0.5,
        rho_SX=rho_SX, rho_SY=rho_SY, rho_XY=rho_XY,
    )
    # omega_iX, omega_iY are (1 - theta) and theta times unit loading vectors
    # on the three Brownians, the first of which drives the spot
    ux, uy = p.omega_iX / (1 - p.theta), p.omega_iY / p.theta
    assert np.isfinite(p.chi) and np.isfinite(ux).all() and np.isfinite(uy).all()
    np.testing.assert_allclose([ux @ ux, uy @ uy], 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        [ux[0], uy[0], ux @ uy], [rho_SX, rho_SY, rho_XY], rtol=0, atol=1e-12
    )


FROZEN_2F = rv.TwoFactorParams(
    omega=2.0, theta=0.3, kappa_X=8.0, kappa_Y=0.5,
    rho_SX=-0.7, rho_SY=-0.6, rho_XY=0.2,
)


def test_two_factor_coeffs_frozen():
    c = rv.two_factor_coeffs(FROZEN_2F, 1.0, 0.026)
    assert c.c_xxi == pytest.approx(-0.001340741457942222, rel=1e-13)
    assert c.c_xixi == pytest.approx(0.00012831437060488844, rel=1e-13)
    assert c.c_mu == pytest.approx(6.956733168031241e-05, rel=1e-13)


def two_factor_factors(p):
    """The two-factor model as (speeds, loadings) of its exponential factors."""
    loadings = p.omega * p.alpha_theta * np.array([p.omega_iX, p.omega_iY])
    return [p.kappa_X, p.kappa_Y], loadings


def quad_factor_coeffs(speeds, loadings, T, xi0, eps=1e-11):
    """Nested quadrature of the definitional autocorrelation integrals.

    The forward-variance loading on the three driving Brownians is
    f_b(u-t) = sum_i loadings[i][b]*e^(-speeds[i](u-t)); only b=0 (the spot
    Brownian) enters the spot-vol covariances.
    """
    f = lambda b, s: sum(L[b] * np.exp(-k * s) for k, L in zip(speeds, loadings))
    c_xxi = xi0**1.5 * integrate.dblquad(
        lambda u, s: f(0, u - s), 0, T, lambda s: s, T, epsabs=eps, epsrel=eps
    )[0]

    def inner_sq(s):
        return sum(
            integrate.quad(lambda u: f(b, u - s), s, T, epsabs=eps, epsrel=eps)[0] ** 2
            for b in range(3)
        )

    c_xixi = xi0**2 * integrate.quad(inner_sq, 0, T, epsabs=eps, epsrel=eps)[0]

    def mu_inner(u, s):
        tail = integrate.quad(lambda r: f(0, r - u), u, T, epsabs=eps, epsrel=eps)[0]
        head = integrate.quad(lambda r: f(0, u - r), s, u, epsabs=eps, epsrel=eps)[0]
        return f(0, u - s) * (0.5 * tail + head)

    c_mu = xi0**2 * integrate.dblquad(
        mu_inner, 0, T, lambda s: s, T, epsabs=eps, epsrel=eps
    )[0]
    return c_xxi, c_xixi, c_mu


def test_two_factor_coeffs_match_definitional_quadrature():
    got = rv.two_factor_coeffs(FROZEN_2F, 1.0, 0.026)
    want = quad_factor_coeffs(*two_factor_factors(FROZEN_2F), 1.0, 0.026)
    for g, w in zip((got.c_xxi, got.c_xixi, got.c_mu), want):
        assert g == pytest.approx(w, rel=1e-10)


def test_three_factor_coeffs_match_definitional_quadrature():
    # a slow, a middle and a fast factor, each with its own loading on the
    # spot Brownian and on the two others
    speeds = [0.3, 2.0, 9.0]
    loadings = [[-0.4, 0.5, 0.1], [0.3, -0.2, 0.6], [-0.8, 0.4, -0.3]]
    got = _factor_coeffs(speeds, loadings, 0.7, 0.03)
    want = quad_factor_coeffs(speeds, loadings, 0.7, 0.03)
    for g, w in zip((got.c_xxi, got.c_xixi, got.c_mu), want):
        assert g == pytest.approx(w, rel=1e-10)


def test_two_factor_nearly_equal_speeds_stay_finite():
    # the C1_mu cross term divides by z_X - z_Y; the interpolated branch
    # must agree with a slightly-separated evaluation
    base = dict(omega=1.5, theta=0.4, rho_SX=-0.6, rho_SY=-0.5, rho_XY=0.3)
    close = rv.TwoFactorParams(kappa_X=2.0 * (1 + 1e-9), kappa_Y=2.0, **base)
    apart = rv.TwoFactorParams(kappa_X=2.0 * (1 + 1e-4), kappa_Y=2.0, **base)
    a = rv.two_factor_coeffs(close, 1.0, 0.026)
    b = rv.two_factor_coeffs(apart, 1.0, 0.026)
    for x, y in zip((a.c_xxi, a.c_xixi, a.c_mu), (b.c_xxi, b.c_xixi, b.c_mu)):
        assert np.isfinite(x)
        assert x == pytest.approx(y, rel=1e-3)


def test_two_factor_skew_shape():
    assert rv.two_factor_skew_shape(FROZEN_2F, 0.5) == pytest.approx(
        -0.21522930523886286, rel=1e-13
    )
    # T -> 0 limit: J(z) -> 1/2 termwise
    p = FROZEN_2F
    lim = (p.omega * p.alpha_theta / 4.0) * (p.omega_iX[0] + p.omega_iY[0])
    assert rv.two_factor_skew_shape(p, 1e-10) == pytest.approx(lim, rel=1e-6)


# ------------------------------------------------------------- expansions


def quad_rbergomi_coeffs(params, T, n_quad=200):
    """The rough model's functionals by Gauss-Legendre quadrature.

    The kernel singularity of the inner u-integrals is removed by the graded
    substitution u = s + (T-s)*q^(1/(alpha+1)); a reference for the closed
    forms of rbergomi_expansion_coeffs.
    """
    a, rho, sig, xi0 = params.alpha, params.rho, params.sigma, params.xi0
    q, wq = np.polynomial.legendre.leggauss(int(n_quad))
    q = 0.5 * (q + 1.0)
    wq = 0.5 * wq
    s = T * q
    ws = T * wq
    # inner F(s) = int_s^T (u-s)^alpha du, exact under the graded substitution
    F = (T - s) ** (a + 1) / (a + 1)
    c_xxi = rho * sig * xi0**1.5 * float(np.sum(ws * F))
    c_xixi = sig**2 * xi0**2 * float(np.sum(ws * F**2))
    # C^mu inner integrand over u in (s, T]:
    #   (u-s)^alpha * [ (T-u)^(alpha+1)/(2(alpha+1)) + (u-s)^(alpha+1)/(alpha+1) ]
    # after u = s + (T-s) q^(1/(a+1)):  du*(u-s)^alpha = (T-s)^(a+1)/(a+1) dq
    inner = np.empty(n_quad)
    for i in range(n_quad):
        si = s[i]
        u = si + (T - si) * q ** (1.0 / (a + 1))
        g = (T - u) ** (a + 1) / (2 * (a + 1)) + (u - si) ** (a + 1) / (a + 1)
        inner[i] = (T - si) ** (a + 1) / (a + 1) * float(np.sum(wq * g))
    c_mu = rho**2 * sig**2 * xi0**2 * float(np.sum(ws * inner))
    return c_xxi, c_xixi, c_mu


def test_rbergomi_coeffs_frozen_and_quadrature_consistent(table1):
    c = rv.rbergomi_expansion_coeffs(table1, 0.5)
    assert c.c_xxi == pytest.approx(-0.0010095516639106585, rel=1e-12)
    assert c.c_xixi == pytest.approx(0.0001114844403676221, rel=1e-12)
    assert c.c_mu == pytest.approx(7.869045401044722e-05, rel=1e-12)
    # the 200-point quadrature the closed forms replaced is off by < 1e-8
    for g, w in zip((c.c_xxi, c.c_xixi, c.c_mu), quad_rbergomi_coeffs(table1, 0.5)):
        assert g == pytest.approx(w, rel=1e-8)


@pytest.mark.parametrize("H", [0.02, 0.07, 0.2, 0.45])
def test_rbergomi_closed_forms_match_quadrature(H):
    params = rv.ModelParams(xi0=0.03, eta=1.5, H=H, rho=-0.7)
    for T in (0.05, 1.0, 2.5):
        c = rv.rbergomi_expansion_coeffs(params, T)
        want = quad_rbergomi_coeffs(params, T, n_quad=800)
        for g, w in zip((c.c_xxi, c.c_xixi, c.c_mu), want):
            assert g == pytest.approx(w, rel=1e-9), f"H={H}, T={T}"


def sigma_bs_expansion(coeffs, v, T, k):
    """Second-order implied vol sigma_BS(k) = sigma_ATM + S_T*k + C_T*k^2."""
    sigma_atm, s_t, c_t = rv.expansion_terms(coeffs, v, T)
    k = np.asarray(k, dtype=float)
    out = sigma_atm + s_t * k + c_t * k**2
    return float(out) if out.ndim == 0 else out


def test_expansion_terms_trivial_and_shape():
    flat = rv.ExpansionCoeffs(c_xxi=0.0, c_xixi=0.0, c_mu=0.0)
    v, T = 0.026, 1.3
    atm, S, C = rv.expansion_terms(flat, v, T)
    assert atm == pytest.approx(np.sqrt(v / T), rel=1e-15)
    assert S == 0.0 and C == 0.0
    with pytest.raises(ValueError):
        rv.expansion_terms(flat, 0.0, T)
    # polynomial evaluation: sigma(k) - sigma(0) == S*k + C*k^2 exactly
    c = rv.ExpansionCoeffs(c_xxi=-1e-3, c_xixi=2e-4, c_mu=1e-4)
    atm, S, C = rv.expansion_terms(c, v, T)
    k = np.array([-0.2, -0.05, 0.0, 0.1])
    vols = sigma_bs_expansion(c, v, T, k)
    np.testing.assert_allclose(vols, atm + S * k + C * k * k, rtol=1e-14)
    assert sigma_bs_expansion(c, v, T, 0.0) == pytest.approx(atm)


def test_first_order_limit_matches_linear_display(table1):
    # with only C^Xxi and a small vol-of-vol scale eps, which scales the
    # coefficients as eps*C^Xxi, eps^2*C^xixi, eps^2*C^mu, the smile
    # collapses to sigma_VS * (1 + eps*C^Xxi*(1/(4v) + k/(2v^2)))
    T = 1.0
    v = table1.xi0 * T
    c_xxi = rv.rbergomi_expansion_coeffs(table1, T).c_xxi
    eps = 1e-6
    c = rv.ExpansionCoeffs(c_xxi=eps * c_xxi, c_xixi=0.0, c_mu=0.0)
    sig_vs = np.sqrt(v / T)
    for k in (-0.1, 0.0, 0.2):
        got = (sigma_bs_expansion(c, v, T, k) - sig_vs) / eps
        want = sig_vs * c_xxi * (1 / (4 * v) + k / (2 * v**2))
        assert got == pytest.approx(want, rel=1e-4), f"k={k}"


def test_atm_skew_of_expansion_reproduces_the_analytic_slope(table1):
    # isolates the finite-difference machinery from MC noise
    mats = [0.25, 0.5, 1.0, 2.0]

    def smile_fn(T, strikes):
        c = rv.rbergomi_expansion_coeffs(table1, T)
        strikes = np.asarray(strikes, dtype=float)
        vols = sigma_bs_expansion(c, table1.xi0 * T, T, strikes)
        return rv.SmileResult(
            maturity=T,
            strikes=strikes,
            vols=np.asarray(vols),
            prices=np.zeros_like(strikes),
            price_stderr=np.zeros_like(strikes),
            n_paths=0,
        )

    rep = rv.atm_skew(smile_fn, mats, bump=0.01)
    for i, T in enumerate(mats):
        c = rv.rbergomi_expansion_coeffs(table1, T)
        _, S_T, _ = rv.expansion_terms(c, table1.xi0 * T, T)
        assert rep.psi[i] == pytest.approx(abs(S_T), rel=1e-6), f"T={T}"


_TABLE1 = rv.ModelParams(xi0=0.026, eta=1.9, H=0.07, rho=-0.9)
_COEFFS = rv.ExpansionCoeffs(c_xxi=-1e-3, c_xixi=2e-4, c_mu=1e-4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rv.rbergomi_expansion_coeffs(_TABLE1, NAN),
        lambda: rv.two_factor_coeffs(FROZEN_2F, NAN, 0.026),
        lambda: rv.two_factor_coeffs(FROZEN_2F, 0.0, 0.026),
        lambda: rv.two_factor_coeffs(FROZEN_2F, 1.0, -1.0),
        lambda: rv.expansion_terms(_COEFFS, NAN, 1.0),
        lambda: rv.expansion_terms(_COEFFS, 0.026, 0.0),
        lambda: sigma_bs_expansion(_COEFFS, NAN, 1.0, 0.1),
        lambda: sigma_bs_expansion(_COEFFS, 0.026, 0.0, 0.1),
        lambda: rv.two_factor_skew_shape(FROZEN_2F, NAN),
        lambda: rv.helper_functions(NAN),
        lambda: rv.helper_functions(INF),
        lambda: rv.bs_vega(1.0, 1.0, 1.0, 0.0),
        lambda: rv.bs_vega(1.0, -1.0, 1.0, 0.2),
    ],
    ids=[
        "rbergomi-T-nan", "2f-T-nan", "2f-T-zero", "2f-xi0-negative",
        "terms-v-nan", "terms-T-zero", "sigma-v-nan", "sigma-T-zero",
        "skew-shape-T-nan", "helpers-nan", "helpers-inf",
        "vega-vol-zero", "vega-K-negative",
    ],
)
def test_expansion_entry_points_reject_bad_input(call):
    with pytest.raises(ValueError):
        call()
