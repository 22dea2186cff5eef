"""Kernel constructions against frozen values and an incomplete-gamma oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma, gammainc

import roughvol as rv

H = 0.07
T = 1.0


def l2_error_incomplete_gamma(k, H, T):
    """Exact ||K^n - c*tau^(H-1/2)||_{L2(0,T)}, c = sqrt(2H), an independent oracle.

    Expanding the square: the K^n x K^n term integrates in closed form, the
    cross term uses int_0^T e^(-x*tau) tau^(H-1/2) dtau =
    x^(-(H+1/2)) * gamma_lower(H+1/2, x*T), and the power-power term is
    T^(2H)/(2H).
    """
    c = np.sqrt(2 * H)
    w, x = k.weights, k.speeds
    xs = np.add.outer(x, x)
    quad = (np.multiply.outer(w, w) / xs * (1 - np.exp(-xs * T))).sum()
    a = H + 0.5
    cross = (w * x ** (-a) * gammainc(a, x * T)).sum() * gamma(a)
    return float(np.sqrt(quad - 2 * c * cross + c * c * T ** (2 * H) / (2 * H)))


def test_math_gamma_matches_scipy_on_the_node_arguments():
    # the constructions take Gamma(1/2 - H) for H in (0, 1/2)
    for beta in 0.5 - np.linspace(0.005, 0.495, 99):
        assert math.gamma(beta) == pytest.approx(gamma(beta), rel=1e-14, abs=0)


def test_exp_kernel_validation():
    with pytest.raises(ValueError):
        rv.ExpKernel(weights=[1.0, -1.0], speeds=[1.0, 2.0], H=H, T=T)
    with pytest.raises(ValueError):
        rv.ExpKernel(weights=[1.0, 1.0], speeds=[2.0, 1.0], H=H, T=T)
    with pytest.raises(ValueError):
        rv.ExpKernel(weights=[1.0, 1.0], speeds=[1.0, 1.0], H=H, T=T)
    with pytest.raises(ValueError):
        rv.ExpKernel(weights=[1.0], speeds=[1.0, 2.0], H=H, T=T)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("H", math.nan, "H must lie"),
        ("H", 0.5, "H must lie"),
        ("T", math.nan, "T must be positive and finite"),
        ("T", -1.0, "T must be positive and finite"),
        ("T", math.inf, "T must be positive and finite"),
        ("weights", [math.inf], "positive and finite"),
        ("speeds", [math.inf], "positive and finite"),
    ],
)
def test_exp_kernel_rejects_non_finite_and_out_of_range_fields(field, value, message):
    # a NaN H used to reach make_hybrid_plan, whose kernel weights, and so
    # every simulated path, then came out NaN
    fields = dict(weights=[1.0], speeds=[1.0], H=H, T=T)
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        rv.ExpKernel(**fields)


def test_exp_kernel_evaluates_the_sum():
    k = rv.ExpKernel(weights=[0.5, 2.0], speeds=[1.0, 3.0], H=H, T=T)
    assert k.n == 2
    tau = np.array([0.0, 0.5, 1.0])
    want = 0.5 * np.exp(-tau) + 2.0 * np.exp(-3.0 * tau)
    np.testing.assert_allclose(k(tau), want, rtol=1e-15)
    assert float(k(0.0)) == pytest.approx(2.5)


@pytest.mark.parametrize(
    "method, n", [("closed-form", 3), ("closed-form", 10), ("least-squares", 10)]
)
def test_l2_error_matches_incomplete_gamma_oracle(method, n):
    # both constructions approximate the one target sqrt(2H) * tau^(H-1/2)
    if method == "closed-form":
        k = rv.closed_form_kernel(n, H, T)
    else:
        k = rv.fit_kernel_ls(H, T, 100, n)
    got = rv.kernel_l2_error(k, H, T)
    want = l2_error_incomplete_gamma(k, H, T)
    assert got == pytest.approx(want, rel=1e-10)


def test_l2_error_validation():
    # NaN fails every comparison, so each range check must pass only inside it
    k = rv.closed_form_kernel(3, H, T)
    with pytest.raises(ValueError, match="H must lie"):
        rv.kernel_l2_error(k, math.nan, T)
    for bad_T in (math.nan, -1.0):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            rv.kernel_l2_error(k, H, bad_T)


def test_certified_bound_holds_and_error_decreases():
    errs = []
    for n in (5, 10, 25, 50):
        kern = rv.closed_form_kernel(n, H, T)
        assert kern.n == n
        assert np.all(np.diff(kern.speeds) > 0)
        err = rv.kernel_l2_error(kern, H, T)
        assert err <= rv.closed_form_bound(n, H, T)
        errs.append(err)
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_error_decay_rate_matches_bound_exponent():
    ns = np.array([5, 10, 25, 50, 100])
    errs = [rv.kernel_l2_error(rv.closed_form_kernel(int(n), H, T), H, T) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope == pytest.approx(-0.8 * H, abs=0.03)


def test_closed_form_validation():
    # the kernel and its bound check the same (n, H, T)
    for build in (rv.closed_form_kernel, rv.closed_form_bound):
        with pytest.raises(ValueError):
            build(0, H, T)
        with pytest.raises(ValueError):
            build(5, 0.5, T)
        with pytest.raises(ValueError):
            build(5, H, 0.0)
        with pytest.raises(ValueError, match="n must be an integer"):
            build(2.5, H, T)
        with pytest.raises(ValueError, match="T must be positive and finite"):
            build(3, H, math.inf)


def test_fit_is_deterministic_and_tight():
    a = rv.fit_kernel_ls(H, T, 100, 10)
    b = rv.fit_kernel_ls(H, T, 100, 10)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.speeds, b.speeds)
    tau = np.arange(1, 100) / 100.0
    resid = a(tau) - np.sqrt(2 * H) * tau ** (H - 0.5)
    rmse = np.sqrt(np.mean(resid**2))
    assert rmse < 2e-6  # measured 1.12e-6 from the deterministic recipe


def test_fit_error_decreases_with_terms():
    tau = np.arange(1, 100) / 100.0
    target = np.sqrt(2 * H) * tau ** (H - 0.5)
    rmses = []
    for n in (5, 10, 15):
        k = rv.fit_kernel_ls(H, T, 100, n)
        rmses.append(np.sqrt(np.mean((k(tau) - target) ** 2)))
    assert rmses[0] > rmses[1] > rmses[2]


def test_fit_improves_on_its_initialization():
    init = rv.closed_form_kernel(8, H, T)
    fitted = rv.fit_kernel_ls(H, T, 100, 8)
    assert rv.kernel_l2_error(fitted, H, T) < rv.kernel_l2_error(init, H, T)


@pytest.mark.parametrize(
    "H_, T_, N_grid, n", [(0.02, 1.0, 200, 4), (0.07, 1.0, 200, 4), (0.07, 0.4, 100, 4)]
)
def test_fit_ends_no_worse_than_its_start(H_, T_, N_grid, n):
    # each fit lands on a degenerate optimum: a huge weight on a speed far
    # too fast for the grid to see, which must stay off the grid
    tau = np.arange(1, N_grid) * (T_ / N_grid)
    target = np.sqrt(2 * H_) * tau ** (H_ - 0.5)
    init = rv.closed_form_kernel(n, H_, T_)
    start = rv.ExpKernel(init.weights / np.sqrt(2 * H_), init.speeds, H_, T_)
    fitted = rv.fit_kernel_ls(H_, T_, N_grid, n)

    def rmse(k):
        return np.sqrt(np.mean((k(tau) - target) ** 2))

    assert rmse(fitted) <= rmse(start)


def test_fit_stays_tame():
    # degenerate optima show up as huge weights on speeds too fast for the
    # grid to see (exp(-x * tau_1) below 1e-12); the deterministic
    # closed-form start plus identity damping avoids them
    k = rv.fit_kernel_ls(H, T, 100, 20)
    assert k.weights.max() < 5.0
    fastest_seen = np.log(1e12) / (T / 100)
    assert k.speeds.max() <= fastest_seen * (1 + 1e-12)


def test_fit_validation():
    with pytest.raises(ValueError):
        rv.fit_kernel_ls(H, T, 2, 5)
    with pytest.raises(ValueError):
        rv.fit_kernel_ls(H, T, 100, 0)
    with pytest.raises(ValueError, match="N_grid must be an integer"):
        rv.fit_kernel_ls(H, T, 100.5, 3)
    with pytest.raises(ValueError, match="n must be an integer"):
        rv.fit_kernel_ls(H, T, 100, 2.5)
    # rejected before the fit grid is built, where a negative T would warn
    with pytest.raises(ValueError, match="T must be positive and finite"):
        rv.fit_kernel_ls(H, -1.0, 100, 3)


@pytest.mark.parametrize("args", [(0.07, 1.0, 150, 3), (0.07, 0.4, 100, 4)])
def test_fit_rejects_an_overflowing_trial_step_silently(args):
    # each fit tries a step whose weights overflow exp(); its RMSE is not
    # finite, so the step is rejected, and no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = rv.fit_kernel_ls(*args)
    assert np.isfinite(k.weights).all() and np.isfinite(k.speeds).all()


def test_fit_is_pinned():
    # the fit starts from the unscaled closed-form nodes; started from the
    # sqrt(2H)-scaled ones, Gauss-Newton lands in another optimum
    k = rv.fit_kernel_ls(0.07, 1.0, 100, 25)
    weights = [
        0.2387651455, 0.1466543492, 0.0932860065, 0.0694026274, 0.0635010815,
        0.0739740225, 0.0599001541, 0.0931119542, 0.0641772708, 0.1153046004,
        0.1220975356, 0.0775563944, 0.1692481010, 0.1248066995, 0.2137579865,
        0.4128043296, 0.6145746087, 0.6877597248, 0.2415379460, 0.4225487850,
        0.7017266209, 0.1474296745, 0.7396702613, 0.1331266200, 0.1508600783,
    ]
    speeds = [
        6.3511016074e-02, 5.1970418397e-01, 1.0297710000e+00, 1.7777533751e+00,
        1.9728544826e+00, 2.6714075888e+00, 3.1918206811e+00, 4.7252294267e+00,
        4.9790117736e+00, 6.6827248880e+00, 9.0492910683e+00, 1.0156727820e+01,
        1.4534744939e+01, 1.6188624465e+01, 2.2825209521e+01, 3.3463744216e+01,
        5.8641784587e+01, 1.0344752701e+02, 1.5432712340e+02, 1.6289301680e+02,
        2.7023787384e+02, 2.7024633285e+02, 2.9713067623e+02, 6.3131906000e+02,
        1.0320462522e+03,
    ]
    np.testing.assert_allclose(k.weights, weights, rtol=1e-6)
    np.testing.assert_allclose(k.speeds, speeds, rtol=1e-6)
