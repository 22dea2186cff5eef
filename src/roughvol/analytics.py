"""Implied-vol analytics: BS pricing, MC smiles, ATM skew, vol expansions.

The second-order implied-vol expansion sigma_BS(k, T) = sigma_ATM + S_T*k +
C_T*k^2 (Bergomi & Guyon 2012) is driven by three autocorrelation
functionals (C^Xxi, C^xixi, C^mu), all in closed form here:

* for the rough model every inner integral is a power of (T - s), so the
  three are powers of T, one of them with a Beta function;
* for forward variance driven by exponential factors (the classical
  two-factor model has two) they are sums of the helper functions I, J, K
  over factors and factor pairs.

Two of the two-factor displays circulating in the literature contain
typos (an omitted square on the vol-of-vol in C^xixi, a wrong
denominator/cross term in the C^mu loadings); the forms implemented here
were validated term-by-term against nested adaptive quadrature of the
definitional integrals (agreement ~1e-14 relative), and the quadrature
cross-check is kept as a test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sim_core import ModelParams, _check_domains, _correlation, _number, _positive

__all__ = [
    "DEFAULT_STRIKES",
    "SmileResult",
    "SkewReport",
    "TwoFactorParams",
    "ExpansionCoeffs",
    "bs_price",
    "bs_vega",
    "implied_vol",
    "mc_smile",
    "smile_rmse",
    "atm_skew",
    "skew_report",
    "fit_power_law",
    "helper_functions",
    "two_factor_coeffs",
    "two_factor_skew_shape",
    "rbergomi_expansion_coeffs",
    "expansion_terms",
]

DEFAULT_STRIKES = np.linspace(-0.2, 0.2, 21)


@dataclass(frozen=True, eq=False)
class SmileResult:
    """One maturity's smile: log-moneyness grid, implied vols, MC stderr.

    vols[i] is NaN when strike i was skipped (reason recorded in
    ``skipped`` as (strike, reason) pairs).
    """

    maturity: float
    strikes: np.ndarray
    vols: np.ndarray
    prices: np.ndarray
    price_stderr: np.ndarray
    n_paths: int
    skipped: tuple = ()


@dataclass(frozen=True, eq=False)
class SkewReport:
    """ATM-skew term structure and its fitted power law.

    psi[i] is the central-difference skew at maturities[i]; flagged[i]
    marks estimates that were zero or undefined and excluded from the
    log-log fit.  richardson holds the half-bump Richardson extrapolants
    as a bump-size diagnostic.
    """

    maturities: np.ndarray
    psi: np.ndarray
    bump: float
    exponent: float
    intercept: float
    residual: float
    flagged: np.ndarray
    richardson: np.ndarray


def _below_kappa_X(v, params) -> str | None:
    kx = params["kappa_X"] if _number(params["kappa_X"]) else math.inf
    return None if 0 < v < kx else "must lie in (0, kappa_X)"


def _feasible_rho_XY(v, params) -> str | None:
    if not abs(v) <= 1:
        return "must lie in [-1, 1]"
    sx, sy = params["rho_SX"], params["rho_SY"]
    if all(_number(r) and abs(r) <= 1 for r in (sx, sy)) and (
        1 - sx * sx - sy * sy - v * v + 2 * sx * sy * v < -1e-12
    ):
        return "must keep the (S, X, Y) correlation matrix positive semidefinite"


@dataclass(frozen=True)
class TwoFactorParams:
    """Classical two-factor model parameters and derived loadings.

    omega: vol-of-vol; theta: mixing weight in [0, 1]; kappa_X > kappa_Y > 0
    mean-reversion speeds; rho_SX, rho_SY spot-factor correlations; rho_XY
    factor-factor correlation, with a positive semidefinite (S, X, Y)
    correlation matrix.  DOMAINS holds the rules, as in ModelParams.
    Derived: chi (residual correlation of the factor drivers), the
    normalizer alpha_theta, and the loading vectors omega_iX, omega_iY of
    the three-Brownian decomposition.
    """

    omega: float
    theta: float
    kappa_X: float
    kappa_Y: float
    rho_SX: float
    rho_SY: float
    rho_XY: float
    chi: float = field(init=False)
    alpha_theta: float = field(init=False)
    omega_iX: np.ndarray = field(init=False)
    omega_iY: np.ndarray = field(init=False)
    DOMAINS = {
        "kappa_X": _positive,
        "kappa_Y": _below_kappa_X,
        "omega": _positive,
        "rho_SX": _correlation,
        "rho_SY": _correlation,
        "rho_XY": _feasible_rho_XY,
        "theta": lambda v, _: None if 0 <= v <= 1 else "must lie in [0, 1]",
    }

    def __post_init__(self):
        _check_domains(self)
        sx, sy, xy = self.rho_SX, self.rho_SY, self.rho_XY
        denom = np.sqrt(1 - sx**2) * np.sqrt(1 - sy**2)
        # at |rho_SX| = 1 or |rho_SY| = 1 the loadings do not depend on chi
        chi = float(np.clip((xy - sx * sy) / denom, -1.0, 1.0)) if denom else 0.0
        t = self.theta
        a = ((1 - t) ** 2 + 2 * self.rho_XY * t * (1 - t) + t**2) ** (-0.5)
        wx = (1 - t) * np.array([self.rho_SX, np.sqrt(1 - self.rho_SX**2), 0.0])
        wy = t * np.array(
            [
                self.rho_SY,
                chi * np.sqrt(1 - self.rho_SY**2),
                np.sqrt((1 - chi**2) * (1 - self.rho_SY**2)),
            ]
        )
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "alpha_theta", float(a))
        object.__setattr__(self, "omega_iX", wx)
        object.__setattr__(self, "omega_iY", wy)


@dataclass(frozen=True)
class ExpansionCoeffs:
    """The three autocorrelation functionals of the vol expansion."""

    c_xxi: float
    c_xixi: float
    c_mu: float


def _require_positive(fn: str, **values) -> None:
    """Raise ValueError unless every value lies in (0, inf); NaN fails too."""
    for name, x in values.items():
        if not (0 < x < math.inf):
            raise ValueError(f"{fn} requires {name} positive and finite, got {x}")


def _norm_cdf(x: float) -> float:
    """Standard normal CDF of a scalar; erfc keeps the lower tail accurate."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_price(S0: float, K: float, T: float, vol: float) -> float:
    """Black-Scholes call, zero rates and dividends."""
    if not (
        0 < S0 < np.inf and 0 < K < np.inf and 0 < T < np.inf and 0 < vol < np.inf
    ):
        raise ValueError(
            f"bs_price requires S0, K, T, vol all positive and finite, "
            f"got {S0}, {K}, {T}, {vol}"
        )
    sq = vol * np.sqrt(T)
    d1 = (np.log(S0 / K) + 0.5 * vol * vol * T) / sq
    return float(S0 * _norm_cdf(d1) - K * _norm_cdf(d1 - sq))


def bs_vega(S0: float, K: float, T: float, vol: float) -> float:
    """d bs_price / d vol: turns a price error into a vol error."""
    _require_positive("bs_vega", S0=S0, K=K, T=T, vol=vol)
    sq = vol * np.sqrt(T)
    d1 = (np.log(S0 / K) + 0.5 * vol * vol * T) / sq
    return float(S0 * np.exp(-0.5 * d1 * d1) / np.sqrt(2 * np.pi) * np.sqrt(T))


def implied_vol(price: float, S0: float, K: float, T: float) -> float:
    """Invert bs_price by bisection on a bracket [1e-9, hi], hi doubled from 1.

    Raises ValueError naming the violated bound when price is at or below
    intrinsic max(S0-K, 0), or at or above S0.
    """
    _require_positive("implied_vol", S0=S0, K=K, T=T)
    if not np.isfinite(price):
        raise ValueError(f"price is not finite: {price}")
    lower = max(S0 - K, 0.0)
    if price <= lower:
        raise ValueError(
            f"price {price} is at or below the lower no-arbitrage bound "
            f"(intrinsic value {lower})"
        )
    if price >= S0:
        raise ValueError(
            f"price {price} is at or above the upper no-arbitrage bound (S0 = {S0})"
        )
    lo, hi = 1e-9, 1.0
    # ends: for price < S0, bs_price reaches S0 exactly in floating point
    while bs_price(S0, K, T, hi) < price:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bs_price(S0, K, T, mid) < price:
            lo = mid
        else:
            hi = mid
    # 80 halvings take a bracket no wider than 2^10 below 1e-21
    return float(0.5 * (lo + hi))


def mc_smile(
    log_price_terminal: np.ndarray,
    strikes: np.ndarray = DEFAULT_STRIKES,
    T: float = 1.0,
) -> SmileResult:
    """Smile from terminal log-prices (S0 = 1, zero rates), T positive and finite.

    Per log-moneyness strike k: mean and stderr of (S_T - e^k)^+, then
    implied_vol of the mean.  The stderr comes from the means of the row
    pairs (2j, 2j+1), which sim_core draws as antithetic pairs: over the
    n // 2 whole pairs, the pair means' sample variance s^2 estimates half
    a row's variance when the rows are independent, and the variance of a
    pair's mean when they are not, so the stderr is sqrt(2*s^2/n).  An odd
    n's last row enters the price but not s^2; with fewer than 2 pairs the
    stderr is NaN.  A strike whose MC price falls outside the no-arbitrage
    bounds (e.g. every payoff zero) is skipped: its vol is NaN and a
    (strike, reason) entry is appended to the result's skipped list.
    log_price_terminal must be non-empty, 1-D (one value per path: a path
    matrix's last column, not the matrix) and finite, or a ValueError names
    it.
    """
    _require_positive("mc_smile", T=T)
    strikes = np.asarray(strikes, dtype=float)
    x = np.asarray(log_price_terminal, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
        raise ValueError(
            "mc_smile: log_price_terminal must be a non-empty 1-D array of finite "
            f"values, got shape {x.shape}"
        )
    S = np.exp(x)
    n = S.size
    pairs = n // 2
    vols = np.full(strikes.size, np.nan)
    prices = np.empty(strikes.size)
    errs = np.empty(strikes.size)
    skipped = []
    for i, k in enumerate(strikes):
        payoff = np.maximum(S - np.exp(k), 0.0)
        prices[i] = float(payoff.mean())
        pair_means = payoff[: 2 * pairs].reshape(pairs, 2).mean(axis=1)
        errs[i] = np.sqrt(2.0 * pair_means.var(ddof=1) / n) if pairs >= 2 else np.nan
        try:
            vols[i] = implied_vol(prices[i], 1.0, float(np.exp(k)), T)
        except ValueError as e:
            skipped.append((float(k), str(e)))
    return SmileResult(
        maturity=float(T),
        strikes=strikes,
        vols=vols,
        prices=prices,
        price_stderr=errs,
        n_paths=n,
        skipped=tuple(skipped),
    )


def smile_rmse(a: SmileResult, b: SmileResult) -> float:
    """Root-mean-square implied-vol difference on a shared strike grid.

    Requires identical grids and maturity.  Strikes skipped in either
    smile are excluded from the mean.
    """
    if a.maturity != b.maturity:
        raise ValueError(
            f"maturity mismatch: {a.maturity} vs {b.maturity}"
        )
    if a.strikes.shape != b.strikes.shape or not np.array_equal(a.strikes, b.strikes):
        raise ValueError("smile_rmse requires identical strike grids")
    ok = np.isfinite(a.vols) & np.isfinite(b.vols)
    if not ok.any():
        raise ValueError("no strike survived in both smiles")
    return float(np.sqrt(np.mean((a.vols[ok] - b.vols[ok]) ** 2)))


def _distinct(T: np.ndarray) -> bool:
    """Whether the 1-d T holds at least 2 distinct values (not via np.unique,
    which imports numpy.ma)."""
    return bool(T.size) and bool(np.any(T != T[0]))


def fit_power_law(maturities, psi) -> tuple[float, float, float]:
    """Least-squares fit of log psi = intercept + exponent * log T.

    Returns (intercept, exponent, residual), where residual is the RMS misfit
    in log psi.  Raises ValueError unless maturities and psi are 1-d of equal
    length, every value is positive and finite, and at least 2 maturities
    are distinct (through one maturity the slope is not determined).
    """
    T = np.asarray(maturities, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if T.ndim != 1 or T.shape != psi.shape:
        raise ValueError(
            f"maturities and psi must be 1-d of equal length: {T.shape}, {psi.shape}"
        )
    if not np.all((0 < T) & (T < np.inf) & (0 < psi) & (psi < np.inf)):
        raise ValueError("every maturity and psi must be positive and finite")
    if not _distinct(T):
        raise ValueError("fit_power_law needs at least 2 distinct maturities")
    log_T = np.log(T)
    log_psi = np.log(psi)
    A = np.vstack([np.ones(log_T.size), log_T]).T
    coef, *_ = np.linalg.lstsq(A, log_psi, rcond=None)
    residual = float(np.sqrt(np.mean((A @ coef - log_psi) ** 2)))
    return float(coef[0]), float(coef[1]), residual


def atm_skew(smile_fn, maturities, bump: float = 0.01) -> SkewReport:
    """ATM skew per maturity by CRN central difference, plus a power-law fit.

    smile_fn(T, strikes) -> SmileResult must price all requested strikes
    off one set of paths (common random numbers); atm_skew requests the
    four strikes (-dk, -dk/2, +dk/2, +dk) in a single call so the full- and
    half-bump estimates share noise.  psi(T) = |sigma(+dk) - sigma(-dk)| /
    (2 dk); the half-bump Richardson extrapolant (4*psi_half - psi)/3 is
    reported as a bump-size diagnostic.  Maturities with zero or undefined
    psi are flagged and excluded from the least-squares fit of log psi on
    log T.
    """
    maturities = np.asarray(maturities, dtype=float)
    dk = float(bump)
    if not (0 < dk < np.inf):
        raise ValueError(f"bump must be positive and finite, got {bump}")
    if not np.all((0 < maturities) & (maturities < np.inf)):
        raise ValueError(f"maturities must be positive and finite, got {maturities}")
    probe = np.array([-dk, -dk / 2, dk / 2, dk])
    psi = np.empty(maturities.size)
    rich = np.empty(maturities.size)
    for i, T in enumerate(maturities):
        sm = smile_fn(float(T), probe)
        v = sm.vols
        psi[i] = abs(v[3] - v[0]) / (2 * dk)
        half = abs(v[2] - v[1]) / dk
        rich[i] = (4 * half - psi[i]) / 3.0
    return skew_report(maturities, psi, dk, rich)


def skew_report(maturities, psi, bump: float, richardson) -> SkewReport:
    """The SkewReport of psi over maturities, with its power law fitted.

    psi that is not finite or <= 0 is flagged and left out of the
    least-squares fit of log psi on log T; with fewer than 2 distinct
    maturities left (a line through one T is not determined), exponent,
    intercept and residual are NaN.
    """
    maturities = np.asarray(maturities, dtype=float)
    psi = np.asarray(psi, dtype=float)
    ok = np.isfinite(psi) & (psi > 0)
    if _distinct(maturities[ok]):
        intercept, exponent, residual = fit_power_law(maturities[ok], psi[ok])
    else:
        intercept = exponent = residual = float("nan")
    return SkewReport(
        maturities=maturities,
        psi=psi,
        bump=bump,
        exponent=exponent,
        intercept=intercept,
        residual=residual,
        flagged=~ok,
        richardson=richardson,
    )


def helper_functions(z: float):
    """The exponential moment helpers (I, J, K).

    I(z) = (1-e^-z)/z, J(z) = (z-1+e^-z)/z^2, K(z) = (1-e^-z-z e^-z)/z^2.
    For z < 0.05 sixth-order Taylor series are used (the direct forms lose
    precision to cancellation there); limits at z = 0 are I=1, J=1/2,
    K=1/2.
    """
    if not (0 <= z < np.inf):
        raise ValueError(f"helper_functions requires 0 <= z < inf, got {z}")
    if z < 0.05:
        # sixth-order series; the direct forms below lose ~eps/z^2 to
        # cancellation, so the switch sits where both branches agree to
        # ~1e-11
        I = 1 - z / 2 + z**2 / 6 - z**3 / 24 + z**4 / 120 - z**5 / 720 + z**6 / 5040
        J = (
            0.5 - z / 6 + z**2 / 24 - z**3 / 120 + z**4 / 720 - z**5 / 5040
            + z**6 / 40320
        )
        K = 0.5 - z / 3 + z**2 / 8 - z**3 / 30 + z**4 / 144 - z**5 / 840 + z**6 / 5760
        return I, J, K
    e = np.exp(-z)
    I = (1 - e) / z
    J = (z - 1 + e) / z**2
    K = (1 - e - z * e) / z**2
    return float(I), float(J), float(K)


def _helpers(z):
    """helper_functions over an array: the arrays (I, J, K), each shaped like z."""
    z = np.asarray(z, dtype=float)
    return np.array([helper_functions(x) for x in z.flat]).T.reshape((3, *z.shape))


def _factor_coeffs(speeds, loadings, T: float, xi0: float) -> ExpansionCoeffs:
    """(C^Xxi, C^xixi, C^mu) for forward variance driven by exponential factors.

    Factor i decays at speeds[i] and loads the three driving Brownians with
    loadings[i] in R^3, the first of which drives the spot.  With
    z = speeds*T, l_i = loadings[i][0], a_i = loadings[i]/z_i, c = sum_i a_i:

        C^Xxi  = xi0^(3/2)*T^2 * sum_i l_i J(z_i)
        C^xixi = xi0^2*T^3 * (c.c - 2 sum_i (a_i.c) I(z_i)
                              + sum_ij (a_i.a_j) I(z_i+z_j))
        C^mu   = xi0^2*T^3 * sum_ij (l_i l_j/z_j)
                 * [(J(z_i) - B_ij)/2 + J(z_i) - J(z_i+z_j)],
          B_ij = (I(z_j) - I(z_i))/(z_i - z_j)  (-> K(z) as the speeds merge)
    """
    _require_positive("the vol expansion", T=T, xi0=xi0)
    z = np.asarray(speeds, dtype=float) * T
    L = np.asarray(loadings, dtype=float)
    l = L[:, 0]
    a = L / z[:, None]
    c = a.sum(axis=0)
    I, J, _ = _helpers(z)
    z_pair = np.add.outer(z, z)
    I2, J2, _ = _helpers(z_pair)
    gap = np.subtract.outer(z, z)
    merged = np.abs(gap) <= 1e-6 * np.maximum.outer(z, z)
    secant = np.subtract.outer(I, I).T / np.where(merged, 1.0, gap)
    B = np.where(merged, _helpers(z_pair / 2)[2], secant)
    pair_mu = 0.5 * (J[:, None] - B) + J[:, None] - J2
    scale = xi0**2 * T**3
    return ExpansionCoeffs(
        c_xxi=float(xi0**1.5 * T**2 * (l @ J)),
        c_xixi=float(scale * (c @ c - 2 * (a @ c) @ I + np.sum((a @ a.T) * I2))),
        c_mu=float(scale * np.sum(np.outer(l, l / z) * pair_mu)),
    )


def two_factor_coeffs(p: TwoFactorParams, T: float, xi0: float) -> ExpansionCoeffs:
    """Closed-form (C^Xxi, C^xixi, C^mu) for the two-factor model, flat curve.

    Two exponential factors with speeds (kappa_X, kappa_Y) and loadings
    alpha_theta*omega*(omega_iX, omega_iY); see _factor_coeffs.
    """
    loadings = p.alpha_theta * p.omega * np.array([p.omega_iX, p.omega_iY])
    return _factor_coeffs((p.kappa_X, p.kappa_Y), loadings, T, xi0)


def two_factor_skew_shape(p: TwoFactorParams, T: float) -> float:
    """First-order ATM skew of the two-factor model (signed).

    psi(T) = (1/2) * sum_i l_i J(kappa_i T) = C^Xxi / (2 xi0^(3/2) T^2),
    with l_i = alpha_theta*omega*omega_i[0] the factors' spot loadings.
    Finite T -> 0 limit (1/4) * sum_i l_i — no power-law blow-up, unlike
    the rough kernel.
    """
    return float(0.5 * two_factor_coeffs(p, T, 1.0).c_xxi / T**2)


def rbergomi_expansion_coeffs(params: ModelParams, T: float) -> ExpansionCoeffs:
    """Autocorrelation functionals of the rough model, flat curve xi0.

    With a = alpha, sigma = eta*sqrt(2H) and B(x, y) = Gamma(x)Gamma(y)/
    Gamma(x+y), every inner integral of the kernel sigma*tau^a is a power of
    (T - s), so all three are in closed form:

        C^Xxi  = rho*sigma*xi0^(3/2) * T^(a+2)/((a+1)(a+2))
        C^xixi = sigma^2*xi0^2 * T^(2a+3)/((a+1)^2 (2a+3))
        C^mu   = rho^2*sigma^2*xi0^2 * T^(2a+3)/(2a+3)
                 * [B(a+1, a+2)/(2(a+1)) + 1/(2(a+1)^2)]
    """
    _require_positive("rbergomi_expansion_coeffs", T=T)
    a, rho, sig, xi0 = params.alpha, params.rho, params.sigma, params.xi0
    beta = math.gamma(a + 1) * math.gamma(a + 2) / math.gamma(2 * a + 3)
    mu_factor = beta / (2 * (a + 1)) + 1 / (2 * (a + 1) ** 2)
    scale = sig**2 * xi0**2 * T ** (2 * a + 3) / (2 * a + 3)
    return ExpansionCoeffs(
        c_xxi=float(rho * sig * xi0**1.5 * T ** (a + 2) / ((a + 1) * (a + 2))),
        c_xixi=float(scale / (a + 1) ** 2),
        c_mu=float(rho**2 * scale * mu_factor),
    )


def expansion_terms(coeffs: ExpansionCoeffs, v: float, T: float):
    """(sigma_ATM, S_T, C_T) of the second-order implied-vol expansion.

    v is the total variance-swap variance (xi0*T for a flat curve);
    sigma_VS = sqrt(v/T).  S_T is the analytic ATM skew, used to
    cross-check the finite-difference machinery in atm_skew.  The
    expansion is in the scale eps of the vol-of-vol at eps = 1: another
    eps is the coefficients eps*C^Xxi, eps^2*C^xixi, eps^2*C^mu.
    """
    _require_positive("expansion_terms", v=v, T=T)
    cx, cxx, cmu = coeffs.c_xxi, coeffs.c_xixi, coeffs.c_mu
    vs = np.sqrt(v / T)
    sigma_atm = vs * (
        1.0
        + 1 / (4 * v) * cx
        + 1 / (32 * v**3) * (12 * cx**2 - v * (v + 4) * cxx + 4 * v * (v - 4) * cmu)
    )
    s_t = vs * (1 / (2 * v**2) * cx + 1 / (8 * v**3) * (4 * cmu * v - 3 * cx**2))
    c_t = vs / (8 * v**4) * (4 * cmu * v + cxx * v - 6 * cx**2)
    return float(sigma_atm), float(s_t), float(c_t)
