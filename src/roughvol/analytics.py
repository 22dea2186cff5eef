"""Implied-vol analytics: BS pricing, MC smiles, ATM skew, vol expansions.

The second-order implied-vol expansion sigma_BS(k, T) = sigma_ATM + S_T*k +
C_T*k^2 is driven by three autocorrelation functionals (C^Xxi, C^xixi,
C^mu).  They are provided two ways:

* for the rough model, by numeric quadrature of the defining integrals
  (plus a closed form for C^Xxi, which the quadrature must reproduce);
* for the classical two-factor model, in closed form via the helper
  functions I, J, K, H.

Two of the two-factor displays circulating in the literature contain
typos (an omitted square on the vol-of-vol in C^xixi, a wrong
denominator/cross term in the C^mu loadings); the forms implemented here
were validated term-by-term against nested adaptive quadrature of the
definitional integrals (agreement ~1e-14 relative), and the quadrature
cross-check is kept as a test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .sim_core import ModelParams

__all__ = [
    "DEFAULT_STRIKES",
    "IV_GRID_MONEYNESS",
    "IV_GRID_MATURITIES",
    "IV_GRID_VOLS",
    "IV_MIN_VEGA",
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
    "fit_power_law",
    "helper_functions",
    "two_factor_coeffs",
    "two_factor_skew_shape",
    "rbergomi_expansion_coeffs",
    "expansion_terms",
    "sigma_bs_expansion",
]

DEFAULT_STRIKES = np.linspace(-0.2, 0.2, 21)

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


@dataclass(frozen=True, eq=False)
class SmileResult:
    """One maturity's smile: log-moneyness grid, implied vols, MC stderr.

    vols[i] is NaN when strike i was skipped (reason recorded in
    ``skipped`` as (strike, reason) pairs).  ``seed`` records RNG
    provenance when the smile came from simulation.
    """

    maturity: float
    strikes: np.ndarray
    vols: np.ndarray
    prices: np.ndarray
    price_stderr: np.ndarray
    n_paths: int
    model: str = ""
    seed: int | None = None
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


@dataclass(frozen=True)
class TwoFactorParams:
    """Classical two-factor model parameters and derived loadings.

    omega: vol-of-vol; theta: mixing weight in [0, 1]; kappa_X > kappa_Y > 0
    mean-reversion speeds; rho_SX, rho_SY spot-factor correlations; rho_XY
    factor-factor correlation.  Derived: chi (residual correlation of the
    factor drivers), the normalizer alpha_theta, and the loading vectors
    omega_iX, omega_iY of the three-Brownian decomposition.
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

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not (self.kappa_X > self.kappa_Y > 0):
            raise ValueError(
                f"need kappa_X > kappa_Y > 0, got {self.kappa_X}, {self.kappa_Y}"
            )
        for name in ("rho_SX", "rho_SY", "rho_XY"):
            if abs(getattr(self, name)) > 1:
                raise ValueError(f"|{name}| must be <= 1")
        denom = np.sqrt(1 - self.rho_SX**2) * np.sqrt(1 - self.rho_SY**2)
        chi = (self.rho_XY - self.rho_SX * self.rho_SY) / denom
        if abs(chi) > 1 + 1e-12:
            raise ValueError(
                f"rho_XY={self.rho_XY} is infeasible given rho_SX, rho_SY (chi={chi})"
            )
        chi = float(np.clip(chi, -1.0, 1.0))
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
    """The three autocorrelation functionals (quadrature values) plus the
    closed-form C^Xxi when one is available."""

    c_xxi: float
    c_xixi: float
    c_mu: float
    c_xxi_closed: float | None = None


def bs_price(S0: float, K: float, T: float, vol: float) -> float:
    """Black-Scholes call, zero rates and dividends."""
    if S0 <= 0 or K <= 0 or T <= 0 or vol <= 0:
        raise ValueError("bs_price requires S0, K, T, vol all positive")
    sq = vol * np.sqrt(T)
    d1 = (np.log(S0 / K) + 0.5 * vol * vol * T) / sq
    return float(S0 * ndtr(d1) - K * ndtr(d1 - sq))


def bs_vega(S0: float, K: float, T: float, vol: float) -> float:
    """d bs_price / d vol; the price sensitivity the Newton polish divides by."""
    sq = vol * np.sqrt(T)
    d1 = (np.log(S0 / K) + 0.5 * vol * vol * T) / sq
    return float(S0 * np.exp(-0.5 * d1 * d1) / np.sqrt(2 * np.pi) * np.sqrt(T))


def implied_vol(price: float, S0: float, K: float, T: float) -> float:
    """Invert bs_price: bracketing bisection, then Newton polish.

    Raises ValueError naming the violated bound when price is at or below
    intrinsic max(S0-K, 0), or at or above S0.
    """
    if S0 <= 0 or K <= 0 or T <= 0:
        raise ValueError("implied_vol requires S0, K, T positive")
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
    while bs_price(S0, K, T, hi) < price:
        hi *= 2.0
        if hi > 1e3:  # unreachable for price < S0, defensive
            break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bs_price(S0, K, T, mid) < price:
            lo = mid
        else:
            hi = mid
    vol = 0.5 * (lo + hi)
    for _ in range(8):
        diff = bs_price(S0, K, T, vol) - price
        if abs(diff) < 1e-14:
            break
        v = bs_vega(S0, K, T, vol)
        if v <= 0:
            break
        step = diff / v
        nxt = vol - step
        if not (lo / 2 < nxt < hi * 2) or not np.isfinite(nxt):
            break
        vol = nxt
    return float(vol)


def mc_smile(
    log_price_terminal: np.ndarray,
    strikes: np.ndarray = DEFAULT_STRIKES,
    T: float = 1.0,
    model: str = "",
    seed: int | None = None,
) -> SmileResult:
    """Smile from terminal log-prices (S0 = 1, zero rates).

    Per log-moneyness strike k: mean and stderr of (S_T - e^k)^+, then
    implied_vol of the mean.  A strike whose MC price falls outside the
    no-arbitrage bounds (e.g. every payoff zero) is skipped: its vol is NaN
    and a (strike, reason) entry is appended to the result's skipped list.
    """
    strikes = np.asarray(strikes, dtype=float)
    S = np.exp(np.asarray(log_price_terminal, dtype=float))
    n = S.size
    vols = np.full(strikes.size, np.nan)
    prices = np.empty(strikes.size)
    errs = np.empty(strikes.size)
    skipped = []
    for i, k in enumerate(strikes):
        payoff = np.maximum(S - np.exp(k), 0.0)
        prices[i] = float(payoff.mean())
        errs[i] = float(payoff.std(ddof=1) / np.sqrt(n))
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
        model=model,
        seed=seed,
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


def fit_power_law(maturities, psi) -> tuple[float, float, float]:
    """Least-squares fit of log psi = intercept + exponent * log T.

    Returns (intercept, exponent, residual), where residual is the RMS misfit
    in log psi.  Every maturity and psi must be positive.
    """
    log_T = np.log(np.asarray(maturities, dtype=float))
    log_psi = np.log(np.asarray(psi, dtype=float))
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
    if dk <= 0:
        raise ValueError(f"bump must be positive, got {bump}")
    probe = np.array([-dk, -dk / 2, dk / 2, dk])
    psi = np.empty(maturities.size)
    rich = np.empty(maturities.size)
    flagged = np.zeros(maturities.size, dtype=bool)
    for i, T in enumerate(maturities):
        sm = smile_fn(float(T), probe)
        v = sm.vols
        psi[i] = abs(v[3] - v[0]) / (2 * dk)
        half = abs(v[2] - v[1]) / dk
        rich[i] = (4 * half - psi[i]) / 3.0
        if not np.isfinite(psi[i]) or psi[i] <= 0:
            flagged[i] = True
    ok = ~flagged
    if ok.sum() >= 2:
        intercept, exponent, residual = fit_power_law(maturities[ok], psi[ok])
    else:
        intercept = exponent = residual = float("nan")
    return SkewReport(
        maturities=maturities,
        psi=psi,
        bump=dk,
        exponent=exponent,
        intercept=intercept,
        residual=residual,
        flagged=flagged,
        richardson=rich,
    )


def helper_functions(z: float):
    """The exponential moment helpers (I, J, K, H).

    I(z) = (1-e^-z)/z, J(z) = (z-1+e^-z)/z^2, K(z) = (1-e^-z-z e^-z)/z^2,
    H(z) = (J(z)-K(z))/z.  For z < 0.05 sixth-order Taylor series are used
    (the direct forms lose precision to cancellation there); limits at
    z = 0 are I=1, J=1/2, K=1/2, H=1/6.
    """
    if z < 0:
        raise ValueError(f"helper_functions requires z >= 0, got {z}")
    if z < 0.05:
        # sixth-order series; the direct forms below lose ~eps/z^3 to
        # cancellation (worst in H), so the switch sits where both branches
        # agree to ~1e-11
        I = 1 - z / 2 + z**2 / 6 - z**3 / 24 + z**4 / 120 - z**5 / 720 + z**6 / 5040
        J = (
            0.5 - z / 6 + z**2 / 24 - z**3 / 120 + z**4 / 720 - z**5 / 5040
            + z**6 / 40320
        )
        K = 0.5 - z / 3 + z**2 / 8 - z**3 / 30 + z**4 / 144 - z**5 / 840 + z**6 / 5760
        H = (
            1 / 6 - z / 12 + z**2 / 40 - z**3 / 180 + z**4 / 1008 - z**5 / 6720
            + z**6 / 51840
        )
        return I, J, K, H
    e = np.exp(-z)
    I = (1 - e) / z
    J = (z - 1 + e) / z**2
    K = (1 - e - z * e) / z**2
    H = (J - K) / z
    return float(I), float(J), float(K), float(H)


def _I(z):
    return helper_functions(z)[0]


def _J(z):
    return helper_functions(z)[1]


def _K(z):
    return helper_functions(z)[2]


def _H(z):
    return helper_functions(z)[3]


def two_factor_coeffs(p: TwoFactorParams, T: float, xi0: float) -> ExpansionCoeffs:
    """Closed-form (C^Xxi, C^xixi, C^mu) for the two-factor model, flat curve.

    With zX = kappa_X*T, zY = kappa_Y*T, w1X/w1Y the first components of
    the loading vectors, aT = alpha_theta:

        C^Xxi  = aT*w*xi0^(3/2)*T^2 * (w1X*J(zX) + w1Y*J(zY))
        C^xixi = aT^2*w^2*xi0^2*T^3 * (w0 + wX*I(zX) + wY*I(zY)
                  + wXX*I(2 zX) + wYY*I(2 zY) + wXY*I(zX+zY))
        C^mu   = aT^2*w^2*xi0^2*T^3 * (C1mu + C2mu)

    where the I-loadings come from the vectors a_i = omega_iX/zX,
    b_i = omega_iY/zY, c = a + b (w0 = c.c, wX = -2 a.c, wY = -2 b.c,
    wXX = a.a, wYY = b.b, wXY = 2 a.b), and the C^mu pieces are

        C1mu = w1X^2 H(zX)/2 + w1Y^2 H(zY)/2
             + (w1X*w1Y/2) * [ (J(zX) - Btilde)/zY + (J(zY) - Btilde)/zX ],
          Btilde = (I(zY) - I(zX))/(zX - zY)  (-> K(z) as the speeds merge)
        C2mu = wX''*J(zX) + wY''*J(zY) + wXX''*J(2 zX) + wYY''*J(2 zY)
             + wXY''*J(zX+zY),
          wX''  =  w1X^2/zX + w1X*w1Y/zY,   wY''  =  w1Y^2/zY + w1X*w1Y/zX,
          wXX'' = -w1X^2/zX,  wYY'' = -w1Y^2/zY,
          wXY'' = -w1X*w1Y*(1/zX + 1/zY).

    Validated against nested adaptive quadrature of the lambda-integrals
    (~1e-14 relative).
    """
    zX = p.kappa_X * T
    zY = p.kappa_Y * T
    w1X = p.omega_iX[0]
    w1Y = p.omega_iY[0]
    aT = p.alpha_theta
    w = p.omega

    c_xxi = aT * w * xi0**1.5 * T**2 * (w1X * _J(zX) + w1Y * _J(zY))

    av = p.omega_iX / zX
    bv = p.omega_iY / zY
    cv = av + bv
    w0 = float(cv @ cv)
    wX = -2.0 * float(av @ cv)
    wY = -2.0 * float(bv @ cv)
    wXX = float(av @ av)
    wYY = float(bv @ bv)
    wXY = 2.0 * float(av @ bv)
    c_xixi = (
        aT**2
        * w**2
        * xi0**2
        * T**3
        * (
            w0
            + wX * _I(zX)
            + wY * _I(zY)
            + wXX * _I(2 * zX)
            + wYY * _I(2 * zY)
            + wXY * _I(zX + zY)
        )
    )

    if abs(zX - zY) > 1e-6 * max(zX, zY):
        btilde = (_I(zY) - _I(zX)) / (zX - zY)
    else:
        btilde = _K(0.5 * (zX + zY))
    c1mu = (
        0.5 * w1X**2 * _H(zX)
        + 0.5 * w1Y**2 * _H(zY)
        + 0.5 * w1X * w1Y * ((_J(zX) - btilde) / zY + (_J(zY) - btilde) / zX)
    )
    wXpp = w1X**2 / zX + w1X * w1Y / zY
    wYpp = w1Y**2 / zY + w1X * w1Y / zX
    wXXpp = -(w1X**2) / zX
    wYYpp = -(w1Y**2) / zY
    wXYpp = -w1X * w1Y * (1.0 / zX + 1.0 / zY)
    c2mu = (
        wXpp * _J(zX)
        + wYpp * _J(zY)
        + wXXpp * _J(2 * zX)
        + wYYpp * _J(2 * zY)
        + wXYpp * _J(zX + zY)
    )
    c_mu = aT**2 * w**2 * xi0**2 * T**3 * (c1mu + c2mu)
    return ExpansionCoeffs(
        c_xxi=float(c_xxi), c_xixi=float(c_xixi), c_mu=float(c_mu), c_xxi_closed=None
    )


def two_factor_skew_shape(p: TwoFactorParams, T: float, epsilon: float = 1.0) -> float:
    """First-order ATM skew of the two-factor model (signed).

    psi(T) = C1*(kX*T - 1 + e^(-kX*T))/T^2 + C2*(kY*T - 1 + e^(-kY*T))/T^2
    with C1 = (eps*alpha_theta*omega/2) * w1X/kX^2 and C2 likewise for Y;
    equivalently C1*kX^2*J(kX*T) + C2*kY^2*J(kY*T).  Finite T -> 0 limit
    (C1*kX^2 + C2*kY^2)/2 — no power-law blow-up, unlike the rough kernel.
    """
    pref = 0.5 * epsilon * p.alpha_theta * p.omega
    C1 = pref * p.omega_iX[0] / p.kappa_X**2
    C2 = pref * p.omega_iY[0] / p.kappa_Y**2
    return float(
        C1 * p.kappa_X**2 * _J(p.kappa_X * T) + C2 * p.kappa_Y**2 * _J(p.kappa_Y * T)
    )


def rbergomi_expansion_coeffs(
    params: ModelParams, T: float, n_quad: int = 200
) -> ExpansionCoeffs:
    """Autocorrelation functionals of the rough model, flat curve xi0.

    All three are computed by Gauss-Legendre quadrature of the defining
    integrals; the kernel singularity of the inner u-integrals is removed
    by the graded substitution u = s + (T-s)*q^(1/(alpha+1)).  C^Xxi is
    additionally returned in closed form,

        C^Xxi = rho*eta*sqrt(2H)*xi0^(3/2) * T^(alpha+2)/((alpha+1)(alpha+2)),

    which the quadrature value must match (tested at 1e-6 relative).
    C^mu has no closed form here and is quadrature-only.
    """
    a = params.alpha
    rho = params.rho
    sig = params.eta * np.sqrt(2 * params.H)
    xi0 = params.xi0

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

    closed = rho * sig * xi0**1.5 * T ** (a + 2) / ((a + 1) * (a + 2))
    return ExpansionCoeffs(
        c_xxi=c_xxi, c_xixi=c_xixi, c_mu=c_mu, c_xxi_closed=float(closed)
    )


def expansion_terms(coeffs: ExpansionCoeffs, v: float, T: float, epsilon: float = 1.0):
    """(sigma_ATM, S_T, C_T) of the second-order implied-vol expansion.

    v is the total variance-swap variance (xi0*T for a flat curve);
    sigma_VS = sqrt(v/T).  S_T is the analytic ATM skew, used to
    cross-check the finite-difference machinery in atm_skew.
    """
    if v <= 0:
        raise ValueError(f"total variance v must be positive, got {v}")
    cx, cxx, cmu = coeffs.c_xxi, coeffs.c_xixi, coeffs.c_mu
    vs = np.sqrt(v / T)
    e = epsilon
    sigma_atm = vs * (
        1.0
        + e / (4 * v) * cx
        + e**2 / (32 * v**3) * (12 * cx**2 - v * (v + 4) * cxx + 4 * v * (v - 4) * cmu)
    )
    s_t = vs * (e / (2 * v**2) * cx + e**2 / (8 * v**3) * (4 * cmu * v - 3 * cx**2))
    c_t = vs * e**2 / (8 * v**4) * (4 * cmu * v + cxx * v - 6 * cx**2)
    return float(sigma_atm), float(s_t), float(c_t)


def sigma_bs_expansion(
    coeffs: ExpansionCoeffs, v: float, T: float, k, epsilon: float = 1.0
):
    """Second-order implied vol sigma_BS(k) = sigma_ATM + S_T*k + C_T*k^2."""
    sigma_atm, s_t, c_t = expansion_terms(coeffs, v, T, epsilon)
    k = np.asarray(k, dtype=float)
    out = sigma_atm + s_t * k + c_t * k**2
    return float(out) if out.ndim == 0 else out
