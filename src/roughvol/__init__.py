"""roughvol: Monte Carlo engine for rough volatility models.

Simulates the rough Bergomi model (hybrid scheme for the singular Volterra
driver) and its n-term Markovian approximation (a sum-of-exponentials
kernel fed to the same scheme), with implied-vol analytics, ATM-skew term
structures, and second-order vol-of-vol expansions on top.

Attribute access is lazy (PEP 562) so that the CLI can configure BLAS
thread pools before numpy is first imported.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # sim_core
    "BLOCK_SIZE": ".sim_core",
    "TimeGrid": ".sim_core",
    "PathIncrements": ".sim_core",
    "ModelParams": ".sim_core",
    "make_time_grid": ".sim_core",
    "sample_correlated_increments": ".sim_core",
    "iter_blocks": ".sim_core",
    # hybrid_scheme
    "HybridPlan": ".hybrid_scheme",
    "VolterraPaths": ".hybrid_scheme",
    "optimal_nodes": ".hybrid_scheme",
    "first_cell_coefficients": ".hybrid_scheme",
    "make_hybrid_plan": ".hybrid_scheme",
    "toeplitz_convolve": ".hybrid_scheme",
    "simulate_volterra": ".hybrid_scheme",
    # kernel
    "ExpKernel": ".kernel",
    "KernelErrorCert": ".kernel",
    "KernelFitError": ".kernel",
    "power_kernel": ".kernel",
    "laplace_mu": ".kernel",
    "closed_form_kernel": ".kernel",
    "kernel_l2_error": ".kernel",
    "fit_kernel_ls": ".kernel",
    "normalized_copy": ".kernel",
    # models
    "SMILE_FACTOR_M2": ".models",
    "VariancePaths": ".models",
    "OUFactorPaths": ".models",
    "DriverPaths": ".models",
    "AbergomiConfig": ".models",
    "rbergomi_variance": ".models",
    "rbergomi_log_price": ".models",
    "simulate_ou_factors": ".models",
    "abergomi_driver": ".models",
    "abergomi_variance": ".models",
    "quadratic_variation_chi": ".models",
    "variance_conditional_expectation": ".models",
    # analytics
    "DEFAULT_STRIKES": ".analytics",
    "IV_GRID_MONEYNESS": ".analytics",
    "IV_GRID_MATURITIES": ".analytics",
    "IV_GRID_VOLS": ".analytics",
    "IV_MIN_VEGA": ".analytics",
    "SmileResult": ".analytics",
    "SkewReport": ".analytics",
    "TwoFactorParams": ".analytics",
    "ExpansionCoeffs": ".analytics",
    "bs_price": ".analytics",
    "bs_vega": ".analytics",
    "implied_vol": ".analytics",
    "mc_smile": ".analytics",
    "smile_rmse": ".analytics",
    "atm_skew": ".analytics",
    "fit_power_law": ".analytics",
    "helper_functions": ".analytics",
    "two_factor_coeffs": ".analytics",
    "two_factor_skew_shape": ".analytics",
    "rbergomi_expansion_coeffs": ".analytics",
    "expansion_terms": ".analytics",
    "sigma_bs_expansion": ".analytics",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
