"""The ATM-skew term structure: rough power law vs classical flattening.

Three views of psi(T) = |d sigma_imp / dk| at the money:

1. Monte Carlo central differences under the rough model (CRN bumps),
   with a log-log power-law fit — the exponent should sit near H - 1/2.
2. The second-order implied-vol expansion's analytic skew for the same
   model, from its closed-form coefficients (powers of T and a Beta
   function): a no-simulation cross-check.
3. The classical two-factor model's analytic skew, a sum over its two
   exponential factors, which tends to a constant as T -> 0 instead of
   blowing up: the qualitative gap the rough kernel exists to close.

Run:  python3 demos/skew_term_structure.py   (~15 s)
"""

import numpy as np

import roughvol as rv

PARAMS = rv.ModelParams(xi0=0.026, eta=1.9, H=0.07, rho=-0.9)
MATURITIES = (0.1, 0.25, 0.5, 1.0, 2.0)
N, N_PATHS, SEED = 100, 50_000, 11


def main():
    # one streamed simulation for all maturities: every path slice's
    # Gaussians are drawn and convolved once, and the Volterra field is
    # scaled by (T/T_ref)^H to each maturity (rBergomi is self-similar)
    sides = [(T, None) for T in MATURITIES]
    terminal = rv.simulate_terminal(sides, PARAMS, N, N_PATHS, SEED)
    log_S = {T: s_T for T, (s_T, _) in zip(MATURITIES, terminal)}
    report = rv.atm_skew(
        lambda T, strikes: rv.mc_smile(log_S[T], strikes, T=T), MATURITIES, bump=0.01
    )

    two_factor = rv.TwoFactorParams(
        omega=1.5,
        theta=0.3,
        kappa_X=8.0,
        kappa_Y=0.35,
        rho_SX=-0.7,
        rho_SY=-0.5,
        rho_XY=0.2,
    )

    expansion = []
    print(
        f"{'T':>5}  {'MC psi':>8}  {'expansion |S_T|':>15}  "
        f"{'two-factor |psi|':>16}"
    )
    for i, T in enumerate(MATURITIES):
        coeffs = rv.rbergomi_expansion_coeffs(PARAMS, T)
        _, s_t, _ = rv.expansion_terms(coeffs, PARAMS.xi0 * T, T)
        expansion.append(abs(s_t))
        tf = rv.two_factor_skew_shape(two_factor, T)
        print(
            f"{T:>5.2f}  {report.psi[i]:>8.4f}  {abs(s_t):>15.4f}"
            f"  {abs(tf):>16.4f}"
        )

    print(
        f"\npower-law fit of the MC column: psi(T) ~ T^{report.exponent:.3f}"
        f"  (target H - 1/2 = {PARAMS.H - 0.5:.2f}, "
        f"log-log residual {report.residual:.3f})"
    )
    slope = np.polyfit(np.log(MATURITIES), np.log(expansion), 1)[0]
    print(
        f"expansion column: same law, T^{slope:.3f}, but the level runs"
        f" ~20-30% high — it is an expansion in vol-of-vol, and eta ="
        f" {PARAMS.eta} is not small"
    )
    tf_limit = abs(rv.two_factor_skew_shape(two_factor, 1e-8))
    print(
        f"two-factor skew converges to {tf_limit:.4f} as T -> 0; the rough"
        f" power law has no finite short-end limit.  That divergence is the"
        f"\npoint: any finite mixture of exponential kernels flattens at the"
        f" short end, however its speeds are tuned."
    )


if __name__ == "__main__":
    main()
