"""How the Markovian approximation converges in its terms n and steps N.

aBergomi is the rough model's hybrid scheme with a fitted sum-of-exponentials
kernel in its tail (the hybrid multifactor scheme).  Each row runs both
models on the same increments, so the smile RMSE between them is the
kernel's error on the simulation's lags, not Monte Carlo noise.  The kernel
is fitted as the CLI fits it, on max(N, 100) points.

Run:  python3 demos/markov_convergence.py   (~5 s)
"""

from functools import cache

import roughvol as rv

PARAMS = rv.ModelParams(xi0=0.026, eta=1.9, H=0.07, rho=-0.9)
T, N_PATHS, SEED = 1.0, 20_000, 42


@cache
def kernel(n, n_grid):
    return rv.fit_kernel_ls(PARAMS.H, T, n_grid, n)


@cache
def smile(N, n=None):
    """rBergomi's smile on N steps, or with n terms the kernel plan's."""
    grid = rv.make_time_grid(T, N)
    inc = rv.sample_correlated_increments(grid, PARAMS.rho, N_PATHS, SEED)
    kern = n and kernel(n, max(N, 100))
    plan = rv.make_hybrid_plan(grid, PARAMS.alpha, kernel=kern)
    V = rv.rbergomi_variance(rv.simulate_volterra(plan, inc), PARAMS)
    return rv.mc_smile(rv.rbergomi_log_price(V, inc)[:, -1], T=T)


def table(title, cases):
    print(f"\n{title}\n{'n':>4}  {'N':>4}  {'smile RMSE vs rBergomi':>23}")
    for n, N in cases:
        print(f"{n:>4}  {N:>4}  {rv.smile_rmse(smile(N), smile(N, n)):>23.3e}")


def main():
    print(f"Table-1 parameters, T={T}, {N_PATHS} paths, seed {SEED}")
    table("more terms, N = 100:", [(n, 100) for n in (5, 10, 25)])
    table("more steps, n = 25:", [(25, N) for N in (50, 100, 200, 400)])
    print("\nAbove N = 100 the fit grid is the simulation's own: the fit sees every lag.")


if __name__ == "__main__":
    main()
