"""How the Markovian approximation converges in its terms n and steps N.

aBergomi is the rough model's hybrid scheme with a fitted sum-of-exponentials
kernel in its tail (the hybrid multifactor scheme).  Each row runs both
models on the same increments, so the smile RMSE between them is the
kernel's error on the simulation's lags, not Monte Carlo noise: as the
CLI's compare does, one simulate_terminal call per N serves rBergomi and
every term count.  The kernel is fitted as the CLI fits it, on max(N, 100)
points.

Run:  python3 demos/markov_convergence.py   (~4 s)
"""

from functools import cache

import roughvol as rv

PARAMS = rv.ModelParams(xi0=0.026, eta=1.9, H=0.07, rho=-0.9)
T, N_PATHS, SEED = 1.0, 20_000, 42


@cache
def kernel(n, n_grid):
    return rv.fit_kernel_ls(PARAMS.H, T, n_grid, n)


TERMS = {50: (25,), 100: (5, 10, 25), 200: (25,), 400: (25,)}  # n per N


@cache
def rmse(N):
    """Smile RMSE of each TERMS[N]-term kernel plan against rBergomi, one draw."""
    kernels = [None] + [kernel(n, max(N, 100)) for n in TERMS[N]]
    terminal = rv.simulate_terminal([(T, k) for k in kernels], PARAMS, N, N_PATHS, SEED)
    rough, *markov = (rv.mc_smile(log_S_T, T=T) for log_S_T, _ in terminal)
    return {n: rv.smile_rmse(rough, sm) for n, sm in zip(TERMS[N], markov)}


def table(title, cases):
    print(f"\n{title}\n{'n':>4}  {'N':>4}  {'smile RMSE vs rBergomi':>23}")
    for n, N in cases:
        print(f"{n:>4}  {N:>4}  {rmse(N)[n]:>23.3e}")


def main():
    print(f"Table-1 parameters, T={T}, {N_PATHS} paths, seed {SEED}")
    table("more terms, N = 100:", [(n, 100) for n in (5, 10, 25)])
    table("more steps, n = 25:", [(25, N) for N in (50, 100, 200, 400)])
    print("\nAbove N = 100 the fit grid is the simulation's own: the fit sees every lag.")


if __name__ == "__main__":
    main()
