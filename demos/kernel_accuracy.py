"""How many exponentials does the rough kernel need?

Prints the accuracy of the least-squares sum-of-exponentials fit of
sqrt(2H) * tau^(H-1/2), H = 0.07, on the simulation grid, and the range of
speeds it spends.

Run:  python3 demos/kernel_accuracy.py
"""

import numpy as np

import roughvol as rv

H, T, N_GRID = 0.07, 1.0, 100


def main():
    tau = np.arange(1, N_GRID) * (T / N_GRID)
    target = np.sqrt(2 * H) * tau ** (H - 0.5)
    print(f"least-squares fit on the {N_GRID}-step grid, H={H}, T={T}")
    print(f"{'n':>4}  {'grid RMSE':>12}  {'speed range':>24}")
    for n in (5, 15, 25):
        kern = rv.fit_kernel_ls(H, T, N_GRID, n)
        rmse = np.sqrt(np.mean((kern(tau) - target) ** 2))
        lo, hi = kern.speeds.min(), kern.speeds.max()
        print(f"{n:>4}  {rmse:>12.4e}  {lo:>10.3e} .. {hi:>9.3e}")

    print(
        "\nThe fit is tight on its own grid because it spends all its degrees"
        "\nof freedom exactly where the simulation will evaluate the kernel,"
        "\nat the cost of any guarantee off that grid."
    )


if __name__ == "__main__":
    main()
