"""How many exponentials does the rough kernel need?

Prints the accuracy of the two sum-of-exponentials constructions side by
side: the closed-form kernel (mu-barycentres of uniform cells) with its
certified L2 error bound, and the least-squares fit on the simulation grid.
Both target sqrt(2H) * tau^(H-1/2), H = 0.07.

Run:  python3 demos/kernel_accuracy.py
"""

import numpy as np

import roughvol as rv

H, T, N_GRID = 0.07, 1.0, 100


def main():
    print(f"closed-form kernel, H={H}, T={T}")
    print(f"{'n':>4}  {'L2 error':>12}  {'certified bound':>16}  {'error/bound':>12}")
    for n in (5, 10, 25, 50, 100):
        err = rv.kernel_l2_error(rv.closed_form_kernel(n, H, T), H, T)
        bound = rv.closed_form_bound(n, H, T)
        print(f"{n:>4}  {err:>12.4e}  {bound:>16.4e}  {err / bound:>12.3f}")

    tau = np.arange(1, N_GRID) * (T / N_GRID)
    target = np.sqrt(2 * H) * tau ** (H - 0.5)
    print(f"\nleast-squares fit on the {N_GRID}-step grid")
    print(f"{'n':>4}  {'grid RMSE':>12}  {'speed range':>24}")
    for n in (5, 15, 25):
        kern = rv.fit_kernel_ls(H, T, N_GRID, n)
        rmse = np.sqrt(np.mean((kern(tau) - target) ** 2))
        lo, hi = kern.speeds.min(), kern.speeds.max()
        print(f"{n:>4}  {rmse:>12.4e}  {lo:>10.3e} .. {hi:>9.3e}")

    print(
        "\nThe bound is honest but loose (error/bound well under 1); the LS"
        "\nfit is far tighter on its own grid because it spends all its"
        "\ndegrees of freedom exactly where the simulation will evaluate the"
        "\nkernel, at the cost of any guarantee off that grid."
    )


if __name__ == "__main__":
    main()
