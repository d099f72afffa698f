"""Print the three relaxation descriptions side by side.

Usage: python scripts/relaxation_portrait.py [dt] [horizon] [steps]
"""

import math
import sys

import numpy as np

from meterwork.relaxation import (
    entropy_of_weight,
    simulate_direct,
    simulate_poisson_cutoff,
    simulate_statistical,
)


def main() -> None:
    dt = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    horizon = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0
    steps = int(sys.argv[3]) if len(sys.argv) > 3 else 20

    direct = simulate_direct(dt, horizon, steps)
    stat = simulate_statistical(dt, horizon, steps)
    pois = simulate_poisson_cutoff(dt, horizon, steps)
    sigma_stat = entropy_of_weight(stat)
    sigma_pois = entropy_of_weight(pois)

    print(f"{'t':>8} {'direct':>10} {'statistical':>12} {'poisson':>10} "
          f"{'sigma_stat':>11} {'sigma_pois':>11}")
    for i, t in enumerate(direct.times):
        print(
            f"{t:8.4f} {direct.weights[i]:10.6f} {stat.weights[i]:12.6f} "
            f"{pois.weights[i]:10.6f} {sigma_stat[i]:11.6f} {sigma_pois[i]:11.6f}"
        )
    idx = int(np.flatnonzero(np.isclose(stat.times, dt))[0])
    print(f"\nplateau at dt={dt}: statistical rho = {float(stat.weights[idx])} "
          f"(exp(-1) = {math.exp(-1.0)}), sigma = {float(sigma_stat[idx])} nat")


if __name__ == "__main__":
    main()
