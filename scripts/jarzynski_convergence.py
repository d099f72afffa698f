"""Convergence studies for the exponentiated-work average.

Part one evaluates the exact estimator at doubling step counts of a
non-commuting drive against the closed-form free-energy target, alongside
the independent time-ordered-product evaluation.

Part two measures the Monte Carlo estimator's statistical error at growing
sample counts; the log-log slope should sit near -1/2.
"""

import math

import numpy as np

from meterwork.jarzynski import (
    DriveSchedule,
    delta_F,
    jarzynski_exact,
    jarzynski_time_ordered,
    tpm_sample,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
BETA = 1.0


def driven(n_steps: int) -> DriveSchedule:
    def h_at(lams: np.ndarray) -> np.ndarray:
        lams = lams[:, None, None]
        return (1.0 - lams) * SZ + lams * SX

    return DriveSchedule.linear(h_at, t_f=1.0, n_steps=n_steps)


def main() -> None:
    sched = driven(100)
    target = math.exp(
        -BETA * delta_F(sched.initial_hamiltonian(), sched.final_hamiltonian(), BETA)
    )
    print(f"target exp(-beta dF) = {target:.15f}")
    print(f"{'N':>6} {'enumeration dev':>18} {'time-ordered dev':>18}")
    for n in (100, 200, 400, 800):
        s = driven(n)
        a = jarzynski_exact(s, BETA)
        b = jarzynski_time_ordered(s, BETA)
        print(f"{n:6d} {abs(a - target):18.3e} {abs(b - target):18.3e}")

    print("\nMonte Carlo error scaling (driven qubit, N = 200):")
    sched = driven(200)
    df = delta_F(sched.initial_hamiltonian(), sched.final_hamiltonian(), BETA)
    print(f"{'samples':>8} {'abs error':>12} {'3 x std err':>12}")
    errors = []
    sizes = (10**2, 10**3, 10**4, 10**5)
    for i, n in enumerate(sizes):
        samples = tpm_sample(sched, BETA, n, seed=1000 + i)
        vals = np.exp(-BETA * samples.work)
        err = abs(float(vals.mean()) - math.exp(-BETA * df))
        se = float(vals.std(ddof=1)) / math.sqrt(n)
        errors.append(err)
        print(f"{n:8d} {err:12.3e} {3 * se:12.3e}")
    slope = np.polyfit(np.log10(sizes), np.log10(errors), 1)[0]
    print(f"log-log error slope: {slope:+.3f} (expected near -0.5)")


if __name__ == "__main__":
    main()
