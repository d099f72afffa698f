"""One-time relaxation kinetics and the entropy of the surviving weight.

Three descriptions of an instantaneous relaxation at characteristic time dt:

* ``direct``       -- the whole ensemble relaxes at once; the weight drops
                      from 1 to 0 at dt.
* ``statistical``  -- an ensemble of ensembles relaxes stochastically with
                      unit probability at dt; the surviving weight drops
                      from 1 to exp(-1) and stays there.
* ``poisson_cutoff`` -- the one-time Poisson process exp(-t/dt), frozen at
                      its average occurrence time t = dt, where it agrees
                      with the statistical plateau.

The delta kick is realized as a single discrete drop in the grid step ending
at dt, which reproduces the pre/post values exactly at any step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RelaxationTrajectory",
    "simulate_direct",
    "simulate_statistical",
    "simulate_poisson_cutoff",
    "entropy_of_weight",
]

DESCRIPTIONS = ("direct", "statistical", "poisson_cutoff")

_PLATEAU = math.exp(-1.0)


@dataclass(frozen=True)
class RelaxationTrajectory:
    """Sampled statistical weight rho(t) of the not-yet-relaxed population."""

    times: np.ndarray
    weights: np.ndarray
    description: str
    dt: float

    def __post_init__(self):
        if self.description not in DESCRIPTIONS:
            raise ValueError(f"unknown description {self.description!r}")
        if self.weights[0] != 1.0:
            raise ValueError("trajectories must start at weight 1")
        if np.any(np.diff(self.weights) > 0.0):
            raise ValueError("weights must be non-increasing")
        self.times.setflags(write=False)
        self.weights.setflags(write=False)

    def index_of(self, t: float) -> int:
        """Index of the grid time t (t must lie on the grid)."""
        idx = np.flatnonzero(np.isclose(self.times, t, rtol=0.0, atol=1e-12))
        if idx.size == 0:
            raise ValueError(f"time {t!r} is not on the trajectory grid")
        return int(idx[0])

    def weight_at(self, t: float) -> float:
        """Weight at a grid time (t must lie on the grid)."""
        return float(self.weights[self.index_of(t)])


def _grid(dt: float, horizon: float, steps: int) -> np.ndarray:
    if not (horizon >= dt > 0.0):
        raise ValueError(f"need horizon >= dt > 0, got dt={dt!r}, horizon={horizon!r}")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    times = np.linspace(0.0, horizon, steps + 1)
    if not np.any(np.isclose(times, dt, rtol=0.0, atol=1e-12)):
        times = np.sort(np.append(times, dt))
    return times


def simulate_direct(dt: float, horizon: float, steps: int) -> RelaxationTrajectory:
    """Whole-ensemble relaxation: weight 1 before dt, 0 from dt on."""
    times = _grid(dt, horizon, steps)
    weights = np.where(times < dt, 1.0, 0.0)
    return RelaxationTrajectory(times, weights, "direct", dt)


def simulate_statistical(dt: float, horizon: float, steps: int) -> RelaxationTrajectory:
    """Self-similar relaxation: the drop at dt removes exactly the current
    weight (-d rho = rho), leaving the plateau exp(-1)."""
    times = _grid(dt, horizon, steps)
    weights = np.where(times < dt, 1.0, _PLATEAU)
    return RelaxationTrajectory(times, weights, "statistical", dt)


def simulate_poisson_cutoff(
    dt: float,
    horizon: float,
    steps: int,
    method: str = "exact",
) -> RelaxationTrajectory:
    """One-time Poisson decay exp(-t/dt), frozen at the cutoff t = dt.

    ``method="exact"`` multiplies the closed-form factor exp(-step/dt) per
    step; ``method="euler"`` is the auditable first-order scheme
    ``rho -> rho * (1 - step/dt)`` whose deviation from the closed form
    shrinks linearly with the step size. Past the cutoff the exact method
    pins the plateau to exp(-1), matching the statistical description
    bitwise; the Euler method freezes at whatever value it reached.
    """
    if method not in ("exact", "euler"):
        raise ValueError(f"unknown method {method!r}")
    times = _grid(dt, horizon, steps)
    weights = np.empty_like(times)
    weights[0] = 1.0
    for i in range(1, len(times)):
        if times[i] > dt + 1e-12:
            weights[i] = weights[i - 1]
            continue
        h = (times[i] - times[i - 1]) / dt
        if method == "exact":
            weights[i] = weights[i - 1] * math.exp(-h)
        else:
            weights[i] = weights[i - 1] * (1.0 - h)
        if method == "exact" and abs(times[i] - dt) <= 1e-12:
            weights[i] = _PLATEAU
    return RelaxationTrajectory(times, weights, "poisson_cutoff", dt)


def entropy_of_weight(trajectory: RelaxationTrajectory) -> np.ndarray:
    """Entropy production sigma(t) = -ln rho(t), in nats.

    The direct description reaches weight 0, for which the entropy is
    reported as the +inf sentinel (kept plottable rather than raised).
    """
    with np.errstate(divide="ignore"):
        return -np.log(trajectory.weights)
