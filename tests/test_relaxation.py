import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meterwork.relaxation import (
    entropy_of_weight,
    simulate_direct,
    simulate_poisson_cutoff,
    simulate_statistical,
)


class TestDirect:
    def test_starts_at_one(self):
        traj = simulate_direct(1.0, 2.0, 100)
        assert traj.weight_at(0.0) == 1.0

    def test_zero_at_dt(self):
        traj = simulate_direct(1.0, 2.0, 100)
        assert traj.weight_at(1.0) == 0.0

    def test_absorbing_at_horizon(self):
        traj = simulate_direct(1.0, 3.0, 50)
        assert traj.weight_at(3.0) == 0.0

    def test_single_step_drop_is_unity(self):
        traj = simulate_direct(1.0, 2.0, 10)
        i = int(np.flatnonzero(np.isclose(traj.times, 1.0))[0])
        assert traj.weights[i - 1] - traj.weights[i] == 1.0

    def test_entropy_sentinel_after_relaxation(self):
        traj = simulate_direct(1.0, 2.0, 10)
        sigma = entropy_of_weight(traj)
        assert sigma[0] == 0.0
        assert math.isinf(sigma[-1])


class TestStatistical:
    def test_plateau_value(self):
        traj = simulate_statistical(1.0, 2.0, 100)
        assert traj.weight_at(1.0) == math.exp(-1.0)

    def test_drop_over_predrop_is_unity(self):
        # -d rho = rho at dt: (1 - exp(-1)) / 1 relative to the pre-drop value
        traj = simulate_statistical(1.0, 2.0, 10)
        i = int(np.flatnonzero(np.isclose(traj.times, 1.0))[0])
        drop = traj.weights[i - 1] - traj.weights[i]
        assert drop / traj.weights[i - 1] == 1.0 - math.exp(-1.0)
        # and the surviving fraction is exactly exp(-1) of the pre-drop weight
        assert traj.weights[i] / traj.weights[i - 1] == math.exp(-1.0)

    def test_unity_before_kick(self):
        traj = simulate_statistical(1.0, 2.0, 1000)
        pre = traj.weights[traj.times < 1.0]
        assert np.all(pre == 1.0)

    def test_entropy_is_one_nat_at_plateau(self):
        traj = simulate_statistical(1.0, 2.0, 100)
        sigma = entropy_of_weight(traj)
        assert abs(sigma[-1] - 1.0) <= 1e-12


class TestPoissonCutoff:
    def test_plateau_matches_statistical_exactly(self):
        stat = simulate_statistical(1.0, 2.0, 200)
        pois = simulate_poisson_cutoff(1.0, 2.0, 200)
        after = stat.times >= 1.0
        assert np.array_equal(stat.weights[after], pois.weights[after])
        assert stat.weights[0] == pois.weights[0] == 1.0

    def test_midpoint_matches_closed_form(self):
        traj = simulate_poisson_cutoff(1.0, 2.0, 10**4)
        idx = int(np.argmin(np.abs(traj.times - 0.5)))
        t = traj.times[idx]
        assert abs(traj.weights[idx] - math.exp(-t)) <= 1e-6

    def test_entropy_linear_before_cutoff(self):
        traj = simulate_poisson_cutoff(2.0, 4.0, 10**4)
        sigma = entropy_of_weight(traj)
        before = traj.times <= 2.0
        np.testing.assert_allclose(sigma[before], traj.times[before] / 2.0, atol=1e-6)

    def test_per_step_decrement_first_order(self):
        traj = simulate_poisson_cutoff(1.0, 1.0, 1000)
        h = np.diff(traj.times)[0]
        decs = -np.diff(traj.weights)
        expected = traj.weights[:-1] * h
        assert np.max(np.abs(decs - expected)) <= 2.0 * h**2

    def test_euler_refinement_halves_deviation(self):
        # first-order scheme: doubling the steps halves the worst deviation
        devs = []
        for steps in (250, 500, 1000, 2000):
            traj = simulate_poisson_cutoff(1.0, 1.0, steps, method="euler")
            devs.append(float(np.max(np.abs(traj.weights - np.exp(-traj.times)))))
        for coarse, fine in zip(devs, devs[1:]):
            assert coarse / fine == pytest.approx(2.0, rel=0.1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            simulate_poisson_cutoff(1.0, 2.0, 10, method="rk4")


class TestSharedStructure:
    def test_grid_contains_dt_even_when_off_grid(self):
        traj = simulate_direct(0.3333, 1.0, 7)
        assert np.any(np.isclose(traj.times, 0.3333))

    def test_index_of_a_fine_grid_is_the_exact_point(self):
        # on 10^5 steps t = 1 - 1e-5 lies within numpy's default rtol of 1
        traj = simulate_statistical(1.0, 1.0, 100000)
        i = traj.index_of(1.0)
        assert i == len(traj.times) - 1 and traj.times[i] == 1.0
        assert traj.weight_at(1.0) == traj.weights[i] == math.exp(-1.0)
        with pytest.raises(ValueError, match="not on the trajectory grid"):
            traj.index_of(0.123456789)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            simulate_direct(2.0, 1.0, 10)

    @given(
        dt=st.floats(0.1, 2.0),
        extra=st.floats(0.0, 3.0),
        steps=st.integers(5, 400),
        kind=st.sampled_from(["direct", "statistical", "poisson"]),
    )
    def test_sigma_nondecreasing(self, dt, extra, steps, kind):
        horizon = dt + extra
        sim = {
            "direct": simulate_direct,
            "statistical": simulate_statistical,
            "poisson": simulate_poisson_cutoff,
        }[kind]
        traj = sim(dt, horizon, steps)
        sigma = entropy_of_weight(traj)
        finite = sigma[np.isfinite(sigma)]
        assert np.all(np.diff(finite) >= -1e-12)
        # weights never increase, so sigma with the +inf sentinel stays ordered
        assert np.all(np.diff(traj.weights) <= 0.0)

    def test_step_count_does_not_move_plateaus(self):
        coarse = simulate_statistical(1.0, 2.0, 10)
        fine = simulate_statistical(1.0, 2.0, 10000)
        assert coarse.weight_at(0.0) == fine.weight_at(0.0) == 1.0
        assert coarse.weight_at(1.0) == fine.weight_at(1.0) == math.exp(-1.0)
        assert coarse.weight_at(2.0) == fine.weight_at(2.0) == math.exp(-1.0)
