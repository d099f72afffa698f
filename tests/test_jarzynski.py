import math
import re
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import logsumexp

from helpers import random_hermitian
from meterwork.jarzynski import (
    DriveSchedule,
    WorkSamples,
    _logsumexp,
    _sector_tables,
    delta_F,
    jarzynski_equality_check,
    jarzynski_exact,
    TIME_ORDERED_MAX_CONDITION,
    jarzynski_time_ordered,
    modified_jarzynski_check,
    thermal_state,
    tpm_blocks,
    tpm_sample,
)
from meterwork import cli
from meterwork.errors import NumericalConsistencyError
from meterwork.linalg import Operator
from meterwork.numeric import DEFAULT_POLICY
from meterwork.scheme import barrier_hamiltonian, site_diagonal_schedule, szilard_schedule
from meterwork.superselection import energy_sectors

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def qubit_gap(eps: float) -> Operator:
    return Operator.from_diagonal([0.0, eps])


def driven_qubit_schedule(n_steps: int = 50, t_f: float = 1.0) -> DriveSchedule:
    def h_at(lams: np.ndarray) -> np.ndarray:
        lams = lams[:, None, None]
        return (1.0 - lams) * SZ + lams * SX

    return DriveSchedule.linear(h_at, t_f, n_steps)


class TestThermalState:
    def test_infinite_temperature(self):
        rho = thermal_state(qubit_gap(1.0), 0.0)
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_zero_temperature_limit(self):
        rho = thermal_state(qubit_gap(1.0), 1e6)
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_gibbs_weights_closed_form(self):
        beta, eps = 1.3, 0.7
        rho = thermal_state(qubit_gap(eps), beta)
        excited = math.exp(-beta * eps) / (1.0 + math.exp(-beta * eps))
        assert rho.matrix[1, 1].real == pytest.approx(excited, abs=1e-14)

    def test_basis_independence(self, rng):
        h = random_hermitian(rng, 4)
        rho = thermal_state(Operator(h, hermitian=True), 0.8)
        w, v = np.linalg.eigh(h)
        oracle = (v * (np.exp(-0.8 * w) / np.exp(-0.8 * w).sum())) @ v.conj().T
        np.testing.assert_allclose(rho.matrix, oracle, atol=1e-13)


class TestDeltaF:
    def test_logsumexp_matches_scipy_bit_for_bit(self):
        gen = np.random.default_rng(17)
        for _ in range(3000):
            n = int(gen.integers(1, 70))
            a = gen.normal(size=n) * 10.0 ** gen.uniform(-12, 4)
            if n > 1 and gen.random() < 0.3:  # ties at the maximum
                a[gen.integers(0, n, size=2)] = a.max()
            if n > 1 and gen.random() < 0.3:  # ties on a coarse grid
                a = np.round(a, 1)
            if n > 2 and gen.random() < 0.2:
                a[gen.integers(0, n - 1)] = -np.inf
                a[-1] = 0.0
            ours = np.float64(_logsumexp(a))
            assert ours.tobytes() == np.float64(logsumexp(a)).tobytes(), a

    def test_identical_hamiltonians(self):
        assert delta_F(qubit_gap(1.0), qubit_gap(1.0), 2.0) == 0.0

    def test_quench_closed_form(self):
        # Z_0 = 1 + e^-1, Z_f = 1 + e^-2 at beta = 1, eps = 1 -> 2 eps
        got = delta_F(qubit_gap(1.0), qubit_gap(2.0), 1.0)
        want = -math.log((1.0 + math.exp(-2.0)) / (1.0 + math.exp(-1.0)))
        assert got == pytest.approx(want, abs=1e-14)

    def test_global_shift_adds_constant(self, rng):
        h = Operator(random_hermitian(rng, 3), hermitian=True)
        shifted = Operator(h.matrix + 0.9 * np.eye(3), hermitian=True)
        assert delta_F(h, shifted, 1.7) == pytest.approx(0.9, abs=1e-12)


class TestTpmBlocks:
    def test_blocks_are_the_stream_blocks_of_tpm_sample(self):
        sched = driven_qubit_schedule(n_steps=20)
        samples = tpm_sample(sched, 1.0, 9000, seed=5)
        blocks = list(tpm_blocks(sched, 1.0, 9000, seed=5))
        assert [(stream, rows.start, rows.stop) for stream, rows, _, _ in blocks] == [
            (0, 0, 4096), (1, 4096, 8192), (2, 8192, 9000)
        ]
        names = [f.name for f in fields(WorkSamples) if f.name not in ("stream_id", "draw_id")]
        for stream, rows, code, table in blocks:
            assert table is blocks[0][3]  # one table for every block
            assert sorted(table) == sorted(names)
            assert all(len(column) == 4 for column in table.values())  # (i, f) pairs of a qubit
            assert not any(column.flags.writeable for column in table.values())
            for name, column in table.items():
                want = getattr(samples, name)[rows]
                assert column.dtype == want.dtype
                assert column[code].tobytes() == want.tobytes(), name
            assert (samples.stream_id[rows] == stream).all()

    def test_pair_code_is_the_flat_index_of_both_outcomes(self):
        h_i = Operator.from_diagonal([0.0, 0.0, 1.0])  # two sectors, one doubly degenerate
        h_f = Operator(np.array([[0.5, 0.3, 0.0], [0.3, -0.2, 0.4], [0.0, 0.4, 1.1]]),
                       hermitian=True)
        sched = DriveSchedule.linear(cli._interpolation(h_i, h_f), 1.0, 20)
        (_, rows, code, table), = tpm_blocks(sched, 1.0, 3000, seed=2)
        i, f = table["initial_outcome_index"], table["final_outcome_index"]
        np.testing.assert_array_equal(i * 3 + f, np.arange(6))
        assert sorted(set(code.tolist())) == list(range(6))  # every pair is drawn
        work = table["final_energy"] - table["initial_energy"]
        assert table["work"].tobytes() == work.tobytes()

    @pytest.mark.parametrize("drive", ["driven-qubit", "degenerate-qutrit"])
    def test_pair_probabilities_are_the_born_weights_by_hand(self, drive):
        if drive == "driven-qubit":
            sched, beta = driven_qubit_schedule(n_steps=20), 1.3
        else:
            h_i = Operator.from_diagonal([0.0, 0.0, 1.0])
            h_f = Operator(np.array([[0.5, 0.3, 0.0], [0.3, -0.2, 0.4], [0.0, 0.4, 1.1]]),
                           hermitian=True)
            sched, beta = DriveSchedule.linear(cli._interpolation(h_i, h_f), 1.0, 20), 0.7
        branches = _sector_tables(sched, beta, policy=DEFAULT_POLICY)
        init = energy_sectors(sched.initial_hamiltonian())
        fin = energy_sectors(sched.final_hamiltonian())
        u = sched.total_propagator()
        z = sum(math.exp(-beta * e) * np.trace(p.matrix).real
                for e, p in zip(init.labels, init.projectors))
        want = [
            math.exp(-beta * e_i) / z * np.trace(q.matrix @ u @ p.matrix @ u.conj().T).real
            for e_i, p in zip(init.labels, init.projectors) for q in fin.projectors
        ]
        np.testing.assert_allclose(branches.probabilities, want, rtol=1e-12, atol=1e-15)
        p_init, cond = branches.stages
        assert branches.probabilities.tobytes() == (p_init[:, None] * cond).tobytes()
        assert branches.pruned_mass == 0.0  # a TPM draw prunes nothing
        assert branches.code_dtype == np.uint8

    @pytest.mark.parametrize(
        "beta, n, message",
        [(1.0, 0, "need at least one sample, got 0"),
         (-1.0, 10, "beta must be nonnegative and finite, got -1.0")],
    )
    def test_domain_errors_are_raised_on_the_call(self, beta, n, message):
        sched = DriveSchedule.constant(qubit_gap(1.0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tpm_blocks(sched, beta, n, seed=1)  # no block is asked for

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be an integer in [0, 2**64), got -1"),
         (2**64, "seed must be an integer in [0, 2**64), got 18446744073709551616"),
         (1.5, "seed must be an integer, got 1.5")],
    )
    def test_seed_is_checked_on_the_call(self, seed, message):
        sched = DriveSchedule.constant(qubit_gap(1.0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tpm_blocks(sched, 1.0, 10, seed=seed)  # no block is asked for


class TestTpmSample:
    def test_constant_schedule_zero_work(self):
        sched = DriveSchedule.constant(qubit_gap(1.0), t_f=1.0, n_steps=3)
        samples = tpm_sample(sched, 1.0, 500, seed=4)
        assert len(samples) == 500
        assert np.all(samples.work == 0.0)

    def test_work_field_is_energy_difference(self):
        s = WorkSamples(initial_energy=[0.25], final_energy=[1.0],
                        initial_outcome_index=[0], final_outcome_index=[1],
                        stream_id=[0], draw_id=[0])
        assert s.work[0] == 0.75

    def test_quench_distribution_matches_gibbs(self):
        beta, eps = 1.0, 1.0
        sched = DriveSchedule.quench(qubit_gap(eps), qubit_gap(2 * eps))
        n = 40000
        samples = tpm_sample(sched, beta, n, seed=11)
        works = samples.work
        support = np.unique(works)
        np.testing.assert_allclose(support, [0.0, eps], atol=1e-12)
        p_excited = math.exp(-beta * eps) / (1.0 + math.exp(-beta * eps))
        freq = np.mean(works == eps)
        se = math.sqrt(p_excited * (1 - p_excited) / n)
        assert abs(freq - p_excited) <= 4 * se

    def test_driven_qubit_estimator_matches_delta_f(self):
        beta = 1.0
        sched = driven_qubit_schedule(n_steps=200)
        samples = tpm_sample(sched, beta, 30000, seed=3)
        df = delta_F(sched.initial_hamiltonian(), sched.final_hamiltonian(), beta)
        report = jarzynski_equality_check(samples, beta, df)
        assert report.passed

    def test_longer_run_extends_shorter_run(self):
        # 5000 samples end inside the second stream block of the 9000 run
        sched = driven_qubit_schedule(n_steps=20)
        longer = tpm_sample(sched, 1.0, 9000, seed=5)
        shorter = tpm_sample(sched, 1.0, 5000, seed=5)
        for f in fields(WorkSamples):
            head = getattr(longer, f.name)[:5000]
            assert head.tobytes() == getattr(shorter, f.name).tobytes(), f.name

    def test_stream_ids_partition_draws(self):
        sched = DriveSchedule.constant(qubit_gap(1.0))
        samples = tpm_sample(sched, 1.0, 5000, seed=0)
        assert samples.draw_id.tolist() == list(range(5000))
        assert set(samples.stream_id.tolist()) == {0, 1}

    def test_columns_are_read_only_and_consistent(self):
        sched = driven_qubit_schedule(n_steps=20)
        samples = tpm_sample(sched, 1.0, 3000, seed=6)
        e_init = np.array(energy_sectors(sched.initial_hamiltonian()).labels)
        e_fin = np.array(energy_sectors(sched.final_hamiltonian()).labels)
        assert_eq = np.testing.assert_array_equal
        assert_eq(samples.initial_energy, e_init[samples.initial_outcome_index])
        assert_eq(samples.final_energy, e_fin[samples.final_outcome_index])
        assert_eq(samples.work, samples.final_energy - samples.initial_energy)
        with pytest.raises(ValueError, match="read-only"):
            samples.work[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            samples.draw_id[0] = 1

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="stream_id"):
            WorkSamples(initial_energy=[0.0, 1.0], final_energy=[1.0, 1.0],
                        initial_outcome_index=[0, 1], final_outcome_index=[1, 1],
                        stream_id=[0], draw_id=[0, 1])

    def test_tpm_columns_are_read_only_and_own_their_data(self):
        samples = tpm_sample(driven_qubit_schedule(n_steps=20), 1.0, 5000, seed=8)
        for f in fields(samples):
            col = getattr(samples, f.name)
            assert col.flags.owndata and not col.flags.writeable, f.name

    def test_compares_and_hashes_by_identity(self):
        sched = driven_qubit_schedule(n_steps=20)
        a = tpm_sample(sched, 1.0, 50, seed=12)
        b = tpm_sample(sched, 1.0, 50, seed=12)
        assert a == a and a != b
        assert len({a, a, b}) == 2

    def test_checks_accept_columns_or_work_array(self):
        sched = driven_qubit_schedule(n_steps=20)
        samples = tpm_sample(sched, 1.0, 2000, seed=12)
        assert jarzynski_equality_check(samples, 1.0, 0.1) == jarzynski_equality_check(
            samples.work, 1.0, 0.1
        )
        assert modified_jarzynski_check(samples, 1.0, 0.1) == modified_jarzynski_check(
            np.array(samples.work), 1.0, 0.1
        )


class TestJarzynskiExact:
    def test_constant_schedule_is_one(self):
        sched = DriveSchedule.constant(qubit_gap(1.0), t_f=2.0, n_steps=5)
        assert jarzynski_exact(sched, 1.3) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_quench_closed_form(self):
        beta = 1.0
        sched = DriveSchedule.quench(qubit_gap(1.0), qubit_gap(2.0))
        # four-outcome-pair closed form collapses to Z_f / Z_0
        want = (1.0 + math.exp(-2.0)) / (1.0 + math.exp(-1.0))
        assert jarzynski_exact(sched, beta) == pytest.approx(want, abs=1e-14)

    def test_noncommuting_drive_matches_free_energy(self):
        beta = 0.9
        for n in (100, 200, 400):
            sched = driven_qubit_schedule(n_steps=n)
            df = delta_F(sched.initial_hamiltonian(), sched.final_hamiltonian(), beta)
            assert abs(jarzynski_exact(sched, beta) - math.exp(-beta * df)) <= 1e-10

    def test_n_refinement_stays_within_fine_step_oracle(self):
        # exactness at any step count: doubling N keeps the value pinned to the
        # 10x-finer evaluation within rounding
        beta = 1.0
        fine = jarzynski_exact(driven_qubit_schedule(n_steps=4000), beta)
        for n in (100, 200, 400):
            coarse = jarzynski_exact(driven_qubit_schedule(n_steps=n), beta)
            assert abs(coarse - fine) <= 1e-10

    def test_two_code_paths_agree(self):
        # enumeration vs time-ordered operator product
        beta = 1.1
        for n in (25, 100, 400):
            sched = driven_qubit_schedule(n_steps=n)
            a = jarzynski_exact(sched, beta)
            b = jarzynski_time_ordered(sched, beta)
            assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("beta", [10.0, 15.0, 20.0])
    def test_time_ordered_refuses_beta_past_its_conditioning(self, beta):
        # the 400-step driven qubit gave 0.944, -5.7e213 and NaN here
        # (exact value 1), with only numpy RuntimeWarnings
        sched = driven_qubit_schedule(n_steps=400)
        bound = math.log(TIME_ORDERED_MAX_CONDITION) / 2.0  # E_max - E_min = 2
        with pytest.raises(NumericalConsistencyError, match=rf"beta {beta!r} .* {bound:.6g}"):
            jarzynski_time_ordered(sched, beta)

    def test_time_ordered_holds_up_to_its_conditioning_bound(self):
        sched = driven_qubit_schedule(n_steps=400)
        beta = math.log(TIME_ORDERED_MAX_CONDITION) / 2.0
        assert abs(jarzynski_time_ordered(sched, beta) - jarzynski_exact(sched, beta)) <= 1e-10

    def test_time_ordered_on_commuting_drive(self):
        sched = DriveSchedule.constant(qubit_gap(1.0), t_f=1.0, n_steps=7)
        assert jarzynski_time_ordered(sched, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_sectors_handled(self):
        # H with a 2-fold degenerate level exercises full-sector collapse
        h0 = Operator.from_diagonal([0.0, 0.0, 1.0])
        h1 = Operator.from_diagonal([0.5, 0.5, 2.0])
        sched = DriveSchedule.quench(h0, h1)
        beta = 1.0
        z0 = 2.0 + math.exp(-1.0)
        zf = 2.0 * math.exp(-0.5) + math.exp(-2.0)
        assert jarzynski_exact(sched, beta) == pytest.approx(zf / z0, abs=1e-13)


class TestEqualityCheck:
    def test_constant_samples_pass_exactly(self):
        sched = DriveSchedule.constant(qubit_gap(1.0))
        samples = tpm_sample(sched, 1.0, 100, seed=1)
        report = jarzynski_equality_check(samples, 1.0, 0.0)
        assert report.estimator_mean == 1.0
        assert report.standard_error == 0.0
        assert report.passed

    def test_commuting_quench_passes(self):
        beta = 1.0
        sched = DriveSchedule.quench(qubit_gap(1.0), qubit_gap(2.0))
        samples = tpm_sample(sched, beta, 10**5, seed=42)
        df = delta_F(sched.initial_hamiltonian(), sched.final_hamiltonian(), beta)
        assert jarzynski_equality_check(samples, beta, df).passed

    def test_wrong_delta_f_fails(self):
        beta = 1.0
        sched = DriveSchedule.quench(qubit_gap(1.0), qubit_gap(2.0))
        samples = tpm_sample(sched, beta, 10**5, seed=42)
        df = delta_F(sched.initial_hamiltonian(), sched.final_hamiltonian(), beta)
        assert not jarzynski_equality_check(samples, beta, 1.1 * df).passed

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            jarzynski_equality_check([], 1.0, 0.0)

    def test_jensen_mean_work_above_delta_f(self):
        beta = 1.0
        sched = driven_qubit_schedule(n_steps=100)
        samples = tpm_sample(sched, beta, 20000, seed=8)
        df = delta_F(sched.initial_hamiltonian(), sched.final_hamiltonian(), beta)
        report = jarzynski_equality_check(samples, beta, df)
        works = samples.work
        se_w = works.std(ddof=1) / math.sqrt(len(works))
        assert report.mean_work >= df - 3 * se_w


class TestZeroVarianceVerdicts:
    """Deterministic works carry no statistical error, so 3 SE is 0 and only
    the rounding of exp and of the means separates estimate from target."""

    LEVELS = np.linspace(-3.0, 3.0, 300)

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 1000, 20000])
    def test_equality_passes_on_constant_work(self, n):
        failed = [
            c for c in self.LEVELS
            if not jarzynski_equality_check(np.full(n, c), 1.0, c).passed
        ]
        assert failed == []

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 1000, 20000])
    def test_modified_check_passes_on_constant_work(self, n):
        reports = [
            modified_jarzynski_check(np.full(n, c + 3.0), 1.0, c, sigma_total=3.0)
            for c in self.LEVELS
        ]
        assert [c for c, r in zip(self.LEVELS, reports) if not r.passed] == []
        assert [c for c, r in zip(self.LEVELS, reports) if not r.inequality_ok] == []

    def test_rounding_floor_still_rejects_a_wrong_target(self):
        works = np.full(1000, 0.7)
        assert not jarzynski_equality_check(works, 1.0, 0.7 + 1e-12).passed
        report = modified_jarzynski_check(works + 3.0, 1.0, 0.7 + 1e-12, sigma_total=3.0)
        assert not report.passed
        assert not report.inequality_ok

    @pytest.mark.parametrize("n", [1, 2, 1000, 20000])
    @pytest.mark.parametrize("beta", [0.3, 2.5, 5.0])
    def test_verdicts_pass_on_constant_work_at_any_temperature(self, beta, n):
        # exp(-beta W + sigma) and exp(-beta dF) carry rounding in proportion
        # to their exponents, here up to |beta c| = 15
        original = [
            c for c in self.LEVELS
            if not jarzynski_equality_check(np.full(n, c), beta, c).passed
        ]
        modified = [
            modified_jarzynski_check(np.full(n, c + 3.0 / beta), beta, c, sigma_total=3.0)
            for c in self.LEVELS
        ]
        assert original == []
        assert [c for c, r in zip(self.LEVELS, modified) if not r.passed] == []
        assert [c for c, r in zip(self.LEVELS, modified) if not r.inequality_ok] == []

    @pytest.mark.parametrize("beta", [0.3, 5.0])
    def test_scaled_rounding_floor_still_rejects_a_wrong_target(self, beta):
        works = np.full(1000, 3.0)
        assert not jarzynski_equality_check(works, beta, 3.0 + 1e-12).passed
        report = modified_jarzynski_check(
            works + 3.0 / beta, beta, 3.0 + 1e-12, sigma_total=3.0
        )
        assert not report.passed
        assert not report.inequality_ok


class TestUnderflowedVerdicts:
    """An estimate or a target that exp has rounded to 0 carries no
    information about the equality, so its verdict must not pass."""

    def test_every_weight_and_the_target_underflowed(self):
        works = np.array([1.0, 1.0, 2.0])
        report = jarzynski_equality_check(works, 1e300, 1.0)
        assert (report.estimator_mean, report.exact_value) == (0.0, 0.0)
        assert not report.passed
        modified = modified_jarzynski_check(works, 1e300, 1.0, sigma_total=2.0)
        assert (modified.estimator_mean, modified.exact_value) == (0.0, 0.0)
        assert not modified.passed

    def test_target_underflowed_below_a_noisy_estimate(self):
        # one weight of 1 among 0s: 3 SE covers the whole mean
        works = np.array([0.0] + [1000.0] * 9)
        report = jarzynski_equality_check(works, 1.0, 800.0)
        assert report.exact_value == 0.0 and report.estimator_mean == 0.1
        assert not report.passed

    def test_every_weight_underflowed_against_a_subnormal_target(self):
        report = jarzynski_equality_check(np.full(4, 1000.0), 1.0, 744.0)
        assert report.estimator_mean == 0.0 and 0.0 < report.exact_value < 1e-300
        assert not report.passed


class TestModifiedCheck:
    def test_injected_accounting_cancels(self):
        beta = 1.0
        sched = DriveSchedule.quench(qubit_gap(1.0), qubit_gap(2.0))
        samples = tpm_sample(sched, beta, 20000, seed=9)
        drive_works = samples.work
        total_works = drive_works + 3.0  # three injected k_B T amounts at k_B T = 1
        df = delta_F(sched.initial_hamiltonian(), sched.final_hamiltonian(), beta)
        plain = jarzynski_equality_check(drive_works, beta, df)
        modified = modified_jarzynski_check(total_works, beta, df, sigma_total=3.0)
        assert modified.estimator_mean == pytest.approx(plain.estimator_mean, rel=1e-12)
        assert modified.passed

    def test_work_gap_is_exactly_injected_amount(self):
        works = np.array([0.1, -0.4, 0.9])
        shifted = works + 3.0
        assert np.mean(shifted) - np.mean(works) == pytest.approx(3.0, abs=1e-12)

    def test_inequality_floor_reported(self):
        beta = 2.0
        samples = np.array([2.0, 2.5, 3.0])
        report = modified_jarzynski_check(samples, beta, 0.3, sigma_total=3.0)
        assert report.work_floor == pytest.approx(0.3 + 3.0 / beta, abs=1e-14)
        assert report.inequality_ok

    def test_per_sample_sigma_gives_each_run_its_counter_factor(self):
        # runs booking 1 or 3 nats: exp(-beta W_total + sigma) is exp(-beta W_drive)
        drive = np.array([0.25, -0.5, 0.75, 0.125])  # dyadic: the shifts are exact
        sigma = np.array([1.0, 3.0, 3.0, 1.0])
        report = modified_jarzynski_check(drive + sigma, 1.0, 0.0, sigma_total=sigma)
        plain = jarzynski_equality_check(drive, 1.0, 0.0)
        assert report.estimator_mean == plain.estimator_mean
        assert report.sigma_total == 2.0 and report.work_floor == 2.0

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_per_sample_sigma_of_another_length_is_rejected(self, length):
        with pytest.raises(ValueError, match=rf"sigma_total holds {length} values for 4 samples"):
            modified_jarzynski_check(np.zeros(4), 1.0, 0.0, sigma_total=np.ones(length))

    def test_jensen_inequality_on_every_sample_set(self, rng):
        beta = 1.0
        for _ in range(20):
            works = rng.normal(size=50) + 3.0
            vals = np.exp(-beta * works + 3.0)
            assert math.exp(np.mean(-beta * works + 3.0)) <= np.mean(vals) + 1e-12


class TestStatisticalStructure:
    def test_estimator_error_scales_as_inverse_sqrt_n(self):
        # direct-draw study against the closed-form outcome distribution of the
        # commuting quench (oracle built inline, no sampler plumbing)
        beta, eps = 1.0, 1.0
        p_hot = math.exp(-beta * eps) / (1.0 + math.exp(-beta * eps))
        target = (1.0 + math.exp(-2.0)) / (1.0 + math.exp(-1.0))
        gen = np.random.default_rng(123)
        sizes = [100, 1000, 10000, 100000]
        rms = []
        reps = 100
        for n in sizes:
            draws = gen.random((reps, n)) < p_hot
            vals = np.where(draws, math.exp(-beta * eps), 1.0)
            means = vals.mean(axis=1)
            rms.append(math.sqrt(np.mean((means - target) ** 2)))
        slope = np.polyfit(np.log10(sizes), np.log10(rms), 1)[0]
        assert abs(slope + 0.5) <= 0.15

    def test_global_energy_shift_invariance(self):
        beta = 1.0
        base = driven_qubit_schedule(n_steps=60)

        def shifted_h(lams: np.ndarray) -> np.ndarray:
            lams = lams[:, None, None]
            return (1.0 - lams) * SZ + lams * SX + 0.7 * np.eye(2)

        shifted = DriveSchedule.linear(shifted_h, 1.0, 60)
        df_base = delta_F(base.initial_hamiltonian(), base.final_hamiltonian(), beta)
        df_shift = delta_F(shifted.initial_hamiltonian(), shifted.final_hamiltonian(), beta)
        assert df_shift - df_base == pytest.approx(0.0, abs=1e-12)
        ratio_base = jarzynski_exact(base, beta) / math.exp(-beta * df_base)
        ratio_shift = jarzynski_exact(shifted, beta) / math.exp(-beta * df_shift)
        assert ratio_base == pytest.approx(1.0, abs=1e-12)
        assert ratio_shift == pytest.approx(1.0, abs=1e-12)


class TestNonequilibriumFreeEnergy:
    def test_relative_entropy_to_canonical_state_gives_free_energy_gap(self, rng):
        # k_B T S(rho || rho_can) equals the nonequilibrium free energy of rho
        # above the equilibrium value, F(rho) = <H> - T S_vN(rho)
        from meterwork.measurement import generalized_relative_entropy

        beta = 1.3
        h = Operator(random_hermitian(rng, 4), hermitian=True)
        rho_can = thermal_state(h, beta)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        rho = m / np.trace(m).real
        from meterwork.linalg import DensityMatrix

        rho = DensityMatrix(rho)

        rel = generalized_relative_entropy(rho, rho_can) / beta
        energy = float(np.trace(h.matrix @ rho.matrix).real)
        evals = np.linalg.eigvalsh(rho.matrix)
        evals = evals[evals > 1e-14]
        entropy = float(-np.sum(evals * np.log(evals)))
        f_neq = energy - entropy / beta
        w = np.linalg.eigvalsh(h.matrix)
        f_eq = -math.log(np.exp(-beta * w).sum()) / beta
        assert rel == pytest.approx(f_neq - f_eq, abs=1e-10)
        assert rel >= 0.0  # canonical reference keeps non-negativity


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _input_columns(make) -> dict:
    """One 3-entry column per WorkSamples input field, each from make(dtype)."""
    return {
        f.name: make(np.float64 if f.name.endswith("energy") else np.int64)
        for f in fields(WorkSamples)
        if f.init
    }


class TestWorkSamplesColumns:
    def test_read_only_data_owning_column_of_its_dtype_is_kept(self):
        given_cols = _input_columns(lambda dtype: _frozen(np.arange(3, dtype=dtype)))
        samples = WorkSamples(**given_cols)
        for name, col in given_cols.items():
            assert getattr(samples, name) is col, name

    @pytest.mark.parametrize("make", [
        pytest.param(lambda dtype: np.arange(3, dtype=dtype), id="writable"),
        pytest.param(lambda dtype: np.arange(6, dtype=dtype)[::2], id="writable-view"),
        pytest.param(lambda dtype: _frozen(np.arange(6, dtype=dtype)[:3]), id="read-only-view"),
        pytest.param(lambda dtype: _frozen(np.arange(3, dtype=np.int32)), id="other-dtype"),
    ])
    def test_any_other_array_is_copied_and_left_as_it_was(self, make):
        given_cols = _input_columns(make)
        flags = {name: col.flags.writeable for name, col in given_cols.items()}
        samples = WorkSamples(**given_cols)
        for name, col in given_cols.items():
            kept = getattr(samples, name)
            assert not np.shares_memory(kept, col), name
            assert not kept.flags.writeable and kept.flags.owndata
            assert col.flags.writeable == flags[name]
            assert kept.dtype == (np.float64 if name.endswith("energy") else np.int64)
            np.testing.assert_array_equal(kept, col)

    def test_list_is_copied(self):
        samples = WorkSamples(**_input_columns(lambda dtype: [0, 1, 2]))
        assert samples.initial_energy.dtype == np.float64
        assert samples.draw_id.dtype == np.int64
        assert not samples.draw_id.flags.writeable
        np.testing.assert_array_equal(samples.work, [0.0, 0.0, 0.0])


class TestDriveScheduleValidation:
    def test_non_hermitian_path_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            DriveSchedule.constant(Operator([[0, 1], [0, 0]]))

    def test_dimension_change_rejected(self):
        # a stack holds one dimension; a map can only get the stack's shape wrong
        for shape in [(3, 2), (3, 2, 3), (2, 2, 2), (4, 2, 2), (3, 1, 2, 2)]:
            with pytest.raises(ValueError, match=re.escape(
                f"hamiltonian stack has shape {shape}, expected (3, d, d)"
            )):
                DriveSchedule.linear(lambda lams: np.zeros(shape), 1.0, 2)

    @pytest.mark.parametrize("value, problem", [
        (math.nan, "has non-finite entries"),
        (math.inf, "has non-finite entries"),
        (complex(0.0, math.inf), "has non-finite entries"),
        (1j, "is not hermitian"),
    ])
    def test_first_bad_control_value_is_named(self, value, problem):
        def h_at(lams):
            h = np.zeros((lams.size, 2, 2), dtype=complex)
            h[2:, 0, 1] = value  # a lone off-diagonal entry breaks hermiticity too
            return h

        message = f"^hamiltonian at control value 0.5 {problem}$"
        with pytest.raises(ValueError, match=message):
            DriveSchedule.linear(h_at, 1.0, 4)

    def test_map_is_called_once_and_its_stack_is_kept_as_a_read_only_copy(self):
        calls = []
        stack = np.zeros((5, 2, 2), dtype=complex)

        def h_at(lams):
            calls.append(lams)
            return stack

        sched = DriveSchedule.linear(h_at, 1.0, 4)
        assert len(calls) == 1 and calls[0] is sched.lambdas
        assert not np.shares_memory(sched.hamiltonians, stack)
        assert not sched.hamiltonians.flags.writeable and stack.flags.writeable
        assert sched.hamiltonians.shape == (5, 2, 2) and sched.dim == 2

    def test_lambda_grid_spacing(self):
        sched = driven_qubit_schedule(n_steps=4)
        np.testing.assert_allclose(sched.lambdas, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)

    def test_total_propagator_is_built_once_read_only_and_equal_to_the_step_loop(self):
        sched = driven_qubit_schedule(n_steps=30)
        loop = np.eye(2, dtype=complex)
        for step in sched.step_propagators():
            loop = step @ loop
        u = sched.total_propagator()
        assert sched.total_propagator() is u
        assert not u.flags.writeable
        np.testing.assert_array_equal(u.view(np.uint8), loop.view(np.uint8))


def _old_scalar_builders() -> dict:
    """Each schedule and the per-control-value builder of its Hamiltonians
    that the stacked maps replaced, as it was: one matrix per float lambda."""
    sz, sx = cli._pauli_z(), cli._pauli_x()
    h0, h1 = qubit_gap(1.0), qubit_gap(2.0)
    h_i = Operator([[0.0, 0.0], [0.0, 1.0]], hermitian=True)
    h_f = Operator([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, 1.5]], hermitian=True)
    return {
        "driven-qubit": (
            cli._scenario_schedule(
                {"scenario": "driven-qubit", "steps": 400, "schedule_file": ""}
            ),
            lambda lam: Operator((1.0 - lam) * sz.matrix + lam * sx.matrix, hermitian=True),
        ),
        "custom": (
            DriveSchedule.linear(cli._interpolation(h_i, h_f), 0.7, 30),
            lambda lam: Operator((1.0 - lam) * h_i.matrix + lam * h_f.matrix, hermitian=True),
        ),
        "szilard": (
            szilard_schedule(),
            lambda lam: barrier_hamiltonian(1.0 + (0.25 - 1.0) * lam),
        ),
        "site-diagonal": (
            site_diagonal_schedule(1.0, 0.4, 1.3, 7),
            lambda lam: Operator.from_diagonal(np.array([0.0, 1.0 + (0.4 - 1.0) * lam])),
        ),
        "constant": (DriveSchedule.constant(h0, 1.0, 3), lambda lam: h0),
        "quench": (DriveSchedule.quench(h0, h1), lambda lam: h0 if lam < 0.5 else h1),
    }


class TestStackedSchedules:
    @pytest.mark.parametrize("name", list(_old_scalar_builders()))
    def test_stack_and_propagators_equal_the_per_step_reference_bitwise(self, name):
        sched, h_at = _old_scalar_builders()[name]
        dt = sched.t_f / sched.n_steps
        steps = sched.step_propagators()
        assert steps.shape == (sched.n_steps, sched.dim, sched.dim)
        u = np.eye(sched.dim, dtype=complex)
        for n, lam in enumerate(sched.lambdas.tolist()):
            h = h_at(lam).matrix
            assert sched.hamiltonian_matrix(n).tobytes() == h.tobytes(), n
            if n < sched.n_steps:
                # the per-step propagator, one eigendecomposition per step
                w, v = np.linalg.eigh(h)
                step = (v * np.exp(-1j * w * dt)) @ v.conj().T
                assert steps[n].tobytes() == step.tobytes(), n
                u = step @ u
        assert sched.total_propagator().tobytes() == u.tobytes()
        assert sched.initial_hamiltonian().matrix.tobytes() == h_at(0.0).matrix.tobytes()
        assert sched.final_hamiltonian().matrix.tobytes() == h_at(1.0).matrix.tobytes()

    # jarzynski_time_ordered at beta 0.5 and 2, as float.hex, recorded before
    # it read its cumulative propagators from the schedule
    _TIME_ORDERED_BITS = {
        "driven-qubit": ("0x1.fffffffffffc4p-1", "0x1.fffffffffff22p-1"),
        "custom": ("0x1.9130a6aa77ef6p-1", "0x1.95d9b52389d70p-2"),
        "szilard": ("0x1.c99a690beb09ap-1", "0x1.32eb3d78834e7p-2"),
        "site-diagonal": ("0x1.21d06225de5eap+0", "0x1.46ccf1fd1fbd2p+0"),
        "constant": ("0x1.0000000000000p+0", "0x1.fffffffffffffp-1"),
        "quench": ("0x1.b3f12a6161d2cp-1", "0x1.cb3a55e04d406p-1"),
    }

    @pytest.mark.parametrize("name", list(_TIME_ORDERED_BITS))
    def test_time_ordered_bits_are_unchanged(self, name):
        sched, _ = _old_scalar_builders()[name]
        got = tuple(jarzynski_time_ordered(sched, beta).hex() for beta in (0.5, 2.0))
        assert got == self._TIME_ORDERED_BITS[name]

    def test_one_cumulative_product_serves_both_readers(self, monkeypatch):
        calls = []
        original = DriveSchedule.step_propagators

        def counted(schedule):
            calls.append(schedule)
            return original(schedule)

        monkeypatch.setattr(DriveSchedule, "step_propagators", counted)
        sched = driven_qubit_schedule(n_steps=30)
        u = sched.total_propagator()
        jarzynski_time_ordered(sched, 1.0)
        jarzynski_exact(sched, 1.0)
        assert len(calls) == 1
        assert u.flags.owndata and not u.flags.writeable

    def test_time_ordered_spread_is_the_largest_per_step_one(self):
        sched = driven_qubit_schedule(n_steps=40)
        spread = max(float(np.ptp(np.linalg.eigvalsh(h))) for h in sched.hamiltonians)
        beta = math.log(TIME_ORDERED_MAX_CONDITION) / spread
        jarzynski_time_ordered(sched, beta)
        with pytest.raises(NumericalConsistencyError, match=f"exp\\(beta \\* {spread:.6g}\\)"):
            jarzynski_time_ordered(sched, math.nextafter(beta, math.inf))


class TestBetaDomain:
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_beta_rejected(self, beta):
        sched = driven_qubit_schedule(n_steps=4)
        h = sched.initial_hamiltonian()
        positive = rf"beta must be positive and finite, got {beta!r}"
        nonnegative = rf"beta must be nonnegative and finite, got {beta!r}"
        with pytest.raises(ValueError, match=positive):
            delta_F(h, h, beta)
        with pytest.raises(ValueError, match=positive):
            modified_jarzynski_check(np.zeros(3), beta, 0.0)
        with pytest.raises(ValueError, match=positive):
            jarzynski_equality_check(np.zeros(3), beta, 0.0)
        with pytest.raises(ValueError, match=nonnegative):
            thermal_state(h, beta)
        with pytest.raises(ValueError, match=nonnegative):
            tpm_sample(sched, beta, 10, seed=1)
        with pytest.raises(ValueError, match=nonnegative):
            jarzynski_exact(sched, beta)
        with pytest.raises(ValueError, match=nonnegative):
            jarzynski_time_ordered(sched, beta)

    def test_zero_beta_stays_legal_where_it_was(self):
        sched = driven_qubit_schedule(n_steps=4)
        np.testing.assert_allclose(thermal_state(sched.initial_hamiltonian(), 0.0).matrix,
                                   np.eye(2) / 2, atol=1e-15)
        assert len(tpm_sample(sched, 0.0, 10, seed=1)) == 10
        assert jarzynski_exact(sched, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert jarzynski_time_ordered(sched, 0.0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="positive and finite, got 0.0"):
            delta_F(sched.initial_hamiltonian(), sched.final_hamiltonian(), 0.0)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("sigma, named", [
        (math.nan, "nan"),
        (math.inf, "inf"),
        (np.array([0.0, math.inf, 0.0]), "inf"),
        (np.array([1.0, 2.0, -math.inf]), "-inf"),
        (np.array([math.nan, 0.0, 0.0]), "nan"),
    ])
    def test_non_finite_sigma_total_is_named(self, sigma, named):
        with pytest.raises(ValueError, match=rf"^sigma_total must be finite, got {named}$"):
            modified_jarzynski_check(np.zeros(3), 1.0, 0.0, sigma_total=sigma)

    @pytest.mark.parametrize("delta_f", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_f_is_named(self, delta_f):
        message = rf"^delta_f must be finite, got {delta_f!r}$"
        with pytest.raises(ValueError, match=message):
            jarzynski_equality_check(np.zeros(3), 1.0, delta_f)
        with pytest.raises(ValueError, match=message):
            modified_jarzynski_check(np.zeros(3), 1.0, delta_f)
