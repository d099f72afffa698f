import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import logsumexp

from helpers import random_hermitian
from meterwork.jarzynski import (
    DriveSchedule,
    WorkSamples,
    _logsumexp,
    delta_F,
    jarzynski_equality_check,
    jarzynski_exact,
    jarzynski_time_ordered,
    modified_jarzynski_check,
    thermal_state,
    tpm_sample,
)
from meterwork.linalg import Operator
from meterwork.superselection import energy_sectors

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def qubit_gap(eps: float) -> Operator:
    return Operator.from_diagonal([0.0, eps])


def driven_qubit_schedule(n_steps: int = 50, t_f: float = 1.0) -> DriveSchedule:
    def h_at(lam: float) -> Operator:
        return Operator((1.0 - lam) * SZ + lam * SX, hermitian=True)

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
        e_init = np.array([s.energy for s in energy_sectors(sched.initial_hamiltonian())])
        e_fin = np.array([s.energy for s in energy_sectors(sched.final_hamiltonian())])
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

        def shifted_h(lam: float) -> Operator:
            return Operator(
                (1.0 - lam) * SZ + lam * SX + 0.7 * np.eye(2), hermitian=True
            )

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


class TestDriveScheduleValidation:
    def test_non_hermitian_path_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            DriveSchedule.constant(Operator([[0, 1], [0, 0]]))

    def test_dimension_change_rejected(self):
        def h_at(lam):
            return Operator.identity(2 if lam < 0.5 else 3)

        with pytest.raises(ValueError, match="dimension"):
            DriveSchedule.linear(h_at, 1.0, 2)

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
