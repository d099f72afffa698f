import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_density, random_hermitian, random_ket
from meterwork.errors import (
    CoherentInputError,
    CommensurabilityError,
    DegenerateDistributionError,
    SupportError,
)
from meterwork.linalg import (
    CompositeSpace,
    DensityMatrix,
    Ket,
    Operator,
    ProjectorSet,
    evolve,
    expectation,
    partial_trace,
)
from meterwork.measurement import (
    EntropyLedger,
    PhaseDisplacement,
    PointerModel,
    born_probabilities,
    direct_relaxation_truncation,
    entangle_pointer,
    event_read,
    generalized_relative_entropy,
    nonselective_measure,
    phase_equivalence_trigger,
    pointer_coupling_unitary,
    reading_distribution,
    redefine_system,
    select_outcome,
    statistical_relaxation_truncation,
    von_neumann_hamiltonian,
    work_event_reading,
)
from meterwork.numeric import NumericPolicy
from meterwork.streams import stream_generator


def z_projector_set(dim: int = 2) -> ProjectorSet:
    projs = []
    for k in range(dim):
        m = np.zeros((dim, dim))
        m[k, k] = 1.0
        projs.append(Operator(m, projector=True))
    return ProjectorSet(tuple(projs), tuple(range(dim)))


class TestPointerModel:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_generator_translates_grid_points(self, dim):
        pm = PointerModel(dim, grid_step=0.5)
        w, v = np.linalg.eigh(pm.momentum_generator.matrix)
        for s in range(dim):
            u = (v * np.exp(-1j * s * pm.grid_step * w)) @ v.conj().T
            np.testing.assert_allclose(u, pm.translation(s), atol=1e-12)

    def test_shift_points_sign_convention(self):
        pm = PointerModel(8, coupling=1.0, duration=1.0)
        # displacement is -duration*coupling*eigenvalue
        assert pm.shift_points(1.0) == 7  # -1 mod 8
        assert pm.shift_points(-2.0) == 2

    def test_incommensurate_shift_rejected(self):
        pm = PointerModel(4)
        with pytest.raises(CommensurabilityError):
            pm.shift_points(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PointerModel(1)
        with pytest.raises(ValueError):
            PointerModel(4, coupling=-1.0)


class TestVonNeumannHamiltonian:
    def test_null_coupling(self):
        pm = PointerModel(4)
        h = von_neumann_hamiltonian(Operator(np.zeros((2, 2)), hermitian=True), pm)
        assert np.all(h.matrix == 0.0)

    def test_identity_factor(self):
        pm = PointerModel(4, coupling=1.0)
        h = von_neumann_hamiltonian(Operator.identity(2), pm)
        np.testing.assert_allclose(
            h.matrix, -np.kron(np.eye(2), pm.momentum_generator.matrix), atol=0
        )

    def test_matches_kron_assembly_entrywise(self):
        pm = PointerModel(8, coupling=1.5)
        obs = Operator.from_diagonal([1.0, -1.0])
        h = von_neumann_hamiltonian(obs, pm).matrix
        p = pm.momentum_generator.matrix
        for i in range(2):
            for j in range(2):
                block = h[i * 8 : (i + 1) * 8, j * 8 : (j + 1) * 8]
                want = -1.5 * obs.matrix[i, j] * p
                assert np.max(np.abs(block - want)) <= 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            von_neumann_hamiltonian(Operator([[0, 1], [0, 0]]), PointerModel(4))


class TestEntanglePointer:
    def test_single_branch_is_product(self):
        pm = PointerModel(8, coupling=1.0, duration=1.0)
        obs = Operator.from_diagonal([3.0, -1.0])
        out = entangle_pointer(Ket.basis(2, 0), pm.ready_state(), obs, pm)
        # pointer moved to -mu*Lambda*3 = index -3 mod 8 = 5; system untouched
        expected = np.kron([1.0, 0.0], np.eye(8)[5])
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_equal_superposition_matches_exponential_oracle(self):
        pm = PointerModel(8, coupling=1.0, duration=1.0)
        obs = Operator.from_diagonal([1.0, -1.0])
        sys = Ket.normalized([1.0, 1.0])
        out = entangle_pointer(sys, pm.ready_state(), obs, pm)
        # independent route: evolve the composite under the coupling Hamiltonian
        h = von_neumann_hamiltonian(obs, pm)
        oracle = evolve(
            Ket(np.kron(sys.amplitudes, pm.ready_state().amplitudes)), h, pm.duration
        )
        np.testing.assert_allclose(out.amplitudes, oracle.amplitudes, atol=1e-10)
        # reduced system state is maximally mixed
        rho = DensityMatrix.from_ket(out)
        space = CompositeSpace([("sys", 2), ("ptr", 8)])
        red = partial_trace(rho, space, {"sys"})
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_degenerate_observable_global_shift(self):
        pm = PointerModel(8)
        obs = Operator.from_diagonal([2.0, 2.0])
        sys = Ket.normalized([1.0, 1j])
        out = entangle_pointer(sys, pm.ready_state(), obs, pm)
        expected = np.kron(sys.amplitudes, np.eye(8)[6])  # -2 mod 8
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_incommensurate_eigenvalue_rejected(self):
        pm = PointerModel(8)
        obs = Operator.from_diagonal([0.5, -0.5])
        with pytest.raises(CommensurabilityError):
            entangle_pointer(Ket.basis(2, 0), pm.ready_state(), obs, pm)

    def test_delocalized_pointer_rejected(self):
        pm = PointerModel(4)
        with pytest.raises(ValueError, match="origin"):
            entangle_pointer(
                Ket.basis(2, 0), Ket.normalized([1, 1, 0, 0]), Operator.identity(2), pm
            )

    @given(seed=st.integers(0, 2**32 - 1))
    def test_branch_form_equals_exponential(self, seed):
        gen = np.random.default_rng(seed)
        pm = PointerModel(6, coupling=1.0, duration=1.0)
        vals = gen.integers(-2, 3, size=3).astype(float)
        basis = np.linalg.qr(gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3)))[0]
        obs = Operator(basis @ np.diag(vals) @ basis.conj().T, hermitian=True)
        u = pointer_coupling_unitary(obs, pm).matrix
        h = von_neumann_hamiltonian(obs, pm)
        w, v = np.linalg.eigh(h.matrix)
        u_oracle = (v * np.exp(-1j * w * pm.duration)) @ v.conj().T
        np.testing.assert_allclose(u, u_oracle, atol=1e-10)


class TestNonselectiveMeasure:
    def test_eigenstate_fixed_point(self):
        rho = DensityMatrix.from_ket(Ket.basis(2, 1))
        out = nonselective_measure(rho, z_projector_set())
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_plus_state(self):
        rho = DensityMatrix.from_ket(Ket.normalized([1, 1]))
        out = nonselective_measure(rho, z_projector_set())
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-15)

    def test_qutrit_diagonal_oracle(self, rng):
        rho = random_density(rng, 3)
        out = nonselective_measure(rho, z_projector_set(3))
        np.testing.assert_allclose(out.matrix, np.diag(np.diagonal(rho.matrix)), atol=1e-14)

    def test_channel_properties_on_random_states(self, rng):
        pset = z_projector_set(4)
        for _ in range(50):
            rho = random_density(rng, 4)
            out = nonselective_measure(rho, pset)
            assert float(np.trace(out.matrix).real) == pytest.approx(1.0, abs=1e-13)
            assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-12
            again = nonselective_measure(out, pset)
            np.testing.assert_allclose(again.matrix, out.matrix, atol=1e-12)


class TestEventRead:
    def test_generic_read_books_one_nat_pair(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        label, state, ledger = event_read(
            rho, z_projector_set(), 7, EntropyLedger(), "measured", "reader"
        )
        assert label in (0, 1)
        totals = ledger.totals()
        assert totals["reader"] == 1.0 and totals["measured"] == -1.0
        assert ledger.total() == 0.0
        np.testing.assert_allclose(np.trace(state.matrix).real, 1.0, atol=1e-14)

    def test_eigenstate_read_is_deterministic_and_free(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        label, state, ledger = event_read(
            rho, z_projector_set(), 123, EntropyLedger(), "measured", "reader"
        )
        assert label == 0
        assert all(e.sigma_nats == 0.0 for e in ledger.entries)
        np.testing.assert_allclose(state.matrix, rho.matrix, atol=1e-14)

    def test_coherent_input_rejected(self):
        rho = DensityMatrix.from_ket(Ket.normalized([1, 1]))
        with pytest.raises(CoherentInputError):
            event_read(rho, z_projector_set(), 0, EntropyLedger(), "measured", "reader")

    def test_vanishing_distribution_rejected(self):
        rho = DensityMatrix(np.diag([5e-16, 5e-16]), trace_weight=1e-15)
        with pytest.raises(DegenerateDistributionError):
            event_read(rho, z_projector_set(), 0, EntropyLedger(), "measured", "reader")

    def test_empirical_frequencies_close_to_born(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        pset = z_projector_set()
        rng = stream_generator(99, 0)
        n = 4000
        counts = np.zeros(2)
        ledger = EntropyLedger()
        for _ in range(n):
            label, _, ledger = event_read(rho, pset, rng, ledger, "measured", "reader")
            counts[label] += 1
        freq = counts / n
        se = math.sqrt(0.3 * 0.7 / n)
        assert abs(freq[0] - 0.3) <= 4 * se
        assert ledger.total() == 0.0  # conservation across the whole sequence

    def test_collapse_matches_projection(self, rng):
        rho = random_density(rng, 3)
        pset = z_projector_set(3)
        dephased = nonselective_measure(rho, pset)
        label, state, _ = event_read(
            dephased, pset, 5, EntropyLedger(), "measured", "reader"
        )
        p = pset.projectors[label].matrix
        expected = p @ dephased.matrix @ p / np.trace(p @ dephased.matrix).real
        np.testing.assert_allclose(state.matrix, expected, atol=1e-13)

    def test_same_seed_same_outcome(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        a = event_read(rho, z_projector_set(), 42, EntropyLedger(), "m", "r")
        b = event_read(rho, z_projector_set(), 42, EntropyLedger(), "m", "r")
        assert a.label == b.label


class TestReadingDistribution:
    @pytest.mark.parametrize(
        "diag, sigma",
        [
            ([1.0, 0.0, 0.0], 0.0),
            ([0.75, 0.25, 0.0], 0.0),  # an outcome exactly at the floor is absent
            ([0.5, 0.25, 0.25], 0.0),
            ([0.5, 0.5, 0.0], 1.0),
            ([0.25, 0.5, 0.25], 0.0),
            ([0.5, 0.3, 0.2], 1.0),
        ],
    )
    def test_sigma_counts_outcomes_above_the_floor(self, diag, sigma):
        policy = NumericPolicy(outcome_floor=0.25)
        rho = DensityMatrix(np.diag(diag), policy=policy)
        pset = z_projector_set(3)
        probs, got = reading_distribution(rho, pset, policy=policy)
        assert got == sigma
        assert probs.tobytes() == born_probabilities(rho, pset, policy=policy).tobytes()

    def test_generic_distribution_books_one_nat(self):
        _, sigma = reading_distribution(DensityMatrix(np.diag([0.3, 0.7])), z_projector_set())
        assert sigma == 1.0

    def test_event_read_is_the_checked_selection_step(self, rng):
        pset = z_projector_set(3)
        dephased = nonselective_measure(random_density(rng, 3), pset)
        checked = event_read(dephased, pset, 11, EntropyLedger(), "m", "r")
        unchecked = select_outcome(
            dephased, pset, stream_generator(11, 0), EntropyLedger(), "m", "r"
        )
        assert checked.label == unchecked.label
        assert checked.state.matrix.tobytes() == unchecked.state.matrix.tobytes()
        assert checked.ledger == unchecked.ledger


class TestEntropyLedger:
    def test_pairs_sum_to_zero(self):
        ledger = EntropyLedger().with_pair("reader", "measured", 1.0)
        assert ledger.total() == 0.0
        assert len(ledger.entries) == 2

    def test_bad_cause_rejected(self):
        with pytest.raises(ValueError, match="cause"):
            EntropyLedger().with_pair("a", "b", 1.0, cause="whimsy")

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            EntropyLedger().with_pair("a", "b", -1.0)

    def test_totals_accumulate(self):
        ledger = (
            EntropyLedger()
            .with_pair("reader", "measured", 1.0)
            .with_pair("experimenter", "measured", 1.0, cause="energy_event_reading")
        )
        assert ledger.totals() == {"reader": 1.0, "measured": -2.0, "experimenter": 1.0}


class TestRedefineSystem:
    def test_sigma_zero_identity(self, rng):
        rho = random_density(rng, 3)
        obs = Operator(random_hermitian(rng, 3), hermitian=True)
        rho_star, (obs_star,) = redefine_system(rho, [obs], 0.0)
        np.testing.assert_allclose(rho_star.matrix, rho.matrix, atol=0)
        np.testing.assert_allclose(obs_star.matrix, obs.matrix, atol=0)

    def test_sigma_one_trace_weight(self, rng):
        rho = random_density(rng, 2)
        rho_star, _ = redefine_system(rho, [], 1.0)
        assert rho_star.trace_weight == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_expectation_preserved(self, rng):
        rho = random_density(rng, 4)
        obs = Operator(random_hermitian(rng, 4), hermitian=True)
        rho_star, (obs_star,) = redefine_system(rho, [obs], 1.0)
        assert expectation(obs_star, rho_star) == pytest.approx(
            expectation(obs, rho), abs=1e-12
        )

    def test_negative_sigma_gives_overweight(self, rng):
        rho = random_density(rng, 2)
        rho_star, _ = redefine_system(rho, [], -1.0)
        assert rho_star.trace_weight == pytest.approx(math.e, abs=1e-14)


class TestGeneralizedRelativeEntropy:
    def test_identical_arguments_vanish(self, rng):
        rho = random_density(rng, 4)
        assert generalized_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_subnormalized_reference_gives_plus_one(self, rng):
        rho = random_density(rng, 5)
        assert generalized_relative_entropy(rho, rho.scaled(math.exp(-1.0))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_overweighted_reference_gives_minus_one(self, rng):
        rho = random_density(rng, 5)
        assert generalized_relative_entropy(rho, rho.scaled(math.e)) == pytest.approx(
            -1.0, abs=1e-10
        )

    def test_support_violation_raises(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        narrow = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(SupportError):
            generalized_relative_entropy(rho, narrow)

    def test_pure_vs_mixed_matches_closed_form(self):
        # S(|0><0| || diag(p, 1-p)) = -ln p
        p = 0.3
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        ref = DensityMatrix(np.diag([p, 1 - p]))
        assert generalized_relative_entropy(rho, ref) == pytest.approx(-math.log(p), abs=1e-12)


class TestWorkEventReading:
    def test_values(self):
        assert work_event_reading(1.0, 1.0) == 1.0
        assert work_event_reading(1.0, 0.0) == 0.0
        assert work_event_reading(2.0, 1.0) == 2.0

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            work_event_reading(0.0, 1.0)


class TestPhaseEquivalenceTrigger:
    def test_two_displacements_any_amplitudes(self, rng):
        amps = random_ket(rng, 3).amplitudes
        branches = [PhaseDisplacement(0.7, "1"), PhaseDisplacement(-2.3, "2")]
        assert phase_equivalence_trigger(branches, np.arange(3.0), amps)

    def test_single_branch_vacuous(self):
        assert phase_equivalence_trigger(
            [PhaseDisplacement(1.0)], np.arange(2.0), [1.0, 0.0]
        )

    def test_random_dim5_full_distributions(self, rng):
        # independent oracle: build both phased vectors and compare Born weights
        amps = random_ket(rng, 5).amplitudes
        values = rng.normal(size=5)
        d1, d2 = rng.normal(size=2)
        born1 = np.abs(amps * np.exp(-1j * d1 * values)) ** 2
        born2 = np.abs(amps * np.exp(-1j * d2 * values)) ** 2
        assert np.max(np.abs(born1 - born2)) <= 1e-14
        assert phase_equivalence_trigger(
            [PhaseDisplacement(d1), PhaseDisplacement(d2)], values, amps
        )

    def test_infinite_displacement_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PhaseDisplacement(math.inf)


class TestTruncations:
    def test_direct_deficit_is_exactly_one(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        out = direct_relaxation_truncation(rho)
        assert rho.trace_weight - float(np.trace(out).real) == 1.0

    def test_statistical_deficit_is_exactly_one_minus_inverse_e(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        out = statistical_relaxation_truncation(rho)
        deficit = rho.trace_weight - float(np.trace(out.matrix).real)
        assert deficit == 1.0 - math.exp(-1.0)

    def test_statistical_output_weight(self, rng):
        rho = random_density(rng, 3)
        out = statistical_relaxation_truncation(rho)
        assert out.trace_weight == pytest.approx(math.exp(-1.0), abs=1e-15)


class TestBornProbabilities:
    def test_matches_traces(self, rng):
        rho = random_density(rng, 3)
        pset = z_projector_set(3)
        probs = born_probabilities(rho, pset)
        np.testing.assert_allclose(probs, np.diagonal(rho.matrix).real, atol=1e-14)
        assert probs.sum() == pytest.approx(1.0, abs=1e-13)
