import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    dense_born,
    dense_dephase,
    index_partition,
    random_density,
    random_hermitian,
    random_unitary,
    state_with_signed_zeros,
)
from meterwork.errors import CapacityError, CoherentInputError
from meterwork.linalg import CompositeSpace, DensityMatrix, Ket, Operator, ProjectorSet
from meterwork.measurement import EntropyLedger, born_probabilities, event_read
from meterwork.numeric import NumericPolicy
from meterwork.superselection import build_planck_basis, dephase, energy_sectors


def _degeneracies(sectors: ProjectorSet) -> list[int]:
    return [round(float(np.trace(p.matrix).real)) for p in sectors.projectors]


class TestPlanckBasis:
    def test_redefined_variables_commute_exactly(self):
        basis = build_planck_basis(3, 4, widths=(0.5, 2.0))
        q = basis.position_operator().matrix
        p = basis.momentum_operator().matrix
        comm = q @ p - p @ q
        assert np.all(comm == 0.0)
        # bit-identical to summing label * width * cell projector
        cells = basis.cells
        q_sum = sum(qi * 0.5 * c.matrix for (qi, _), c in zip(cells.labels, cells.projectors))
        p_sum = sum(pi * 2.0 * c.matrix for (_, pi), c in zip(cells.labels, cells.projectors))
        assert q.tobytes() == q_sum.tobytes()
        assert p.tobytes() == p_sum.tobytes()

    def test_single_cell_projector_is_identity(self):
        basis = build_planck_basis(1, 1)
        assert np.array_equal(basis.cells.projectors[0].matrix, np.eye(1))

    def test_two_by_two_construction(self):
        basis = build_planck_basis(2, 2)
        projs = [c.matrix for c in basis.cells.projectors]
        assert len(projs) == 4
        for i, p in enumerate(projs):
            assert np.trace(p).real == 1.0  # rank one
            for q in projs[i + 1 :]:
                assert np.max(np.abs(p @ q)) == 0.0  # mutually orthogonal
        np.testing.assert_array_equal(sum(projs), np.eye(4))

    def test_cell_basis_over_budget_is_a_capacity_error(self):
        with pytest.raises(CapacityError, match="dimension 12 exceeds budget 8"):
            build_planck_basis(3, 4, policy=NumericPolicy(max_dim=8))

    @pytest.mark.parametrize(
        "levels, name", [((2.5, 2), "q_levels"), ((2, 2.0), "p_levels"), ((2, float("nan")), "p_levels")]
    )
    def test_non_integer_cell_counts_rejected(self, levels, name):
        value = levels[0] if name == "q_levels" else levels[1]
        with pytest.raises(ValueError, match=rf"{name} must be an integer, got {value!r}"):
            build_planck_basis(*levels)

    def test_nonpositive_widths_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            build_planck_basis(2, 2, widths=(0.0, 1.0))

    @pytest.mark.parametrize(
        "widths", [(float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan")), (1.0, -math.inf)]
    )
    def test_non_finite_widths_rejected(self, widths):
        with pytest.raises(ValueError, match="cell widths must be positive and finite"):
            build_planck_basis(2, 2, widths=widths)

    def test_cells_are_a_labeled_partition(self):
        basis = build_planck_basis(2, 3)
        cells = basis.cells
        assert len(cells) == 6 and cells.dim == 6 == basis.dim
        assert cells.labels == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
        assert list(cells.sector_of) == list(range(6))

    def test_widest_basis_builds_no_dense_projector(self):
        # dimension 1024, the default budget
        basis = build_planck_basis(32, 32, widths=(0.3, 1.7))
        cells = basis.cells
        assert cells.sector_of is not None and cells._projectors is None
        q = basis.position_operator().matrix
        p = basis.momentum_operator().matrix
        assert cells._projectors is None
        q_labels, p_labels = np.array(cells.labels, dtype=float).T
        assert q.tobytes() == np.diag((q_labels * 0.3).astype(complex)).tobytes()
        assert p.tobytes() == np.diag((p_labels * 1.7).astype(complex)).tobytes()


def _two_sector_set() -> ProjectorSet:
    p0 = np.zeros((4, 4))
    p0[0, 0] = p0[1, 1] = 1.0
    p1 = np.eye(4) - p0
    return ProjectorSet(
        (Operator(p0, projector=True), Operator(p1, projector=True)), ("low", "high")
    )


class TestDephase:
    def test_block_diagonal_fixed_point(self, rng):
        sectors = _two_sector_set()
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = random_density(rng, 2).matrix * 0.4
        block[2:, 2:] = random_density(rng, 2).matrix * 0.6
        rho = DensityMatrix(block)
        out = dephase(rho, sectors)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_plus_state_with_z_sectors(self):
        plus = DensityMatrix.from_ket(Ket.normalized([1, 1]))
        z_set = ProjectorSet(
            (
                Operator(np.diag([1.0, 0.0]), projector=True),
                Operator(np.diag([0.0, 1.0]), projector=True),
            )
        )
        out = dephase(plus, z_set)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-15)

    def test_matches_projector_sum_oracle(self, rng):
        sectors = _two_sector_set()
        rho = random_density(rng, 4)
        out = dephase(rho, sectors)
        oracle = np.zeros((4, 4), dtype=complex)
        for p in sectors.projectors:
            oracle += p.matrix @ rho.matrix @ p.matrix
        np.testing.assert_allclose(out.matrix, oracle, atol=1e-14)
        # off-block entries exactly zero, blocks equal the input blocks
        assert np.all(out.matrix[:2, 2:] == 0.0)
        assert np.all(out.matrix[2:, :2] == 0.0)
        np.testing.assert_allclose(out.matrix[:2, :2], rho.matrix[:2, :2], atol=0)

    def test_incomplete_set_rejected(self, rng):
        p0 = Operator(np.diag([1.0, 0.0, 0.0, 0.0]), projector=True)
        p1 = Operator(np.diag([0.0, 1.0, 0.0, 0.0]), projector=True)
        with pytest.raises(ValueError, match="identity"):
            ProjectorSet((p0, p1))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_idempotent_and_population_preserving(self, seed):
        gen = np.random.default_rng(seed)
        sectors = _two_sector_set()
        rho = random_density(gen, 4)
        once = dephase(rho, sectors)
        twice = dephase(once, sectors)
        np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)
        for p in sectors.projectors:
            before = float(np.trace(p.matrix @ rho.matrix @ p.matrix).real)
            after = float(np.trace(p.matrix @ once.matrix @ p.matrix).real)
            assert after == pytest.approx(before, abs=1e-13)

    def test_trace_weight_preserved(self, rng):
        rho = random_density(rng, 4).scaled(0.5)
        out = dephase(rho, _two_sector_set())
        assert out.trace_weight == 0.5


DIMS = st.sampled_from([1, 2, 3, 8, 16, 33])


class TestIndexSetSectors:
    """Partitions of the computational basis are dephased and read by
    masking; the results must carry the projector products' exact bits."""

    @given(seed=st.integers(0, 2**32 - 1), dim=DIMS)
    def test_dephase_and_born_bitwise(self, seed, dim):
        gen = np.random.default_rng(seed)
        sector_of, projs = index_partition(gen, dim)
        pset = ProjectorSet(sector_of, range(len(projs)))
        for rho in (random_density(gen, dim), state_with_signed_zeros(gen, dim)):
            out = dephase(rho, pset)
            assert out.matrix.tobytes() == dense_dephase(rho.matrix, projs).tobytes()
            probs = born_probabilities(rho, pset)
            assert probs.tobytes() == dense_born(rho, projs).tobytes()

    @pytest.mark.parametrize(
        "acting", [("S", "A"), ("S", "M"), ("M", "S"), ("A",), ("P", "S", "M")]
    )
    @given(seed=st.integers(0, 2**32 - 1))
    def test_embedded_families_bitwise(self, acting, seed):
        gen = np.random.default_rng(seed)
        space = CompositeSpace([("S", 2), ("A", 3), ("M", 2), ("P", 4)])
        n = int(np.prod([space.dim_of(label) for label in acting]))
        pset = ProjectorSet.basis(n).embedded(space, acting)
        assert pset.sector_of is not None
        for rho in (random_density(gen, 48), state_with_signed_zeros(gen, 48)):
            out = dephase(rho, pset)
            assert out.matrix.tobytes() == dense_dephase(rho.matrix, pset.projectors).tobytes()
            probs = born_probabilities(rho, pset)
            assert probs.tobytes() == dense_born(rho, pset.projectors).tobytes()

    def test_energy_sectors_stay_dense(self, rng):
        h = Operator(random_hermitian(rng, 6), hermitian=True)
        pset = energy_sectors(h)
        assert pset.sector_of is None
        rho = random_density(rng, 6)
        out = dephase(rho, pset)
        assert out.matrix.tobytes() == dense_dephase(rho.matrix, pset.projectors).tobytes()
        probs = born_probabilities(rho, pset)
        assert probs.tobytes() == dense_born(rho, pset.projectors).tobytes()

    def test_one_non_diagonal_projector_keeps_family_dense(self, rng):
        plus = np.full((2, 2), 0.5)
        p0 = np.zeros((4, 4))
        p0[:2, :2] = plus
        p1 = np.zeros((4, 4))
        p1[:2, :2] = np.eye(2) - plus
        p2 = np.diag([0.0, 0.0, 1.0, 1.0])
        projs = [Operator(m, projector=True) for m in (p0, p1, p2)]
        pset = ProjectorSet(projs)
        assert pset.sector_of is None
        rho = random_density(rng, 4)
        assert dephase(rho, pset).matrix.tobytes() == dense_dephase(rho.matrix, projs).tobytes()

    def test_sector_of_is_read_only(self):
        pset = ProjectorSet.basis(3)
        assert list(pset.sector_of) == [0, 1, 2]
        with pytest.raises(ValueError):
            pset.sector_of[0] = 1

    @pytest.mark.parametrize(
        "diagonals",
        [
            ([1.0, 1.0, 0.0], [0.0, 1.0, 1.0]),  # index 1 in both
            ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),  # index 2 in neither
        ],
    )
    def test_overlapping_or_missing_index_rejected(self, rng, diagonals):
        projs = [Operator(np.diag(d), projector=True) for d in diagonals]
        with pytest.raises(ValueError, match="projectors do not sum to identity"):
            ProjectorSet(projs)
        loose = ProjectorSet(projs, policy=NumericPolicy(completeness_tol=2.0))
        assert loose.sector_of is None
        with pytest.raises(ValueError, match="projector set incomplete: deviation 1.000e"):
            dephase(random_density(rng, 3), loose)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="sector dimension 2 != state dimension 4"):
            dephase(random_density(rng, 4), ProjectorSet.basis(2))

    def test_event_read_rejects_coherent_input(self):
        plus = DensityMatrix.from_ket(Ket.normalized([1, 1]))
        with pytest.raises(CoherentInputError, match="off-sector coherence 5.000e-01"):
            event_read(plus, ProjectorSet.basis(2), 0, EntropyLedger(), "s", "r")


class TestEnergySectors:
    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_exact_degeneracy(self, tol):
        h = Operator.from_diagonal([0.0, 0.0, 1.0])
        sectors = energy_sectors(h, grouping_tol=tol)
        assert isinstance(sectors, ProjectorSet)
        assert sectors.labels == (0.0, 1.0) and _degeneracies(sectors) == [2, 1]

    def test_identity_single_sector(self):
        sectors = energy_sectors(Operator.identity(4))
        assert len(sectors) == 1 and _degeneracies(sectors) == [4]
        np.testing.assert_allclose(sectors.projectors[0].matrix, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 9, 16])
    def test_rotated_multiple_of_identity_single_sector(self, rng, dim):
        # the eigensolver spreads a flat spectrum by rounding only; a grouping
        # tolerance relative to that spread would split it
        for _ in range(25):
            u = random_unitary(rng, dim)
            h = u @ (2.0 * np.eye(dim)) @ u.conj().T
            sectors = energy_sectors(Operator(0.5 * (h + h.conj().T), hermitian=True))
            assert _degeneracies(sectors) == [dim]
            assert abs(sectors.labels[0] - 2.0) <= 1e-13

    def test_sector_count_matches_reference_eigensolve(self, rng):
        h = random_hermitian(rng, 6)
        w = np.linalg.eigvalsh(h)
        min_gap = np.min(np.diff(w))
        sectors = energy_sectors(Operator(h, hermitian=True), grouping_tol=min_gap / 10)
        assert len(sectors) == len(np.unique(w))

    def test_projectors_commute_with_h(self, rng):
        h = random_hermitian(rng, 5)
        for p in energy_sectors(Operator(h, hermitian=True)).projectors:
            comm = p.matrix @ h - h @ p.matrix
            assert np.max(np.abs(comm)) <= 1e-10

    def test_completeness_and_rank(self, rng):
        h = np.kron(random_hermitian(rng, 2), np.eye(3))  # 3-fold degenerate pairs
        sectors = energy_sectors(Operator(h, hermitian=True))
        assert _degeneracies(sectors) == [3, 3]
        total = sum(p.matrix for p in sectors.projectors)
        np.testing.assert_allclose(total, np.eye(6), atol=1e-12)
        for p in sectors.projectors:
            assert np.rint(np.trace(p.matrix).real) == 3.0

    def test_labels_are_sector_energies(self):
        h = Operator.from_diagonal([0.0, 1.0, 1.0])
        pset = energy_sectors(h)
        assert pset.labels == (0.0, 1.0)

    def test_labels_strictly_increase(self, rng):
        h = np.kron(random_hermitian(rng, 3), np.eye(2))
        sectors = energy_sectors(Operator(h, hermitian=True))
        assert _degeneracies(sectors) == [2, 2, 2]
        assert all(a < b for a, b in zip(sectors.labels, sectors.labels[1:]))

    def test_family_is_built_under_the_callers_policy(self, rng):
        h = Operator(random_hermitian(rng, 6), hermitian=True)
        assert energy_sectors(h).completeness_deviation > 0.0  # eigh rounding
        with pytest.raises(ValueError, match="projectors do not sum to identity"):
            energy_sectors(h, policy=NumericPolicy(completeness_tol=0.0))

    @pytest.mark.parametrize(
        ("tol", "shown"), [(float("nan"), "nan"), (-1.0, "-1.0"), (math.inf, "inf")]
    )
    def test_nonsensical_grouping_tol_rejected(self, tol, shown):
        h = Operator.from_diagonal([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=f"grouping_tol must be finite and >= 0, got {shown}"):
            energy_sectors(h, grouping_tol=tol)
