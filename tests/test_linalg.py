import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    dense_collapse,
    index_partition,
    random_density,
    random_hermitian,
    random_ket,
    state_with_signed_zeros,
)
from meterwork.errors import CapacityError, NumericalConsistencyError
from meterwork.linalg import (
    CompositeSpace,
    DensityMatrix,
    Ket,
    Operator,
    ProjectorSet,
    collapse,
    embed_operator,
    evolve,
    expectation,
    partial_trace,
    tensor,
    tensor_kets,
)
from meterwork.numeric import NumericPolicy

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestKet:
    def test_rejects_subnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            Ket([0.5, 0.5])

    def test_basis(self):
        k = Ket.basis(3, 1)
        assert k.amplitudes[1] == 1.0 and k.dim == 3

    def test_immutable(self):
        k = Ket.basis(2, 0)
        with pytest.raises(ValueError):
            k.amplitudes[0] = 0.0


class TestOperatorFlags:
    def test_hermitian_assertion_enforced(self):
        with pytest.raises(ValueError, match="hermitian"):
            Operator([[0, 1], [0, 0]], hermitian=True)

    def test_unitary_assertion_enforced(self):
        with pytest.raises(ValueError, match="unitary"):
            Operator(np.diag([1.0, 2.0]), unitary=True)

    def test_projector_implies_hermitian(self):
        p = Operator(np.diag([1.0, 0.0]), projector=True)
        assert p.hermitian is True

    def test_projector_assertion_enforced(self):
        with pytest.raises(ValueError, match="projector"):
            Operator(np.diag([1.0, 2.0]), projector=True)

    @pytest.mark.parametrize(
        "diagonal",
        [[1.0, 2.0], [0.5, 1.0, 0.0], [1.0 + 1e-9, 0.0], [1.0, 1.0, 1.0], [1.0 + 3e-7j, -0.0]],
    )
    def test_diagonal_deviations_are_the_dense_ones(self, diagonal):
        m = np.diag(np.asarray(diagonal, dtype=complex))
        # negative tolerances make every check fail and report its deviation
        cases = (
            ("hermitian", m - m.conj().T, {"hermitian": True}, NumericPolicy(hermitian_tol=-1.0)),
            (
                "projector",
                m @ m - m,
                {"projector": True},
                NumericPolicy(hermitian_tol=1.0, projector_tol=-1.0),
            ),
        )
        for name, residual, flags, policy in cases:
            dev = float(np.max(np.abs(residual)))
            message = re.escape(f"{name} assertion fails by {dev:.3e}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                Operator(m, policy=policy, **flags)

    def test_unchecked_flags_stay_none(self):
        op = Operator([[0, 1], [0, 0]])
        assert op.hermitian is None and op.unitary is None


class TestDensityMatrix:
    def test_trace_weight_inferred(self):
        rho = DensityMatrix(np.diag([0.25, 0.25]))
        assert rho.trace_weight == 0.5

    def test_trace_weight_mismatch_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.5, 0.5]), trace_weight=0.9)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            DensityMatrix([[0.5, 0.3], [0.0, 0.5]])

    def test_overweight_allowed_for_redefined_ensembles(self):
        rho = DensityMatrix(np.diag([0.5, 0.5])).scaled(math.e)
        assert rho.trace_weight == pytest.approx(math.e, abs=1e-15)


class TestTensor:
    def test_identity_case(self):
        out = tensor(Operator.identity(2), Operator.identity(2))
        assert np.array_equal(out.matrix, np.eye(4))

    def test_diagonal_product(self):
        z = Operator.from_diagonal([1.0, -1.0])
        out = tensor(z, z)
        assert np.array_equal(np.diagonal(out.matrix), [1, -1, -1, 1])

    def test_entries_match_index_loop_oracle(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = tensor(Operator(a), Operator(b)).matrix
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert abs(out[i * 3 + k, j * 3 + l] - a[i, j] * b[k, l]) <= 1e-12

    def test_flag_algebra(self):
        h = Operator(SX, hermitian=True)
        assert tensor(h, h).hermitian is True
        u = Operator(np.diag([1.0, 1j]), unitary=True)
        assert tensor(u, u).unitary is True
        assert tensor(h, Operator(SX)).hermitian is None

    def test_capacity_guard(self):
        small = NumericPolicy(max_dim=8)
        with pytest.raises(CapacityError):
            tensor(Operator.identity(4), Operator.identity(4), policy=small)


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        space = CompositeSpace([("a", 2), ("b", 3)])
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
        out = partial_trace(joint, space, {"a"})
        np.testing.assert_allclose(out.matrix, rho_a.matrix, atol=1e-12)

    def test_bell_state_marginal_is_maximally_mixed(self):
        bell = Ket.normalized([1, 0, 0, 1])
        space = CompositeSpace([("left", 2), ("right", 2)])
        out = partial_trace(DensityMatrix.from_ket(bell), space, {"left"})
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_matches_index_sum_oracle(self, rng):
        # keep the 3-dim factor of a random 2 (x) 3 pure state
        psi = random_ket(rng, 6)
        rho = DensityMatrix.from_ket(psi)
        space = CompositeSpace([("two", 2), ("three", 3)])
        out = partial_trace(rho, space, {"three"})
        oracle = np.zeros((3, 3), dtype=complex)
        for i in range(2):
            block = rho.matrix[i * 3 : (i + 1) * 3, i * 3 : (i + 1) * 3]
            oracle += block
        np.testing.assert_allclose(out.matrix, oracle, atol=1e-12)

    def test_unknown_label_rejected(self, rng):
        rho = random_density(rng, 4)
        space = CompositeSpace([("a", 2), ("b", 2)])
        with pytest.raises(ValueError, match="unknown"):
            partial_trace(rho, space, {"c"})

    def test_trace_weight_preserved(self, rng):
        rho = random_density(rng, 4).scaled(math.exp(-1.0))
        space = CompositeSpace([("a", 2), ("b", 2)])
        out = partial_trace(rho, space, {"b"})
        assert out.trace_weight == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_three_factor_middle_kept(self, rng):
        rho_parts = [random_density(rng, d) for d in (2, 3, 2)]
        space = CompositeSpace([("a", 2), ("b", 3), ("c", 2)])
        joint = DensityMatrix(
            np.kron(rho_parts[0].matrix, np.kron(rho_parts[1].matrix, rho_parts[2].matrix))
        )
        out = partial_trace(joint, space, {"b"})
        np.testing.assert_allclose(out.matrix, rho_parts[1].matrix, atol=1e-12)


class TestEvolve:
    def test_zero_duration_identity(self, rng):
        psi = random_ket(rng, 3)
        h = Operator(random_hermitian(rng, 3), hermitian=True)
        out = evolve(psi, h, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_sigma_x_half_turn(self):
        # closed form: exp(-i sx pi/2) = -i sx, so |0> -> -i |1>
        out = evolve(Ket.basis(2, 0), Operator(SX, hermitian=True), math.pi / 2)
        np.testing.assert_allclose(out.amplitudes, [0.0, -1j], atol=1e-12)

    def test_density_trace_preserved(self, rng):
        rho = random_density(rng, 4)
        h = Operator(random_hermitian(rng, 4), hermitian=True)
        out = evolve(rho, h, 0.7)
        assert abs(float(np.trace(out.matrix).real) - 1.0) <= 1e-12

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValueError, match="hermitian"):
            evolve(Ket.basis(2, 0), Operator([[0, 1], [0, 0]]), 1.0)

    def test_matches_power_series_oracle(self, rng):
        # 50-term power series of exp(-i h t) for dims up to 8, t <= 1
        for dim in (2, 5, 8):
            h = random_hermitian(rng, dim, scale=0.5)
            t = 0.9
            term = np.eye(dim, dtype=complex)
            series = np.eye(dim, dtype=complex)
            for k in range(1, 50):
                term = term @ (-1j * h * t) / k
                series += term
            psi = random_ket(rng, dim)
            out = evolve(psi, Operator(h, hermitian=True), t)
            np.testing.assert_allclose(out.amplitudes, series @ psi.amplitudes, atol=1e-10)

    @given(t1=st.floats(-2, 2), t2=st.floats(-2, 2), seed=st.integers(0, 2**32 - 1))
    def test_composition(self, t1, t2, seed):
        gen = np.random.default_rng(seed)
        h = Operator(random_hermitian(gen, 3), hermitian=True)
        psi = random_ket(gen, 3)
        once = evolve(psi, h, t1 + t2)
        twice = evolve(evolve(psi, h, t1), h, t2)
        np.testing.assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-10)


class TestExpectation:
    def test_identity_gives_trace_weight(self, rng):
        rho = random_density(rng, 3).scaled(0.25)
        assert expectation(Operator.identity(3), rho) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_zero(self):
        z = Operator.from_diagonal([1.0, -1.0])
        assert expectation(z, DensityMatrix.maximally_mixed(2)) == pytest.approx(0.0, abs=1e-15)

    def test_redefinition_identity(self, rng):
        rho = random_density(rng, 4)
        obs = Operator(random_hermitian(rng, 4), hermitian=True)
        scaled_obs = Operator(math.e * obs.matrix, hermitian=True)
        scaled_rho = rho.scaled(math.exp(-1.0))
        assert expectation(scaled_obs, scaled_rho) == pytest.approx(
            expectation(obs, rho), abs=1e-12
        )

    def test_imaginary_residue_raises(self, rng):
        rho = random_density(rng, 2)
        bad = Operator(np.array([[0, 1j], [0.5j, 0]]))  # not hermitian, unchecked flag
        with pytest.raises((NumericalConsistencyError, ValueError)):
            expectation(bad, rho)


class TestTensorPartialTraceRoundTrip:
    @given(seed=st.integers(0, 2**32 - 1), da=st.integers(2, 4), db=st.integers(2, 4))
    def test_roundtrip(self, seed, da, db):
        gen = np.random.default_rng(seed)
        rho_a = random_density(gen, da)
        rho_b = random_density(gen, db)
        space = CompositeSpace([("a", da), ("b", db)])
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
        back = partial_trace(joint, space, {"a"})
        np.testing.assert_allclose(back.matrix, rho_a.matrix, atol=1e-12)

    def test_tensor_associativity_via_reshuffle(self, rng):
        ops = [Operator(random_hermitian(rng, d), hermitian=True) for d in (2, 2, 3)]
        left = tensor(tensor(ops[0], ops[1]), ops[2])
        right = tensor(ops[0], tensor(ops[1], ops[2]))
        np.testing.assert_allclose(left.matrix, right.matrix, atol=0)


class TestEmbedOperator:
    def test_adjacent_embedding_matches_kron(self, rng):
        space = CompositeSpace([("a", 2), ("b", 3), ("c", 2)])
        op = Operator(random_hermitian(rng, 6), hermitian=True)
        emb = embed_operator(op, space, ("a", "b"))
        np.testing.assert_allclose(emb.matrix, np.kron(op.matrix, np.eye(2)), atol=0)

    def test_nonadjacent_embedding(self, rng):
        # acting on (a, c) with b in between: check against a manual tensor
        space = CompositeSpace([("a", 2), ("b", 3), ("c", 2)])
        x = Operator(np.kron(SX, SX), hermitian=True)
        emb = embed_operator(x, space, ("a", "c"))
        oracle = np.einsum(
            "ij,kl,mn->ikmjln", SX, np.eye(3), SX
        ).reshape(12, 12)
        np.testing.assert_allclose(emb.matrix, oracle, atol=0)

    def test_expectation_invariant_under_embedding(self, rng):
        space = CompositeSpace([("a", 2), ("b", 3)])
        op = Operator(random_hermitian(rng, 3), hermitian=True)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
        emb = embed_operator(op, space, ("b",))
        assert expectation(emb, joint) == pytest.approx(expectation(op, rho_b), abs=1e-12)


class TestProjectorSet:
    def test_incomplete_rejected(self):
        p = Operator(np.diag([1.0, 0.0]), projector=True)
        with pytest.raises(ValueError, match="identity"):
            ProjectorSet((p,))

    def test_labels_unique(self):
        p0 = Operator(np.diag([1.0, 0.0]), projector=True)
        p1 = Operator(np.diag([0.0, 1.0]), projector=True)
        with pytest.raises(ValueError, match="unique"):
            ProjectorSet((p0, p1), labels=("x", "x"))


    @pytest.mark.parametrize("acting", [("a", "b"), ("a", "c"), ("c", "a"), ("b",)])
    def test_embedded_basis_matches_embed_operator_bitwise(self, acting):
        space = CompositeSpace([("a", 2), ("b", 3), ("c", 2)])
        n = int(np.prod([space.dim_of(label) for label in acting]))
        basis = ProjectorSet.basis(n, labels=[f"k{k}" for k in range(n)])
        lifted = basis.embedded(space, acting)
        assert lifted.labels == basis.labels
        assert lifted.sector_of is not None
        for p, q in zip(basis.projectors, lifted.projectors):
            dense = embed_operator(p, space, acting)
            assert q.matrix.tobytes() == dense.matrix.tobytes()
            assert q.projector is True and q.hermitian is True
        assert np.array_equal(
            np.diagonal(sum(k * q.matrix for k, q in enumerate(lifted.projectors))).real,
            lifted.sector_of,
        )

    def test_basis_matches_unit_diagonals(self):
        for k, p in enumerate(ProjectorSet.basis(4).projectors):
            m = np.zeros((4, 4))
            m[k, k] = 1.0
            assert p.matrix.tobytes() == np.asarray(m, dtype=complex).tobytes()


class TestCollapse:
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3, 8, 16, 33]))
    def test_index_projector_bitwise(self, seed, dim):
        gen = np.random.default_rng(seed)
        _, projs = index_partition(gen, dim)
        for rho in (random_density(gen, dim), state_with_signed_zeros(gen, dim)):
            for p in projs:
                if float(np.trace(p.matrix @ rho.matrix).real) <= 1e-12:
                    continue
                out = collapse(rho, p)
                assert out.matrix.tobytes() == dense_collapse(rho.matrix, p).tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    def test_embedded_index_projector_bitwise(self, seed):
        gen = np.random.default_rng(seed)
        space = CompositeSpace([("S", 2), ("A", 3), ("M", 2), ("P", 2)])
        pset = ProjectorSet.basis(4).embedded(space, ("S", "M"))
        for rho in (random_density(gen, 24), state_with_signed_zeros(gen, 24)):
            for p in pset.projectors:
                if float(np.trace(p.matrix @ rho.matrix).real) <= 1e-12:
                    continue
                out = collapse(rho, p)
                assert out.matrix.tobytes() == dense_collapse(rho.matrix, p).tobytes()

    def test_non_diagonal_projector_stays_dense(self, rng):
        p = Operator(np.full((2, 2), 0.5), projector=True)
        rho = random_density(rng, 2)
        assert collapse(rho, p).matrix.tobytes() == dense_collapse(rho.matrix, p).tobytes()


class TestCompositeSpace:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CompositeSpace([("a", 2), ("a", 3)])

    def test_total_dim(self):
        assert CompositeSpace([("a", 2), ("b", 3), ("c", 4)]).total_dim == 24


def test_tensor_kets():
    out = tensor_kets(Ket.basis(2, 1), Ket.basis(3, 0))
    assert out.amplitudes[3] == 1.0 and out.dim == 6
