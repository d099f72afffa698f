import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    block_state,
    dense_born,
    dense_collapse,
    dense_conjugate,
    dense_dephase,
    dense_lowest_eigenvalue,
    dense_partial_trace,
    factored_conjugate,
    index_partition,
    random_density,
    random_hermitian,
    random_ket,
    random_unitary,
    state_with_signed_zeros,
)
from meterwork.errors import CapacityError, NumericalConsistencyError
from meterwork.linalg import (
    CompositeSpace,
    DensityMatrix,
    Ket,
    Operator,
    ProjectorSet,
    _permutation_of,
    collapse,
    conjugate,
    embed_operator,
    evolve,
    expectation,
    partial_trace,
    tensor,
    tensor_kets,
)
from meterwork import linalg
from meterwork.measurement import PointerModel, born_probabilities
from meterwork.numeric import DEFAULT_POLICY, NumericPolicy
from meterwork.scheme import SchemeConfig, build_context
from meterwork.superselection import dephase, energy_sectors

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestKet:
    def test_rejects_subnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            Ket([0.5, 0.5])

    def test_basis(self):
        k = Ket.basis(3, 1)
        assert k.amplitudes[1] == 1.0 and k.dim == 3

    @pytest.mark.parametrize("index", [-1, 2, 5])
    def test_basis_index_outside_the_dimension_is_named(self, index):
        # numpy indexing would wrap -1 round to the last state and overrun at 5
        with pytest.raises(ValueError, match=rf"index {index} .*\[0, 2\)"):
            Ket.basis(2, index)

    @pytest.mark.parametrize("index", [1.0, True, "0"])
    def test_basis_index_must_be_an_integer(self, index):
        with pytest.raises(ValueError, match="index must be an integer"):
            Ket.basis(2, index)

    def test_basis_accepts_numpy_integers(self):
        assert Ket.basis(3, np.int64(2)).amplitudes[2] == 1.0

    def test_immutable(self):
        k = Ket.basis(2, 0)
        with pytest.raises(ValueError):
            k.amplitudes[0] = 0.0


def _forced(**fields) -> NumericPolicy:
    """A policy with the given fields set without NumericPolicy's checks."""
    policy = NumericPolicy()
    for name, value in fields.items():
        object.__setattr__(policy, name, value)
    return policy


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
        # negative tolerances make every check fail and report its deviation;
        # NumericPolicy rejects them, so they are set past its validation
        cases = (
            ("hermitian", m - m.conj().T, {"hermitian": True}, _forced(hermitian_tol=-1.0)),
            (
                "projector",
                m @ m - m,
                {"projector": True},
                _forced(hermitian_tol=1.0, projector_tol=-1.0),
            ),
        )
        for name, residual, flags, policy in cases:
            dev = float(np.max(np.abs(residual)))
            message = re.escape(f"{name} assertion fails by {dev:.3e}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                Operator(m, policy=policy, **flags)

    @pytest.mark.parametrize("flags", [{"hermitian": True}, {"unitary": True},
                                       {"projector": True}])
    @pytest.mark.parametrize("value, at", [
        (math.nan, (0, 1)),
        (math.inf, (0, 1)),
        (-math.inf, (1, 1)),
        (complex(0.0, math.nan), (0, 0)),
    ])
    def test_non_finite_entries_rejected_before_any_structure_check(self, flags, value, at):
        m = np.eye(2, dtype=complex)
        m[at] = m[at[::-1]] = value
        with pytest.raises(ValueError, match="^operator has non-finite entries$"):
            Operator(m, **flags)

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

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 33))
    def test_support_block_verdict_is_the_full_matrix_one(self, seed, dim):
        gen = np.random.default_rng(seed)
        tol = DEFAULT_POLICY.psd_tol
        for kind in ("density", "rank-one", "hermitian", "shifted"):
            k = int(gen.integers(1, dim + 1))
            if kind == "density":
                block = random_density(gen, k).matrix
            elif kind == "rank-one":
                block = random_density(gen, k, rank=1).matrix
            elif kind == "hermitian":
                block = random_hermitian(gen, k)
            else:  # lowest eigenvalue on either side of the -psd_tol floor
                w, v = np.linalg.eigh(random_density(gen, k).matrix)
                w = w - w[0] - tol * gen.choice([0.5, 0.9, 1.1, 2.0])
                block = (v * w) @ v.conj().T
                block = 0.5 * (block + block.conj().T)
            # the block on k random indices, zero rows and columns elsewhere
            m = np.zeros((dim, dim), dtype=complex)
            at = gen.choice(dim, size=k, replace=False)
            m[np.ix_(at, at)] = block
            if gen.random() < 0.5:
                m = m.real.astype(complex)
            parts = m.view(float)
            parts[(parts == 0.0) & (gen.random(parts.shape) < 0.5)] = -0.0
            try:
                DensityMatrix(m)
            except ValueError as exc:  # a later check may still fail
                rejected = "negative eigenvalue" in str(exc)
            else:
                rejected = False
            assert rejected == (dense_lowest_eigenvalue(m) < -tol)

    def test_negative_eigenvalue_inside_support_rejected(self):
        m = np.zeros((5, 5), dtype=complex)
        m[np.ix_([1, 3], [1, 3])] = [[0.5, 0.7], [0.7, 0.5]]
        with pytest.raises(ValueError, match="negative eigenvalue -2.000e-01"):
            DensityMatrix(m)

    def test_zero_row_with_entry_in_its_column_stays_in_support(self):
        # row 0 is zero; column 0 holds 1e-13 below the diagonal (hermitian
        # within tolerance), which the lower-triangle eigensolver reads
        m = np.zeros((4, 4), dtype=complex)
        m[3, 3] = 1.0
        m[2, 0] = 1e-13
        strict = NumericPolicy(psd_tol=1e-14)
        assert dense_lowest_eigenvalue(m) < -strict.psd_tol
        with pytest.raises(ValueError, match="negative eigenvalue -1.000e-13"):
            DensityMatrix(m, policy=strict)

    @pytest.mark.parametrize(
        "fill, message",
        [
            (0.0, "trace_weight must be positive and finite, got 0.0"),
            (np.nan, "density matrix has non-finite entries"),
        ],
    )
    def test_all_zero_and_nan_matrices_are_rejected(self, fill, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            DensityMatrix(np.full((3, 3), fill, dtype=complex))
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_one_non_finite_entry_rejected(self, dim, value):
        m = np.eye(dim, dtype=complex) / dim
        m[0, dim - 1] = value
        with pytest.raises(ValueError, match="non-finite entries"):
            DensityMatrix(m, 1.0)

    def test_nan_off_diagonal_pair_rejected_at_dim_64(self):
        m = np.eye(64, dtype=complex) / 64
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            DensityMatrix(m, 1.0)

    def test_input_is_copied(self, rng):
        m = random_density(rng, 3).matrix.copy()
        rho = DensityMatrix(m, 1.0)
        before = rho.matrix.copy()
        m[0, 0] = 7.0
        assert rho.matrix.tobytes() == before.tobytes() and not rho.matrix.flags.writeable


class TestConjugate:
    @pytest.fixture(scope="class")
    def scheme_ctx(self):
        return build_context(SchemeConfig(n_samples=1))

    @pytest.mark.parametrize("name", ["nsm_unitary", "entangler_full", "event_unitary"])
    def test_scheme_permutations_match_products_bitwise(self, scheme_ctx, name, rng):
        u = getattr(scheme_ctx, name)
        assert u.lift is not None and _permutation_of(u.lift.local) is not None
        for _ in range(5):
            rho = state_with_signed_zeros(rng, u.dim)
            assert conjugate(rho, u).matrix.tobytes() == dense_conjugate(rho, u.matrix).tobytes()

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 64))
    def test_random_permutations_match_products_bitwise(self, seed, dim):
        gen = np.random.default_rng(seed)
        u = np.eye(dim)[gen.permutation(dim)]
        for u in (u, u.astype(complex)):
            rho = state_with_signed_zeros(gen, dim)
            assert conjugate(rho, u).matrix.tobytes() == dense_conjugate(rho, u).tobytes()

    @pytest.mark.parametrize(
        "entries, unitary",
        [
            ({(0, 2): 1.0}, False),  # a second 1 in row 0
            ({(0, 1): 0.0}, False),  # a zero row
            ({(1, 0): 0.0, (1, 2): 1.0}, False),  # rows 1 and 3 pick column 2
            ({(2, 3): -1.0}, True),
            ({(2, 3): 1j}, True),
        ],
    )
    def test_other_matrices_take_the_dense_path(self, entries, unitary, rng):
        u = np.eye(4, dtype=complex)[[1, 0, 3, 2]]
        for at, value in entries.items():
            u[at] = value
        assert _permutation_of(u) is None
        if unitary:
            rho = state_with_signed_zeros(rng, 4)
            assert conjugate(rho, u).matrix.tobytes() == dense_conjugate(rho, u).tobytes()

    def test_dense_barrier_matrix_takes_the_dense_path(self, scheme_ctx, rng):
        # the barrier's numbers as a plain matrix: not a lift, not a permutation
        u = np.array(scheme_ctx.barrier_unitary.matrix)
        assert _permutation_of(u) is None
        rho = state_with_signed_zeros(rng, u.shape[0])
        assert conjugate(rho, u).matrix.tobytes() == dense_conjugate(rho, u).tobytes()

    @pytest.mark.parametrize("pointer_dim", [4, 8])
    def test_barrier_lift_is_contracted_through_its_factor(self, pointer_dim, rng):
        pointer = PointerModel(pointer_dim)
        ctx = build_context(SchemeConfig(n_samples=1, nsm_pointer=pointer, event_pointer=pointer))
        u = ctx.barrier_unitary
        assert u.lift.perm is None and u.lift.local.shape == (2, 2)
        states = (state_with_signed_zeros(rng, u.dim), random_density(rng, u.dim))
        outs = [conjugate(rho, u).matrix for rho in states]
        assert u._matrix is None
        for rho, out in zip(states, outs):
            ref = factored_conjugate(rho, u.lift.local, u.lift.rest_dim)
            assert out.tobytes() == ref.tobytes()
            dense = dense_conjugate(rho, u.matrix)
            assert np.max(np.abs(out - dense)) <= 4 * np.spacing(np.max(np.abs(dense)))

    def test_trace_check_kept_on_the_permutation_path(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        tight = _forced(preservation_tol=-1.0)
        with pytest.raises(NumericalConsistencyError, match="conjugation broke the trace"):
            conjugate(rho, swap, policy=tight)


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


    def test_factor_is_rechecked_under_the_given_policy(self):
        hadamard = Operator(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2), unitary=True)
        space = CompositeSpace([("a", 2), ("b", 3)])
        with pytest.raises(ValueError, match="unitary assertion"):
            embed_operator(hadamard, space, ("a",), policy=NumericPolicy(unitary_tol=1e-30))

    @pytest.mark.parametrize(
        "matrix, flags",
        [
            (np.kron(SX, SX), {"hermitian": True}),
            (np.kron(SX, np.diag([1.0, 1j])), {"unitary": True}),
            (np.diag([1.0, 0.0, 1.0, 0.0]), {"projector": True}),
            (np.kron(SX, SX), {"hermitian": True, "unitary": True, "projector": False}),
            (np.kron(SX, SX), {}),
        ],
    )
    def test_lifted_flags_equal_the_factor_flags(self, matrix, flags):
        op = Operator(matrix, **flags)
        space = CompositeSpace([("a", 2), ("b", 3), ("c", 2)])
        lifted = embed_operator(op, space, ("a", "c"))
        assert (lifted.hermitian, lifted.unitary, lifted.projector) == (
            op.hermitian, op.unitary, op.projector
        )
        assert not lifted.matrix.flags.writeable

    def test_build_context_checks_no_flags_at_full_dimension(self, monkeypatch):
        checked = []
        original = linalg._check_flags

        def recorded(m, hermitian, unitary, projector, policy):
            if True in (hermitian, unitary, projector):
                checked.append(m.shape[0])
            return original(m, hermitian, unitary, projector, policy)

        monkeypatch.setattr(linalg, "_check_flags", recorded)
        pointer = PointerModel(8)
        ctx = build_context(SchemeConfig(n_samples=1, nsm_pointer=pointer, event_pointer=pointer))
        assert ctx.space.total_dim == 256
        assert checked and max(checked) < 256


class TestLift:
    SPACE = CompositeSpace([("a", 2), ("b", 3), ("c", 2)])

    @pytest.mark.parametrize("acting", [("a",), ("a", "b"), ("b",), ("c", "a")])
    def test_dense_matrix_built_on_first_access(self, acting, rng):
        n = int(np.prod([self.SPACE.dim_of(label) for label in acting]))
        op = Operator(random_hermitian(rng, n), hermitian=True)
        lifted = embed_operator(op, self.SPACE, acting)
        assert lifted._matrix is None and lifted.dim == 12
        assert (lifted.lift.perm is None) == (acting[0] == "a" and len(acting) < 3)
        built = lifted.matrix
        assert built is lifted.matrix and not built.flags.writeable
        rest_dim, perm = linalg._embedding(self.SPACE, acting, n)
        oracle = np.kron(op.matrix, np.eye(rest_dim))[np.ix_(perm, perm)]
        assert built.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("acting", [("a",), ("a", "b"), ("b",), ("c", "a")])
    def test_permutation_read_off_the_factor(self, acting, rng):
        n = int(np.prod([self.SPACE.dim_of(label) for label in acting]))
        u = Operator(np.eye(n)[rng.permutation(n)], unitary=True)
        lifted = embed_operator(u, self.SPACE, acting)
        gather = lifted.lift.gather
        assert lifted._matrix is None and not gather.flags.writeable
        assert np.array_equal(gather, _permutation_of(lifted.matrix))

    def test_no_gather_for_other_factors(self, rng):
        lifted = embed_operator(Operator(random_hermitian(rng, 2)), self.SPACE, ("a",))
        assert lifted.lift.gather is None

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_leading_lift_contracts_its_whole_local_matrix(self, q, rng):
        # local = core (x) I_q is contracted as given, identity factor and all
        core = random_hermitian(rng, 2)
        local = np.kron(core, np.eye(q))
        space = CompositeSpace([("a", 2 * q), ("r", 4)])
        op = embed_operator(Operator(local), space, ("a",))
        assert op.lift.local.shape == local.shape and op.lift.perm is None
        d = local.shape[0] * 4
        m = random_density(rng, d).matrix
        full = np.einsum("ab,by->ay", local, m.reshape(local.shape[0], -1)).reshape(d, d)
        every = np.arange(d)
        assert op.left(m, every)[0].tobytes() == full.tobytes()
        full = np.einsum("xbj,bc->xcj", m.reshape(d, local.shape[0], 4), local).reshape(d, d)
        assert op.right(m, every)[0].tobytes() == full.tobytes()
        assert op._matrix is None
        np.testing.assert_allclose(op.left(m, every)[0], op.matrix @ m, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            op.right(m, every, adjoint=True)[0], m @ op.matrix.conj().T, rtol=0, atol=1e-14
        )

    def test_lifted_family_is_checked_at_the_factor_dimension(self, rng):
        h = Operator(random_hermitian(rng, 2), hermitian=True)
        local = energy_sectors(h)
        lifted = local.embedded(self.SPACE, ("a",))
        assert lifted.sector_of is None
        assert all(p.lift is not None and p._matrix is None for p in lifted.projectors)
        half = embed_operator(local.projectors[0], self.SPACE, ("a",))
        with pytest.raises(ValueError, match="identity"):
            ProjectorSet((half,))

    def test_lifts_of_different_embeddings_are_summed_dense(self):
        # P (x) I on "a" plus (I - P) (x) I on "c": each lift is a projector,
        # the two do not sum to I, and their local matrices do
        p = Operator(np.diag([1.0, 0.0]), projector=True)
        q = Operator(np.diag([0.0, 1.0]), projector=True)
        pair = (embed_operator(p, self.SPACE, ("a",)), embed_operator(q, self.SPACE, ("c",)))
        with pytest.raises(ValueError, match="identity"):
            ProjectorSet(pair)

    @pytest.mark.parametrize("acting", [("a", "b"), ("b", "c")])
    def test_energy_family_steps_match_the_products(self, acting, rng):
        h = Operator(random_hermitian(rng, 6), hermitian=True)
        local = energy_sectors(h)
        lifted = local.embedded(self.SPACE, acting)
        rho = random_density(rng, 12)
        dephased = dephase(rho, lifted).matrix
        probs = born_probabilities(rho, lifted)
        collapsed = collapse(rho, lifted, 0).matrix
        leading = lifted.projectors[0].lift.perm is None
        assert leading == (acting == ("a", "b"))
        assert all(p._matrix is None for p in lifted.projectors) == leading
        projs = lifted.projectors
        for out, ref in (
            (dephased, dense_dephase(rho.matrix, projs)),
            (probs, dense_born(rho, projs)),
            (collapsed, dense_collapse(rho.matrix, projs[0])),
        ):
            if leading:
                np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)
            else:
                assert out.tobytes() == ref.tobytes()


def _products(u: np.ndarray, m: np.ndarray) -> list[np.ndarray]:
    return [u @ m, m @ u, m @ u.conj().T]


def _applied(op: Operator, m: np.ndarray) -> list[np.ndarray]:
    """The three products of a full block, each on every index."""
    every = np.arange(len(m))
    products = [op.left(m, every), op.right(m, every), op.right(m, every, adjoint=True)]
    assert all(np.array_equal(index, every) for _, index in products)
    return [out for out, _ in products]


class TestOperatorProducts:
    """`Operator.left` and `right` against the matrix products."""

    SPACE = CompositeSpace([("a", 2), ("b", 3), ("c", 2)])

    def _states(self, rng):
        return (state_with_signed_zeros(rng, 12).matrix, random_density(rng, 12).matrix)

    @pytest.mark.parametrize("acting", [("a",), ("a", "b"), ("b",), ("c", "a"), ("b", "c", "a")])
    def test_permutation_lifts_gather_the_product_bits(self, acting, rng):
        n = int(np.prod([self.SPACE.dim_of(label) for label in acting]))
        u = Operator(np.eye(n)[rng.permutation(n)], unitary=True)
        lifted = embed_operator(u, self.SPACE, acting)
        states = self._states(rng)
        outs = [_applied(lifted, m) for m in states]
        assert lifted._matrix is None
        for m, applied in zip(states, outs):
            for out, ref in zip(applied, _products(lifted.matrix, m)):
                assert out.tobytes() == ref.tobytes() and out.flags.c_contiguous

    @pytest.mark.parametrize("acting", [("a",), ("b", "c")])
    def test_identity_projector_gathers_the_product_bits(self, acting, rng):
        n = int(np.prod([self.SPACE.dim_of(label) for label in acting]))
        family = ProjectorSet((Operator.identity(n),)).embedded(self.SPACE, acting)
        p = family.projectors[0]
        assert np.array_equal(p.lift.gather, np.arange(12))
        for m in self._states(rng):
            for out, ref in zip(_applied(p, m), _products(p.matrix, m)):
                assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("acting", [("b",), ("c", "a")])
    def test_non_leading_lifts_take_the_dense_product(self, acting, rng):
        n = int(np.prod([self.SPACE.dim_of(label) for label in acting]))
        lifted = embed_operator(Operator(random_unitary(rng, n)), self.SPACE, acting)
        assert lifted.lift.perm is not None and lifted.lift.gather is None
        for m in self._states(rng):
            for out, ref in zip(_applied(lifted, m), _products(lifted.matrix, m)):
                assert out.tobytes() == ref.tobytes()

    def test_plain_operators_take_the_dense_product(self, rng):
        for u in (random_unitary(rng, 12), np.eye(12)[rng.permutation(12)]):
            op = Operator(u)
            for m in self._states(rng):
                for out, ref in zip(_applied(op, m), _products(op.matrix, m)):
                    assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("acting", [("a",), ("a", "b")])
    def test_leading_lifts_match_the_einsum_reference(self, acting, rng):
        n = int(np.prod([self.SPACE.dim_of(label) for label in acting]))
        local = random_unitary(rng, n)
        lifted = embed_operator(Operator(local), self.SPACE, acting)
        states = self._states(rng)
        outs = [_applied(lifted, m) for m in states]
        assert lifted._matrix is None
        for m, applied in zip(states, outs):
            m4 = m.reshape(n, 12 // n, n, 12 // n)
            refs = [
                np.einsum("ab,bjck->ajck", local, m4).reshape(12, 12),
                np.einsum("ajbk,bc->ajck", m4, local).reshape(12, 12),
                np.einsum("ajbk,cb->ajck", m4, local.conj()).reshape(12, 12),
            ]
            for out, ref in zip(applied, refs):
                assert out.tobytes() == ref.tobytes()
            for out, ref in zip(applied, _products(lifted.matrix, m)):
                np.testing.assert_allclose(out, ref, rtol=0, atol=1e-14)


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
        with pytest.raises(ValueError, match="unique"):
            ProjectorSet.basis(2, labels=("x", "x"))

    def test_label_count_checked(self):
        p0 = Operator(np.diag([1.0, 0.0]), projector=True)
        p1 = Operator(np.diag([0.0, 1.0]), projector=True)
        with pytest.raises(ValueError, match="label count"):
            ProjectorSet((p0, p1), labels=("x",))
        with pytest.raises(ValueError, match="outside the label range"):
            ProjectorSet(np.array([0, 1, 2]), labels=("x", "y"))

    @pytest.mark.parametrize("acting", [None, ("a", "b"), ("a", "c"), ("c", "a")])
    def test_partition_projectors_built_on_first_access(self, acting):
        space = CompositeSpace([("a", 2), ("b", 3), ("c", 2)])
        n = 5 if acting is None else int(np.prod([space.dim_of(label) for label in acting]))
        units = [Operator(np.diag(np.eye(n)[k]), projector=True) for k in range(n)]
        pset = ProjectorSet.basis(n)
        if acting is not None:
            pset = pset.embedded(space, acting)
            units = [embed_operator(p, space, acting) for p in units]
        assert pset._projectors is None and len(pset) == n
        built = pset.projectors
        assert built is pset.projectors
        assert len(built) == n
        for p, unit in zip(built, units):
            assert p.matrix.tobytes() == unit.matrix.tobytes()
            assert p.projector is True and p.hermitian is True


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

    def test_dense_projectors_are_not_scanned_for_a_partition(self):
        # 0/1 diagonals given as matrices are a dense family; only a
        # sector_of array declares a partition
        pset = ProjectorSet([Operator(np.diag(np.eye(3)[k]), projector=True) for k in range(3)])
        assert pset.sector_of is None and pset.completeness_deviation == 0.0

    def test_basis_matches_unit_diagonals(self):
        for k, p in enumerate(ProjectorSet.basis(4).projectors):
            m = np.zeros((4, 4))
            m[k, k] = 1.0
            assert p.matrix.tobytes() == np.asarray(m, dtype=complex).tobytes()


class TestCollapse:
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3, 8, 16, 33]))
    def test_index_projector_bitwise(self, seed, dim):
        gen = np.random.default_rng(seed)
        sector_of, projs = index_partition(gen, dim)
        pset = ProjectorSet(sector_of, range(len(projs)))
        for rho in (random_density(gen, dim), state_with_signed_zeros(gen, dim)):
            for k, p in enumerate(projs):
                if float(np.trace(p.matrix @ rho.matrix).real) <= 1e-12:
                    continue
                out = collapse(rho, pset, k)
                assert out.matrix.tobytes() == dense_collapse(rho.matrix, p).tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    def test_embedded_index_projector_bitwise(self, seed):
        gen = np.random.default_rng(seed)
        space = CompositeSpace([("S", 2), ("A", 3), ("M", 2), ("P", 2)])
        pset = ProjectorSet.basis(4).embedded(space, ("S", "M"))
        lifts = [embed_operator(p, space, ("S", "M")) for p in ProjectorSet.basis(4).projectors]
        for rho in (random_density(gen, 24), state_with_signed_zeros(gen, 24)):
            for family in (pset, ProjectorSet(lifts)):
                for k, p in enumerate(family.projectors):
                    if float(np.trace(p.matrix @ rho.matrix).real) <= 1e-12:
                        continue
                    out = collapse(rho, family, k)
                    assert out.matrix.tobytes() == dense_collapse(rho.matrix, p).tobytes()

    @pytest.mark.parametrize("k", [-1, 3])
    @pytest.mark.parametrize("dense", [False, True])
    def test_outcome_outside_the_family_rejected(self, dense, k, rng):
        pset = ProjectorSet.basis(3)
        if dense:
            pset = ProjectorSet(pset.projectors)
        with pytest.raises(IndexError, match=f"outcome {k} outside a family of 3"):
            collapse(random_density(rng, 3), pset, k)

    @pytest.mark.parametrize("dense", [False, True])
    def test_zero_probability_outcome_rejected(self, dense):
        pset = ProjectorSet.basis(2)
        if dense:
            pset = ProjectorSet(pset.projectors)
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="outcome 1 has probability 0.0"):
            collapse(rho, pset, 1)

    @pytest.mark.parametrize("dense", [False, True])
    def test_family_of_another_dimension_rejected(self, dense, rng):
        pset = ProjectorSet.basis(2)
        if dense:
            pset = ProjectorSet(pset.projectors)
        with pytest.raises(ValueError, match="family dimension 2 != state dimension 3"):
            collapse(random_density(rng, 3), pset, 0)

    def test_non_diagonal_projector_stays_dense(self, rng):
        plus = np.full((2, 2), 0.5)
        pset = ProjectorSet([Operator(m, projector=True) for m in (plus, np.eye(2) - plus)])
        assert pset.sector_of is None
        rho = random_density(rng, 2)
        p = pset.projectors[0]
        assert collapse(rho, pset, 0).matrix.tobytes() == dense_collapse(rho.matrix, p).tobytes()


class TestCompositeSpace:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CompositeSpace([("a", 2), ("a", 3)])

    def test_total_dim(self):
        assert CompositeSpace([("a", 2), ("b", 3), ("c", 4)]).total_dim == 24


def test_tensor_kets():
    out = tensor_kets(Ket.basis(2, 1), Ket.basis(3, 0))
    assert out.amplitudes[3] == 1.0 and out.dim == 6


class TestSupportBlocks:
    """A state declared on part of the basis gives, through every channel,
    the bits its d x d matrix gives as a full-support state."""

    SPACE = CompositeSpace([("a", 2), ("b", 3), ("c", 2), ("d", 2)])

    def _pair(self, rng):
        block = block_state(rng, self.SPACE.total_dim)
        assert block.support.size < block.dim and block._matrix is None
        return block, DensityMatrix(block.matrix, 1.0)

    def _unitaries(self, rng):
        perm = np.eye(4)[rng.permutation(4)]
        return [
            embed_operator(Operator(random_unitary(rng, 2), unitary=True), self.SPACE, ("a",)),
            embed_operator(Operator(random_unitary(rng, 6), unitary=True), self.SPACE, ("a", "b")),
            embed_operator(Operator(perm, unitary=True), self.SPACE, ("d", "a")),
            embed_operator(Operator(random_unitary(rng, 3), unitary=True), self.SPACE, ("b",)),
            Operator(random_unitary(rng, 24), unitary=True),
        ]

    def _families(self, rng):
        h2 = Operator(random_hermitian(rng, 2), hermitian=True)
        h6 = Operator(random_hermitian(rng, 6), hermitian=True)
        return [
            ProjectorSet.basis(6).embedded(self.SPACE, ("b", "d")),
            energy_sectors(h2).embedded(self.SPACE, ("a",)),
            energy_sectors(h6).embedded(self.SPACE, ("a", "b")),
            energy_sectors(h6).embedded(self.SPACE, ("b", "c")),
            ProjectorSet(energy_sectors(h2).embedded(self.SPACE, ("a",)).projectors),
        ]

    @staticmethod
    def _same(out, ref):
        assert out.matrix.tobytes() == ref.matrix.tobytes()
        assert np.all(np.diff(out.support) > 0)

    def test_conjugation(self, rng):
        for _ in range(4):
            block, full = self._pair(rng)
            for u in self._unitaries(rng):
                self._same(conjugate(block, u), conjugate(full, u))

    def test_readings(self, rng):
        for _ in range(4):
            block, full = self._pair(rng)
            for family in self._families(rng):
                self._same(dephase(block, family), dephase(full, family))
                probs = born_probabilities(block, family)
                assert probs.tobytes() == born_probabilities(full, family).tobytes()
                for k in np.flatnonzero(probs > 1e-12):
                    self._same(collapse(block, family, k), collapse(full, family, k))

    @pytest.mark.parametrize("keep", [("a",), ("b", "d"), ("a", "b"), ("c",), ("a", "c", "d")])
    def test_partial_trace(self, keep, rng):
        axes = sorted(self.SPACE.axis_of(label) for label in keep)
        for _ in range(4):
            for rho in self._pair(rng):
                out = partial_trace(rho, self.SPACE, keep)
                ref = dense_partial_trace(rho.matrix, self.SPACE.dims, axes)
                assert out.matrix.tobytes() == ref.tobytes()

    def test_matrix_is_built_once_with_positive_zeros(self, rng):
        block, _ = self._pair(rng)
        m = block.matrix
        assert block.matrix is m and not m.flags.writeable
        off = np.ones(m.shape, dtype=bool)
        off[np.ix_(block.support, block.support)] = False
        assert not np.any(np.signbit(m.view(float).reshape(*m.shape, 2)[off]))
