import hashlib
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import branch_states, dense_lift_context, random_unitary, ulps_apart
from meterwork import scheme, superselection
from meterwork.errors import CapacityError, SchemeConstraintError
from meterwork.jarzynski import DriveSchedule, delta_F, tpm_sample
from meterwork.linalg import DensityMatrix, Operator, partial_trace
from meterwork.measurement import EntropyLedger, PointerModel
from meterwork.numeric import NumericPolicy
from meterwork.scheme import (
    APPARATUS,
    EXPERIMENTER,
    MEASURED,
    METER,
    POINTER,
    READER,
    RECORD_COLUMNS,
    SYSTEM,
    SchemeConfig,
    apply_barrier_drive,
    apply_event_coupling,
    apply_event_reading,
    apply_meter_entangling,
    apply_nonselective_measurement,
    build_context,
    controlled_shift_entangler,
    prepare_initial_state,
    read_energy,
    run_scheme,
    run_single,
    site_diagonal_schedule,
    site_observable,
    szilard_schedule,
    verify_unitary_roundtrips,
)
from meterwork.streams import stream_generator
from meterwork.superselection import dephase, energy_sectors


@pytest.fixture(scope="module")
def ctx():
    return build_context(SchemeConfig(n_samples=10, seed=0))


def s_marginal(ctx, state) -> np.ndarray:
    return partial_trace(state, ctx.space, (SYSTEM, APPARATUS)).matrix


def system_marginal(ctx, state) -> np.ndarray:
    return partial_trace(state, ctx.space, (SYSTEM,)).matrix


def live_branches(tables) -> list[tuple[int, int]]:
    """The (initial sector, event outcome) branches that `tables` tabulates."""
    return [
        (i, m) for i, row in enumerate(tables.ledgers) for m, ledger in enumerate(row) if ledger
    ]


class TestPrepare:
    def test_meter_side_is_pure(self, ctx):
        rho = prepare_initial_state(ctx)
        m = partial_trace(rho, ctx.space, (METER, POINTER)).matrix
        purity = float(np.trace(m @ m).real)
        assert abs(purity - 1.0) <= 1e-12

    def test_measured_side_is_gibbs(self, ctx):
        rho = prepare_initial_state(ctx)
        sa = s_marginal(ctx, rho)
        w = np.linalg.eigvalsh(sa)
        h_eigs = np.linalg.eigvalsh(ctx.h_initial.matrix)
        beta = ctx.config.beta
        gibbs = np.exp(-beta * h_eigs) / np.exp(-beta * h_eigs).sum()
        np.testing.assert_allclose(np.sort(w), np.sort(gibbs), atol=1e-12)

    def test_product_structure(self, ctx):
        rho = prepare_initial_state(ctx)
        sa = s_marginal(ctx, rho)
        m = partial_trace(rho, ctx.space, (METER, POINTER)).matrix
        np.testing.assert_allclose(rho.matrix, np.kron(sa, m), atol=1e-12)

    def test_energy_sectors_carry_apparatus_degeneracy(self, ctx):
        sectors = energy_sectors(ctx.h_initial)
        assert [np.rint(np.trace(p.matrix).real) for p in sectors.projectors] == [4, 4]

    @pytest.mark.parametrize("which", ["Initial", "INITIAL", "start", ""])
    def test_unknown_reading_rejected(self, ctx, which):
        rho = prepare_initial_state(ctx)
        with pytest.raises(ValueError, match="which must be 'initial' or 'final'"):
            read_energy(ctx, rho, which, stream_generator(8, 0), EntropyLedger())

    def test_sector_collapse_leaves_apparatus_maximally_mixed(self, ctx):
        # the collapsed energy eigenstate is a uniform classical mixture of
        # the apparatus cells contributing to that energy
        rho = prepare_initial_state(ctx)
        rng = stream_generator(8, 0)
        _, _, state, _ = read_energy(ctx, rho, "initial", rng, EntropyLedger())
        apparatus = partial_trace(state, ctx.space, (APPARATUS,)).matrix
        np.testing.assert_allclose(apparatus, np.eye(4) / 4, atol=1e-12)


class TestBarrierDrive:
    def test_slow_ramp_leaves_balanced_superposition(self, ctx):
        # start from the collapsed ground sector, as in a real run
        rho = prepare_initial_state(ctx)
        rng = stream_generator(1, 0)
        _, _, state, _ = read_energy(ctx, rho, "initial", rng, EntropyLedger())
        # force the ground branch for determinism
        ground_energy = energy_sectors(ctx.h_initial).labels[0]
        sectors = ctx.initial_pset
        g_idx = int(np.argmin([abs(l - ground_energy) for l in sectors.labels]))
        p = sectors.projectors[g_idx].matrix
        m = p @ prepare_initial_state(ctx).matrix @ p
        state = DensityMatrix(0.5 * (m + m.conj().T) / np.trace(m).real, 1.0)

        driven = apply_barrier_drive(ctx, state)
        sys_red = system_marginal(ctx, driven)
        assert abs(sys_red[0, 1]) >= 0.49

        # independent oracle: 100x finer stepping of the same control path
        sched = ctx.config.barrier_schedule
        fine = szilard_schedule(n_steps=4000)
        u = np.eye(2, dtype=complex)
        dt = fine.t_f / fine.n_steps
        for n in range(fine.n_steps):
            w, v = np.linalg.eigh(fine.hamiltonian_matrix(n))
            u = (v * np.exp(-1j * w * dt)) @ v.conj().T @ u
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        oracle = np.outer(u @ plus, (u @ plus).conj())
        np.testing.assert_allclose(sys_red, oracle, atol=1e-3)
        assert sched.n_steps < fine.n_steps  # genuinely coarser path under test

    def test_zero_length_schedule_is_identity(self):
        cfg = SchemeConfig(
            barrier_schedule=szilard_schedule(t_f=0.0, n_steps=1), n_samples=1
        )
        ctx0 = build_context(cfg)
        rho = prepare_initial_state(ctx0)
        out = apply_barrier_drive(ctx0, rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-13)

    def test_apparatus_untouched(self, ctx):
        rho = prepare_initial_state(ctx)
        before = partial_trace(rho, ctx.space, (APPARATUS,)).matrix
        after = partial_trace(apply_barrier_drive(ctx, rho), ctx.space, (APPARATUS,)).matrix
        np.testing.assert_allclose(after, before, atol=1e-12)


class TestNonselectiveStep:
    def test_site_eigenstate_fixed_point(self):
        cfg = SchemeConfig(eigenstate_prep=True, n_samples=1)
        ctx_e = build_context(cfg)
        rho = prepare_initial_state(ctx_e)
        before = system_marginal(ctx_e, rho)
        after = system_marginal(ctx_e, apply_nonselective_measurement(ctx_e, rho))
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_balanced_superposition_becomes_classical(self, ctx):
        rho = prepare_initial_state(ctx)
        driven = apply_barrier_drive(ctx, rho)
        out = apply_nonselective_measurement(ctx, driven)
        sys_red = system_marginal(ctx, out)
        np.testing.assert_allclose(sys_red, np.diag(np.diagonal(sys_red)), atol=1e-12)
        np.testing.assert_allclose(
            np.diagonal(sys_red).real, [0.5, 0.5], atol=1e-12
        )

    def test_site_populations_preserved(self, ctx, rng):
        rho = apply_barrier_drive(ctx, prepare_initial_state(ctx))
        before = np.diagonal(system_marginal(ctx, rho)).real
        after = np.diagonal(
            system_marginal(ctx, apply_nonselective_measurement(ctx, rho))
        ).real
        np.testing.assert_allclose(after, before, atol=1e-12)


class TestEntanglingStep:
    def _post_nsm_state(self, ctx):
        return apply_nonselective_measurement(
            ctx, apply_barrier_drive(ctx, prepare_initial_state(ctx))
        )

    def test_measured_marginal_invariant(self, ctx):
        state = self._post_nsm_state(ctx)
        before = s_marginal(ctx, state)
        after = s_marginal(ctx, apply_meter_entangling(ctx, state))
        assert np.max(np.abs(before - after)) <= 1e-12

    def test_joint_sector_correlation_is_diagonal(self, ctx):
        state = apply_meter_entangling(ctx, self._post_nsm_state(ctx))
        for n in range(2):
            site = np.zeros((2, 2))
            site[n, n] = 1.0
            for m in range(2):
                meter = np.zeros((2, 2))
                meter[m, m] = 1.0
                joint = np.kron(
                    np.kron(site, np.eye(4)), np.kron(meter, np.eye(4))
                )
                p = float(np.trace(joint @ state.matrix).real)
                site_only = np.kron(np.kron(site, np.eye(4)), np.eye(8))
                p_site = float(np.trace(site_only @ state.matrix).real)
                want = p_site if m == n else 0.0
                assert p == pytest.approx(want, abs=1e-12)

    def test_identity_entangler_is_noop(self):
        cfg = SchemeConfig(entangler=Operator.identity(4), n_samples=1)
        ctx_i = build_context(cfg)
        state = apply_nonselective_measurement(
            ctx_i, apply_barrier_drive(ctx_i, prepare_initial_state(ctx_i))
        )
        out = apply_meter_entangling(ctx_i, state)
        np.testing.assert_allclose(out.matrix, state.matrix, atol=1e-13)

    def test_random_violating_unitaries_rejected(self, ctx, rng):
        state = self._post_nsm_state(ctx)
        rejected = 0
        trials = 25
        for _ in range(trials):
            bad = Operator(random_unitary(rng, 4), unitary=True)
            cfg = SchemeConfig(entangler=bad, n_samples=1)
            bad_ctx = build_context(cfg)
            try:
                apply_meter_entangling(bad_ctx, state)
            except SchemeConstraintError:
                rejected += 1
        assert rejected == trials


class TestEventReadingStep:
    def _entangled_state(self, ctx):
        return apply_meter_entangling(
            ctx,
            apply_nonselective_measurement(
                ctx, apply_barrier_drive(ctx, prepare_initial_state(ctx))
            ),
        )

    def test_deterministic_branch_reads_free(self):
        cfg = SchemeConfig(eigenstate_prep=True, n_samples=1)
        ctx_e = build_context(cfg)
        state = apply_meter_entangling(
            ctx_e,
            apply_nonselective_measurement(
                ctx_e, apply_barrier_drive(ctx_e, prepare_initial_state(ctx_e))
            ),
        )
        outcome, _, ledger = apply_event_reading(
            ctx_e, state, stream_generator(0, 0), EntropyLedger()
        )
        assert outcome == 0
        assert all(e.sigma_nats == 0.0 for e in ledger.entries)

    def test_symmetric_branches_sample_evenly(self, ctx):
        state = self._entangled_state(ctx)
        rng = stream_generator(17, 0)
        n = 2000
        counts = np.zeros(2)
        for _ in range(n):
            outcome, _, _ = apply_event_reading(ctx, state, rng, EntropyLedger())
            counts[outcome] += 1
        se = math.sqrt(0.25 / n)
        assert abs(counts[0] / n - 0.5) <= 4 * se

    def test_collapse_propagates_to_measured_side(self, ctx):
        state = self._entangled_state(ctx)
        pre = s_marginal(ctx, state)
        outcome, collapsed, ledger = apply_event_reading(
            ctx, state, stream_generator(3, 0), EntropyLedger()
        )
        post = s_marginal(ctx, collapsed)
        site = np.zeros((2, 2))
        site[outcome, outcome] = 1.0
        proj = np.kron(site, np.eye(4))
        want = proj @ pre @ proj
        want /= np.trace(want).real
        np.testing.assert_allclose(post, want, atol=1e-12)
        totals = ledger.totals()
        assert totals[READER] == 1.0 and totals[MEASURED] == -1.0


class TestRunScheme:
    def test_ledger_per_run_totals(self):
        result = run_scheme(SchemeConfig(n_samples=200, seed=5))
        for record in result.records:
            totals = record.ledger.totals()
            assert totals[EXPERIMENTER] == 2.0
            assert totals[READER] == 1.0
            assert totals[MEASURED] == -3.0
            assert record.ledger.total() == 0.0

    def test_cumsum_adds_run_by_run(self):
        # run_scheme sums the per-run ledger totals with np.cumsum because it
        # adds left to right, as a loop over the runs does; np.sum does not
        x = np.random.default_rng(3).normal(size=10001)
        total = 0.0
        for v in x.tolist():
            total += v
        assert float(np.cumsum(x)[-1]).hex() == total.hex()
        assert float(np.sum(x)).hex() != total.hex()

    def test_work_accounting_identity(self):
        result = run_scheme(SchemeConfig(n_samples=300, seed=6))
        for record in result.records:
            assert record.work_total == record.work_drive + 3.0
        assert abs(result.work_gap - 3.0) <= 1e-12
        assert result.sigma_total == 3.0

    def test_reports_pass_on_default_drive(self):
        result = run_scheme(SchemeConfig(n_samples=4000, seed=21))
        assert result.original_report.passed
        assert result.modified_report.passed
        assert result.modified_report.inequality_ok

    def test_eigenstate_prep_reduces_to_plain_tpm(self):
        result = run_scheme(SchemeConfig(n_samples=100, seed=2, eigenstate_prep=True))
        assert result.sigma_total == 0.0
        for record in result.records:
            assert all(e.sigma_nats == 0.0 for e in record.ledger.entries)
            assert record.work_drive == 0.0
            assert record.work_total == 0.0
        assert result.original_report.estimator_mean == 1.0
        # with nothing injected the two reports coincide
        assert result.modified_report.estimator_mean == result.original_report.estimator_mean
        assert result.modified_report.standard_error == result.original_report.standard_error
        assert result.modified_report.exact_value == result.original_report.exact_value
        assert result.modified_report.passed and result.original_report.passed

    def test_delta_f_ignores_apparatus_padding(self):
        cfg = SchemeConfig(n_samples=1)
        ctx = build_context(cfg)
        sched = cfg.barrier_schedule
        df_s0 = delta_F(sched.initial_hamiltonian(), sched.final_hamiltonian(), cfg.beta)
        assert ctx.delta_f == pytest.approx(df_s0, abs=1e-12)

    def test_commuting_drive_invariance_of_drive_work(self):
        # when the drive commutes with the measured observable, the
        # measurement steps leave the drive-work distribution unchanged
        beta = 1.0
        sched = site_diagonal_schedule(gap_initial=1.0, gap_final=2.0, t_f=1.0, n_steps=5)
        result = run_scheme(
            SchemeConfig(barrier_schedule=sched, n_samples=20000, seed=31, beta=beta)
        )
        scheme_works = np.array([r.work_drive for r in result.records])
        plain = tpm_sample(sched, beta, 20000, seed=77)
        plain_works = plain.work
        np.testing.assert_allclose(
            np.unique(scheme_works), np.unique(plain_works), atol=1e-12
        )
        diff = scheme_works.mean() - plain_works.mean()
        se = math.sqrt(
            scheme_works.var(ddof=1) / len(scheme_works)
            + plain_works.var(ddof=1) / len(plain_works)
        )
        assert abs(diff) <= 3 * se

    def test_table_and_stepwise_paths_agree(self):
        cfg = SchemeConfig(n_samples=5, seed=77)
        result = run_scheme(cfg)
        ctx = build_context(cfg)
        rng = stream_generator(77, 0)
        for record in result.records:
            manual = run_single(ctx, rng, keep_states=False)
            assert manual.tpm_initial == record.tpm_initial
            assert manual.event_outcome == record.event_outcome
            assert manual.tpm_final == record.tpm_final
            assert manual.work_drive == record.work_drive
            assert manual.work_total == record.work_total
            assert [
                (e.party, e.sigma_nats, e.cause) for e in manual.ledger.entries
            ] == [(e.party, e.sigma_nats, e.cause) for e in record.ledger.entries]

    def test_longer_run_extends_shorter_run(self):
        # 5000 runs end inside the second stream block of the 9000 run
        def key(r):
            entries = [(e.party, e.sigma_nats, e.cause) for e in r.ledger.entries]
            return (
                r.stream_id,
                r.draw_id,
                r.tpm_initial,
                r.event_outcome,
                r.tpm_final,
                r.work_drive,
                r.work_total,
                entries,
            )

        longer = run_scheme(SchemeConfig(n_samples=9000, seed=13))
        shorter = run_scheme(SchemeConfig(n_samples=5000, seed=13))
        assert [key(r) for r in longer.records[:5000]] == [key(r) for r in shorter.records]

    def test_table_records_carry_no_states(self):
        # a run's states come from run_single(keep_states=True)
        result = run_scheme(SchemeConfig(n_samples=40, seed=1))
        assert all(record.states is None for record in result.records)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_entropy_production_differing_across_runs_counts_run_by_run(self, seed):
        # the third site level is an energy eigenstate throughout: a run that
        # starts there has a deterministic event and final reading and books
        # 1 nat, every other run books 3
        def h_at(lams):
            h = np.zeros((lams.size, 3, 3), dtype=complex)
            h[:, 0, 1] = h[:, 1, 0] = -(1.0 - lams / 2.0)
            h[:, 2, 2] = 0.5
            return h

        beta = 1.0
        config = SchemeConfig(
            s0_dim=3,
            meter_dim=3,
            n_samples=20000,
            seed=seed,
            beta=beta,
            barrier_schedule=DriveSchedule.linear(h_at, 1.0, 4),
        )
        result = run_scheme(config)
        columns = result.columns
        sigma = columns["sigma_experimenter"] + columns["sigma_reader"]
        assert set(sigma.tolist()) == {1.0, 3.0}
        assert result.original_report.passed and result.modified_report.passed
        # exp(-beta W_total + sigma) is exp(-beta W_drive) run by run
        weights = np.exp(-beta * columns["work_total"] + sigma)
        assert np.array_equal(weights, np.exp(-beta * columns["work_drive"]))
        assert result.sigma_total == float(np.mean(sigma)) == result.modified_report.sigma_total
        assert result.sigma_total == pytest.approx(2.67, abs=0.03)
        assert sum(result.ledger_totals.values()) == 0.0

    def test_columns_are_read_only_and_rows_are_built_once(self):
        result = run_scheme(SchemeConfig(n_samples=50, seed=4))
        assert tuple(result.columns) == RECORD_COLUMNS
        for column in result.columns.values():
            assert column.shape == (50,) and column.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        with pytest.raises(TypeError):
            result.columns["draw"] = result.columns["stream"]
        assert result.records is result.records
        ledgers = {}
        for r in result.records:
            assert ledgers.setdefault((r.tpm_initial[0], r.event_outcome), r.ledger) is r.ledger
        # compared and hashed by identity: a generated __eq__ over arrays raises
        assert result != run_scheme(SchemeConfig(n_samples=50, seed=4))
        assert len({result, result}) == 1

    @pytest.mark.parametrize(
        "tilt, message",
        [
            # p_init = 0.881 / 0.119: sector 1 is pruned but keeps its CDF width
            (0.0, r"run 3 drew initial energy sector 1 with probability 0\.119.* 0\.3;"),
            # a tilted constant drive leaves site populations 0.243 / 0.757 after sector 0
            (0.6, r"run 0 drew event outcome 0 after initial sector 0 with probability 0\.2427"),
        ],
    )
    def test_draw_on_pruned_branch_names_it(self, tilt, message):
        schedule = None
        if tilt:
            h = np.array([[tilt, -1.0], [-1.0, -tilt]], dtype=complex)
            schedule = DriveSchedule.constant(Operator(h, hermitian=True), 1.0, 1)
        config = SchemeConfig(n_samples=50, seed=0, barrier_schedule=schedule)
        with pytest.raises(SchemeConstraintError, match=message):
            run_scheme(config, policy=NumericPolicy(outcome_floor=0.3))


class TestRoundTrips:
    def test_default_configuration_passes(self):
        report = verify_unitary_roundtrips(SchemeConfig(n_samples=1, seed=4), seed=9)
        assert report.all_passed
        assert [s.name for s in report.stages] == ["a", "b", "c", "d"]
        for stage in report.stages:
            assert stage.deviation <= 1e-12

    def test_eigenstate_configuration_passes(self):
        report = verify_unitary_roundtrips(
            SchemeConfig(n_samples=1, eigenstate_prep=True), seed=2
        )
        assert report.all_passed


class TestConfigValidation:
    def test_meter_too_small_rejected(self):
        with pytest.raises(ValueError, match="meter"):
            SchemeConfig(s0_dim=2, meter_dim=1)

    def test_entangler_dimension_checked(self):
        with pytest.raises(ValueError, match="entangler"):
            SchemeConfig(entangler=Operator.identity(3))

    def test_non_unitary_entangler_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            SchemeConfig(entangler=Operator(np.diag([1.0, 1.0, 1.0, 2.0])))

    def test_vanishing_tunneling_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            szilard_schedule(j_final=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf, 0.0, -0.5])
    @pytest.mark.parametrize("name", ["j_initial", "j_final"])
    def test_bad_tunneling_amplitude_is_named(self, name, value):
        message = f"{name} must be positive and finite, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            szilard_schedule(**{name: value})

    @pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -2.0])
    def test_beta_must_be_positive_and_finite(self, beta):
        with pytest.raises(ValueError, match=rf"beta must be positive and finite, got {beta!r}"):
            SchemeConfig(beta=beta)

    def test_site_observable_values(self):
        obs = site_observable(2)
        np.testing.assert_array_equal(np.diagonal(obs.matrix).real, [1.0, -1.0])

    def test_controlled_shift_requires_room(self):
        with pytest.raises(ValueError, match="record"):
            controlled_shift_entangler(3, 2)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_count_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=rf"n_samples must be at least 1, got {n}"):
            SchemeConfig(n_samples=n)

    def test_fractional_seed_is_named_not_truncated(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            SchemeConfig(n_samples=10, seed=1.5)
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            verify_unitary_roundtrips(SchemeConfig(n_samples=10), 1.5)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected_at_construction(self, seed):
        message = rf"seed must be an integer in \[0, 2\*\*64\), got {seed}"
        with pytest.raises(ValueError, match=message):
            SchemeConfig(seed=seed)


@pytest.fixture
def contexts(monkeypatch):
    """Every context that run_scheme builds, in order."""
    built = []

    def build_and_keep(*args, **kwargs):
        built.append(build_context(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(scheme, "build_context", build_and_keep)
    return built


class TestWidePointers:
    def test_dephase_sets_never_build_dense_projectors(self, contexts):
        pointer = PointerModel(8)
        cfg = SchemeConfig(n_samples=50, seed=3, nsm_pointer=pointer, event_pointer=pointer)
        run_scheme(cfg)
        run_single(contexts[0], stream_generator(3, 0), keep_states=False)
        verify_unitary_roundtrips(cfg, 3)
        assert len(contexts) == 2
        for ctx in contexts:
            for pset in (ctx.nsm_dephase_set, ctx.event_dephase_set, ctx.meter_outcome_set):
                assert pset.sector_of is not None and pset._projectors is None

    def test_dim_576_stepwise_run_is_the_first_table_record(self, contexts):
        pointer = PointerModel(12)
        cfg = SchemeConfig(n_samples=200, seed=5, nsm_pointer=pointer, event_pointer=pointer)
        result = run_scheme(cfg)
        (ctx,) = contexts
        assert ctx.space.total_dim == 576
        manual = run_single(ctx, stream_generator(5, 0), keep_states=False)
        assert _record_key(manual) == _record_key(result.records[0])

    def test_dim_1024_stepwise_run_is_the_first_table_record(self, contexts):
        pointer = PointerModel(16)
        cfg = SchemeConfig(n_samples=200, seed=5, nsm_pointer=pointer, event_pointer=pointer)
        result = run_scheme(cfg, policy=NumericPolicy(max_dim=1024))
        (ctx,) = contexts
        assert ctx.space.total_dim == 1024
        manual = run_single(ctx, stream_generator(5, 0), keep_states=False)
        assert _record_key(manual) == _record_key(result.records[0])

    def test_branch_states_keep_their_blocks(self):
        # every scheme state lives on the 2a (system, apparatus) indices of
        # one meter/pointer record, or fewer
        ctx = build_context(SchemeConfig(nsm_pointer=_WIDE, event_pointer=_WIDE))
        assert ctx.space.total_dim == 256
        tables = scheme._BranchTables(ctx)
        states = [
            s for i, m in live_branches(tables) for s in branch_states(ctx, tables, i, m).values()
        ]
        assert states
        for state in states:
            assert state._matrix is None and state.support.size <= 2 * _WIDE.pointer_dim

    def test_branch_tables_allocate_no_dense_state(self):
        pointer = PointerModel(16)
        cfg = SchemeConfig(nsm_pointer=pointer, event_pointer=pointer)
        ctx = build_context(cfg, policy=NumericPolicy(max_dim=1024))
        d = ctx.space.total_dim
        tracemalloc.start()
        try:
            scheme._BranchTables(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d * np.dtype(complex).itemsize  # one d x d state


def _record_key(r):
    floats = (
        r.tpm_initial[1],
        r.tpm_final[1],
        r.work_drive,
        r.work_total,
        r.work_reading_experimenter,
        r.work_reading_reader,
    )
    entries = [(e.party, e.sigma_nats, e.cause) for e in r.ledger.entries]
    indices = (r.tpm_initial[0], r.event_outcome, r.tpm_final[0])
    return indices, np.array(floats).tobytes(), entries


@pytest.fixture
def dephase_calls(monkeypatch):
    """Every call of `superselection.dephase`, from whichever module bound it."""
    calls = []
    original = superselection.dephase

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("meterwork") and getattr(module, "dephase", None) is original:
            monkeypatch.setattr(module, "dephase", counted)
    return calls


_WIDE = PointerModel(8)


class TestOneReadingPath:
    def test_stepwise_run_dephases_each_reading_once(self, dephase_calls):
        ctx = build_context(SchemeConfig(nsm_pointer=_WIDE, event_pointer=_WIDE))
        dephase_calls.clear()
        run_single(ctx, stream_generator(7, 0), keep_states=False)
        # two energy readings, the site-cell and the meter-cell dephase
        assert len(dephase_calls) == 4

    def test_roundtrip_replay_dephases_each_reading_once(self, dephase_calls):
        verify_unitary_roundtrips(SchemeConfig(nsm_pointer=_WIDE, event_pointer=_WIDE), 7)
        assert len(dephase_calls) == 3

    @pytest.mark.parametrize(
        "cfg",
        [
            SchemeConfig(),
            SchemeConfig(nsm_pointer=_WIDE, event_pointer=_WIDE),
            SchemeConfig(eigenstate_prep=True),
        ],
        ids=["default", "pointer-8", "eigenstate-prep"],
    )
    def test_event_coupling_is_dephased_in_the_meter_outcomes(self, cfg):
        # the event reading draws on this state without re-checking it
        ctx = build_context(cfg)
        tables = scheme._BranchTables(ctx)
        entangled = {
            i: branch_states(ctx, tables, i, m)["after_entangle"] for i, m in live_branches(tables)
        }
        assert entangled
        for state in entangled.values():
            ready = apply_event_coupling(ctx, state)
            again = dephase(ready, ctx.meter_outcome_set, policy=ctx.policy)
            assert ready.matrix.tobytes() == again.matrix.tobytes()


def _stage_tables(tables) -> dict:
    """The initial and event reading probabilities and the three stage CDFs
    of `tables`' branch table, by name."""
    branches = tables.branches
    names = ("p_init", "p_event", "cdf_init", "cdf_event", "cdf_final")
    return dict(zip(names, (*branches.stages[:2], *branches.cdfs)))


def _factored_and_dense_tables(cfg):
    ctx, dense_ctx = build_context(cfg), dense_lift_context(build_context(cfg))
    factored, dense = scheme._BranchTables(ctx), scheme._BranchTables(dense_ctx)
    assert live_branches(factored) == live_branches(dense)
    pairs = [
        (branch_states(ctx, factored, i, m), branch_states(dense_ctx, dense, i, m))
        for i, m in live_branches(factored)
    ]
    assert pairs
    return factored, dense, pairs


@pytest.mark.parametrize(
    "options, floor, pruned",
    [({}, 1e-14, ()), ({"eigenstate_prep": True}, 1e-14, (1,)), ({}, 0.3, (1,))],
    ids=["default", "eigenstate-prep", "floor-0.3"],
)
def test_branch_probabilities_and_pruned_mass_by_hand(options, floor, pruned):
    ctx = build_context(SchemeConfig(**options), policy=NumericPolicy(outcome_floor=floor))
    tables = scheme._BranchTables(ctx)
    branches = tables.branches
    p_init, p_event, p_final = branches.stages
    assert [i for i in range(len(p_init)) if p_init[i] <= floor] == list(pruned)
    want, mass = np.zeros(p_final.shape), 0.0
    for i in range(len(p_init)):
        if p_init[i] <= floor:
            mass += p_init[i]
            assert not p_event[i].any() and not branches.cdfs[1][i].any()
            continue
        for m in range(p_event.shape[1]):
            if p_event[i, m] <= floor:
                mass += p_init[i] * p_event[i, m]
            else:
                want[i, m] = p_init[i] * p_event[i, m] * p_final[i, m]
                assert tables.ledgers[i][m] is not None
    assert branches.probabilities.tobytes() == want.reshape(-1).tobytes()
    assert branches.pruned_mass == pytest.approx(mass, rel=1e-15)
    assert math.fsum(branches.probabilities) + branches.pruned_mass == pytest.approx(1.0)
    assert branches.code_dtype == np.uint8  # 8 branches


class TestFactoredLifts:
    """The energy families and the barrier drive are lifts L (x) I of the
    leading factors: the table path contracts L and builds no d x d lift."""

    @pytest.mark.parametrize(
        "pointer_dim, eigenstate_prep", [(8, False), (4, True), (8, True)],
        ids=["dim-256", "eigenstate-prep-dim-64", "eigenstate-prep-dim-256"],
    )
    def test_wide_tables_equal_the_dense_reference_bitwise(self, pointer_dim, eigenstate_prep):
        # eigenstate preparation's energy families are lifts of 0/1 diagonal
        # cores: one nonzero product per entry, at every dimension
        pointer = PointerModel(pointer_dim)
        cfg = SchemeConfig(
            nsm_pointer=pointer, event_pointer=pointer, eigenstate_prep=eigenstate_prep
        )
        factored, dense, pairs = _factored_and_dense_tables(cfg)
        want = _stage_tables(dense)
        for name, table in _stage_tables(factored).items():
            assert table.tobytes() == want[name].tobytes(), name
        for states, ref in pairs:
            for stage in states:
                assert states[stage].matrix.tobytes() == ref[stage].matrix.tobytes(), stage

    @pytest.mark.parametrize("beta", [0.3, 1.0, 5.0])
    def test_default_tables_within_ulps_of_the_dense_reference(self, beta):
        # at dim 64 the dense products sum some entries in another order
        factored, dense, pairs = _factored_and_dense_tables(SchemeConfig(beta=beta))
        want = _stage_tables(dense)
        for name, table in _stage_tables(factored).items():
            assert ulps_apart(table, want[name]) <= 4, name
        for states, ref in pairs:
            for stage in states:
                a, b = states[stage].matrix, ref[stage].matrix
                assert ulps_apart(a, b, scale=np.max(np.abs(b))) <= 4, stage

    @pytest.mark.parametrize("pointer_dim", [4, 8], ids=["dim-64", "dim-256"])
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"beta": 0.3},
            {"beta": 5.0},
            {"eigenstate_prep": True},
            {"barrier_schedule": szilard_schedule(0.7, 0.3, 1.0, 10)},
        ],
        ids=["default", "beta-0.3", "beta-5", "eigenstate-prep", "szilard-0.7-0.3"],
    )
    def test_energy_families_are_lifts_on_the_system_factor(self, pointer_dim, options):
        # the sectors of H (x) I_a lifted onto (system, apparatus) are the
        # reference: the CLI's drives give its labels, and its 2 x 2 blocks
        # [::a, ::a] bit for bit, so the contractions read the same matrix
        pointer = PointerModel(pointer_dim)
        cfg = SchemeConfig(nsm_pointer=pointer, event_pointer=pointer, **options)
        ctx = build_context(cfg)
        drive = cfg.barrier_schedule
        for pset, h in ((ctx.initial_pset, drive.initial_hamiltonian()),
                        (ctx.final_pset, drive.final_hamiltonian())):
            h_sa = Operator(np.kron(h.matrix, np.eye(pointer_dim)), hermitian=True)
            ref = energy_sectors(h_sa).embedded(ctx.space, (SYSTEM, APPARATUS))
            assert pset.labels == ref.labels
            for p, q in zip(pset.projectors, ref.projectors, strict=True):
                assert p.lift.local.shape == (cfg.s0_dim, cfg.s0_dim) and p.lift.perm is None
                core = q.lift.local[::pointer_dim, ::pointer_dim]
                assert p.lift.local.tobytes() == np.ascontiguousarray(core).tobytes()
                # == on the dense lifts: kron puts -0.0 beside a negative entry
                assert np.array_equal(p.matrix, q.matrix)

    def test_branch_tables_leave_the_lifts_unbuilt(self):
        ctx = build_context(SchemeConfig(nsm_pointer=_WIDE, event_pointer=_WIDE))
        assert ctx.space.total_dim == 256
        scheme._BranchTables(ctx)
        lifts = [*ctx.initial_pset.projectors, *ctx.final_pset.projectors, ctx.barrier_unitary]
        for op in lifts:
            assert op.lift is not None and op.lift.perm is None
            assert op._matrix is None
        for op in (ctx.nsm_unitary, ctx.entangler_full, ctx.event_unitary):
            assert op._matrix is None  # permutations gather without it


# the channels that hand their hermitized result to DensityMatrix._hermitized
_HERMITIZING_SITES = {
    "conjugate", "collapse", "dephase", "partial_trace", "thermal_state", "prepare_initial_state",
}


class TestHermitizedResults:
    """Every state built through `DensityMatrix._hermitized` keeps as its
    block an exactly hermitian, C-ordered array that it alone owns, on a
    sorted support of distinct indices."""

    @pytest.mark.parametrize("pointer_dim", [4, 8], ids=["dim-64", "dim-256"])
    @pytest.mark.parametrize(
        "options",
        [{}, {"eigenstate_prep": True}, {"beta": 0.3}],
        ids=["default", "eigenstate-prep", "beta-0.3"],
    )
    def test_channel_results_are_exactly_hermitian_fresh_arrays(
        self, monkeypatch, pointer_dim, options
    ):
        original = DensityMatrix._hermitized
        sites = []

        def guarded(cls, m, trace_weight, policy, support=None, dim=None):
            assert type(m) is np.ndarray and m.dtype == complex
            assert m.flags.c_contiguous and m.flags.owndata and m.flags.writeable
            assert np.all(m == m.conj().T)
            sites.append(sys._getframe(1).f_code.co_name)
            state = original(m, trace_weight, policy, support, dim)
            assert state.block is m
            assert state.support.size == len(m) and not state.support.flags.writeable
            assert np.all(np.diff(state.support) > 0) and state.support[-1] < state.dim
            return state

        monkeypatch.setattr(DensityMatrix, "_hermitized", classmethod(guarded))
        pointer = PointerModel(pointer_dim)
        cfg = SchemeConfig(nsm_pointer=pointer, event_pointer=pointer, **options)
        ctx = build_context(cfg)
        run_single(ctx, stream_generator(3, 0))
        scheme._BranchTables(ctx)
        verify_unitary_roundtrips(cfg, 3)
        assert set(sites) == _HERMITIZING_SITES


class TestDimensionBudget:
    def test_context_over_budget_is_refused_before_building(self, monkeypatch):
        def no_lift(*args, **kwargs):
            raise AssertionError("an operator was lifted")

        monkeypatch.setattr(scheme, "embed_operator", no_lift)
        with pytest.raises(CapacityError, match="dimension 64 .* exceeds budget 8"):
            build_context(SchemeConfig(), policy=NumericPolicy(max_dim=8))

    def test_context_at_budget_is_built(self):
        ctx = build_context(SchemeConfig(), policy=NumericPolicy(max_dim=64))
        assert ctx.space.total_dim == 64

    def test_default_budget_is_the_widest_tested_context(self):
        # TestWidePointers runs the scheme at total dimension 1024
        assert NumericPolicy().max_dim == 1024


def _state_digest(cfg: SchemeConfig) -> str:
    """sha256 over every `_BranchTables` table, each branch's entropy
    production, every branch state's matrix and the states of four stepwise
    runs drawn from stream 0."""
    ctx = build_context(cfg)
    tables = scheme._BranchTables(ctx)
    h = hashlib.sha256()
    for table in (*_stage_tables(tables).values(), tables.e_init, tables.e_fin, tables.per_branch):
        h.update(table.tobytes())
    h.update((tables.per_branch[2] + tables.per_branch[3]).tobytes())
    for i, m in live_branches(tables):
        for stage, state in branch_states(ctx, tables, i, m).items():
            h.update(stage.encode() + state.matrix.tobytes())
    rng = stream_generator(cfg.seed, 0)
    for k in range(4):
        for stage, state in run_single(ctx, rng, draw_id=k).states.items():
            h.update(stage.encode() + state.matrix.tobytes())
    return h.hexdigest()


# digests of the dense-state implementation these states must keep, bit for bit
_STATE_DIGESTS = {
    "default-dim-64": "145de7acd772024c32fc91a82a8ddd47f9fba6cc928fbf5ec6e3e2b5781a1cdf",
    "default-dim-256": "e20c31141cdfa00bba815965dc99baf4cd34d31b7fe0f3729e0dc47753875c81",
    "beta-0.3-dim-64": "7fb54a79502195eae6b626700e5001c82ec17b9ecb20385c13ab54305f1368a0",
    "beta-0.3-dim-256": "65f339d3ce4c5764c7d8df49aa456e74a5c13b41c109f067dd482554a9f5bea5",
    "beta-5-dim-64": "9e33664c908218d98dfc8af0920dda3b4ec10c823462a50ddb1f3fcf7f640497",
    "beta-5-dim-256": "5041682d8d9ede6e48c2f7e652a8b49c444fe93bf7065fa65b6deba76b6d462e",
    "eigenstate-prep-dim-64": "c92743891aef67cbac3c05c46ce948d4da2a7c59be873446d29f9771ba6452bb",
    "eigenstate-prep-dim-256": "7b4f3121fd7f07adc0a3c5517062b34ef7d25ef93d06fb7cc86bd5afbb134a0f",
}


class TestStateGate:
    @pytest.mark.parametrize("pointer_dim", [4, 8], ids=["dim-64", "dim-256"])
    @pytest.mark.parametrize(
        "options",
        [{}, {"beta": 0.3}, {"beta": 5.0}, {"eigenstate_prep": True}],
        ids=["default", "beta-0.3", "beta-5", "eigenstate-prep"],
    )
    def test_states_and_tables_keep_their_bits(self, request, pointer_dim, options):
        pointer = PointerModel(pointer_dim)
        cfg = SchemeConfig(nsm_pointer=pointer, event_pointer=pointer, seed=11, **options)
        key = request.node.callspec.id
        assert _state_digest(cfg) == _STATE_DIGESTS[key], key
