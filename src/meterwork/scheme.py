"""End-to-end five-step measurement protocol on a four-factor composite.

Subsystems, in fixed tensor order:

* ``system``    -- the measured two-site degree of freedom (left/right);
* ``apparatus`` -- the coarse-grained cell pointer that performs the
                   non-selective step (it dephases the system but, being
                   translation-invariant, records nothing readable);
* ``meter``     -- the event-reading meter;
* ``pointer``   -- the reading-side grid the meter couples to in the final
                   step.

The drive raises a barrier between the two sites (the opening move of a
Szilard engine): the tunneling amplitude decreases with the control value,
and the symmetric ground state stays an equal superposition of the sites.

The protocol per run: projective energy reading of the measured side
(experimenter), barrier drive, non-selective site measurement, a controlled
shift correlating site with meter (required to leave the measured side's
marginal untouched), meter-pointer coupling plus event reading, and a final
energy reading. Each generic reading books the (+1, -1) nat pair; the
work it carries, k_B T per nat, is injected as deterministic additive
accounting on top of the drive work.

Runs are table-driven: the deterministic channels are evaluated once per
branch and sampling reduces to three inverse-CDF draws per run, which keeps
10^4 runs cheap while remaining bit-identical to the stepwise path.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from types import MappingProxyType

import numpy as np

from .errors import CapacityError, SchemeConstraintError
from .jarzynski import (
    DriveSchedule,
    JarzynskiReport,
    _check_beta,
    delta_F,
    jarzynski_equality_check,
    modified_jarzynski_check,
    thermal_state,
)
from .linalg import (
    CompositeSpace,
    DensityMatrix,
    Ket,
    Operator,
    ProjectorSet,
    collapse,
    conjugate,
    embed_operator,
    partial_trace,
)
from .measurement import (
    ENERGY_EVENT_READING,
    EVENT_READING,
    EntropyLedger,
    PointerModel,
    nonselective_measure,
    pointer_coupling_unitary,
    reading_distribution,
    select_outcome,
)
from .numeric import DEFAULT_POLICY, NumericPolicy
from .streams import cdf_of, draw_indices, draw_rows, stream_generator, stream_uniforms
from .superselection import dephase, energy_sectors, sector_projector_set

__all__ = [
    "SYSTEM",
    "APPARATUS",
    "METER",
    "POINTER",
    "EXPERIMENTER",
    "READER",
    "MEASURED",
    "site_observable",
    "barrier_hamiltonian",
    "szilard_schedule",
    "site_diagonal_schedule",
    "controlled_shift_entangler",
    "SchemeConfig",
    "SchemeContext",
    "build_context",
    "prepare_initial_state",
    "read_energy",
    "apply_barrier_drive",
    "apply_nonselective_measurement",
    "apply_meter_entangling",
    "apply_event_coupling",
    "apply_event_reading",
    "run_single",
    "run_scheme",
    "STAGES",
    "RECORD_COLUMNS",
    "SchemeRunRecord",
    "SchemeResult",
    "StageResult",
    "RoundTripReport",
    "verify_unitary_roundtrips",
]

SYSTEM = "system"
APPARATUS = "apparatus"
METER = "meter"
POINTER = "pointer"

EXPERIMENTER = "experimenter"
READER = "reader"
MEASURED = "measured"


def site_observable(dim: int = 2) -> Operator:
    """Which-site observable with integer-spaced eigenvalues (dim-1, dim-3, ...).

    Integer spacing keeps every pointer shift commensurate with a unit grid.
    """
    return Operator.from_diagonal(np.array([dim - 1 - 2 * k for k in range(dim)], dtype=float))


def barrier_hamiltonian(tunneling: float) -> Operator:
    """Two-site tight-binding pair with tunneling amplitude J: -J sigma_x."""
    return Operator(
        np.array([[0.0, -tunneling], [-tunneling, 0.0]], dtype=complex), hermitian=True
    )


def szilard_schedule(
    j_initial: float = 1.0,
    j_final: float = 0.25,
    t_f: float = 2.0,
    n_steps: int = 40,
) -> DriveSchedule:
    """Barrier-raising drive: tunneling ramps linearly from j_initial down to
    j_final, partitioning the box while the symmetric ground state stays an
    equal left/right superposition."""
    if not (j_initial > 0.0 and j_final > 0.0):
        raise ValueError("tunneling amplitudes must stay positive")

    def h_at(lam: float) -> Operator:
        return barrier_hamiltonian(j_initial + (j_final - j_initial) * lam)

    return DriveSchedule.linear(h_at, t_f, n_steps)


def site_diagonal_schedule(
    gap_initial: float = 1.0,
    gap_final: float = 1.0,
    t_f: float = 1.0,
    n_steps: int = 1,
) -> DriveSchedule:
    """Site-diagonal drive diag(0, gap(lambda)): commutes with the which-site
    observable, so site eigenstates stay energy eigenstates throughout."""

    def h_at(lam: float) -> Operator:
        return Operator.from_diagonal(
            np.array([0.0, gap_initial + (gap_final - gap_initial) * lam])
        )

    return DriveSchedule.linear(h_at, t_f, n_steps)


def controlled_shift_entangler(n_branches: int, meter_dim: int) -> Operator:
    """Unitary sum_k |site_k><site_k| (x) shift^k on the meter ring.

    Maps |site_k>|meter_0> to |site_k>|meter_k| without touching the measured
    side. Needs meter_dim >= n_branches for distinct meter records.
    """
    if meter_dim < n_branches:
        raise ValueError(
            f"meter dimension {meter_dim} cannot record {n_branches} distinct branches"
        )
    u = np.zeros((n_branches * meter_dim, n_branches * meter_dim), dtype=complex)
    for k in range(n_branches):
        block = slice(k * meter_dim, (k + 1) * meter_dim)
        u[block, block] = np.roll(np.eye(meter_dim), k, axis=0)
    return Operator(u, unitary=True)


@dataclass(frozen=True)
class SchemeConfig:
    """Knobs of one protocol family; None fields get the default build.

    With ``eigenstate_prep`` the measured side starts in its ground energy
    sector under a site-diagonal constant drive, so every reading is
    deterministic and books 0 nats.
    """

    beta: float = 1.0
    s0_dim: int = 2
    meter_dim: int = 2
    n_samples: int = 1000
    seed: int = 0
    barrier_schedule: DriveSchedule | None = None
    nsm_pointer: PointerModel | None = None
    entangler: Operator | None = None
    event_pointer: PointerModel | None = None
    eigenstate_prep: bool = False

    def __post_init__(self):
        _check_beta(self.beta)
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {self.n_samples}")
        if self.meter_dim < self.s0_dim:
            raise ValueError("meter must have at least one level per site outcome")
        if self.barrier_schedule is None:
            default = (
                site_diagonal_schedule() if self.eigenstate_prep else szilard_schedule()
            )
            object.__setattr__(self, "barrier_schedule", default)
        if self.barrier_schedule.dim != self.s0_dim:
            raise ValueError(
                f"drive dimension {self.barrier_schedule.dim} != system dimension {self.s0_dim}"
            )
        if self.nsm_pointer is None:
            object.__setattr__(self, "nsm_pointer", PointerModel(4))
        if self.event_pointer is None:
            object.__setattr__(self, "event_pointer", PointerModel(4))
        if self.entangler is None:
            object.__setattr__(
                self, "entangler", controlled_shift_entangler(self.s0_dim, self.meter_dim)
            )
        if self.entangler.dim != self.s0_dim * self.meter_dim:
            raise ValueError(
                f"entangler dimension {self.entangler.dim} != "
                f"system x meter dimension {self.s0_dim * self.meter_dim}"
            )
        Operator(self.entangler.matrix, unitary=True)  # asserted, not trusted


@dataclass(frozen=True)
class SchemeContext:
    """Precomputed operators of one configuration (all immutable).

    The unitaries are lifts of their local matrices (`linalg.Lift`); each
    builds its dense matrix only when something reads it.
    """

    config: SchemeConfig
    space: CompositeSpace
    observable: Operator
    h_initial: Operator
    h_final: Operator
    initial_pset: ProjectorSet
    final_pset: ProjectorSet
    barrier_unitary: Operator
    nsm_unitary: Operator
    nsm_dephase_set: ProjectorSet
    entangler_full: Operator
    event_unitary: Operator
    event_dephase_set: ProjectorSet
    meter_outcome_set: ProjectorSet
    meter_ready: Ket
    pointer_ready: Ket
    delta_f: float
    kT: float
    policy: NumericPolicy = DEFAULT_POLICY


def build_context(config: SchemeConfig, *, policy: NumericPolicy = DEFAULT_POLICY) -> SchemeContext:
    """The operators of one configuration. Raises `CapacityError` before
    building any of them when the total dimension exceeds ``policy.max_dim``."""
    cfg = config
    space = CompositeSpace(
        [
            (SYSTEM, cfg.s0_dim),
            (APPARATUS, cfg.nsm_pointer.pointer_dim),
            (METER, cfg.meter_dim),
            (POINTER, cfg.event_pointer.pointer_dim),
        ]
    )
    if space.total_dim > policy.max_dim:
        raise CapacityError(
            f"scheme dimension {space.total_dim} ({space!r}) exceeds budget {policy.max_dim}"
        )
    obs = site_observable(cfg.s0_dim)
    aprime_dim = cfg.nsm_pointer.pointer_dim
    h0 = Operator(
        np.kron(cfg.barrier_schedule.initial_hamiltonian().matrix, np.eye(aprime_dim)),
        hermitian=True,
    )
    hf = Operator(
        np.kron(cfg.barrier_schedule.final_hamiltonian().matrix, np.eye(aprime_dim)),
        hermitian=True,
    )
    initial_pset = sector_projector_set(energy_sectors(h0, policy=policy)).embedded(
        space, (SYSTEM, APPARATUS)
    )
    final_pset = sector_projector_set(energy_sectors(hf, policy=policy)).embedded(
        space, (SYSTEM, APPARATUS)
    )

    barrier_u = embed_operator(
        Operator(cfg.barrier_schedule.total_propagator(), unitary=True, policy=policy),
        space,
        (SYSTEM,),
        policy=policy,
    )
    nsm_u = embed_operator(
        pointer_coupling_unitary(obs, cfg.nsm_pointer, policy=policy),
        space,
        (SYSTEM, APPARATUS),
        policy=policy,
    )

    site_cells = list(product(range(cfg.s0_dim), range(aprime_dim)))
    nsm_dephase = ProjectorSet.basis(len(site_cells), site_cells).embedded(
        space, (SYSTEM, APPARATUS)
    )

    entangler_full = embed_operator(cfg.entangler, space, (SYSTEM, METER), policy=policy)

    meter_obs = Operator.from_diagonal(np.arange(cfg.meter_dim, dtype=float))
    event_u = embed_operator(
        pointer_coupling_unitary(meter_obs, cfg.event_pointer, policy=policy),
        space,
        (METER, POINTER),
        policy=policy,
    )

    meter_cells = list(product(range(cfg.meter_dim), range(cfg.event_pointer.pointer_dim)))
    event_dephase = ProjectorSet.basis(len(meter_cells), meter_cells).embedded(
        space, (METER, POINTER)
    )
    meter_outcomes = ProjectorSet.basis(cfg.meter_dim).embedded(space, (METER,))

    return SchemeContext(
        config=cfg,
        space=space,
        observable=obs,
        h_initial=h0,
        h_final=hf,
        initial_pset=initial_pset,
        final_pset=final_pset,
        barrier_unitary=barrier_u,
        nsm_unitary=nsm_u,
        nsm_dephase_set=nsm_dephase,
        entangler_full=entangler_full,
        event_unitary=event_u,
        event_dephase_set=event_dephase,
        meter_outcome_set=meter_outcomes,
        meter_ready=Ket.basis(cfg.meter_dim, 0),
        pointer_ready=cfg.event_pointer.ready_state(),
        delta_f=delta_F(h0, hf, cfg.beta),
        kT=1.0 / cfg.beta,
        policy=policy,
    )


def prepare_initial_state(ctx: SchemeContext) -> DensityMatrix:
    """Measured side thermal (or its ground sector under eigenstate
    preparation), meter in its ready eigenstate, pointer at the grid origin;
    the whole state is the product."""
    cfg = ctx.config
    rho_sa = thermal_state(ctx.h_initial, cfg.beta, policy=ctx.policy)
    if cfg.eigenstate_prep:
        sectors = sector_projector_set(energy_sectors(ctx.h_initial, policy=ctx.policy))
        rho_sa = collapse(rho_sa, sectors, 0, policy=ctx.policy)
    meter = np.outer(ctx.meter_ready.amplitudes, ctx.meter_ready.amplitudes.conj())
    pointer = np.outer(ctx.pointer_ready.amplitudes, ctx.pointer_ready.amplitudes.conj())
    full = np.kron(rho_sa.matrix, np.kron(meter, pointer))
    return DensityMatrix(full, 1.0, policy=ctx.policy)


def read_energy(
    ctx: SchemeContext,
    state: DensityMatrix,
    which: str,
    rng: np.random.Generator,
    ledger: EntropyLedger,
) -> tuple[int, float, DensityMatrix, EntropyLedger]:
    """Projective energy reading of the measured side by the experimenter.

    Dephases into the (possibly degenerate) energy sectors, then samples one;
    returns (sector index, energy, collapsed state, extended ledger).
    """
    pset = ctx.initial_pset if which == "initial" else ctx.final_pset
    dephased = nonselective_measure(state, pset, policy=ctx.policy)
    label, collapsed, ledger = select_outcome(
        dephased, pset, rng, ledger, MEASURED, EXPERIMENTER,
        cause=ENERGY_EVENT_READING, policy=ctx.policy,
    )
    return pset.labels.index(label), float(label), collapsed, ledger


def apply_barrier_drive(ctx: SchemeContext, state: DensityMatrix) -> DensityMatrix:
    """Stepwise unitary drive of the system factor only."""
    return conjugate(state, ctx.barrier_unitary, policy=ctx.policy)


def apply_nonselective_measurement(ctx: SchemeContext, state: DensityMatrix) -> DensityMatrix:
    """Couple the system to the apparatus cells, then dephase in the joint
    site (x) cell sectors; the system marginal loses its site coherence while
    every site population is untouched."""
    coupled = conjugate(state, ctx.nsm_unitary, policy=ctx.policy)
    return dephase(coupled, ctx.nsm_dephase_set, policy=ctx.policy)


def apply_meter_entangling(ctx: SchemeContext, state: DensityMatrix) -> DensityMatrix:
    """Correlate site sectors with meter levels.

    The marginal of the measured side must come out exactly as it went in;
    an entangler violating that requirement is rejected.
    """
    before = partial_trace(state, ctx.space, (SYSTEM, APPARATUS), policy=ctx.policy)
    out = conjugate(state, ctx.entangler_full, policy=ctx.policy)
    after = partial_trace(out, ctx.space, (SYSTEM, APPARATUS), policy=ctx.policy)
    deviation = float(np.max(np.abs(before.matrix - after.matrix)))
    if deviation > ctx.policy.marginal_tol:
        raise SchemeConstraintError(
            f"entangling step changed the measured side's marginal by {deviation:.3e}"
        )
    return out


def apply_event_coupling(ctx: SchemeContext, state: DensityMatrix) -> DensityMatrix:
    """Meter-pointer coupling, then dephasing in the meter (x) pointer cells.

    The cells refine the meter outcomes, so the result is already dephased
    over `meter_outcome_set` and ready for the event reading.
    """
    coupled = conjugate(state, ctx.event_unitary, policy=ctx.policy)
    return dephase(coupled, ctx.event_dephase_set, policy=ctx.policy)


def apply_event_reading(
    ctx: SchemeContext,
    state: DensityMatrix,
    rng: np.random.Generator,
    ledger: EntropyLedger,
) -> tuple[int, DensityMatrix, EntropyLedger]:
    """`apply_event_coupling`, then the event reading of the meter.

    The meter outcome collapse propagates to the measured side through the
    correlation set up by the entangling step; the ledger gains the
    (+1, -1) nat pair unless the outcome was deterministic.
    """
    ready = apply_event_coupling(ctx, state)
    label, collapsed, ledger = select_outcome(
        ready, ctx.meter_outcome_set, rng, ledger, MEASURED, READER,
        cause=EVENT_READING, policy=ctx.policy,
    )
    return int(label), collapsed, ledger


# The keys of a run's `states`, in protocol order; table-drawn runs keep all but "final".
STAGES = (
    "prepared", "after_tpm_initial", "after_barrier", "after_nonselective", "after_entangle",
    "after_event", "final",
)


@dataclass(frozen=True)
class SchemeRunRecord:
    """One protocol run: outcomes, works, entropy pairs, and branch states."""

    tpm_initial: tuple[int, float]
    tpm_final: tuple[int, float]
    event_outcome: int
    work_drive: float
    work_reading_experimenter: float
    work_reading_reader: float
    ledger: EntropyLedger
    stream_id: int = 0
    draw_id: int = 0
    states: Mapping[str, DensityMatrix] | None = None
    work_total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "work_total",
            self.work_drive + self.work_reading_experimenter + self.work_reading_reader,
        )


def run_single(
    ctx: SchemeContext,
    rng: np.random.Generator,
    *,
    keep_states: bool = True,
    stream_id: int = 0,
    draw_id: int = 0,
) -> SchemeRunRecord:
    """One full run, executed step by step (three Born draws from `rng`)."""
    ledger = EntropyLedger()
    prepared = prepare_initial_state(ctx)
    i_idx, e_i, after_initial, ledger = read_energy(ctx, prepared, "initial", rng, ledger)
    after_barrier = apply_barrier_drive(ctx, after_initial)
    after_nsm = apply_nonselective_measurement(ctx, after_barrier)
    after_ent = apply_meter_entangling(ctx, after_nsm)
    outcome, after_event, ledger = apply_event_reading(ctx, after_ent, rng, ledger)
    f_idx, e_f, final, ledger = read_energy(ctx, after_event, "final", rng, ledger)
    states = (prepared, after_initial, after_barrier, after_nsm, after_ent, after_event, final)

    totals = ledger.totals()
    w_exp = ctx.kT * totals.get(EXPERIMENTER, 0.0)
    w_reader = ctx.kT * totals.get(READER, 0.0)
    return SchemeRunRecord(
        tpm_initial=(i_idx, e_i),
        tpm_final=(f_idx, e_f),
        event_outcome=outcome,
        work_drive=e_f - e_i,
        work_reading_experimenter=w_exp,
        work_reading_reader=w_reader,
        ledger=ledger,
        stream_id=stream_id,
        draw_id=draw_id,
        states=dict(zip(STAGES, states)) if keep_states else None,
    )


# The columns of table-drawn runs, in scheme_records.jsonl key order.
RECORD_COLUMNS = (
    "stream",
    "draw",
    "initial_sector",
    "initial_energy",
    "event_outcome",
    "final_sector",
    "final_energy",
    "work_drive",
    "work_reading_experimenter",
    "work_reading_reader",
    "work_total",
    "sigma_experimenter",
    "sigma_reader",
    "sigma_measured",
)


@dataclass(frozen=True, eq=False)
class SchemeResult:
    """Read-only `RECORD_COLUMNS` of the runs in draw order, both checks and
    the sums; `branches` as in `_BranchTables`."""

    columns: Mapping[str, np.ndarray]
    original_report: JarzynskiReport
    modified_report: JarzynskiReport
    delta_f: float
    sigma_total: float
    ledger_totals: dict[str, float]
    work_gap: float  # <work_total> - <work_drive>; the injected reading work
    branches: list[list[dict | None]] = field(repr=False)

    @cached_property
    def records(self) -> tuple[SchemeRunRecord, ...]:
        """Row view: one record per run; a branch's runs share its ledger and states."""
        rows = zip(*(c.tolist() for c in self.columns.values()))  # RECORD_COLUMNS order
        return tuple(
            SchemeRunRecord(
                (i, e_i), (f, e_f), m, w, w_exp, w_reader, stream_id=s, draw_id=d,
                **self.branches[i][m],
            )
            for s, d, i, e_i, m, f, e_f, w, w_exp, w_reader, *_ in rows
        )


class _BranchTables:
    """Exact per-branch channel evaluation backing the sampling loop.

    Stage probabilities and collapsed states depend only on the drawn
    outcome indices, so all distinct branches are computed once with the
    same step functions the stepwise path uses. Branch (i, m) keeps its run
    values in `per_branch[:, i, m]` and `sigma[i, m]`, its ledger and states
    in `branches[i][m]`; one pruned by `outcome_floor` keeps its CDF width.
    """

    def __init__(self, ctx: SchemeContext):
        policy = ctx.policy
        self.floor = floor = policy.outcome_floor
        prepared = prepare_initial_state(ctx)
        dephased0 = nonselective_measure(prepared, ctx.initial_pset, policy=policy)
        self.p_init, s1 = reading_distribution(dephased0, ctx.initial_pset, policy=policy)
        self.cdf_init = cdf_of(self.p_init)
        self.e_init = np.array(ctx.initial_pset.labels, dtype=float)
        self.e_fin = np.array(ctx.final_pset.labels, dtype=float)

        n_i = len(ctx.initial_pset)
        n_m = len(ctx.meter_outcome_set)
        self.p_event = np.zeros((n_i, n_m))
        self.cdf_event = np.zeros((n_i, n_m))
        self.cdf_final = np.zeros((n_i, n_m, len(ctx.final_pset)))
        self.branches: list[list[dict | None]] = [[None] * n_m for _ in range(n_i)]
        # w_exp, w_reader, then the experimenter, reader and measured ledger
        # totals: the order of these five in RECORD_COLUMNS
        self.per_branch = np.zeros((5, n_i, n_m))
        self.sigma = np.zeros((n_i, n_m))

        for i in range(n_i):
            if self.p_init[i] <= floor:
                continue
            state_i = collapse(dephased0, ctx.initial_pset, i, policy=policy)
            state_b = apply_barrier_drive(ctx, state_i)
            state_n = apply_nonselective_measurement(ctx, state_b)
            state_e = apply_meter_entangling(ctx, state_n)
            ready = apply_event_coupling(ctx, state_e)
            q, s2 = reading_distribution(ready, ctx.meter_outcome_set, policy=policy)
            self.p_event[i] = q
            self.cdf_event[i] = cdf_of(q)
            for m_idx in range(n_m):
                if q[m_idx] <= floor:
                    continue
                state_v = collapse(ready, ctx.meter_outcome_set, m_idx, policy=policy)
                deph_f = nonselective_measure(state_v, ctx.final_pset, policy=policy)
                r, s3 = reading_distribution(deph_f, ctx.final_pset, policy=policy)
                self.cdf_final[i, m_idx] = cdf_of(r)
                ledger = (
                    EntropyLedger()
                    .with_pair(EXPERIMENTER, MEASURED, s1, ENERGY_EVENT_READING)
                    .with_pair(READER, MEASURED, s2, EVENT_READING)
                    .with_pair(EXPERIMENTER, MEASURED, s3, ENERGY_EVENT_READING)
                )
                states = dict(zip(STAGES, (prepared, state_i, state_b, state_n, state_e, state_v)))
                totals = ledger.totals()
                self.per_branch[:, i, m_idx] = (
                    ctx.kT * (s1 + s3),
                    ctx.kT * s2,
                    *(totals.get(party, 0.0) for party in (EXPERIMENTER, READER, MEASURED)),
                )
                self.sigma[i, m_idx] = sum(e.sigma_nats for e in ledger.entries if e.sigma_nats > 0)
                self.branches[i][m_idx] = dict(ledger=ledger, states=MappingProxyType(states))

    def draw(self, seed: int, n: int) -> dict[str, np.ndarray]:
        """`RECORD_COLUMNS` of runs [0, n): three uniforms per run, one row of its stream."""
        us, stream_id = stream_uniforms(seed, n, 3)
        i = draw_indices(self.cdf_init, us[:, 0])
        m = draw_rows(self.cdf_event[i], us[:, 1])
        p_m = self.p_event[i, m]  # 0 below a pruned initial sector
        pruned = np.flatnonzero(p_m <= self.floor)
        if pruned.size:
            j = pruned[0]
            if self.p_init[i[j]] <= self.floor:
                what, p = f"initial energy sector {i[j]}", self.p_init[i[j]]
            else:
                what, p = f"event outcome {m[j]} after initial sector {i[j]}", p_m[j]
            raise SchemeConstraintError(
                f"run {j} drew {what} with probability {p:.6g}, at or below outcome_floor "
                f"{self.floor:g}; a pruned branch has no tabulated states"
            )
        f = draw_rows(self.cdf_final[i, m], us[:, 2])

        e_i, e_f = self.e_init[i], self.e_fin[f]
        w_exp, w_reader, *sigmas = (v[i, m] for v in self.per_branch)  # contiguous gathers
        w_drive = e_f - e_i
        w_total = w_drive + w_exp + w_reader  # left to right, as SchemeRunRecord adds
        columns = (
            stream_id, np.arange(n), i, e_i, m, f, e_f, w_drive, w_exp, w_reader, w_total, *sigmas
        )
        for c in columns:
            c.flags.writeable = False
        return dict(zip(RECORD_COLUMNS, columns))


def run_scheme(config: SchemeConfig, *, policy: NumericPolicy = DEFAULT_POLICY) -> SchemeResult:
    """Run the full protocol config.n_samples times and check both equalities.

    The original check runs on the drive works; the modified check runs on
    the total works (drive plus injected reading work) with the counter
    factor exp(+sigma_total). Sampling is stream-partitioned: the first n
    records of a larger run equal a run of n records.
    """
    ctx = build_context(config, policy=policy)
    tables = _BranchTables(ctx)
    columns = tables.draw(config.seed, config.n_samples)

    sigma_totals = set(tables.sigma[columns["initial_sector"], columns["event_outcome"]].tolist())
    if len(sigma_totals) != 1:
        raise SchemeConstraintError(
            f"entropy production differs across runs ({sorted(sigma_totals)}); "
            "the c-number counter factor is undefined"
        )
    sigma_total = sigma_totals.pop()

    drive_works, total_works = columns["work_drive"], columns["work_total"]
    original = jarzynski_equality_check(drive_works, config.beta, ctx.delta_f)
    modified = modified_jarzynski_check(
        total_works, config.beta, ctx.delta_f, sigma_total=sigma_total
    )

    # run by run in draw order: cumsum adds in sequence, np.sum pairwise
    totals = {
        p: float(np.cumsum(columns[f"sigma_{p}"])[-1]) for p in (EXPERIMENTER, MEASURED, READER)
    }
    work_gap = float(np.mean(total_works) - np.mean(drive_works))
    return SchemeResult(
        columns=MappingProxyType(columns),
        original_report=original,
        modified_report=modified,
        delta_f=ctx.delta_f,
        sigma_total=sigma_total,
        ledger_totals=totals,
        work_gap=work_gap,
        branches=tables.branches,
    )


@dataclass(frozen=True)
class StageResult:
    name: str
    passed: bool
    deviation: float


@dataclass(frozen=True)
class RoundTripReport:
    """Branch-conditional unitary round trips through the last two steps."""

    stages: tuple[StageResult, ...]
    event_outcome: int

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.stages)


def _branch_unitaries(ctx: SchemeContext) -> list[np.ndarray]:
    """Per-site meter blocks V_k of a controlled entangler U = sum |k><k| (x) V_k.

    Extraction is validated against U; a non-controlled entangler fails here.
    """
    cfg = ctx.config
    d_s, d_m = cfg.s0_dim, cfg.meter_dim
    u = cfg.entangler.matrix
    blocks = []
    rebuilt = np.zeros_like(u)
    for k in range(d_s):
        rows = slice(k * d_m, (k + 1) * d_m)
        blocks.append(u[rows, rows])
        rebuilt[rows, rows] = u[rows, rows]
    if float(np.max(np.abs(u - rebuilt))) > ctx.policy.unitary_tol:
        raise SchemeConstraintError(
            "entangler is not a site-controlled unitary; branch round trips undefined"
        )
    return blocks


def verify_unitary_roundtrips(
    config: SchemeConfig,
    seed: int = 0,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> RoundTripReport:
    """Check the branch-decoupling structure of the last two steps.

    (a) before the entangling step the two sides factor exactly;
    (b) after it, undoing each branch's meter block returns the reading side
        to its ready state while the measured side's branch is untouched;
    (c) the same holds with the meter-pointer coupling composed in;
    (d) the branch actually selected by an event reading passes the same
        round trip.
    """
    ctx = build_context(config, policy=policy)
    rng = stream_generator(seed, 0)
    tol = ctx.policy.marginal_tol
    floor = ctx.policy.outcome_floor
    ledger = EntropyLedger()

    prepared = prepare_initial_state(ctx)
    _, _, state, ledger = read_energy(ctx, prepared, "initial", rng, ledger)
    state = apply_barrier_drive(ctx, state)
    pre_entangle = apply_nonselective_measurement(ctx, state)

    m_ready = np.kron(
        np.outer(ctx.meter_ready.amplitudes, ctx.meter_ready.amplitudes.conj()),
        np.outer(ctx.pointer_ready.amplitudes, ctx.pointer_ready.amplitudes.conj()),
    )
    s_marg = partial_trace(pre_entangle, ctx.space, (SYSTEM, APPARATUS), policy=policy)
    m_marg = partial_trace(pre_entangle, ctx.space, (METER, POINTER), policy=policy)
    dev_a = float(
        np.max(np.abs(pre_entangle.matrix - np.kron(s_marg.matrix, m_marg.matrix)))
    )
    dev_a = max(dev_a, float(np.max(np.abs(m_marg.matrix - m_ready))))

    blocks = _branch_unitaries(ctx)
    pdim = ctx.config.event_pointer.pointer_dim
    site_set = ProjectorSet.basis(ctx.config.s0_dim).embedded(ctx.space, (SYSTEM,))
    sa_space = CompositeSpace(
        [(SYSTEM, ctx.config.s0_dim), (APPARATUS, ctx.config.nsm_pointer.pointer_dim)]
    )
    site_sa = ProjectorSet.basis(ctx.config.s0_dim).embedded(sa_space, (SYSTEM,))

    def branch_roundtrip(state_full: DensityMatrix, undo_m: list[np.ndarray]) -> float:
        """Worst branch deviation of (undone M marginal vs ready, S branch vs
        its pre-entangle branch)."""
        worst = 0.0
        for k, p in enumerate(site_set.traces(state_full.matrix)):
            if p <= floor:
                continue
            branch = site_set.sandwich(state_full.matrix, k) / p
            branch = 0.5 * (branch + branch.conj().T)
            branch_dm = DensityMatrix(branch, 1.0, policy=policy)
            m_branch = partial_trace(branch_dm, ctx.space, (METER, POINTER), policy=policy)
            undone = undo_m[k] @ m_branch.matrix @ undo_m[k].conj().T
            worst = max(worst, float(np.max(np.abs(undone - m_ready))))

            s_branch = partial_trace(branch_dm, ctx.space, (SYSTEM, APPARATUS), policy=policy)
            ref = collapse(s_marg, site_sa, k, policy=policy).matrix
            worst = max(worst, float(np.max(np.abs(s_branch.matrix - ref))))
        return worst

    after_iv = apply_meter_entangling(ctx, pre_entangle)
    undo_b = [np.kron(v.conj().T, np.eye(pdim)) for v in blocks]
    dev_b = branch_roundtrip(after_iv, undo_b)

    after_v_unitary = conjugate(after_iv, ctx.event_unitary, policy=policy)
    event_local = ctx.event_unitary.lift.local
    undo_c = [np.kron(v.conj().T, np.eye(pdim)) @ event_local.conj().T for v in blocks]
    dev_c = branch_roundtrip(after_v_unitary, undo_c)

    n0, collapsed, _ = apply_event_reading(ctx, after_iv, rng, ledger)
    m_after = partial_trace(collapsed, ctx.space, (METER, POINTER), policy=policy)
    undone = undo_c[n0] @ m_after.matrix @ undo_c[n0].conj().T
    dev_d = float(np.max(np.abs(undone - m_ready)))
    s_after = partial_trace(collapsed, ctx.space, (SYSTEM, APPARATUS), policy=policy)
    ref = collapse(s_marg, site_sa, n0, policy=policy).matrix
    dev_d = max(dev_d, float(np.max(np.abs(s_after.matrix - ref))))

    stages = tuple(
        StageResult(name, dev <= tol, dev)
        for name, dev in (("a", dev_a), ("b", dev_b), ("c", dev_c), ("d", dev_d))
    )
    return RoundTripReport(stages=stages, event_outcome=n0)
