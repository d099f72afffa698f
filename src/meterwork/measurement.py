"""Pointer-model measurement machinery.

Covers the two halves of projective measurement and their bookkeeping:

* the decoherence half -- a pointer coupled through ``-coupling * O (x) P``
  entangles with the measured observable and the sector dephasing removes
  off-sector coherence (`nonselective_measure`);
* the informatical half -- `select_outcome` samples one outcome by the Born
  rule and records the entropy production pair (+sigma to the reading side,
  -sigma to the measured side, sigma = 1 nat per generic reading, 0 for a
  deterministic one); `event_read` first checks that the input is dephased;
* the ensemble redefinitions that absorb that entropy production:
  ``rho -> exp(-sigma) rho`` with observables scaled by ``exp(+sigma)``, and
  the generalized relative entropy that measures it (allowed to be negative).

Pointer grids are cyclic so the translation generator is an exact hermitian
operator at finite dimension; couplings must shift the pointer by integer
grid points, otherwise a commensurability error prevents silently smeared
pointers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    CoherentInputError,
    CommensurabilityError,
    DegenerateDistributionError,
    SupportError,
)
from .linalg import (
    DensityMatrix,
    Ket,
    Operator,
    ProjectorSet,
    _max_abs_difference,
    collapse,
    tensor,
)
from .numeric import DEFAULT_POLICY, NumericPolicy, require_integer
from .streams import PhiloxStream, cdf_of, draw_indices, stream_generator
from .superselection import dephase

__all__ = [
    "EVENT_READING",
    "ENERGY_EVENT_READING",
    "PointerModel",
    "LedgerEntry",
    "EntropyLedger",
    "PhaseDisplacement",
    "EventReadResult",
    "von_neumann_hamiltonian",
    "pointer_coupling_unitary",
    "entangle_pointer",
    "nonselective_measure",
    "born_probabilities",
    "reading_distribution",
    "select_outcome",
    "event_read",
    "redefine_system",
    "generalized_relative_entropy",
    "work_event_reading",
    "phase_equivalence_trigger",
    "direct_relaxation_truncation",
    "statistical_relaxation_truncation",
]

EVENT_READING = "event_reading"
ENERGY_EVENT_READING = "energy_event_reading"
_CAUSES = (EVENT_READING, ENERGY_EVENT_READING, "none")

_COMMENSURABILITY_TOL = 1e-9


class PointerModel:
    """Cyclic pointer grid with an exact hermitian translation generator.

    ``exp(-i s P)`` translates grid point k to k + s/grid_step (cyclically)
    whenever s is an integer number of grid steps. The generator is built by
    Fourier diagonalization, so integer translations are exact permutations
    up to float rounding.
    """

    __slots__ = (
        "pointer_dim",
        "grid_step",
        "position_values",
        "momentum_generator",
        "coupling",
        "duration",
    )

    def __init__(
        self,
        pointer_dim: int,
        *,
        grid_step: float = 1.0,
        coupling: float = 1.0,
        duration: float = 1.0,
        policy: NumericPolicy = DEFAULT_POLICY,
    ):
        d = require_integer("pointer_dim", pointer_dim)
        if d < 2:
            raise ValueError(f"pointer needs at least two grid points, got {d}")
        for name, value in (
            ("grid step", grid_step),
            ("coupling", coupling),
            ("duration", duration),
        ):
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        self.pointer_dim = d
        self.grid_step = float(grid_step)
        positions = np.arange(d) * self.grid_step
        positions.setflags(write=False)
        self.position_values = positions
        self.coupling = float(coupling)
        self.duration = float(duration)

        modes = np.arange(d)
        wrapped = np.where(modes <= d // 2, modes, modes - d)
        p_eigs = 2.0 * np.pi * wrapped / (d * self.grid_step)
        k = np.arange(d).reshape(-1, 1)
        fourier = np.exp(2j * np.pi * k * modes / d) / math.sqrt(d)
        gen = (fourier * p_eigs) @ fourier.conj().T
        gen = 0.5 * (gen + gen.conj().T)
        self.momentum_generator = Operator(gen, hermitian=True, policy=policy)

    def ready_state(self) -> Ket:
        """Pointer localized at the grid origin."""
        return Ket.basis(self.pointer_dim, 0)

    def shift_points(self, eigenvalue: float) -> int:
        """Grid displacement -duration*coupling*eigenvalue, in whole points.

        Raises a commensurability error when the displacement misses the grid.
        """
        raw = -self.duration * self.coupling * float(eigenvalue) / self.grid_step
        nearest = round(raw)
        if abs(raw - nearest) > _COMMENSURABILITY_TOL:
            raise CommensurabilityError(
                f"pointer shift {raw!r} for eigenvalue {eigenvalue!r} is not an "
                f"integer number of grid steps"
            )
        return int(nearest) % self.pointer_dim

    def translation(self, points: int) -> np.ndarray:
        """Permutation matrix moving grid point k to k + points (mod dim)."""
        return np.roll(np.eye(self.pointer_dim), points % self.pointer_dim, axis=0)

    def __repr__(self) -> str:
        return (
            f"PointerModel(dim={self.pointer_dim}, step={self.grid_step}, "
            f"coupling={self.coupling}, duration={self.duration})"
        )


@dataclass(frozen=True)
class LedgerEntry:
    party: str
    sigma_nats: float
    cause: str


@dataclass(frozen=True)
class EntropyLedger:
    """Append-only record of entropy-production pairs, in nats.

    Every reading appends a (+sigma, -sigma) pair between the reading party
    and the measured party, so the grand total is conserved at zero.
    """

    entries: tuple[LedgerEntry, ...] = ()

    def with_pair(
        self, reader: str, measured: str, sigma: float, cause: str = EVENT_READING
    ) -> "EntropyLedger":
        if cause not in _CAUSES:
            raise ValueError(f"unknown cause {cause!r}; expected one of {_CAUSES}")
        if not math.isfinite(sigma) or sigma < 0.0:
            raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
        pair = (
            LedgerEntry(reader, +sigma, cause),
            LedgerEntry(measured, -sigma, cause),
        )
        return EntropyLedger(self.entries + pair)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.party] = out.get(e.party, 0.0) + e.sigma_nats
        return out

    def total(self) -> float:
        return sum(e.sigma_nats for e in self.entries)


@dataclass(frozen=True)
class PhaseDisplacement:
    """Coordinate-origin displacement of one reading branch (black-box side)."""

    displacement: float
    branch_label: str = ""

    def __post_init__(self):
        if not math.isfinite(self.displacement):
            raise ValueError(f"displacement must be finite, got {self.displacement!r}")


def von_neumann_hamiltonian(
    obs: Operator,
    model: PointerModel,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Operator:
    """Measurement coupling -coupling * obs (x) momentum_generator."""
    if not obs.is_hermitian(policy):
        raise ValueError("measured observable must be hermitian")
    prod = tensor(obs, model.momentum_generator, policy=policy)
    return Operator(-model.coupling * prod.matrix, hermitian=True, policy=policy)


def pointer_coupling_unitary(
    obs: Operator,
    model: PointerModel,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Operator:
    """Exact branch form of the coupling propagator.

    Equals exp(-i * duration * H) for the von Neumann coupling, assembled as
    a sum of (eigenprojector (x) grid translation) blocks so each branch
    shift is an exact permutation.
    """
    if not obs.is_hermitian(policy):
        raise ValueError("measured observable must be hermitian")
    w, v = np.linalg.eigh(obs.matrix)
    blocks: dict[int, np.ndarray] = {}
    for i, val in enumerate(w):
        shift = model.shift_points(val)
        proj = np.outer(v[:, i], v[:, i].conj())
        blocks[shift] = blocks.get(shift, 0) + proj
    u = sum(np.kron(proj, model.translation(s)) for s, proj in blocks.items())
    return Operator(u, unitary=True, policy=policy)


def entangle_pointer(
    system_state: Ket,
    ready_pointer: Ket,
    obs: Operator,
    model: PointerModel,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Ket:
    """Correlate a pure system state with the pointer grid.

    sum_n c_n |o_n>|origin>  ->  sum_n c_n |o_n>|shift for o_n>, with the
    branch displacement -duration*coupling*o_n. The free Hamiltonians of both
    sides are ignored during the coupling window. The pointer must start
    localized at the grid origin and every branch shift must land on the
    grid.
    """
    if not obs.is_hermitian(policy):
        raise ValueError("measured observable must be hermitian")
    if obs.dim != system_state.dim:
        raise ValueError(
            f"observable dimension {obs.dim} != system dimension {system_state.dim}"
        )
    if ready_pointer.dim != model.pointer_dim:
        raise ValueError(
            f"pointer state dimension {ready_pointer.dim} != grid size {model.pointer_dim}"
        )
    off_origin = float(np.max(np.abs(ready_pointer.amplitudes[1:]))) if model.pointer_dim > 1 else 0.0
    if off_origin > policy.norm_tol:
        raise ValueError("ready pointer must be localized at the grid origin")
    origin_amp = ready_pointer.amplitudes[0]

    w, v = np.linalg.eigh(obs.matrix)
    out = np.zeros(system_state.dim * model.pointer_dim, dtype=complex)
    for i, val in enumerate(w):
        c = np.vdot(v[:, i], system_state.amplitudes)
        if c == 0:
            continue
        shift = model.shift_points(val)
        pointer_part = np.zeros(model.pointer_dim, dtype=complex)
        pointer_part[shift] = origin_amp
        out += c * np.kron(v[:, i], pointer_part)
    return Ket(out, policy=policy)


def nonselective_measure(
    rho: DensityMatrix,
    outcome_projectors: ProjectorSet,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DensityMatrix:
    """Decoherence half of projective measurement: sum_y P(y) rho P(y)."""
    return dephase(rho, outcome_projectors, policy=policy)


def born_probabilities(
    rho: DensityMatrix,
    outcome_projectors: ProjectorSet,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Outcome distribution tr[P(y) rho] / trace_weight, in projector order,
    from `ProjectorSet.traces` on the state's block."""
    raw = outcome_projectors.traces(rho.block, rho.support)
    if np.all(raw < policy.outcome_floor):
        raise DegenerateDistributionError("every outcome probability is numerically zero")
    return np.clip(raw, 0.0, None) / rho.trace_weight


def reading_distribution(
    rho: DensityMatrix,
    outcome_projectors: ProjectorSet,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, float]:
    """Born probabilities of a dephased state and the sigma its reading books:
    1 nat unless at most one outcome lies above `outcome_floor`, then 0."""
    probs = born_probabilities(rho, outcome_projectors, policy=policy)
    sigma = 0.0 if int(np.sum(probs > policy.outcome_floor)) <= 1 else 1.0
    return probs, sigma


class EventReadResult(NamedTuple):
    label: object
    state: DensityMatrix
    ledger: EntropyLedger


def select_outcome(
    rho: DensityMatrix,
    outcome_projectors: ProjectorSet,
    rng: PhiloxStream,
    ledger: EntropyLedger,
    measured_label: str,
    reader_label: str,
    *,
    cause: str = EVENT_READING,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> EventReadResult:
    """`event_read` without its checks, for a state just dephased in the
    outcome family: inverse-CDF draw in projector order, collapse, ledger pair."""
    probs, sigma = reading_distribution(rho, outcome_projectors, policy=policy)
    idx = int(draw_indices(cdf_of(probs), rng.random()))
    state = collapse(rho, outcome_projectors, idx, policy=policy)
    new_ledger = ledger.with_pair(reader_label, measured_label, sigma, cause)
    return EventReadResult(outcome_projectors.labels[idx], state, new_ledger)


def event_read(
    rho: DensityMatrix,
    outcome_projectors: ProjectorSet,
    rng: PhiloxStream | int,
    ledger: EntropyLedger,
    measured_label: str,
    reader_label: str,
    *,
    cause: str = EVENT_READING,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> EventReadResult:
    """Informatical half of projective measurement: select one outcome.

    The input must already be dephased in the outcome basis (off-sector
    coherence above tolerance raises). Sampling is inverse-CDF in fixed
    projector order. The ledger gains the pair (reader +1 nat, measured
    -1 nat) unless the distribution had a single effective outcome, in which
    case both entries are 0 nat.

    Returns the outcome label, the collapsed unit-trace state, and the
    extended ledger.
    """
    dephased = dephase(rho, outcome_projectors, policy=policy)
    coherence = _max_abs_difference(
        rho.block, rho.support, dephased.block, dephased.support, rho.dim
    )
    if coherence > policy.coherence_tol:
        raise CoherentInputError(
            f"event reading requires a dephased input; off-sector coherence {coherence:.3e}"
        )
    if isinstance(rng, (int, np.integer)):
        rng = stream_generator(int(rng), 0)
    return select_outcome(
        rho, outcome_projectors, rng, ledger, measured_label, reader_label,
        cause=cause, policy=policy,
    )


def redefine_system(
    rho: DensityMatrix,
    observables: Sequence[Operator],
    sigma: float,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> tuple[DensityMatrix, list[Operator]]:
    """Absorb an entropy production into the ensemble and its observables.

    The state is rescaled by exp(-sigma) and every observable by exp(+sigma),
    so all expectation values are unchanged: tr[O* rho*] = tr[O rho].
    """
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    rho_star = rho.scaled(math.exp(-sigma))
    factor = math.exp(sigma)
    obs_star = [
        Operator(
            o.matrix * factor,
            hermitian=o.hermitian,
            unitary=o.unitary if sigma == 0.0 else None,
            projector=o.projector if sigma == 0.0 else None,
            policy=policy,
        )
        for o in observables
    ]
    return rho_star, obs_star


def generalized_relative_entropy(
    rho: DensityMatrix,
    rho_star: DensityMatrix,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """tr[rho ln rho - rho ln rho_star], in nats.

    The second slot may be subnormalized (or superweighted), so the result is
    not sign-definite. The first argument must be supported inside the
    support of the second.
    """
    if rho.dim != rho_star.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {rho_star.dim}")
    w, _ = rho.eigh()
    w_star, v_star = rho_star.eigh()
    kernel = v_star[:, w_star <= policy.support_tol]
    if kernel.shape[1]:
        leak = float(np.real(np.trace(kernel.conj().T @ rho.matrix @ kernel)))
        if leak > policy.support_tol:
            raise SupportError(
                f"first argument leaks weight {leak:.3e} outside the support of the second"
            )
    pos = w[w > policy.outcome_floor]
    entropy_term = float(np.sum(pos * np.log(pos)))
    support = w_star > policy.support_tol
    log_star = (v_star[:, support] * np.log(w_star[support])) @ v_star[:, support].conj().T
    cross_term = float(np.real(np.trace(rho.matrix @ log_star)))
    return entropy_term - cross_term


def work_event_reading(temperature: float, sigma: float) -> float:
    """Work k_B T sigma carried by an event reading (k_B = 1)."""
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    return temperature * sigma


def phase_equivalence_trigger(
    branch_phases: Sequence[PhaseDisplacement],
    meter_values: np.ndarray,
    amplitudes,
    *,
    tol: float = 1e-14,
) -> bool:
    """Check that branch-phase displacements leave meter statistics unchanged.

    For each displacement d the meter state has components
    c_n * exp(-i d m_n); the Born distributions over meter outcomes are
    compared pairwise. They always agree (the phases cancel in the modulus);
    this operation exists to assert that equivalence numerically, since it is
    what licenses the reading side to treat the branches as one.
    """
    if not branch_phases:
        raise ValueError("need at least one branch displacement")
    values = np.asarray(meter_values, dtype=float)
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.size != values.size:
        raise ValueError(
            f"amplitude count {amps.size} != meter value count {values.size}"
        )
    dists = []
    for branch in branch_phases:
        phased = amps * np.exp(-1j * branch.displacement * values)
        dists.append(np.abs(phased) ** 2)
    if len(dists) == 1:
        return True
    base = dists[0]
    return all(float(np.max(np.abs(d - base))) <= tol for d in dists[1:])


def direct_relaxation_truncation(rho: DensityMatrix) -> np.ndarray:
    """Post-truncation update of the one-shot relaxation channel: zero matrix.

    Not trace preserving by construction (the whole weight is the deficit);
    returned as a bare matrix since a zero trace is not a valid ensemble.
    """
    return np.zeros((rho.dim, rho.dim), dtype=complex)


def statistical_relaxation_truncation(rho: DensityMatrix) -> DensityMatrix:
    """Post-truncation update in the enlarged-ensemble reading: exp(-1) rho.

    Keeps the no-relaxation weight exp(-1) of the input; the trace deficit
    (1 - exp(-1)) per unit input weight is the c-number normalization the
    redefinition machinery reabsorbs.
    """
    return rho.scaled(math.exp(-1.0))
