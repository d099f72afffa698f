"""Two-point-measurement (TPM) work statistics and the Jarzynski equality.

A drive is a control path lambda_t sampled at t_n = n t_f / N with a
piecewise-constant propagator per step. Work is the difference of projective
energy readings at the endpoints. Each endpoint reading is the
`energy_sectors` family of its Hamiltonian, a `ProjectorSet` labeled by
sector energy; degenerate sectors collapse with the full sector projector,
and the Born overlaps are that family's `traces`. The heat bath enters only
through the thermal initial state; the drive itself is strictly unitary.

Two independent evaluations of <exp(-beta W)> are provided:

* `jarzynski_exact` enumerates all (initial sector, final sector) outcome
  pairs with their Born weights;
* `jarzynski_time_ordered` multiplies the per-step Heisenberg-picture
  factors exp(-beta H_H(t_{n+1})) exp(+beta H_H(t_n)) in time order and
  traces against the thermal state. Those factors have condition number
  exp(beta (E_max - E_min)), so it refuses a beta past
  `TIME_ORDERED_MAX_CONDITION`.

Both return exp(-beta dF) up to float rounding for any unitary drive, and
agreeing with each other is a structural cross-check of the propagator and
sector machinery.

Monte Carlo estimation partitions samples over seeded streams in fixed
blocks, so results are a function of the configuration and seed.
`tpm_blocks` draws them as pair codes with the branch table the scheme runs
use (`streams._BranchTable`) and hands them out one stream block at a time;
`tpm_sample` collects them into whole columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NumericalConsistencyError
from .linalg import DensityMatrix, Operator, _hermitian_function
from .numeric import DEFAULT_POLICY, NumericPolicy
from .streams import _BranchTable, _block_rows, check_seed
from .superselection import energy_sectors

__all__ = [
    "DriveSchedule",
    "WorkSamples",
    "JarzynskiReport",
    "thermal_state",
    "delta_F",
    "tpm_blocks",
    "tpm_sample",
    "jarzynski_exact",
    "jarzynski_time_ordered",
    "TIME_ORDERED_MAX_CONDITION",
    "jarzynski_equality_check",
    "modified_jarzynski_check",
]


@dataclass(frozen=True)
class DriveSchedule:
    """Control path lambda_{t_0..t_N} and its Hamiltonians, as one stack.

    ``hamiltonians_at`` maps the whole control grid, an (N+1,) array, to
    the (N+1, d, d) stack of its Hamiltonians, and is called once. The
    stack is copied, checked to be finite and hermitian within the default
    policy's ``hermitian_tol`` (an error names the first control value
    that fails), and kept read-only as ``hamiltonians``; every reader
    works on it.
    """

    hamiltonians_at: Callable[[np.ndarray], np.ndarray]
    lambdas: np.ndarray
    t_f: float
    hamiltonians: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=float)
        if lams.ndim != 1 or lams.size < 2:
            raise ValueError("control path needs at least the two endpoint values")
        if not (self.t_f >= 0.0 and math.isfinite(self.t_f)):
            raise ValueError(f"t_f must be finite and nonnegative, got {self.t_f!r}")
        lams.setflags(write=False)
        object.__setattr__(self, "lambdas", lams)
        h = np.array(self.hamiltonians_at(lams), dtype=complex)
        if h.ndim != 3 or h.shape[0] != lams.size or h.shape[1] != h.shape[2]:
            raise ValueError(
                f"hamiltonian stack has shape {h.shape}, expected ({lams.size}, d, d)"
            )
        finite = np.isfinite(h).all(axis=(1, 2))
        with np.errstate(invalid="ignore"):  # inf - inf: those steps fail as non-finite
            dev = np.abs(h - h.conj().swapaxes(1, 2)).max(axis=(1, 2))
        bad = ~finite | (dev > DEFAULT_POLICY.hermitian_tol)
        if bad.any():
            n = int(np.argmax(bad))
            problem = "is not hermitian" if finite[n] else "has non-finite entries"
            raise ValueError(f"hamiltonian at control value {float(lams[n])!r} {problem}")
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonians", h)

    @classmethod
    def linear(
        cls,
        hamiltonians_at: Callable[[np.ndarray], np.ndarray],
        t_f: float,
        n_steps: int,
        lam_start: float = 0.0,
        lam_end: float = 1.0,
    ) -> "DriveSchedule":
        if n_steps < 1:
            raise ValueError(f"need at least one step, got {n_steps}")
        return cls(hamiltonians_at, np.linspace(lam_start, lam_end, n_steps + 1), t_f)

    @classmethod
    def constant(cls, h: Operator, t_f: float = 1.0, n_steps: int = 1) -> "DriveSchedule":
        def hamiltonians_at(lams: np.ndarray) -> np.ndarray:
            return np.broadcast_to(h.matrix, (lams.size, h.dim, h.dim))

        return cls.linear(hamiltonians_at, t_f, n_steps)

    @classmethod
    def quench(cls, h_initial: Operator, h_final: Operator) -> "DriveSchedule":
        """Sudden switch: endpoints differ, evolution time is zero."""
        return cls(
            lambda _lams: np.stack([h_initial.matrix, h_final.matrix]),
            np.array([0.0, 1.0]),
            0.0,
        )

    @property
    def n_steps(self) -> int:
        return len(self.lambdas) - 1

    @property
    def dim(self) -> int:
        return self.hamiltonians.shape[1]

    def hamiltonian_matrix(self, n: int) -> np.ndarray:
        return self.hamiltonians[n]

    def initial_hamiltonian(self) -> Operator:
        return Operator(self.hamiltonians[0], hermitian=True)

    def final_hamiltonian(self) -> Operator:
        return Operator(self.hamiltonians[-1], hermitian=True)

    def step_propagators(self) -> np.ndarray:
        """exp(-i H(lambda_{t_n}) dt) for each step, left control endpoint:
        an (N, d, d) array from one stacked eigendecomposition."""
        dt = self.t_f / self.n_steps
        return _hermitian_function(self.hamiltonians[:-1], lambda w: np.exp(-1j * w * dt))

    def total_propagator(self) -> np.ndarray:
        """Product of the step propagators, later steps to the left: the last
        of `_cumulative_propagators`, copied on the first call and returned
        read-only from then on."""
        return self._total_propagator

    @cached_property
    def _total_propagator(self) -> np.ndarray:
        u = self._cumulative_propagators[-1].copy()
        u.setflags(write=False)
        return u

    @cached_property
    def _cumulative_propagators(self) -> np.ndarray:
        """U(t_n) for n = 0..N, the identity first and each later one its
        step propagator times the one before; a read-only (N+1, d, d) stack."""
        cumulative = np.empty_like(self.hamiltonians)
        cumulative[0] = np.eye(self.dim)
        for k, step in enumerate(self.step_propagators()):
            cumulative[k + 1] = step @ cumulative[k]
        cumulative.setflags(write=False)
        return cumulative


@dataclass(frozen=True, eq=False)
class WorkSamples:
    """TPM records as read-only columns, one entry per sample in draw order.

    Energies and ``work`` are float64, the index columns int64. ``work`` is
    exactly ``final_energy - initial_energy``, elementwise. An input that is
    already a read-only ndarray of its column's dtype and owns its data is
    kept as the column itself; anything else is copied.
    """

    initial_energy: np.ndarray
    final_energy: np.ndarray
    initial_outcome_index: np.ndarray
    final_outcome_index: np.ndarray
    stream_id: np.ndarray
    draw_id: np.ndarray
    work: np.ndarray = field(init=False)

    def __post_init__(self):
        n = len(self.initial_energy)
        for f in fields(self):
            if not f.init:
                continue
            dtype = np.float64 if f.name.endswith("energy") else np.int64
            col = getattr(self, f.name)
            if not (
                type(col) is np.ndarray
                and col.dtype == dtype
                and col.flags.owndata
                and not col.flags.writeable
            ):
                col = np.array(col, dtype=dtype)
                col.setflags(write=False)
            if col.shape != (n,):
                raise ValueError(f"column {f.name} has shape {col.shape}, expected ({n},)")
            object.__setattr__(self, f.name, col)
        work = self.final_energy - self.initial_energy
        work.setflags(write=False)
        object.__setattr__(self, "work", work)

    def __len__(self) -> int:
        return len(self.work)


@dataclass(frozen=True)
class JarzynskiReport:
    """Estimator summary against the closed-form free-energy target."""

    estimator_mean: float
    standard_error: float
    exact_value: float
    delta_f: float
    sample_count: int
    beta: float
    passed: bool
    mean_work: float
    work_floor: float | None = None
    inequality_ok: bool | None = None
    sigma_total: float | None = None

    def __post_init__(self):
        if self.standard_error < 0.0:
            raise ValueError("standard error cannot be negative")
        if self.sample_count <= 0:
            raise ValueError("report needs at least one sample")

    def to_dict(self) -> dict:
        out = {
            "estimator_mean": self.estimator_mean,
            "standard_error": self.standard_error,
            "exact_value": self.exact_value,
            "delta_f": self.delta_f,
            "sample_count": self.sample_count,
            "beta": self.beta,
            "passed": self.passed,
            "mean_work": self.mean_work,
        }
        if self.work_floor is not None:
            out["work_floor"] = self.work_floor
            out["inequality_ok"] = self.inequality_ok
            out["sigma_total"] = self.sigma_total
        return out


def _check_beta(beta: float, *, zero_ok: bool = False) -> None:
    """Raise ValueError unless beta is finite and positive (or zero, where
    `zero_ok`: the infinite-temperature limit)."""
    if not (math.isfinite(beta) and (beta > 0.0 or (zero_ok and beta == 0.0))):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"beta must be {sign} and finite, got {beta!r}")


def _check_finite(name: str, value) -> None:
    """Raise ValueError naming the first non-finite entry of `value`."""
    bad = ~np.isfinite(value)
    if np.any(bad):
        first = float(np.ravel(value)[np.argmax(bad)])
        raise ValueError(f"{name} must be finite, got {first!r}")


def thermal_state(
    h: Operator,
    beta: float,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DensityMatrix:
    """Gibbs state exp(-beta h)/Z."""
    if not h.is_hermitian(policy):
        raise ValueError("thermal state needs a hermitian hamiltonian")
    _check_beta(beta, zero_ok=True)

    def gibbs_weights(w: np.ndarray) -> np.ndarray:
        weights = np.exp(-beta * (w - w.min()))
        weights /= weights.sum()
        return weights

    m = _hermitian_function(h.matrix, gibbs_weights)
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix._hermitized(m, 1.0, policy)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a finite 1-D array.

    Follows scipy.special.logsumexp (1.17): the terms equal to the maximum
    are counted, not summed, and the rest are summed in place, so results
    agree with it bit for bit.
    """
    top = np.max(a)
    at_top = a == top
    count = float(np.count_nonzero(at_top))
    terms = np.exp(a - top)
    terms[at_top] = 0.0
    rest = terms.sum()
    if rest != 0:
        rest = rest / count
    return float(np.log1p(rest) + np.log(count) + top)


def _log_partition(h: Operator, beta: float) -> float:
    return _logsumexp(-beta * np.linalg.eigvalsh(h.matrix))


def delta_F(h_initial: Operator, h_final: Operator, beta: float) -> float:
    """Equilibrium free-energy difference -(1/beta) ln(Z_final / Z_initial)."""
    _check_beta(beta)
    for h in (h_initial, h_final):
        if not h.is_hermitian():
            raise ValueError("free energy needs hermitian hamiltonians")
    return -(_log_partition(h_final, beta) - _log_partition(h_initial, beta)) / beta


def _sector_tables(schedule: DriveSchedule, beta: float, *, policy: NumericPolicy) -> _BranchTable:
    """The branch table of a TPM draw: the Gibbs sector probabilities, then
    the conditional outcome matrix T[i, f] for the full drive propagator,
    and one entry per (i, f) pair under the `WorkSamples` field names but
    ``stream_id`` and ``draw_id``. No pair is pruned."""
    init = energy_sectors(schedule.initial_hamiltonian(), policy=policy)
    fin = energy_sectors(schedule.final_hamiltonian(), policy=policy)
    energies = np.array(init.labels)
    degens = np.array([np.rint(np.trace(p.matrix).real) for p in init.projectors])
    logw = -beta * energies + np.log(degens)
    p_init = np.exp(logw - _logsumexp(logw))
    p_init /= p_init.sum()

    u = schedule.total_propagator()
    cond = np.array(
        [
            fin.traces(u @ (p.matrix / degen) @ u.conj().T)
            for p, degen in zip(init.projectors, degens)
        ]
    )
    cond = np.clip(cond, 0.0, None)
    cond /= cond.sum(axis=1, keepdims=True)
    i_idx, f_idx = np.indices(cond.shape, dtype=np.int64).reshape(2, -1)
    initial, final = energies[i_idx], np.array(fin.labels)[f_idx]
    pairs = {
        "initial_energy": initial,
        "final_energy": final,
        "initial_outcome_index": i_idx,
        "final_outcome_index": f_idx,
        "work": final - initial,
    }
    return _BranchTable((p_init, cond), -math.inf, ("initial energy sector {0}",), pairs)


def tpm_blocks(
    schedule: DriveSchedule,
    beta: float,
    n_samples: int,
    seed: int,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
):
    """TPM work samples for a drive prepared in the Gibbs state, one stream
    block at a time.

    Per sample: draw an initial energy sector from the Gibbs weights,
    collapse with the full (possibly degenerate) sector projector, evolve
    through the stepwise propagator, and read a final sector by the Born
    rule. `n_samples`, `beta` and `seed` are checked, and the sector tables
    built, on the call, so a domain error is raised before any sample is
    drawn; every sample's code is drawn when the first block is asked for.
    Returns an iterator of ``(stream, rows, code, table)``: the stream of
    one block and the slice of samples it covers (see
    `streams.stream_blocks`), each sample's (i, f) pair code
    ``i * n_final + f`` (a read-only unsigned column, uint8 up to 256
    pairs), and the `_BranchTable.table` of the pairs, the same read-only
    dict in every block, with one entry per pair under the `WorkSamples`
    field names but ``stream_id`` and ``draw_id``: both energies, both
    outcome indices and ``work``. Sample j of the block is entry ``code[j]``.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    _check_beta(beta, zero_ok=True)
    check_seed(seed)
    branches = _sector_tables(schedule, beta, policy=policy)

    def blocks():
        code = branches.draw(seed, n_samples)
        for stream, rows in enumerate(_block_rows(n_samples)):
            yield stream, rows, code[rows], branches.table

    return blocks()


def tpm_sample(
    schedule: DriveSchedule,
    beta: float,
    n_samples: int,
    seed: int,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> WorkSamples:
    """The samples of `tpm_blocks` as whole columns. Samples are partitioned
    over seeded streams in fixed blocks, so the first n samples of a larger
    run equal a run of n samples."""
    blocks = list(tpm_blocks(schedule, beta, n_samples, seed, policy=policy))
    columns = {
        f.name: np.concatenate([table[f.name][code] for _, _, code, table in blocks])
        for f in fields(WorkSamples) if f.init and f.name not in ("stream_id", "draw_id")
    }
    columns["stream_id"] = np.concatenate(
        [np.full(len(code), stream, dtype=np.int64) for stream, _, code, _ in blocks]
    )
    columns["draw_id"] = np.arange(n_samples, dtype=np.int64)
    for column in columns.values():
        column.setflags(write=False)  # fresh read-only columns: kept uncopied
    return WorkSamples(**columns)


def jarzynski_exact(
    schedule: DriveSchedule,
    beta: float,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """<exp(-beta W)> by exact enumeration of TPM outcome pairs.

    sum_{i,f} (exp(-beta E_i)/Z_0) tr[P_f U P_i U^dag] exp(-beta (E_f - E_i)),
    which unitarity collapses to exp(-beta dF) up to rounding for any step
    count.
    """
    _check_beta(beta, zero_ok=True)
    init = energy_sectors(schedule.initial_hamiltonian(), policy=policy)
    fin = energy_sectors(schedule.final_hamiltonian(), policy=policy)
    log_z0 = _log_partition(schedule.initial_hamiltonian(), beta)
    u = schedule.total_propagator()
    total = 0.0
    for e_i, p_i in zip(init.labels, init.projectors):
        overlaps = fin.traces(u @ p_i.matrix @ u.conj().T).tolist()
        for e_f, overlap in zip(fin.labels, overlaps):
            total += math.exp(-beta * e_i - log_z0) * overlap * math.exp(-beta * (e_f - e_i))
    return total


# Largest condition number exp(beta (E_max - E_min)) of the factors that
# `jarzynski_time_ordered` accepts. Its rounding grows faster than that
# number: on a 400-step driven qubit (E_max - E_min = 2, exact value 1) it
# is 1.5e-12 at 3.0e3 (beta 4), 2.7e-10 at 2.2e4 (beta 5), 0.056 at 4.9e8
# (beta 10), and the result overflows to NaN by 2.4e17 (beta 20).
TIME_ORDERED_MAX_CONDITION = 1e4


def jarzynski_time_ordered(
    schedule: DriveSchedule,
    beta: float,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """<exp(-beta W)> from the time-ordered product of per-step factors.

    Takes the schedule's cumulative propagators U(t_n), conjugates each step
    Hamiltonian into the Heisenberg picture, multiplies the split factors
    exp(-beta H_H(t_{n+1})) exp(+beta H_H(t_n)) with later steps to the
    left, and traces against the initial thermal state. Past the propagators
    the two share, independent of `jarzynski_exact` as a code path; the two
    agree to rounding.

    Raises `NumericalConsistencyError` when the factors' condition number
    exp(beta (E_max - E_min)), over every Hamiltonian of the schedule,
    exceeds `TIME_ORDERED_MAX_CONDITION`; `jarzynski_exact` has no such
    limit.
    """
    _check_beta(beta, zero_ok=True)
    spread = float(np.ptp(np.linalg.eigvalsh(schedule.hamiltonians), axis=1).max())
    if beta * spread > math.log(TIME_ORDERED_MAX_CONDITION):
        raise NumericalConsistencyError(
            f"beta {beta!r} is past the conditioning bound of the time-ordered product: "
            f"exp(beta * {spread:.6g}) exceeds {TIME_ORDERED_MAX_CONDITION:g}, "
            f"so beta must stay at or below {math.log(TIME_ORDERED_MAX_CONDITION) / spread:.6g}"
        )
    cumulative = schedule._cumulative_propagators
    heisenberg = cumulative.conj().swapaxes(1, 2) @ schedule.hamiltonians @ cumulative
    heisenberg = 0.5 * (heisenberg + heisenberg.conj().swapaxes(1, 2))
    later = _hermitian_function(heisenberg[1:], lambda w: np.exp(-beta * w))
    earlier = _hermitian_function(heisenberg[:-1], lambda w: np.exp(beta * w))

    product = np.eye(schedule.dim, dtype=complex)
    for factor in later @ earlier:
        product = factor @ product
    rho0 = thermal_state(schedule.initial_hamiltonian(), beta, policy=policy)
    return float(np.trace(product @ rho0.matrix).real)


# Every verdict allows this multiple of max(|a|, |b|) between a and b; the
# equalities scale it by 1 + max|exponent| + |beta dF|, as exp carries the rounding
# of its argument in proportion (constant works, beta 0.3 to 5: at most 3.92 eps).
_ROUNDING = 4.0 * math.ulp(1.0)


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def _equality_target(beta: float, delta_f: float) -> float:
    """exp(-beta dF), the target of both equality checks, for a finite
    positive beta and a finite dF. It raises as the checks do, so a caller
    that must fail before it writes anything can call it first."""
    _check_beta(beta)
    _check_finite("delta_f", delta_f)
    return math.exp(-beta * delta_f)


def _equality_verdict(exponents: np.ndarray, exact: float, beta_df: float) -> tuple:
    """Mean and SE of exp(exponents), and whether they agree with the target
    `exact` = exp(-beta_df).

    They never agree when the target or every sample weight has underflowed
    to 0: such a comparison says nothing about the equality. `exponents`
    must be an array the caller built for this call: it is overwritten with
    the weights.
    """
    rounding = _ROUNDING * (1.0 + float(np.max(np.abs(exponents))) + abs(beta_df))
    weights = np.exp(exponents, out=exponents)
    mean, se = _mean_and_se(weights)
    agree = abs(mean - exact) <= 3.0 * se + rounding * max(abs(mean), abs(exact))
    return mean, se, agree and exact > 0.0 and bool(np.any(weights))


def _works_array(samples) -> np.ndarray:
    """Accept WorkSamples or plain arrays of work values."""
    if isinstance(samples, WorkSamples):
        return samples.work
    return np.asarray(samples, dtype=float)


def jarzynski_equality_check(
    samples: WorkSamples | np.ndarray,
    beta: float,
    delta_f: float,
) -> JarzynskiReport:
    """Compare the sample mean of exp(-beta W) against exp(-beta dF).

    Accepts WorkSamples or a plain array of work values. Passes when
    the deviation is within three standard errors, plus the scaled `_ROUNDING`,
    unless the target or every sample weight has underflowed to 0.
    """
    if not len(samples):
        raise ValueError("cannot check the equality on an empty sample set")
    exact = _equality_target(beta, delta_f)
    works = _works_array(samples)
    mean, se, passed = _equality_verdict(-beta * works, exact, beta * delta_f)
    mean_work, _ = _mean_and_se(works)
    return JarzynskiReport(
        estimator_mean=mean,
        standard_error=se,
        exact_value=exact,
        delta_f=delta_f,
        sample_count=len(samples),
        beta=beta,
        passed=passed,
        mean_work=mean_work,
    )


def modified_jarzynski_check(
    samples: WorkSamples | np.ndarray,
    beta: float,
    delta_f: float,
    sigma_total: float | np.ndarray = 3.0,
) -> JarzynskiReport:
    """Equality with the counter-factor exp(+sigma_total), one value or each
    sample's own, for samples whose work already carries the injected
    event-reading amounts. The report keeps the mean <sigma_total>.

    Also reports the inequality <W_total> >= dF + <sigma_total> k_B T (with
    k_B T = 1/beta), allowing three standard errors; both add (scaled) `_ROUNDING`.
    """
    if not len(samples):
        raise ValueError("cannot check the equality on an empty sample set")
    exact = _equality_target(beta, delta_f)
    works = _works_array(samples)
    if np.ndim(sigma_total) and np.shape(sigma_total) != works.shape:
        n_sigma = np.size(sigma_total)
        raise ValueError(f"sigma_total holds {n_sigma} values for {len(works)} samples")
    _check_finite("sigma_total", sigma_total)
    mean, se, passed = _equality_verdict(-beta * works + sigma_total, exact, beta * delta_f)
    mean_work, se_work = _mean_and_se(works)
    sigma_total = float(np.mean(sigma_total))
    floor = delta_f + sigma_total / beta
    margin = 3.0 * se_work + _ROUNDING * max(abs(mean_work), abs(floor))
    return JarzynskiReport(
        estimator_mean=mean,
        standard_error=se,
        exact_value=exact,
        delta_f=delta_f,
        sample_count=len(samples),
        beta=beta,
        passed=passed,
        mean_work=mean_work,
        work_floor=floor,
        inequality_ok=mean_work >= floor - margin,
        sigma_total=sigma_total,
    )
