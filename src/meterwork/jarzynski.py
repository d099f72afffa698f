"""Two-point-measurement (TPM) work statistics and the Jarzynski equality.

A drive is a control path lambda_t sampled at t_n = n t_f / N with a
piecewise-constant propagator per step. Work is the difference of projective
energy readings at the endpoints; degenerate energy sectors collapse with
the full sector projector. The heat bath enters only through the thermal
initial state; the drive itself is strictly unitary.

Two independent evaluations of <exp(-beta W)> are provided:

* `jarzynski_exact` enumerates all (initial sector, final sector) outcome
  pairs with their Born weights;
* `jarzynski_time_ordered` multiplies the per-step Heisenberg-picture
  factors exp(-beta H_H(t_{n+1})) exp(+beta H_H(t_n)) in time order and
  traces against the thermal state.

Both return exp(-beta dF) up to float rounding for any unitary drive, and
agreeing with each other is a structural cross-check of the propagator and
sector machinery.

Monte Carlo estimation (`tpm_sample`) partitions samples over seeded streams
in fixed blocks, so results are a function of the configuration and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import DensityMatrix, Operator, _hermitian_function
from .numeric import DEFAULT_POLICY, NumericPolicy
from .streams import cdf_of, draw_indices, draw_rows, stream_uniforms
from .superselection import EnergySector, energy_sectors

__all__ = [
    "DriveSchedule",
    "WorkSamples",
    "JarzynskiReport",
    "thermal_state",
    "delta_F",
    "tpm_sample",
    "jarzynski_exact",
    "jarzynski_time_ordered",
    "jarzynski_equality_check",
    "modified_jarzynski_check",
]


@dataclass(frozen=True)
class DriveSchedule:
    """Control path lambda_{t_0..t_N} with its Hamiltonian map.

    All Hamiltonians along the path are validated hermitian with a common
    dimension at construction, and cached.
    """

    hamiltonian_at: Callable[[float], Operator]
    lambdas: np.ndarray
    t_f: float
    _h_matrices: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=float)
        if lams.ndim != 1 or lams.size < 2:
            raise ValueError("control path needs at least the two endpoint values")
        if not (self.t_f >= 0.0 and math.isfinite(self.t_f)):
            raise ValueError(f"t_f must be finite and nonnegative, got {self.t_f!r}")
        lams.setflags(write=False)
        object.__setattr__(self, "lambdas", lams)
        mats = []
        dim = None
        for lam in lams:
            h = self.hamiltonian_at(float(lam))
            if not h.is_hermitian():
                raise ValueError(f"hamiltonian at control value {lam!r} is not hermitian")
            if dim is None:
                dim = h.dim
            elif h.dim != dim:
                raise ValueError(
                    f"hamiltonian dimension changed along the path: {h.dim} != {dim}"
                )
            mats.append(h.matrix)
        object.__setattr__(self, "_h_matrices", tuple(mats))

    @classmethod
    def linear(
        cls,
        hamiltonian_at: Callable[[float], Operator],
        t_f: float,
        n_steps: int,
        lam_start: float = 0.0,
        lam_end: float = 1.0,
    ) -> "DriveSchedule":
        if n_steps < 1:
            raise ValueError(f"need at least one step, got {n_steps}")
        return cls(hamiltonian_at, np.linspace(lam_start, lam_end, n_steps + 1), t_f)

    @classmethod
    def constant(cls, h: Operator, t_f: float = 1.0, n_steps: int = 1) -> "DriveSchedule":
        return cls.linear(lambda _lam: h, t_f, n_steps)

    @classmethod
    def quench(cls, h_initial: Operator, h_final: Operator) -> "DriveSchedule":
        """Sudden switch: endpoints differ, evolution time is zero."""
        return cls(
            lambda lam: h_initial if lam < 0.5 else h_final,
            np.array([0.0, 1.0]),
            0.0,
        )

    @property
    def n_steps(self) -> int:
        return len(self.lambdas) - 1

    @property
    def dim(self) -> int:
        return self._h_matrices[0].shape[0]

    def hamiltonian_matrix(self, n: int) -> np.ndarray:
        return self._h_matrices[n]

    def initial_hamiltonian(self) -> Operator:
        return Operator(self._h_matrices[0], hermitian=True)

    def final_hamiltonian(self) -> Operator:
        return Operator(self._h_matrices[-1], hermitian=True)

    def step_propagators(self) -> list[np.ndarray]:
        """exp(-i H(lambda_{t_n}) dt) for each step, left control endpoint."""
        dt = self.t_f / self.n_steps
        return [
            _hermitian_function(self._h_matrices[n], lambda w: np.exp(-1j * w * dt))
            for n in range(self.n_steps)
        ]

    def total_propagator(self) -> np.ndarray:
        """Product of the step propagators, later steps to the left; built
        on the first call and returned read-only from then on."""
        return self._total_propagator

    @cached_property
    def _total_propagator(self) -> np.ndarray:
        u = np.eye(self.dim, dtype=complex)
        for step in self.step_propagators():
            u = step @ u
        u.setflags(write=False)
        return u


@dataclass(frozen=True, eq=False)
class WorkSamples:
    """TPM records as read-only columns, one entry per sample in draw order.

    Energies and ``work`` are float64, the index columns int64. ``work`` is
    exactly ``final_energy - initial_energy``, elementwise.
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
            dtype = float if f.name.endswith("energy") else np.int64
            col = np.array(getattr(self, f.name), dtype=dtype)
            if col.shape != (n,):
                raise ValueError(f"column {f.name} has shape {col.shape}, expected ({n},)")
            col.setflags(write=False)
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
    return DensityMatrix(m, 1.0, policy=policy)


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


def _sector_tables(
    schedule: DriveSchedule,
    beta: float,
    *,
    policy: NumericPolicy,
) -> tuple[list[EnergySector], list[EnergySector], np.ndarray, np.ndarray]:
    """Initial sectors, final sectors, Gibbs sector probabilities, and the
    conditional outcome matrix T[i, f] for the full drive propagator."""
    init = energy_sectors(schedule.initial_hamiltonian(), policy=policy)
    fin = energy_sectors(schedule.final_hamiltonian(), policy=policy)
    energies = np.array([s.energy for s in init])
    degens = np.array([s.degeneracy for s in init], dtype=float)
    logw = -beta * energies + np.log(degens)
    p_init = np.exp(logw - _logsumexp(logw))
    p_init /= p_init.sum()

    u = schedule.total_propagator()
    cond = np.empty((len(init), len(fin)))
    for i, si in enumerate(init):
        evolved = u @ (si.projector.matrix / si.degeneracy) @ u.conj().T
        for f, sf in enumerate(fin):
            cond[i, f] = float(np.trace(sf.projector.matrix @ evolved).real)
    cond = np.clip(cond, 0.0, None)
    cond /= cond.sum(axis=1, keepdims=True)
    return init, fin, p_init, cond


def tpm_sample(
    schedule: DriveSchedule,
    beta: float,
    n_samples: int,
    seed: int,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> WorkSamples:
    """Draw TPM work samples for a drive prepared in the Gibbs state.

    Per sample: draw an initial energy sector from the Gibbs weights,
    collapse with the full (possibly degenerate) sector projector, evolve
    through the stepwise propagator, and read a final sector by the Born
    rule. Samples are partitioned over seeded streams in fixed blocks, so
    the first n samples of a larger run equal a run of n samples.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    _check_beta(beta, zero_ok=True)
    init, fin, p_init, cond = _sector_tables(schedule, beta, policy=policy)
    e_init = np.array([s.energy for s in init])
    e_fin = np.array([s.energy for s in fin])
    cdf_init = cdf_of(p_init)
    cdf_rows = np.vstack([cdf_of(row) for row in cond])

    us, stream_id = stream_uniforms(seed, n_samples, 2)
    i_idx = draw_indices(cdf_init, us[:, 0])
    f_idx = draw_rows(cdf_rows[i_idx], us[:, 1])
    return WorkSamples(
        initial_energy=e_init[i_idx],
        final_energy=e_fin[f_idx],
        initial_outcome_index=i_idx,
        final_outcome_index=f_idx,
        stream_id=stream_id,
        draw_id=np.arange(n_samples),
    )


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
    for si in init:
        conjugated = u @ si.projector.matrix @ u.conj().T
        for sf in fin:
            overlap = float(np.trace(sf.projector.matrix @ conjugated).real)
            total += (
                math.exp(-beta * si.energy - log_z0)
                * overlap
                * math.exp(-beta * (sf.energy - si.energy))
            )
    return total


def jarzynski_time_ordered(
    schedule: DriveSchedule,
    beta: float,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """<exp(-beta W)> from the time-ordered product of per-step factors.

    Builds the cumulative propagators U(t_n), conjugates each step
    Hamiltonian into the Heisenberg picture, multiplies the split factors
    exp(-beta H_H(t_{n+1})) exp(+beta H_H(t_n)) with later steps to the
    left, and traces against the initial thermal state. Independent of
    `jarzynski_exact` as a code path; the two agree to rounding.
    """
    _check_beta(beta, zero_ok=True)
    n = schedule.n_steps
    dim = schedule.dim
    cumulative = [np.eye(dim, dtype=complex)]
    for step in schedule.step_propagators():
        cumulative.append(step @ cumulative[-1])

    def heisenberg(k: int) -> np.ndarray:
        u = cumulative[k]
        m = u.conj().T @ schedule.hamiltonian_matrix(k) @ u
        return 0.5 * (m + m.conj().T)

    product = np.eye(dim, dtype=complex)
    for k in range(n):
        later = _hermitian_function(heisenberg(k + 1), lambda w: np.exp(-beta * w))
        earlier = _hermitian_function(heisenberg(k), lambda w: np.exp(beta * w))
        product = later @ earlier @ product
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


def _equality_verdict(exponents: np.ndarray, beta: float, delta_f: float) -> tuple:
    """Mean and SE of exp(exponents), exp(-beta dF), and whether they agree.

    They never agree when the target or every sample weight has underflowed
    to 0: such a comparison says nothing about the equality.
    """
    weights = np.exp(exponents)
    mean, se = _mean_and_se(weights)
    exact = math.exp(-beta * delta_f)
    rounding = _ROUNDING * (1.0 + float(np.max(np.abs(exponents))) + abs(beta * delta_f))
    agree = abs(mean - exact) <= 3.0 * se + rounding * max(abs(mean), abs(exact))
    return mean, se, exact, agree and exact > 0.0 and bool(np.any(weights))


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
    _check_beta(beta)
    works = _works_array(samples)
    mean, se, exact, passed = _equality_verdict(-beta * works, beta, delta_f)
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
    sigma_total: float = 3.0,
) -> JarzynskiReport:
    """Equality with the counter-factor exp(+sigma_total) for samples whose
    work already carries the injected event-reading amounts.

    Also reports the inequality <W_total> >= dF + sigma_total k_B T (with
    k_B T = 1/beta), allowing three standard errors; both add (scaled) `_ROUNDING`.
    """
    if not len(samples):
        raise ValueError("cannot check the equality on an empty sample set")
    _check_beta(beta)
    works = _works_array(samples)
    mean, se, exact, passed = _equality_verdict(-beta * works + sigma_total, beta, delta_f)
    mean_work, se_work = _mean_and_se(works)
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
