"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import functools
import math
import time

import numpy as np
from scipy.stats import chi2

from helpers import random_density, random_hermitian, random_unitary
from meterwork.cli import main as cli_main
from meterwork.errors import SchemeConstraintError
from meterwork.jarzynski import (
    DriveSchedule,
    delta_F,
    jarzynski_equality_check,
    jarzynski_exact,
    tpm_sample,
)
from meterwork.linalg import DensityMatrix, Ket, Operator, ProjectorSet, evolve
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
    redefine_system,
    statistical_relaxation_truncation,
    von_neumann_hamiltonian,
)
from meterwork.relaxation import (
    entropy_of_weight,
    simulate_direct,
    simulate_statistical,
)
from meterwork.scheme import (
    EXPERIMENTER,
    MEASURED,
    READER,
    SchemeConfig,
    apply_barrier_drive,
    apply_meter_entangling,
    apply_nonselective_measurement,
    build_context,
    prepare_initial_state,
    run_scheme,
    szilard_schedule,
    verify_unitary_roundtrips,
)
from meterwork.linalg import expectation
from meterwork.streams import cdf_of, draw_indices, stream_generator


def report(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({label}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number} ({label}): PASS")

        return wrapper

    return decorate


def _basis_projector_set(dim: int) -> ProjectorSet:
    projs = []
    for k in range(dim):
        m = np.zeros((dim, dim))
        m[k, k] = 1.0
        projs.append(Operator(m, projector=True))
    return ProjectorSet(tuple(projs), tuple(range(dim)))


@report(1, "relaxation plateau values")
def test_criterion_1_relaxation_values():
    start = time.monotonic()
    stat = simulate_statistical(1.0, 2.0, 1000)
    assert abs(stat.weight_at(1.0) - math.exp(-1.0)) <= 1e-12
    sigma = entropy_of_weight(stat)
    plateau = sigma[np.flatnonzero(np.isclose(stat.times, 1.0))[0]]
    assert abs(plateau - 1.0) <= 1e-12
    direct = simulate_direct(1.0, 2.0, 1000)
    assert direct.weight_at(1.0) == 0.0
    assert time.monotonic() - start < 1.0


@report(2, "original Jarzynski equality")
def test_criterion_2_original_equality():
    start = time.monotonic()
    beta = 1.0
    # (a) commuting quench against the closed form
    quench = DriveSchedule.quench(
        Operator.from_diagonal([0.0, 1.0]), Operator.from_diagonal([0.0, 2.0])
    )
    closed_form = (1.0 + math.exp(-2.0)) / (1.0 + math.exp(-1.0))
    assert abs(jarzynski_exact(quench, beta) - closed_form) <= 1e-10

    # (b) non-commuting driven qubit, 400 steps
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def h_at(lams: np.ndarray) -> np.ndarray:
        lams = lams[:, None, None]
        return (1.0 - lams) * sz + lams * sx

    driven = DriveSchedule.linear(h_at, t_f=1.0, n_steps=400)
    df = delta_F(driven.initial_hamiltonian(), driven.final_hamiltonian(), beta)
    assert abs(jarzynski_exact(driven, beta) - math.exp(-beta * df)) <= 1e-6

    samples = tpm_sample(driven, beta, 10**5, seed=2026)
    check = jarzynski_equality_check(samples, beta, df)
    assert check.passed, (check.estimator_mean, check.exact_value, check.standard_error)
    assert time.monotonic() - start < 30.0


@report(3, "modified equality and work inequality")
def test_criterion_3_modified_equality():
    start = time.monotonic()
    result = run_scheme(SchemeConfig(n_samples=10**4, seed=2026))
    assert result.sigma_total == 3.0
    assert result.modified_report.passed, (
        result.modified_report.estimator_mean,
        result.modified_report.exact_value,
        result.modified_report.standard_error,
    )
    assert abs(result.work_gap - 3.0 / result.modified_report.beta) <= 1e-12
    assert result.modified_report.inequality_ok
    assert time.monotonic() - start < 60.0


@report(4, "entropy ledger conservation")
def test_criterion_4_ledger():
    result = run_scheme(SchemeConfig(n_samples=2000, seed=5))
    for record in result.records:
        entries = record.ledger.entries
        for a, b in zip(entries[::2], entries[1::2]):
            assert a.sigma_nats + b.sigma_nats == 0.0
        totals = record.ledger.totals()
        assert totals[EXPERIMENTER] == 2.0
        assert totals[READER] == 1.0
        assert totals[MEASURED] == -3.0
    eig = run_scheme(SchemeConfig(n_samples=500, seed=6, eigenstate_prep=True))
    assert all(
        e.sigma_nats == 0.0 for r in eig.records for e in r.ledger.entries
    )


@report(5, "redefinition and truncation identities")
def test_criterion_5_redefinition_identities():
    gen = np.random.default_rng(55)
    for dim in (2, 3, 4, 8, 16):
        rho = random_density(gen, dim)
        assert abs(generalized_relative_entropy(rho, rho.scaled(math.exp(-1.0))) - 1.0) <= 1e-10
        assert abs(generalized_relative_entropy(rho, rho.scaled(math.e)) + 1.0) <= 1e-10
        obs = Operator(random_hermitian(gen, dim), hermitian=True)
        rho_star, (obs_star,) = redefine_system(rho, [obs], 1.0)
        assert abs(expectation(obs_star, rho_star) - expectation(obs, rho)) <= 1e-12
    unit = DensityMatrix(np.diag([0.5, 0.5]))
    assert unit.trace_weight - float(np.trace(direct_relaxation_truncation(unit)).real) == 1.0
    stat_out = statistical_relaxation_truncation(unit)
    assert unit.trace_weight - float(np.trace(stat_out.matrix).real) == 1.0 - math.exp(-1.0)


@report(6, "measurement channel properties and Born statistics")
def test_criterion_6_channel_properties():
    gen = np.random.default_rng(66)
    dims = gen.integers(2, 17, size=1000)
    for dim in dims:
        rho = random_density(gen, int(dim))
        pset = _basis_projector_set(int(dim))
        out = nonselective_measure(rho, pset)
        assert abs(float(np.trace(out.matrix).real) - 1.0) <= 1e-12
        assert float(np.min(np.linalg.eigvalsh(out.matrix))) >= -1e-10
        again = nonselective_measure(out, pset)
        assert np.max(np.abs(again.matrix - out.matrix)) <= 1e-12

    # Born statistics at one million draws via the exact sampling path of
    # event_read (probabilities + inverse CDF), plus an explicit equivalence
    # run of the full operation on a prefix of the same stream.
    rho = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]))
    pset = _basis_projector_set(4)
    probs = born_probabilities(rho, pset)
    rng = stream_generator(606, 0)
    n = 10**6
    outcomes = draw_indices(cdf_of(probs), rng.random(n))
    counts = np.bincount(outcomes, minlength=4)
    expected = probs * n
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    p_value = float(chi2.sf(statistic, df=3))
    assert p_value > 0.001, (counts.tolist(), statistic, p_value)

    prefix = 3000
    rng_full = stream_generator(606, 0)
    ledger = EntropyLedger()
    for k in range(prefix):
        label, _, ledger = event_read(rho, pset, rng_full, ledger, "measured", "reader")
        assert label == outcomes[k]


@report(7, "pointer branch map and phase-equivalence trigger")
def test_criterion_7_pointer_model():
    gen = np.random.default_rng(77)
    for _ in range(20):
        dim = int(gen.integers(2, 4))
        pdim = int(gen.integers(4, 9))
        pm = PointerModel(pdim, coupling=1.0, duration=1.0)
        values = gen.integers(-2, 3, size=dim).astype(float)
        basis = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))[0]
        obs = Operator(basis @ np.diag(values) @ basis.conj().T, hermitian=True)
        sys = Ket.normalized(gen.normal(size=dim) + 1j * gen.normal(size=dim))
        out = entangle_pointer(sys, pm.ready_state(), obs, pm)
        oracle = evolve(
            Ket(np.kron(sys.amplitudes, pm.ready_state().amplitudes)),
            von_neumann_hamiltonian(obs, pm),
            pm.duration,
        )
        assert np.max(np.abs(out.amplitudes - oracle.amplitudes)) <= 1e-10

    for _ in range(100):
        dim = int(gen.integers(2, 6))
        amps = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        amps /= np.linalg.norm(amps)
        values = gen.normal(size=dim)
        pair = [
            PhaseDisplacement(float(gen.normal()), "first"),
            PhaseDisplacement(float(gen.normal()), "second"),
        ]
        assert phase_equivalence_trigger(pair, values, amps, tol=1e-14)


@report(8, "entangling-step marginal constraint")
def test_criterion_8_step_iv_constraint():
    ctx = build_context(SchemeConfig(n_samples=1, seed=0))
    state = apply_nonselective_measurement(
        ctx, apply_barrier_drive(ctx, prepare_initial_state(ctx))
    )
    out = apply_meter_entangling(ctx, state)
    from meterwork.linalg import partial_trace
    from meterwork.scheme import APPARATUS, SYSTEM

    before = partial_trace(state, ctx.space, (SYSTEM, APPARATUS)).matrix
    after = partial_trace(out, ctx.space, (SYSTEM, APPARATUS)).matrix
    assert np.max(np.abs(before - after)) <= 1e-12

    gen = np.random.default_rng(88)
    rejected = 0
    for _ in range(100):
        bad = Operator(random_unitary(gen, 4), unitary=True)
        bad_ctx = build_context(SchemeConfig(entangler=bad, n_samples=1))
        try:
            apply_meter_entangling(bad_ctx, state)
        except SchemeConstraintError:
            rejected += 1
    assert rejected == 100


@report(9, "branch-unitary round trips")
def test_criterion_9_roundtrips():
    report_default = verify_unitary_roundtrips(SchemeConfig(n_samples=1, seed=3), seed=17)
    assert report_default.all_passed
    assert max(s.deviation for s in report_default.stages) <= 1e-12

    gen = np.random.default_rng(99)
    for trial in range(20):
        cfg = SchemeConfig(
            beta=float(gen.uniform(0.5, 2.0)),
            meter_dim=int(gen.integers(2, 4)),
            barrier_schedule=szilard_schedule(
                j_initial=float(gen.uniform(0.6, 1.4)),
                j_final=float(gen.uniform(0.15, 0.5)),
                t_f=float(gen.uniform(0.5, 3.0)),
                n_steps=int(gen.integers(10, 50)),
            ),
            nsm_pointer=PointerModel(int(gen.integers(3, 6))),
            event_pointer=PointerModel(int(gen.integers(4, 7))),
            n_samples=1,
        )
        rt = verify_unitary_roundtrips(cfg, seed=int(gen.integers(0, 1000)))
        assert rt.all_passed, (trial, [(s.name, s.deviation) for s in rt.stages])
        assert max(s.deviation for s in rt.stages) <= 1e-12


@report(10, "byte-identical outputs for a fixed seed")
def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 6000\nseed = 11\n")
    outputs = {}
    for run in ("first", "second"):
        out = tmp_path / f"scheme_{run}"
        code = cli_main(
            ["scheme", "--config", str(cfg), "--verify-appendix-b", "--output", str(out)]
        )
        assert code == 0
        jar = tmp_path / f"jar_{run}"
        code = cli_main(
            [
                "jarzynski",
                "--scenario",
                "driven-qubit",
                "--samples",
                "30000",
                "--seed",
                "11",
                "--output",
                str(jar),
            ]
        )
        assert code == 0
        outputs[run] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) + sorted(jar.iterdir())
        }
    assert outputs["first"].keys() == outputs["second"].keys()
    for name in outputs["first"]:
        assert outputs["first"][name] == outputs["second"][name], name
