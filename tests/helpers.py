"""Shared random-object builders for the test suite."""

from __future__ import annotations

import numpy as np

from meterwork.linalg import DensityMatrix, Ket, Operator


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    r = rank or dim
    a = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real, 1.0)


def random_ket(rng: np.random.Generator, dim: int) -> Ket:
    return Ket.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_hermitian_operator(rng: np.random.Generator, dim: int) -> Operator:
    return Operator(random_hermitian(rng, dim), hermitian=True)


def state_with_signed_zeros(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Unit-trace state that is block diagonal over a random split of the
    indices (real-valued half the time), with the sign of about half of its
    zero real and imaginary parts flipped to -0.0."""
    m = np.zeros((dim, dim), dtype=complex)
    order = rng.permutation(dim)
    split = int(rng.integers(1, dim + 1))
    for block in (order[:split], order[split:]):
        if block.size:
            m[np.ix_(block, block)] = random_density(rng, block.size).matrix * (block.size / dim)
    if rng.random() < 0.5:
        m = m.real.astype(complex)
    parts = m.view(float)
    parts[(parts == 0.0) & (rng.random(parts.shape) < 0.5)] = -0.0
    return DensityMatrix(m, 1.0)


def index_partition(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, list[Operator]]:
    """Random assignment of basis indices to sectors (some may stay empty)
    and the matching 0/1 diagonal projectors."""
    n = int(rng.integers(1, dim + 1))
    sector_of = rng.integers(0, n, size=dim)
    projs = [Operator(np.diag((sector_of == k).astype(float)), projector=True) for k in range(n)]
    return sector_of, projs


# Projector-product formulas that the index-masking paths must reproduce
# bit for bit.


def dense_dephase(rho: np.ndarray, projectors) -> np.ndarray:
    out = np.zeros_like(rho)
    for p in projectors:
        out += p.matrix @ rho @ p.matrix
    return 0.5 * (out + out.conj().T)


def dense_collapse(rho: np.ndarray, projector: Operator) -> np.ndarray:
    m = projector.matrix @ rho @ projector.matrix
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def dense_born(rho: DensityMatrix, projectors) -> np.ndarray:
    raw = np.array([float(np.trace(p.matrix @ rho.matrix).real) for p in projectors])
    return np.clip(raw, 0.0, None) / rho.trace_weight


def dense_conjugate(rho: DensityMatrix, u: np.ndarray) -> np.ndarray:
    """u rho u^dag by matrix products, hermitized and snapped to the weight."""
    m = u @ rho.matrix @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    m *= rho.trace_weight / float(np.trace(m).real)
    return m


def dense_lowest_eigenvalue(m: np.ndarray) -> float:
    """Lowest eigenvalue of the full matrix, which the support-block PSD
    check must give the same verdict as."""
    return float(np.min(np.linalg.eigvalsh(m)))


# Record-by-record derivation of the scheme outputs, as `meterwork scheme`
# made them from one `SchemeRunRecord` per run: the columnar path must
# reproduce these bytes and bits.

REFERENCE_RECORD_COLUMNS = {
    "stream": np.int64,
    "draw": np.int64,
    "initial_sector": np.int64,
    "initial_energy": float,
    "event_outcome": np.int64,
    "final_sector": np.int64,
    "final_energy": float,
    "work_drive": float,
    "work_reading_experimenter": float,
    "work_reading_reader": float,
    "work_total": float,
    "sigma_experimenter": float,
    "sigma_reader": float,
    "sigma_measured": float,
}

REFERENCE_SUMMARY_COLUMNS = [
    "stream",
    "draw",
    "initial_energy",
    "final_energy",
    "work_drive",
    "work_total",
    "event_outcome",
    "sigma_experimenter",
    "sigma_reader",
    "sigma_measured",
]


def reference_record_table(records) -> np.ndarray:
    """One structured row per record, calling `ledger.totals()` per record."""

    def rows():
        for r in records:
            totals = r.ledger.totals()
            yield (
                r.stream_id,
                r.draw_id,
                r.tpm_initial[0],
                r.tpm_initial[1],
                r.event_outcome,
                r.tpm_final[0],
                r.tpm_final[1],
                r.work_drive,
                r.work_reading_experimenter,
                r.work_reading_reader,
                r.work_total,
                totals.get("experimenter", 0.0),
                totals.get("reader", 0.0),
                totals.get("measured", 0.0),
            )

    dtype = list(REFERENCE_RECORD_COLUMNS.items())
    return np.fromiter(rows(), dtype=dtype, count=len(records))


def write_reference_records(out, records) -> None:
    """scheme_records.jsonl and scheme_summary.csv from the record table."""
    from meterwork.cli import _write_rows, write_csv

    table = reference_record_table(records)

    def jsonl_row(specs):  # floats are quoted 17-digit strings
        cells = (s if s == "%d" else f'"{s}"' for s in specs)
        keys = REFERENCE_RECORD_COLUMNS
        return "{" + ", ".join(f'"{k}": {c}' for k, c in zip(keys, cells)) + "}\n"

    with open(out / "scheme_records.jsonl", "w") as fh:
        _write_rows(fh, jsonl_row, [table[k] for k in REFERENCE_RECORD_COLUMNS])
    columns = [table[k] for k in REFERENCE_SUMMARY_COLUMNS]
    write_csv(out / "scheme_summary.csv", REFERENCE_SUMMARY_COLUMNS, columns)


def reference_scheme_sums(records) -> dict:
    """sigma_total, ledger_totals and work_gap, summed record by record."""
    sigma_totals = {
        sum((e.sigma_nats for e in r.ledger.entries if e.sigma_nats > 0.0), 0.0)
        for r in records
    }
    totals: dict[str, float] = {}
    for r in records:
        for party, val in r.ledger.totals().items():
            totals[party] = totals.get(party, 0.0) + val
    drive_works = np.array([r.work_drive for r in records])
    total_works = np.array([r.work_total for r in records])
    return {
        "sigma_totals": sigma_totals,
        "ledger_totals": totals,
        "work_gap": float(np.mean(total_works) - np.mean(drive_works)),
    }
