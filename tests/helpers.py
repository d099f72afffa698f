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
