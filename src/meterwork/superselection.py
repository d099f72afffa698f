"""Coarse-grained cell bases, commuting redefined canonical variables,
sector dephasing, and degenerate energy sectors.

Cells are an abstract labeled orthonormal basis: the pair of integer indices
``(q_index, p_index)`` names a sector, and the associated rank-1 projectors
are what the dynamics consumes. Cell widths are carried as reporting
metadata only; nothing downstream depends on their product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CapacityError
from .linalg import (
    DensityMatrix,
    Operator,
    ProjectorSet,
    _completeness_deviation,
    _restrict,
    _sandwich,
)
from .numeric import DEFAULT_POLICY, NumericPolicy

__all__ = [
    "PlanckCell",
    "PlanckCellBasis",
    "EnergySector",
    "build_planck_basis",
    "dephase",
    "energy_sectors",
    "sector_projector_set",
]

RELATIVE_GROUPING_TOL = 1e-8
# Rotating c*I by a random unitary spreads its eigenvalues by up to about
# 3.5 * eps * |c| * dim; the grouping tolerance never drops below this
# multiple of that scale, so a flat spectrum stays one sector.
ROUNDING_GROUPING_FACTOR = 16.0


@dataclass(frozen=True)
class PlanckCell:
    q_index: int
    p_index: int
    projector: Operator


@dataclass(frozen=True)
class PlanckCellBasis:
    """Complete orthonormal cell basis for a coarse-grained apparatus."""

    cells: tuple[PlanckCell, ...]
    cell_widths: tuple[float, float]

    @property
    def dim(self) -> int:
        return self.cells[0].projector.dim

    def position_operator(self) -> Operator:
        """Redefined position: q_index * width_q on each cell."""
        dq = self.cell_widths[0]
        return Operator.from_diagonal([cell.q_index * dq for cell in self.cells])

    def momentum_operator(self) -> Operator:
        """Redefined momentum: p_index * width_p on each cell.

        Diagonal in the same cell basis as the position, so the two commute
        exactly (entrywise zero commutator, not merely small).
        """
        dp = self.cell_widths[1]
        return Operator.from_diagonal([cell.p_index * dp for cell in self.cells])

    def projector_set(self) -> ProjectorSet:
        labels = tuple((cell.q_index, cell.p_index) for cell in self.cells)
        return ProjectorSet(tuple(cell.projector for cell in self.cells), labels)


def build_planck_basis(
    q_levels: int,
    p_levels: int,
    widths: tuple[float, float] = (1.0, 1.0),
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> PlanckCellBasis:
    """Labeled orthonormal cell basis of dimension q_levels * p_levels."""
    if q_levels <= 0 or p_levels <= 0:
        raise ValueError(f"cell counts must be positive, got {q_levels} x {p_levels}")
    dq, dp = float(widths[0]), float(widths[1])
    if dq <= 0.0 or dp <= 0.0:
        raise ValueError(f"cell widths must be positive, got {widths}")
    dim = q_levels * p_levels
    if dim > policy.max_dim:
        raise CapacityError(f"cell basis dimension {dim} exceeds budget {policy.max_dim}")
    labels = list(product(range(q_levels), range(p_levels)))
    pset = ProjectorSet.basis(dim, labels)
    cells = tuple(PlanckCell(qi, pi, proj) for (qi, pi), proj in zip(labels, pset.projectors))
    return PlanckCellBasis(cells, (dq, dp))


def dephase(
    rho: DensityMatrix,
    sectors: ProjectorSet,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DensityMatrix:
    """Remove coherence between sectors: rho -> sum_y P(y) rho P(y).

    Trace-preserving and idempotent; sector populations are untouched.
    A partition of the computational basis (``sectors.sector_of``) keeps
    the entries whose row and column share a sector, with the same bits
    as the projector sum. Projectors lifted onto leading factors are
    contracted through their local matrices (see `linalg.Lift`).
    """
    if sectors.dim != rho.dim:
        raise ValueError(f"sector dimension {sectors.dim} != state dimension {rho.dim}")
    sector_of = sectors.sector_of
    # 0/1 diagonals covering each index once sum to I exactly
    dev = 0.0 if sector_of is not None else _completeness_deviation(sectors.projectors)
    if dev > policy.completeness_tol:
        raise ValueError(f"projector set incomplete: deviation {dev:.3e}")
    if sector_of is None:
        out = np.zeros_like(rho.matrix)
        for p in sectors.projectors:
            out += _sandwich(p, rho.matrix)
    else:
        out = _restrict(rho.matrix, sector_of[:, None] == sector_of[None, :])
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out, rho.trace_weight, policy=policy)


@dataclass(frozen=True)
class EnergySector:
    """One (possibly degenerate) eigenvalue cluster of a Hamiltonian."""

    energy: float
    projector: Operator
    degeneracy: int


def energy_sectors(
    h: Operator,
    grouping_tol: float | None = None,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> list[EnergySector]:
    """Cluster the spectrum of a hermitian operator into degenerate sectors.

    Eigenvalues closer than `grouping_tol` are merged. The default tolerance
    is 1e-8 relative to the spectral range, floored at the eigensolver's
    rounding scale 16 * eps * max|E| * dim. A single all-embracing sector is
    a legal result for flat spectra.
    """
    if not h.is_hermitian(policy):
        raise ValueError("energy sectors need a hermitian operator")
    w, v = np.linalg.eigh(h.matrix)
    spread = float(w[-1] - w[0])
    if grouping_tol is None:
        rounding = float(np.finfo(float).eps * np.max(np.abs(w)) * len(w))
        grouping_tol = max(RELATIVE_GROUPING_TOL * spread, ROUNDING_GROUPING_FACTOR * rounding)
    sectors: list[EnergySector] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > grouping_tol:
            block = v[:, start:i]
            proj = block @ block.conj().T
            proj = 0.5 * (proj + proj.conj().T)
            sectors.append(
                EnergySector(
                    energy=float(np.mean(w[start:i])),
                    projector=Operator(proj, projector=True, policy=policy),
                    degeneracy=i - start,
                )
            )
            start = i
    return sectors


def sector_projector_set(sectors: list[EnergySector]) -> ProjectorSet:
    """Projector family of an energy decomposition, labeled by sector energy."""
    return ProjectorSet(
        tuple(s.projector for s in sectors),
        tuple(s.energy for s in sectors),
    )
