"""Coarse-grained cell bases, commuting redefined canonical variables,
sector dephasing, and degenerate energy sectors.

Each projector family is a `ProjectorSet`. Cells are an abstract labeled
orthonormal basis: a partition of the computational basis into rank-1
sectors, each labeled by its pair of integer indices ``(q_index, p_index)``.
Energy sectors are labeled by their mean energy. Cell widths are carried as
reporting metadata only; nothing downstream depends on their product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CapacityError
from .linalg import DensityMatrix, Operator, ProjectorSet
from .numeric import DEFAULT_POLICY, NumericPolicy, require_integer

__all__ = [
    "PlanckCellBasis",
    "build_planck_basis",
    "dephase",
    "energy_sectors",
]

RELATIVE_GROUPING_TOL = 1e-8
# Rotating c*I by a random unitary spreads its eigenvalues by up to about
# 3.5 * eps * |c| * dim; the grouping tolerance never drops below this
# multiple of that scale, so a flat spectrum stays one sector.
ROUNDING_GROUPING_FACTOR = 16.0


@dataclass(frozen=True)
class PlanckCellBasis:
    """Complete orthonormal cell basis for a coarse-grained apparatus: the
    partition ``cells`` of the computational basis, labeled ``(q, p)``."""

    cells: ProjectorSet
    cell_widths: tuple[float, float]

    @property
    def dim(self) -> int:
        return self.cells.dim

    def position_operator(self) -> Operator:
        """Redefined position: q_index * width_q on each cell."""
        dq = self.cell_widths[0]
        return Operator.from_diagonal([q * dq for q, _ in self.cells.labels])

    def momentum_operator(self) -> Operator:
        """Redefined momentum: p_index * width_p on each cell.

        Diagonal in the same cell basis as the position, so the two commute
        exactly (entrywise zero commutator, not merely small).
        """
        dp = self.cell_widths[1]
        return Operator.from_diagonal([p * dp for _, p in self.cells.labels])


def build_planck_basis(
    q_levels: int,
    p_levels: int,
    widths: tuple[float, float] = (1.0, 1.0),
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> PlanckCellBasis:
    """Labeled orthonormal cell basis of dimension q_levels * p_levels."""
    q_levels, p_levels = require_integer("q_levels", q_levels), require_integer("p_levels", p_levels)
    if q_levels <= 0 or p_levels <= 0:
        raise ValueError(f"cell counts must be positive, got {q_levels} x {p_levels}")
    dq, dp = float(widths[0]), float(widths[1])
    if not all(w > 0.0 and math.isfinite(w) for w in (dq, dp)):
        raise ValueError(f"cell widths must be positive and finite, got {widths}")
    dim = q_levels * p_levels
    if dim > policy.max_dim:
        raise CapacityError(f"cell basis dimension {dim} exceeds budget {policy.max_dim}")
    labels = list(product(range(q_levels), range(p_levels)))
    return PlanckCellBasis(ProjectorSet.basis(dim, labels), (dq, dp))


def dephase(
    rho: DensityMatrix,
    sectors: ProjectorSet,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DensityMatrix:
    """Remove coherence between sectors: rho -> sum_y P(y) rho P(y).

    Trace-preserving and idempotent; sector populations are untouched.
    The sum is `ProjectorSet.pinch` on the state's block, which masks the
    indices of a partition (keeping the support) and multiplies any other
    family through `Operator.left` and `right`.
    """
    if sectors.dim != rho.dim:
        raise ValueError(f"sector dimension {sectors.dim} != state dimension {rho.dim}")
    dev = sectors.completeness_deviation
    if dev > policy.completeness_tol:
        raise ValueError(f"projector set incomplete: deviation {dev:.3e}")
    out, support = sectors.pinch(rho.block, rho.support)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix._hermitized(out, rho.trace_weight, policy, support, rho.dim)


def energy_sectors(
    h: Operator,
    grouping_tol: float | None = None,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> ProjectorSet:
    """Cluster the spectrum of a hermitian operator into degenerate sectors.

    Returns the family of sector projectors, labeled by the mean energy of
    each sector in ascending order; the degeneracy of a sector is the trace
    of its projector. Eigenvalues closer than `grouping_tol` are merged. The
    default tolerance is 1e-8 relative to the spectral range, floored at the
    eigensolver's rounding scale 16 * eps * max|E| * dim. A single
    all-embracing sector is a legal result for flat spectra.
    """
    if grouping_tol is not None and not (math.isfinite(grouping_tol) and grouping_tol >= 0.0):
        raise ValueError(f"grouping_tol must be finite and >= 0, got {grouping_tol!r}")
    if not h.is_hermitian(policy):
        raise ValueError("energy sectors need a hermitian operator")
    w, v = np.linalg.eigh(h.matrix)
    spread = float(w[-1] - w[0])
    if grouping_tol is None:
        rounding = float(np.finfo(float).eps * np.max(np.abs(w)) * len(w))
        grouping_tol = max(RELATIVE_GROUPING_TOL * spread, ROUNDING_GROUPING_FACTOR * rounding)
    projectors: list[Operator] = []
    energies: list[float] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > grouping_tol:
            block = v[:, start:i]
            proj = block @ block.conj().T
            proj = 0.5 * (proj + proj.conj().T)
            projectors.append(Operator(proj, projector=True, policy=policy))
            energies.append(float(np.mean(w[start:i])))
            start = i
    return ProjectorSet(projectors, energies, policy=policy)
