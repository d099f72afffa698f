"""Single numeric-tolerance policy shared by every validating constructor and check.

Internal units are hbar = k_B = 1 throughout the package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances used by structural invariants.

    All comparisons are absolute (max-entry or scalar) unless noted. Every
    field is checked at construction: tolerances are finite and >= 0,
    ``outcome_floor`` lies in [0, 1) and ``max_dim`` is at least 1.
    """

    hermitian_tol: float = 1e-12      # max |M - M^dag| entry
    unitary_tol: float = 1e-10        # max |M^dag M - I| entry
    projector_tol: float = 1e-10      # max |M^2 - M| entry
    psd_tol: float = 1e-10            # eigenvalue floor: lambda >= -psd_tol
    trace_tol: float = 1e-12          # |tr(rho) - trace_weight|
    norm_tol: float = 1e-12           # | ||ket|| - 1 |
    preservation_tol: float = 1e-10   # norm/trace drift allowed in evolve
    imag_tol: float = 1e-10           # imaginary residue of expectation values
    completeness_tol: float = 1e-10   # max |sum of projectors - I| entry
    coherence_tol: float = 1e-10      # off-sector coherence allowed at event reading
    support_tol: float = 1e-10        # support containment for relative entropy
    marginal_tol: float = 1e-12       # marginal-invariance checks in the scheme
    outcome_floor: float = 1e-14      # probability below which an outcome counts as absent
    max_dim: int = 1024               # desk-scale total dimension budget

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "outcome_floor":
                ok, bound = 0.0 <= value < 1.0, "lie in [0, 1)"
            elif f.name == "max_dim":
                ok, bound = value >= 1, "be at least 1"
            else:
                ok, bound = math.isfinite(value) and value >= 0.0, "be finite and >= 0"
            if not ok:
                raise ValueError(f"NumericPolicy.{f.name} must {bound}, got {value!r}")


DEFAULT_POLICY = NumericPolicy()


def require_integer(name: str, value) -> int:
    """`value` as an int; ValueError naming `name` unless it is an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
