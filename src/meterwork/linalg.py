"""Complex linear algebra over small labeled Hilbert spaces.

Value types (`Ket`, `Operator`, `DensityMatrix`, `CompositeSpace`,
`ProjectorSet`) are immutable after construction and validate their
structural invariants against a `NumericPolicy`. Density matrices may be
subnormalized: `trace_weight` is 1 for conventional ensembles and
``exp(-sigma)`` for ensembles redefined by an entropy production ``sigma``
(which may be negative, so weights above 1 are legal).

States are dense matrices. A value's structure is declared where it is
built and never scanned for in its matrices afterwards. Two kinds of value
keep a smaller form and build their dense matrices only on first access,
then keep them:

* a `ProjectorSet` built from a ``sector_of`` array (`ProjectorSet.basis`,
  `ProjectorSet.embedded` of such a family, or ``ProjectorSet(sector_of,
  labels)``) is a partition of the computational basis, and its kernels
  mask indices with that array;
* an operator lifted by `embed_operator` (and each projector of a family
  lifted by `ProjectorSet.embedded`) keeps its `Lift`: the local matrix L,
  the dimension of the untouched factors and the basis permutation. When
  the named factors lead the space the lift is L (x) I, and `conjugate` and
  the `ProjectorSet` kernels contract L with the state reshaped to
  (l, rest, l, rest) instead of multiplying by the d x d lift. A lift whose
  L is a permutation conjugates by gathering rows and columns; whether L is
  one is the only structure read off a matrix, and only off L.

Operations are pure functions. Apart from those caches nothing here mutates
shared state, and threads racing to fill one build equal matrices, so all
values are safe to share across threads.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, NumericalConsistencyError
from .numeric import DEFAULT_POLICY, NumericPolicy

__all__ = [
    "Ket",
    "Operator",
    "DensityMatrix",
    "CompositeSpace",
    "ProjectorSet",
    "tensor",
    "tensor_kets",
    "partial_trace",
    "evolve",
    "conjugate",
    "collapse",
    "expectation",
    "embed_operator",
    "hermitian_propagator",
]


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _is_diagonal(m: np.ndarray) -> bool:
    return np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))


def _lowest_eigenvalue(m: np.ndarray) -> float:
    """Lowest eigenvalue of a hermitian m, or of its support block.

    The support is the set of indices whose row or column holds an entry
    != 0. The rows and columns outside it are exactly zero and add only
    0 eigenvalues, so a negative lowest eigenvalue of m is that of the
    block, and a matrix with no support has 0 as its lowest eigenvalue.
    """
    nonzero = m != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    if support.size == m.shape[0]:
        return float(np.min(np.linalg.eigvalsh(m)))
    if support.size == 0:
        return 0.0
    return float(np.min(np.linalg.eigvalsh(m[np.ix_(support, support)])))


def _permutation_of(u: np.ndarray) -> np.ndarray | None:
    """perm with u[i, perm[i]] == 1 when the square matrix u holds exactly
    one nonzero per row and per column and each of them is exactly 1, or
    None for any other matrix."""
    rows, cols = np.nonzero(u)  # in row-major order
    one_per_row = np.array_equal(rows, np.arange(u.shape[0]))
    if one_per_row and np.all(u[rows, cols] == 1) and np.array_equal(np.sort(cols), rows):
        return cols
    return None


def _operator_permutation(u: "Operator") -> np.ndarray | None:
    """`_permutation_of(u.matrix)` for a lift, read off its local matrix;
    None for an operator that is not a lift."""
    lift = u.lift
    local = None if lift is None else _permutation_of(lift.local)
    if local is None:
        return None
    big = (local[:, None] * lift.rest_dim + np.arange(lift.rest_dim)).ravel()
    return big if lift.perm is None else np.argsort(lift.perm)[big[lift.perm]]


def _restrict(m: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Entries of m where the boolean mask `keep` holds, +0.0 elsewhere.

    This is what products with 0/1 diagonal projectors give, bit for bit:
    kept entries are copied exactly, and adding +0.0 turns their -0.0 parts
    into +0.0 as the zero-initialized sums of a matmul do.
    """
    return np.where(keep, m, 0.0) + 0.0


class Ket:
    """Normalized pure state on a finite-dimensional Hilbert space.

    Subnormalized kets are rejected; statistical subnormalization lives only
    in `DensityMatrix.trace_weight`.
    """

    __slots__ = ("amplitudes", "dim")

    def __init__(self, amplitudes, *, policy: NumericPolicy = DEFAULT_POLICY):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size == 0:
            raise ValueError("ket needs at least one amplitude")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > policy.norm_tol:
            raise ValueError(f"ket norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        self.amplitudes = amps
        self.dim = int(amps.size)

    @classmethod
    def basis(cls, dim: int, index: int) -> "Ket":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def normalized(cls, amplitudes) -> "Ket":
        """Build a ket from unnormalized amplitudes by dividing out the norm."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / norm)

    def overlap(self, other: "Ket") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"Ket(dim={self.dim})"


def _check_flags(
    m: np.ndarray,
    hermitian: bool | None,
    unitary: bool | None,
    projector: bool | None,
    policy: NumericPolicy,
) -> None:
    """Raise ValueError unless m has each structure flagged True, within
    the policy's tolerances. A projector flag needs the hermitian one."""
    # On a diagonal matrix the off-diagonal entries of m - m^dag and of
    # m @ m - m are zero, so both deviations are read off the diagonal.
    d = np.diagonal(m) if hermitian is True and _is_diagonal(m) else None
    if hermitian is True:
        dev = _max_abs(m - m.conj().T) if d is None else _max_abs(d - d.conj())
        if dev > policy.hermitian_tol:
            raise ValueError(f"hermitian assertion fails by {dev:.3e}")
    if unitary is True:
        dev = _max_abs(m.conj().T @ m - np.eye(m.shape[0]))
        if dev > policy.unitary_tol:
            raise ValueError(f"unitary assertion fails by {dev:.3e}")
    if projector is True:
        dev = _max_abs(m @ m - m) if d is None else _max_abs(d * d - d)
        if dev > policy.projector_tol:
            raise ValueError(f"projector assertion fails by {dev:.3e}")


class Lift:
    """``local (x) I_rest`` on a composite space, with the basis indices of
    the (named factors, rest) order taken to the space's order by ``perm``.
    ``perm`` is None when the named factors lead the space, and the lift is
    then ``local (x) I_rest`` itself.

    ``left`` and ``right`` multiply by the lift of leading factors without
    forming it. They contract the smallest core with ``local == core (x)
    I_q``, which drops only products by exact zeros of ``local``, and add
    each entry's products in index order, as the dense product does.
    """

    __slots__ = ("local", "rest_dim", "perm", "_core", "_core_rest")

    def __init__(self, local: np.ndarray, rest_dim: int, perm: np.ndarray | None):
        self.local, self.rest_dim, self.perm = local, rest_dim, perm
        n = local.shape[0]
        q = next(
            q for q in range(n, 0, -1)
            if n % q == 0 and np.array_equal(local, np.kron(local[::q, ::q], np.eye(q)))
        )
        self._core, self._core_rest = local[::q, ::q], q * rest_dim

    def dense(self) -> np.ndarray:
        m = np.kron(self.local, np.eye(self.rest_dim))
        return m if self.perm is None else m[np.ix_(self.perm, self.perm)]

    def left(self, m: np.ndarray) -> np.ndarray:
        """lift @ m."""
        x = m.reshape(self._core.shape[0], -1)
        return np.einsum("ab,by->ay", self._core, x).reshape(m.shape)

    def right(self, m: np.ndarray, *, adjoint: bool = False) -> np.ndarray:
        """m @ lift, or m @ lift^dag with `adjoint`."""
        k = self._core.conj().T if adjoint else self._core
        d = m.shape[0]
        m3 = m.reshape(d, k.shape[0], self._core_rest)
        return np.einsum("xbj,bc->xcj", m3, k).reshape(d, d)


class Operator:
    """Operator with tri-state structure flags.

    Each of ``hermitian``, ``unitary``, ``projector`` is True (asserted and
    validated at construction), False (asserted absent), or None (unchecked).
    A projector assertion implies the hermitian one.

    ``lift`` is set on an operator lifted by `embed_operator`; its dense
    ``matrix`` is then built on first access and kept.
    """

    __slots__ = ("_matrix", "lift", "dim", "hermitian", "unitary", "projector")

    def __init__(
        self,
        matrix,
        *,
        hermitian: bool | None = None,
        unitary: bool | None = None,
        projector: bool | None = None,
        policy: NumericPolicy = DEFAULT_POLICY,
    ):
        m = _as_square(matrix).copy()
        if projector is True:
            hermitian = True
        _check_flags(m, hermitian, unitary, projector, policy)
        m.setflags(write=False)
        self._matrix = m
        self.lift = None
        self.dim = int(m.shape[0])
        self.hermitian = hermitian
        self.unitary = unitary
        self.projector = projector

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = self.lift.dense()
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim), hermitian=True, unitary=True, projector=True)

    @classmethod
    def from_diagonal(cls, values) -> "Operator":
        vals = np.asarray(values)
        herm = True if np.isrealobj(vals) or _max_abs(vals.imag) == 0.0 else None
        return cls(np.diag(vals.astype(complex)), hermitian=herm)

    def is_hermitian(self, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
        if self.hermitian is not None:
            return self.hermitian
        return _max_abs(self.matrix - self.matrix.conj().T) <= policy.hermitian_tol

    def __repr__(self) -> str:
        flags = []
        for name in ("hermitian", "unitary", "projector"):
            v = getattr(self, name)
            if v is not None:
                flags.append(f"{name}={v}")
        inner = f"dim={self.dim}" + (", " + ", ".join(flags) if flags else "")
        return f"Operator({inner})"


class DensityMatrix:
    """Hermitian positive-semidefinite matrix whose trace equals trace_weight.

    ``trace_weight`` is 1 for conventional ensembles. Redefined ensembles
    carry ``exp(-sigma)``; the measured-side bookkeeping uses negative sigma,
    so weights above 1 occur and are accepted.
    """

    __slots__ = ("matrix", "dim", "trace_weight")

    def __init__(
        self,
        matrix,
        trace_weight: float | None = None,
        *,
        policy: NumericPolicy = DEFAULT_POLICY,
    ):
        m = _as_square(matrix).copy()
        dev = _max_abs(m - m.conj().T)
        if dev > policy.hermitian_tol:
            raise ValueError(f"density matrix not hermitian: deviation {dev:.3e}")
        lo = _lowest_eigenvalue(m)
        if lo < -policy.psd_tol:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        tr = complex(np.trace(m))
        if abs(tr.imag) > policy.trace_tol:
            raise ValueError(f"density matrix trace has imaginary part {tr.imag:.3e}")
        if trace_weight is None:
            trace_weight = tr.real
        elif abs(tr.real - trace_weight) > policy.trace_tol:
            raise ValueError(
                f"trace {tr.real!r} disagrees with trace_weight {trace_weight!r}"
            )
        if not (trace_weight > 0.0 and math.isfinite(trace_weight)):
            raise ValueError(f"trace_weight must be positive and finite, got {trace_weight!r}")
        m.setflags(write=False)
        self.matrix = m
        self.dim = int(m.shape[0])
        self.trace_weight = float(trace_weight)

    @classmethod
    def from_ket(cls, ket: Ket) -> "DensityMatrix":
        return cls(np.outer(ket.amplitudes, ket.amplitudes.conj()), 1.0)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim, 1.0)

    def scaled(self, factor: float) -> "DensityMatrix":
        """Rescale the statistical weight (used by ensemble redefinitions)."""
        if not (factor > 0.0 and math.isfinite(factor)):
            raise ValueError(f"scale factor must be positive and finite, got {factor!r}")
        return DensityMatrix(self.matrix * factor, self.trace_weight * factor)

    def normalized(self) -> "DensityMatrix":
        return DensityMatrix(self.matrix / self.trace_weight, 1.0)

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.matrix)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, trace_weight={self.trace_weight:.6g})"


class CompositeSpace:
    """Ordered list of labeled tensor factors.

    The ordering is significant and fixed at construction; partial traces and
    embeddings never reorder subsystems implicitly.
    """

    __slots__ = ("subsystems", "labels", "dims", "total_dim", "_axis")

    def __init__(self, subsystems: Sequence[tuple[str, int]]):
        subs = tuple((str(label), int(dim)) for label, dim in subsystems)
        if not subs:
            raise ValueError("composite space needs at least one subsystem")
        labels = tuple(label for label, _ in subs)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        dims = tuple(dim for _, dim in subs)
        if any(d <= 0 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        self.subsystems = subs
        self.labels = labels
        self.dims = dims
        self.total_dim = int(np.prod(dims))
        self._axis = {label: i for i, label in enumerate(labels)}

    def axis_of(self, label: str) -> int:
        if label not in self._axis:
            raise ValueError(f"unknown subsystem label {label!r}; have {self.labels}")
        return self._axis[label]

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis_of(label)]

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}:{d}" for l, d in self.subsystems)
        return f"CompositeSpace({inner})"


class ProjectorSet:
    """Complete family of orthogonal projectors P_k with outcome labels.

    Completeness (projectors summing to the identity) is validated at
    construction and kept as ``completeness_deviation``; orthogonality
    follows from completeness plus idempotence.

    How the family is applied is declared by how it is built:

    * a partition of the computational basis is given as its ``sector_of``
      integer array in place of the projectors, one sector per label, and
      keeps it as a read-only array (`basis`, `embedded` of a partition, or
      ``ProjectorSet(sector_of, labels)``). Its dense ``projectors``, the
      0/1 diagonals in sector order, are built on first access and kept;
    * projectors that are all lifts L_k (x) I onto leading factors
      (`embed_operator`, or `embedded` of a family that is not a partition)
      are contracted through L_k (see `Lift`);
    * any other family is multiplied as dense matrices.

    ``sector_of`` is None for the last two. `sandwich`, `pinch` and
    `traces` are the family's kernels; each chooses once between the three.
    A partition masks indices, which gives the bits of the products with
    its 0/1 diagonals. Projectors lifted from one family onto one space
    share one embedding, and the family is checked at the dimension of
    their local matrices.
    """

    __slots__ = ("_projectors", "labels", "dim", "sector_of", "completeness_deviation", "_lifts")

    def __init__(
        self,
        projectors: Sequence[Operator] | np.ndarray,
        labels: Sequence | None = None,
        *,
        policy: NumericPolicy = DEFAULT_POLICY,
    ):
        if isinstance(projectors, np.ndarray):
            projs, lifts = None, None
            sector_of = _checked_sector_of(projectors, labels)
            dim = sector_of.size
            n = len(labels) if labels is not None else int(sector_of.max()) + 1
            dev = 0.0  # 0/1 diagonals covering each index once sum to I exactly
        else:
            projs = tuple(projectors)
            if not projs:
                raise ValueError("projector set cannot be empty")
            dim, n = projs[0].dim, len(projs)
            for p in projs:
                if p.dim != dim:
                    raise ValueError("projectors have mismatched dimensions")
                if p.projector is not True:
                    # revalidate unflagged input rather than trusting the caller
                    Operator(p.matrix, projector=True, policy=policy)
            sector_of = None
            lifts = tuple(_leading_lift(p) for p in projs)
            lifts = None if None in lifts else lifts
            dev = _completeness_deviation(projs)
        if dev > policy.completeness_tol:
            raise ValueError(f"projectors do not sum to identity: deviation {dev:.3e}")
        if labels is None:
            labels = tuple(range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count does not match projector count")
            if len(set(labels)) != len(labels):
                raise ValueError(f"outcome labels must be unique, got {labels}")
        self._projectors = projs
        self._lifts = lifts
        self.labels = labels
        self.dim = dim
        self.sector_of = sector_of
        self.completeness_deviation = dev

    @property
    def projectors(self) -> tuple[Operator, ...]:
        if self._projectors is None:
            self._projectors = tuple(
                Operator(np.diag((self.sector_of == k).astype(complex)), projector=True)
                for k in range(len(self.labels))
            )
        return self._projectors

    @classmethod
    def basis(cls, dim: int, labels: Sequence | None = None) -> "ProjectorSet":
        """Rank-1 projectors onto the computational basis states, in index order."""
        return cls(np.arange(dim), labels)

    def __len__(self) -> int:
        return len(self.labels)

    def embedded(self, space: CompositeSpace, acting_on: Sequence[str]) -> "ProjectorSet":
        """Lift every projector onto `space` acting on the named factors."""
        if self.sector_of is None:
            lifted = [embed_operator(p, space, acting_on) for p in self.projectors]
            return ProjectorSet(lifted, self.labels)
        rest_dim, perm = _embedding(space, acting_on, self.dim)
        return ProjectorSet(np.repeat(self.sector_of, rest_dim)[perm], self.labels)

    def sandwich(self, m: np.ndarray, k: int) -> np.ndarray:
        """P_k @ m @ P_k."""
        if self.sector_of is not None:
            keep = self.sector_of == k
            return _restrict(m, np.outer(keep, keep))
        if self._lifts is not None:
            lift = self._lifts[k]
            return lift.right(lift.left(m))
        p = self.projectors[k].matrix
        return p @ m @ p

    def pinch(self, m: np.ndarray) -> np.ndarray:
        """sum_k P_k @ m @ P_k, added in projector order."""
        if self.sector_of is not None:
            return _restrict(m, self.sector_of[:, None] == self.sector_of[None, :])
        out = np.zeros_like(m)
        if self._lifts is not None:
            for lift in self._lifts:
                out += lift.right(lift.left(m))
        else:
            for p in self.projectors:
                out += p.matrix @ m @ p.matrix
        return out

    def traces(self, m: np.ndarray) -> np.ndarray:
        """Real parts of tr(P_k @ m), in projector order. For a partition
        each is the sum of the full-length diagonal with the other sectors'
        entries zeroed, which keeps the summation order of the product's
        trace."""
        if self.sector_of is not None:
            diag = np.diagonal(m)
            return np.array(
                [float(_restrict(diag, self.sector_of == k).sum().real) for k in range(len(self))]
            )
        if self._lifts is not None:
            return np.array([float(np.trace(lift.left(m)).real) for lift in self._lifts])
        return np.array([float(np.trace(p.matrix @ m).real) for p in self.projectors])

    def __repr__(self) -> str:
        return f"ProjectorSet(n={len(self)}, dim={self.dim})"


def _checked_sector_of(sector_of: np.ndarray, labels: Sequence | None) -> np.ndarray:
    """Read-only copy of a sector index array, checked to name sectors
    0 .. len(labels) - 1 (any non-negative sectors without labels)."""
    if sector_of.ndim != 1 or not np.issubdtype(sector_of.dtype, np.integer):
        raise ValueError(
            f"sector_of must be a 1-D integer array, got {sector_of.dtype} {sector_of.shape}"
        )
    if sector_of.size == 0:
        raise ValueError("projector set cannot be empty")
    if sector_of.min() < 0 or (labels is not None and sector_of.max() >= len(labels)):
        raise ValueError("sector_of names a sector outside the label range")
    out = sector_of.copy()
    out.setflags(write=False)
    return out


def _completeness_deviation(projs: Sequence[Operator]) -> float:
    """Largest entry of |sum of the projectors - I|. Lifts that share one
    embedding sum to the lift of their local sum, with the same entries, so
    their local matrices are summed instead."""
    first = projs[0].lift
    shared = first is not None and all(
        p.lift is not None
        and p.lift.rest_dim == first.rest_dim
        and np.array_equal(p.lift.perm, first.perm)  # None equals only None
        for p in projs
    )
    total = sum(p.lift.local if shared else p.matrix for p in projs)
    return _max_abs(total - np.eye(total.shape[0]))


def tensor(a: Operator, b: Operator, *, policy: NumericPolicy = DEFAULT_POLICY) -> Operator:
    """Kronecker product with flag algebra and a desk-scale capacity guard."""
    out_dim = a.dim * b.dim
    if out_dim > policy.max_dim:
        raise CapacityError(
            f"tensor product dimension {out_dim} exceeds budget {policy.max_dim}"
        )

    def both(x, y):
        return True if (x is True and y is True) else None

    return Operator(
        np.kron(a.matrix, b.matrix),
        hermitian=both(a.hermitian, b.hermitian),
        unitary=both(a.unitary, b.unitary),
        projector=both(a.projector, b.projector),
        policy=policy,
    )


def tensor_kets(a: Ket, b: Ket) -> Ket:
    return Ket(np.kron(a.amplitudes, b.amplitudes))


def _trace_out(mat: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]) -> np.ndarray:
    n = len(dims)
    arr = mat.reshape(*dims, *dims)
    n_cur = n
    for ax in sorted(set(range(n)) - set(keep_axes), reverse=True):
        arr = np.trace(arr, axis1=ax, axis2=ax + n_cur)
        n_cur -= 1
    kept = int(np.prod([dims[a] for a in sorted(keep_axes)])) if keep_axes else 1
    return arr.reshape(kept, kept)


def partial_trace(
    rho: DensityMatrix,
    space: CompositeSpace,
    keep: Iterable[str],
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DensityMatrix:
    """Reduced density matrix on the kept subsystems (original order preserved).

    The statistical weight is carried through unchanged.
    """
    keep_labels = set(keep)
    if not keep_labels:
        raise ValueError("keep must name at least one subsystem")
    keep_axes = sorted(space.axis_of(label) for label in keep_labels)
    if rho.dim != space.total_dim:
        raise ValueError(
            f"state dimension {rho.dim} does not match space dimension {space.total_dim}"
        )
    reduced = _trace_out(rho.matrix, space.dims, keep_axes)
    reduced = 0.5 * (reduced + reduced.conj().T)
    return DensityMatrix(reduced, rho.trace_weight, policy=policy)


def hermitian_propagator(
    h: Operator,
    duration: float,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """exp(-i h duration) for hermitian h, via eigendecomposition."""
    if not h.is_hermitian(policy):
        raise ValueError("generator must be hermitian")
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration!r}")
    return _hermitian_function(h.matrix, lambda w: np.exp(-1j * w * duration))


def _hermitian_function(m: np.ndarray, f) -> np.ndarray:
    """f(m) for a hermitian matrix m: f applied to the eigenvalues of m."""
    w, v = np.linalg.eigh(m)
    return (v * f(w)) @ v.conj().T


def conjugate(
    state: DensityMatrix,
    u: Operator | np.ndarray,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DensityMatrix:
    """u rho u^dag for a unitary u, an `Operator` or a matrix.

    Trace drift is asserted against the preservation tolerance and then
    snapped away, so long conjugation chains keep their weight exactly.
    A lift whose local matrix is a permutation (one entry exactly 1 per row
    and column, the rest 0) conjugates by gathering rows and columns, with
    the same bits as the matrix products. Any other lift L (x) I onto
    leading factors contracts L with the state and builds no d x d matrix.
    Every other `u` is multiplied as a dense matrix.
    """
    if not isinstance(u, Operator):
        u = Operator(u)
    if u.dim != state.dim:
        raise ValueError(f"dimension mismatch: unitary {u.dim}, state {state.dim}")
    perm = _operator_permutation(u)
    lift = _leading_lift(u)
    if perm is not None:
        # the one product term per entry is copied exactly; adding +0.0
        # turns -0.0 parts into +0.0 as the zero-initialized matmul sums do
        m = state.matrix[np.ix_(perm, perm)] + 0.0
    elif lift is not None:
        m = lift.right(lift.left(state.matrix), adjoint=True)
    else:
        m = u.matrix @ state.matrix @ u.matrix.conj().T
    m = 0.5 * (m + m.conj().T)
    tr = float(np.trace(m).real)
    if abs(tr - state.trace_weight) > policy.preservation_tol:
        raise NumericalConsistencyError(
            f"conjugation broke the trace: {tr!r} vs {state.trace_weight!r}"
        )
    m *= state.trace_weight / tr
    return DensityMatrix(m, state.trace_weight, policy=policy)


def collapse(
    state: DensityMatrix,
    outcomes: ProjectorSet,
    k: int,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DensityMatrix:
    """Unit-trace post-measurement state P_k rho P_k / tr(P_k rho P_k) for
    outcome k of `outcomes` (the Lueders update), through
    `ProjectorSet.sandwich`."""
    if not 0 <= k < len(outcomes):
        raise IndexError(f"outcome {k} outside a family of {len(outcomes)}")
    m = outcomes.sandwich(state.matrix, k)
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m / np.trace(m).real, 1.0, policy=policy)


def _leading_lift(op: Operator) -> Lift | None:
    """The lift of an operator L (x) I onto the leading factors, else None."""
    return op.lift if op.lift is not None and op.lift.perm is None else None


def evolve(state, h: Operator, duration: float, *, policy: NumericPolicy = DEFAULT_POLICY):
    """Unitary evolution of a Ket or DensityMatrix under a hermitian generator.

    Norm (or trace) drift is asserted against the preservation tolerance and
    then snapped away, so long evolution chains stay exactly normalized.
    """
    u = hermitian_propagator(h, duration, policy=policy)
    if isinstance(state, Ket):
        amps = u @ state.amplitudes
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > policy.preservation_tol:
            raise NumericalConsistencyError(f"evolution broke normalization: {norm!r}")
        return Ket(amps / norm, policy=policy)
    if isinstance(state, DensityMatrix):
        return conjugate(state, u, policy=policy)
    raise TypeError(f"cannot evolve {type(state).__name__}")


def expectation(
    obs: Operator,
    rho: DensityMatrix,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """tr(obs rho), asserting the imaginary residue is below tolerance."""
    if not obs.is_hermitian(policy):
        raise ValueError("observable must be hermitian")
    if obs.dim != rho.dim:
        raise ValueError(f"dimension mismatch: observable {obs.dim}, state {rho.dim}")
    val = complex(np.trace(obs.matrix @ rho.matrix))
    if abs(val.imag) > policy.imag_tol:
        raise NumericalConsistencyError(
            f"expectation value has imaginary residue {val.imag:.3e}"
        )
    return val.real


def embed_operator(
    op: Operator,
    space: CompositeSpace,
    acting_on: Sequence[str],
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Operator:
    """Lift an operator acting on the named factors (in the given order) to the
    full composite space, tensoring identities on the rest.

    The named factors need not be adjacent; index permutation handles the
    general case. The flags of `op` are checked under `policy` at its own
    dimension and carried over: op (x) I under a basis permutation is
    hermitian, unitary or a projector exactly when op is. The result keeps
    op's matrix as its `Lift` and builds its dense matrix on first access.
    """
    _check_flags(op.matrix, op.hermitian, op.unitary, op.projector, policy)
    rest_dim, perm = _embedding(space, acting_on, op.dim)
    lifted = Operator.__new__(Operator)
    leads = np.array_equal(perm, np.arange(perm.size))
    lifted._matrix = None
    lifted.lift = Lift(op.matrix, rest_dim, None if leads else perm)
    lifted.dim = op.dim * rest_dim
    lifted.hermitian, lifted.unitary, lifted.projector = op.hermitian, op.unitary, op.projector
    return lifted


def _embedding(
    space: CompositeSpace, acting_on: Sequence[str], op_dim: int
) -> tuple[int, np.ndarray]:
    """Dimension of the untouched factors and the index permutation taking
    the composite-space order to (named factors, rest) order, so that
    kron(op, I_rest)[perm][:, perm] is op lifted onto `space`."""
    acting = [space.axis_of(label) for label in acting_on]
    if len(set(acting)) != len(acting):
        raise ValueError(f"repeated labels in {tuple(acting_on)}")
    acting_dim = int(np.prod([space.dims[a] for a in acting]))
    if op_dim != acting_dim:
        raise ValueError(
            f"operator dimension {op_dim} does not match factors {tuple(acting_on)} "
            f"of total dimension {acting_dim}"
        )
    rest = [a for a in range(len(space.dims)) if a not in acting]
    rest_dim = int(np.prod([space.dims[a] for a in rest])) if rest else 1
    order = acting + rest
    reordered_dims = [space.dims[a] for a in order]
    digits = np.unravel_index(np.arange(space.total_dim), space.dims)
    perm = np.ravel_multi_index([digits[a] for a in order], reordered_dims)
    return rest_dim, perm
