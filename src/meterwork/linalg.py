"""Complex linear algebra over small labeled Hilbert spaces.

Value types (`Ket`, `Operator`, `DensityMatrix`, `CompositeSpace`,
`ProjectorSet`) are immutable after construction and validate their
structural invariants against a `NumericPolicy`. Density matrices may be
subnormalized: `trace_weight` is 1 for conventional ensembles and
``exp(-sigma)`` for ensembles redefined by an entropy production ``sigma``
(which may be negative, so weights above 1 are legal).

A value's structure is declared where it is built and never scanned for in
its matrices afterwards. Three kinds of value keep a smaller form and build
their dense matrices only on first access, then keep them:

* a `DensityMatrix` keeps its ``support``, the sorted basis indices whose
  rows and columns may hold entries != 0, and its dense ``block`` on them.
  A matrix from outside has full support; a channel declares the support of
  its result from how its operator was built;
* a `ProjectorSet` built from a ``sector_of`` array (`ProjectorSet.basis`,
  `ProjectorSet.embedded` of such a family, or ``ProjectorSet(sector_of,
  labels)``) is a partition of the computational basis, and its kernels
  mask indices with that array;
* an operator lifted by `embed_operator` (and each projector of a family
  lifted by `ProjectorSet.embedded`) keeps its `Lift`: the local matrix L,
  the dimension of the untouched factors and the basis permutation.

Only `Operator.left` and `right` choose how an operator multiplies a block,
and each gives the support of its product: a lift of a permutation L
gathers and maps the indices (L is the only matrix read for structure),
another lift onto leading factors closes them over those factors and
contracts L as given, and the rest are dense products over every index.
Reductions (traces, partial traces) sum the same zero-padded terms in the
same order as on the d x d matrix, so a block gives the bits of its dense
matrix. Channels hand their hermitized results to `DensityMatrix._hermitized`.

Operations are pure functions. Apart from those caches nothing here mutates
shared state, and threads racing to fill one build equal matrices, so all
values are safe to share across threads.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, NumericalConsistencyError
from .numeric import DEFAULT_POLICY, NumericPolicy, require_integer

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


def _permutation_of(u: np.ndarray) -> np.ndarray | None:
    """perm with u[i, perm[i]] == 1 when the square matrix u holds exactly
    one nonzero per row and per column and each of them is exactly 1, or
    None for any other matrix."""
    rows, cols = np.nonzero(u)  # in row-major order
    one_per_row = np.array_equal(rows, np.arange(u.shape[0]))
    if one_per_row and np.all(u[rows, cols] == 1) and np.array_equal(np.sort(cols), rows):
        return cols
    return None


def _gathered(m: np.ndarray, index: np.ndarray, axis: int = 0) -> np.ndarray:
    """Rows (or columns) `index` of m, with -0.0 parts made +0.0 as the
    zero-initialized sums of a matmul make them: a permutation's product."""
    out = np.take(m, index, axis=axis)
    out += 0.0
    return out


def _distinct(values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct entries of an integer array with entries in [0, size),
    and the position of each entry among them: ``np.unique`` with its inverse,
    read off a mask instead of a sort."""
    present = np.zeros(size, dtype=bool)
    present[values] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[values]


def _positions(index: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Positions of the basis indices `index` in their sorted superset `within`."""
    at = np.zeros(within[-1] + 1, dtype=int)
    at[within] = np.arange(within.size)
    return at[index]


def _placed(m: np.ndarray, index: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Block m on the sorted basis indices `index` as a block on their sorted
    superset `within`, +0.0 off `index`; m itself when the two are equal."""
    if index.size == within.size:
        return m
    at = _positions(index, within)
    out = np.zeros((within.size, within.size), dtype=complex)
    out[np.ix_(at, at)] = m
    return out


def _padded_diagonal(m: np.ndarray, index: np.ndarray, dim: int) -> np.ndarray:
    """Length-dim diagonal of the d x d matrix of block m on `index`: a sum
    of it adds the terms of that matrix's trace in the same order."""
    diag = np.zeros(dim, dtype=complex)
    diag[index] = np.diagonal(m)
    return diag


def _trace(m: np.ndarray, index: np.ndarray, dim: int) -> complex:
    """Trace of the d x d matrix of block m on `index`, bit for bit."""
    return complex(_padded_diagonal(m, index, dim).sum())


def _max_abs_difference(
    a: np.ndarray, a_index: np.ndarray, b: np.ndarray, b_index: np.ndarray, dim: int
) -> float:
    """Largest |entry| of the difference of the d x d matrices of blocks a
    and b on sorted basis indices; entries off both are 0 - 0."""
    union, _ = _distinct(np.concatenate((a_index, b_index)), dim)
    return _max_abs(_placed(a, a_index, union) - _placed(b, b_index, union))


def _placed_axis(m: np.ndarray, at: np.ndarray, size: int, axis: int) -> np.ndarray:
    """m with its `axis` placed at the positions `at` of an axis of length
    `size`, +0.0 elsewhere."""
    shape = list(m.shape)
    shape[axis] = size
    out = np.zeros(shape, dtype=complex)
    if axis == 0:
        out[at] = m
    else:
        out[:, at] = m
    return out


def _spread(m: np.ndarray, index: np.ndarray, rest_dim: int, n: int, axis: int):
    """m with its `axis`, on the sorted basis indices `index`, widened to
    their closure over a leading factor of dimension n (+0.0 where m has no
    entry), and that closure: every (factor, rest) index whose rest digit
    occurs in `index`, in order."""
    rest, pos = _distinct(index % rest_dim, rest_dim)
    closed = (np.arange(n)[:, None] * rest_dim + rest).ravel()
    if closed.size == index.size:
        return m, closed
    return _placed_axis(m, index // rest_dim * rest.size + pos, closed.size, axis), closed


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
        if not 0 <= require_integer("index", index) < dim:
            raise ValueError(f"basis index {index} outside [0, {dim})")
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
    the policy's tolerances. A projector flag needs the hermitian one.
    A flagged matrix must be finite: a NaN deviation compares as in bounds."""
    if True in (hermitian, unitary, projector) and not np.isfinite(m).all():
        raise ValueError("operator has non-finite entries")
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

    ``gather`` is g with ``lift[i, g[i]] == 1`` when ``local`` is a
    permutation, else None, and ``scatter`` its inverse. A lift onto leading
    factors contracts ``local`` whole: an operator known to act on fewer
    factors is lifted onto those.
    """

    __slots__ = ("local", "rest_dim", "perm", "gather", "scatter")

    def __init__(self, local: np.ndarray, rest_dim: int, perm: np.ndarray | None):
        self.local, self.rest_dim, self.perm = local, rest_dim, perm
        g = inv = _permutation_of(local)
        if g is not None:
            g = (g[:, None] * rest_dim + np.arange(rest_dim)).ravel()
            g = g if perm is None else np.argsort(perm)[g[perm]]
            inv = np.argsort(g)
            g.setflags(write=False)
            inv.setflags(write=False)
        self.gather, self.scatter = g, inv

    def dense(self) -> np.ndarray:
        m = np.kron(self.local, np.eye(self.rest_dim))
        return m if self.perm is None else m[np.ix_(self.perm, self.perm)]


class Operator:
    """Operator with tri-state structure flags.

    Each of ``hermitian``, ``unitary``, ``projector`` is True (asserted and
    validated at construction), False (asserted absent), or None (unchecked).
    A projector assertion implies the hermitian one.

    ``lift`` is set on an operator lifted by `embed_operator`; its dense
    ``matrix`` is then built on first access and kept. `left` and `right`
    multiply a block by the operator through the product its structure
    allows.
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

    @property
    def _dense(self) -> bool:
        """Whether `left` and `right` multiply by ``matrix`` (no permutation
        to gather, no factor on leading indices to contract)."""
        lift = self.lift
        return lift is None or (lift.gather is None and lift.perm is not None)

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim), hermitian=True, unitary=True, projector=True)

    @classmethod
    def from_diagonal(cls, values) -> "Operator":
        vals = np.asarray(values)
        herm = True if np.isrealobj(vals) or _max_abs(vals.imag) == 0.0 else None
        return cls(np.diag(vals.astype(complex)), hermitian=herm)

    def left(self, m: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """self @ m for a block m whose rows are the sorted basis indices
        `rows`: the product's rows, as a fresh array, and their basis indices."""
        if self._dense:
            if rows.size < self.dim:
                m = _placed_axis(m, rows, self.dim, 0)
            return self.matrix @ m, np.arange(self.dim)
        lift = self.lift
        if lift.gather is not None:
            # (u @ m)[i] is row g[i] of m, so row r of m moves to g^-1[r]
            to = lift.scatter[rows]
            order = np.argsort(to)
            return _gathered(m, order), to[order]
        n = len(lift.local)
        x, rows = _spread(m, rows, lift.rest_dim, n, 0)
        out = np.einsum("ab,by->ay", lift.local, x.reshape(n, -1))
        return out.reshape(rows.size, -1), rows

    def right(
        self, m: np.ndarray, cols: np.ndarray, *, adjoint: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """m @ self, or m @ self^dag with `adjoint`, for a block m whose
        columns are the sorted basis indices `cols`: the product's columns,
        as a fresh array, and their basis indices."""
        if self._dense:
            if cols.size < self.dim:
                m = _placed_axis(m, cols, self.dim, 1)
            return m @ (self.matrix.conj().T if adjoint else self.matrix), np.arange(self.dim)
        lift = self.lift
        if lift.gather is not None:
            # (m @ u)[:, j] is column g^-1[j] of m, (m @ u^dag)[:, j] column g[j]
            to = (lift.scatter if adjoint else lift.gather)[cols]
            order = np.argsort(to)
            return _gathered(m, order, axis=1), to[order]
        k = lift.local.conj().T if adjoint else lift.local
        x, cols = _spread(m, cols, lift.rest_dim, len(k), 1)
        out = np.einsum("xbj,bc->xcj", x.reshape(len(x), len(k), -1), k)
        return out.reshape(len(x), cols.size), cols

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

    The state keeps its declared ``support``, the sorted basis indices whose
    rows and columns may hold entries != 0, and its ``block``, the dense
    matrix on them; both are read-only. The d x d ``matrix`` is built on
    first access and kept, with +0.0 off the support. A matrix from outside
    has full support (its ``matrix`` is its block); it is copied and checked
    to be finite, hermitian and positive semidefinite, with its trace equal
    to the weight.
    """

    __slots__ = ("block", "support", "_matrix", "dim", "trace_weight")

    def __init__(
        self,
        matrix,
        trace_weight: float | None = None,
        *,
        policy: NumericPolicy = DEFAULT_POLICY,
    ):
        m = _as_square(matrix).copy()
        self._adopt(m, np.arange(len(m)), len(m), trace_weight, policy, hermitized=False)

    @classmethod
    def _hermitized(
        cls,
        m: np.ndarray,
        trace_weight: float,
        policy: NumericPolicy,
        support: np.ndarray | None = None,
        dim: int | None = None,
    ):
        """State whose block is a fresh array that no one else holds and that
        is hermitian by construction: 0.5 * (x + x^dag), or a state's block
        times a real number (its hermiticity was settled when that state was
        built). It is neither copied nor measured for hermiticity. `support` and `dim` place it in
        a larger space (all indices of its own when None)."""
        state = cls.__new__(cls)
        if support is None:
            support, dim = np.arange(len(m)), len(m)
        state._adopt(m, support, dim, trace_weight, policy, hermitized=True)
        return state

    def _adopt(
        self, m: np.ndarray, support: np.ndarray, dim: int, trace_weight, policy: NumericPolicy,
        *, hermitized: bool,
    ):
        if not np.isfinite(m).all():  # NaN would pass every comparison below
            raise ValueError("density matrix has non-finite entries")
        if not hermitized:
            dev = _max_abs(m - m.conj().T)
            if dev > policy.hermitian_tol:
                raise ValueError(f"density matrix not hermitian: deviation {dev:.3e}")
        # off the support the rows and columns are 0 and add only 0 eigenvalues
        lo = float(np.min(np.linalg.eigvalsh(m))) if m.size else 0.0
        if lo < -policy.psd_tol:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        tr = _trace(m, support, dim)
        if abs(tr.imag) > policy.trace_tol:
            raise ValueError(f"density matrix trace has imaginary part {tr.imag:.3e}")
        if trace_weight is None:
            trace_weight = tr.real
        elif abs(tr.real - trace_weight) > policy.trace_tol:
            raise ValueError(f"trace {tr.real!r} disagrees with trace_weight {trace_weight!r}")
        if not (trace_weight > 0.0 and math.isfinite(trace_weight)):
            raise ValueError(f"trace_weight must be positive and finite, got {trace_weight!r}")
        m.setflags(write=False)
        support.setflags(write=False)
        self.block = m
        self.support = support
        self._matrix = m if support.size == dim else None
        self.dim = int(dim)
        self.trace_weight = float(trace_weight)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = _placed(self.block, self.support, np.arange(self.dim))
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

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
        return DensityMatrix._hermitized(
            self.block * factor, self.trace_weight * factor, DEFAULT_POLICY, self.support, self.dim
        )

    def normalized(self) -> "DensityMatrix":
        return DensityMatrix._hermitized(
            self.block / self.trace_weight, 1.0, DEFAULT_POLICY, self.support, self.dim
        )

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
    * any other family is given as `Operator`s, and ``sector_of`` is None.

    `sandwich`, `pinch` and `traces` are the family's kernels; each takes a
    state's block and support. A partition restricts or masks indices, which
    gives the bits of the products with its 0/1 diagonals; any other family
    calls `Operator.left` and `Operator.right`.
    Projectors lifted from one family onto one space share one embedding,
    and the family is checked at the dimension of their local matrices.
    """

    __slots__ = ("_projectors", "labels", "dim", "sector_of", "completeness_deviation")

    def __init__(
        self,
        projectors: Sequence[Operator] | np.ndarray,
        labels: Sequence | None = None,
        *,
        policy: NumericPolicy = DEFAULT_POLICY,
    ):
        if isinstance(projectors, np.ndarray):
            projs = None
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

    def sandwich(
        self, m: np.ndarray, k: int, support: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """P_k @ m @ P_k for a block m on the sorted basis indices `support`:
        the product's block and support."""
        if self.sector_of is not None:
            keep = self.sector_of[support] == k
            return m[np.ix_(keep, keep)] + 0.0, support[keep]
        return _sandwiched(self.projectors[k], m, support, adjoint=False)

    def pinch(self, m: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_k P_k @ m @ P_k, added in projector order, for a block m on
        `support` as in `sandwich`: the sum's block and support. Each term is
        added on the union of the supports so far, +0.0 where it has none."""
        if self.sector_of is not None:
            sector = self.sector_of[support]
            return np.where(sector[:, None] == sector[None, :], m, 0.0) + 0.0, support
        out, union = np.zeros((0, 0), dtype=complex), support[:0]
        for p in self.projectors:
            term, at = _sandwiched(p, m, support, adjoint=False)
            if not np.array_equal(at, union):
                grown, _ = _distinct(np.concatenate((union, at)), self.dim)
                out, union = _placed(out, union, grown), grown
            out += _placed(term, at, union)
        return out, union

    def traces(self, m: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
        """Real parts of tr(P_k @ m), in projector order, for a block m on
        `support` as in `sandwich` (a d x d m when None). Each is the sum of a length-d diagonal
        (for a partition, with the other sectors' entries zeroed), which keeps
        the summation order of the d x d product's trace. A projector's
        product reaches every index of its input, so its rows hold `support`."""
        support = np.arange(self.dim) if support is None else support
        if self.sector_of is not None:
            diag = _padded_diagonal(m, support, self.dim)
            return np.array(
                [
                    float((np.where(self.sector_of == k, diag, 0.0) + 0.0).sum().real)
                    for k in range(len(self))
                ]
            )
        out, full = [], np.arange(self.dim)
        for p in self.projectors:
            block, cols = (_placed(m, support, full), full) if p._dense else (m, support)
            product, rows = p.left(block, cols)
            if rows.size > cols.size:  # a closure over a factor: keep the rows of cols
                product = product[_positions(cols, rows)]
            out.append(_trace(product, cols, self.dim).real)
        return np.array(out)

    def __repr__(self) -> str:
        return f"ProjectorSet(n={len(self)}, dim={self.dim})"


def _sandwiched(
    op: Operator, m: np.ndarray, support: np.ndarray, *, adjoint: bool
) -> tuple[np.ndarray, np.ndarray]:
    """op @ m @ op^dag with `adjoint`, else op @ m @ op, for a block m on the
    sorted basis indices `support`: the product's block and support, which
    `left` and `right` map alike. A dense product takes the d x d matrix."""
    if op._dense and support.size < op.dim:
        m, support = _placed(m, support, np.arange(op.dim)), np.arange(op.dim)
    product, _ = op.left(m, support)
    return op.right(product, support, adjoint=adjoint)


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


def _traced_out(
    m: np.ndarray, support: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Block and support of the trace over the axes not in `keep_axes` of the
    block m on `support`. Each traced axis, the last first, is summed term
    by term from +0.0 over its zero-padded length, as the traces of the
    reshaped d x d matrix sum it, so the bits are that matrix's."""
    traced = [a for a in range(len(dims)) if a not in keep_axes]
    digits = np.unravel_index(support, dims)
    kept_dims = [dims[a] for a in keep_axes]
    kept_of = np.ravel_multi_index([digits[a] for a in keep_axes], kept_dims)
    traced_dims = [dims[a] for a in traced]
    traced_of = (
        np.ravel_multi_index([digits[a] for a in traced], traced_dims)
        if traced
        else np.zeros_like(support)
    )
    kept, at = _distinct(kept_of, int(np.prod(kept_dims)))
    # terms[t, k1, k2] = m[(k1, t), (k2, t)]
    i, j = np.nonzero(traced_of[:, None] == traced_of[None, :])
    terms = np.zeros((*traced_dims, kept.size, kept.size), dtype=complex)
    terms.reshape(-1, kept.size, kept.size)[traced_of[i], at[i], at[j]] = m[i, j]
    for ax in reversed(range(len(traced))):
        total = np.zeros(terms.shape[:ax] + terms.shape[ax + 1:], dtype=complex)
        for t in range(terms.shape[ax]):
            total += terms[(slice(None),) * ax + (t,)]
        terms = total
    return terms, kept


def partial_trace(
    rho: DensityMatrix,
    space: CompositeSpace,
    keep: Iterable[str],
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DensityMatrix:
    """Reduced density matrix on the kept subsystems (original order preserved).

    The statistical weight is carried through unchanged. The result's
    support is the kept part of the indices of ``rho.support``.
    """
    keep_labels = set(keep)
    if not keep_labels:
        raise ValueError("keep must name at least one subsystem")
    keep_axes = sorted(space.axis_of(label) for label in keep_labels)
    if rho.dim != space.total_dim:
        raise ValueError(
            f"state dimension {rho.dim} does not match space dimension {space.total_dim}"
        )
    reduced, kept = _traced_out(rho.block, rho.support, space.dims, keep_axes)
    reduced = 0.5 * (reduced + reduced.conj().T)
    kept_dim = int(np.prod([space.dims[a] for a in keep_axes]))
    return DensityMatrix._hermitized(reduced, rho.trace_weight, policy, kept, kept_dim)


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
    """f(m) for a hermitian matrix m, or for each matrix of an (N, d, d)
    stack: f applied to the eigenvalues (of shape (d,) or (N, d))."""
    w, v = np.linalg.eigh(m)
    return (v * f(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def conjugate(
    state: DensityMatrix,
    u: Operator | np.ndarray,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DensityMatrix:
    """u rho u^dag for a unitary u, an `Operator` or a matrix.

    The products are ``u.right(u.left(rho), adjoint=True)`` on the state's
    block, and they declare the result's support. Trace drift is asserted
    against the preservation tolerance and then snapped away, so long
    conjugation chains keep their weight exactly.
    """
    if not isinstance(u, Operator):
        u = Operator(u)
    if u.dim != state.dim:
        raise ValueError(f"dimension mismatch: unitary {u.dim}, state {state.dim}")
    m, support = _sandwiched(u, state.block, state.support, adjoint=True)
    m = 0.5 * (m + m.conj().T)
    tr = _trace(m, support, state.dim).real
    if abs(tr - state.trace_weight) > policy.preservation_tol:
        raise NumericalConsistencyError(
            f"conjugation broke the trace: {tr!r} vs {state.trace_weight!r}"
        )
    m *= state.trace_weight / tr
    return DensityMatrix._hermitized(m, state.trace_weight, policy, support, state.dim)


def collapse(
    state: DensityMatrix,
    outcomes: ProjectorSet,
    k: int,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DensityMatrix:
    """Unit-trace post-measurement state P_k rho P_k / tr(P_k rho P_k) for
    outcome k of `outcomes` (the Lueders update), through
    `ProjectorSet.sandwich`; an outcome of probability 0 is rejected."""
    if outcomes.dim != state.dim:
        raise ValueError(f"family dimension {outcomes.dim} != state dimension {state.dim}")
    if not 0 <= k < len(outcomes):
        raise IndexError(f"outcome {k} outside a family of {len(outcomes)}")
    m, support = outcomes.sandwich(state.block, k, state.support)
    m = 0.5 * (m + m.conj().T)
    p = _trace(m, support, state.dim).real
    if not p > 0.0:
        raise ValueError(f"outcome {k} has probability {float(p)!r}; no state to collapse to")
    return DensityMatrix._hermitized(np.divide(m, p, out=m), 1.0, policy, support, state.dim)


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
