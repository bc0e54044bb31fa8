"""Linear algebra over prime fields F_q.

Matrices are dense numpy integer arrays with entries reduced mod q. Over
F_2, rank and decodability run on one bit-packed kernel: each column is a
Python int with row r at bit r, eliminated by XOR. Over q > 2 they run on
an int64 RREF; field orders are capped at MAX_ORDER so that every product
of two reduced entries fits in int64.
Degenerate-shape conventions: an empty matrix has rank 0, and the span of
an empty set of vectors is {0}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Largest accepted field order: reduced entries stay below 2^31, so any
# product of two of them fits in int64.
MAX_ORDER = 2**31 - 1


class FieldError(ValueError):
    """Invalid field order or field-element operation."""


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class InconsistentSystemError(ValueError):
    """The linear system has no solution.

    Transmission systems built from genuine encoded values are always
    consistent, so hitting this signals a bug in the caller.
    """


def is_integer(x) -> bool:
    """True for Python and numpy integers; False for bool, float, str and the rest."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_order(q: int) -> None:
    if q > MAX_ORDER:
        raise FieldError(f"field order must be <= {MAX_ORDER}, got {q}")


def is_prime(n: int) -> bool:
    """Trial-division primality test: at most ~46k divisions for any order up to MAX_ORDER."""
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_q, validated at construction."""

    q: int

    def __post_init__(self):
        _check_order(self.q)
        if not is_prime(self.q):
            raise FieldError(f"field order must be a prime >= 2, got {self.q}")

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise FieldError("no inverse for zero")
        return pow(a, -1, self.q)


@dataclass(frozen=True, eq=False)
class FMatrix:
    """A K x m matrix over a prime field; rows are broadcast transmissions."""

    entries: np.ndarray
    field: FieldSpec

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.int64)
        if a.ndim != 2:
            raise DimensionError(f"matrix entries must be 2-D, got ndim={a.ndim}")
        if a.size and (a.min() < 0 or a.max() >= self.field.q):
            raise FieldError(f"entries must lie in [0, {self.field.q})")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @classmethod
    def from_rows(cls, rows, q: int) -> "FMatrix":
        return cls(np.asarray(rows, dtype=np.int64), FieldSpec(q))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, q: int) -> "FMatrix":
        return cls(np.zeros((n_rows, n_cols), dtype=np.int64), FieldSpec(q))

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def mul_vector(self, b) -> np.ndarray:
        """Compute x = A b mod q, reducing each product before the sum so no term overflows."""
        q = self.field.q
        b = np.asarray(b, dtype=np.int64)
        if b.shape != (self.n_cols,):
            raise DimensionError(f"vector length {b.shape} incompatible with {self.n_cols} columns")
        return ((self.entries * (b % q)) % q).sum(axis=1) % q

    def prune_zero_rows(self) -> "FMatrix":
        keep = np.any(self.entries != 0, axis=1)
        return FMatrix(self.entries[keep], self.field)

    def equals(self, other: "FMatrix") -> bool:
        return self.field == other.field and np.array_equal(self.entries, other.entries)

    def to_json(self) -> dict:
        return {"q": self.field.q, "rows": self.entries.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "FMatrix":
        """Parse {"q": int, "rows": [[int, ...], ...]}; any non-integer value is rejected."""
        q, rows = obj["q"], obj["rows"]
        if not is_integer(q):
            raise FieldError(f"field order must be an integer, got {q!r}")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise DimensionError("rows must be a list of lists")
        bad = [x for r in rows for x in r if not is_integer(x)]
        if bad:
            raise FieldError(f"matrix entries must be integers, got {bad[0]!r}")
        if len({len(r) for r in rows}) > 1:
            raise DimensionError("rows must all have the same length")
        return cls.from_rows(rows, q)


def _rref(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q; returns (R, pivot column list)."""
    _check_order(q)
    r = np.asarray(a, dtype=np.int64).copy() % q
    n_rows, n_cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        p = int(nz[0]) + row
        if p != row:
            r[[row, p]] = r[[p, row]]
        if q > 2 and r[row, col] != 1:
            r[row] = (r[row] * pow(int(r[row, col]), -1, q)) % q
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, col], r[row])) % q
        pivots.append(col)
        row += 1
    return r, pivots


def rank_generic(a: np.ndarray, q: int) -> int:
    """Rank over F_q via Gaussian elimination on a plain array."""
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return 0
    return len(_rref(a, q)[1])


def gf2_column_words(a: np.ndarray) -> list[int]:
    """Each column of a 0/1 matrix as one Python int, row r at bit r; any row count."""
    packed = np.packbits(np.asarray(a).T & 1, axis=1, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in packed]


def _gf2_eliminate(words: Sequence[int]) -> tuple[int, int]:
    """XOR-basis insertion of packed F_2 columns; returns (rank, dependent-column mask).

    Each basis vector, keyed by its leading bit, carries the mask of input
    columns that sum to it. A column that reduces to zero yields one null-space
    vector (its mask); these span the null space, so their OR is the set of
    columns that occur in some dependency.
    """
    basis: dict[int, tuple[int, int]] = {}
    dependent = 0
    for t, w in enumerate(words):
        combo = 1 << t
        while w:
            lead = w.bit_length()
            hit = basis.get(lead)
            if hit is None:
                basis[lead] = (w, combo)
                break
            w ^= hit[0]
            combo ^= hit[1]
        else:
            dependent |= combo
    return len(basis), dependent


def gf2_essential(words: Sequence[int]) -> int:
    """Bit t set iff packed column t lies outside the F_2 span of the others."""
    return ((1 << len(words)) - 1) & ~_gf2_eliminate(words)[1]


def rank(mat: FMatrix) -> int:
    """Rank of a matrix over its field; F_2 takes the bit-packed kernel."""
    if mat.field.q == 2:
        return _gf2_eliminate(gf2_column_words(mat.entries))[0]
    return rank_generic(mat.entries, mat.field.q)


def in_span(v, vectors, spec: FieldSpec) -> bool:
    """True iff v is an F_q-linear combination of the given vectors.

    The span of an empty collection is {0}.
    """
    v = np.asarray(v, dtype=np.int64) % spec.q
    vecs = [np.asarray(c, dtype=np.int64) % spec.q for c in vectors]
    for c in vecs:
        if c.shape != v.shape:
            raise DimensionError("span members and test vector must share the same length")
    if not vecs:
        return not np.any(v)
    base = np.stack(vecs)
    r0 = rank_generic(base, spec.q)
    r1 = rank_generic(np.vstack([base, v[None, :]]), spec.q)
    return r1 == r0


def _determined(r: np.ndarray, pivots: list[int], n_cols: int) -> np.ndarray:
    """Mask of the pivots among the first n_cols RREF columns whose row is zero on every free column.

    Exactly these coordinates vanish in every null-space vector, so they
    take one value across all solutions.
    """
    out = np.zeros(n_cols, dtype=bool)
    pivot_set = set(pivots)
    free = np.array([c for c in range(n_cols) if c not in pivot_set], dtype=np.int64)
    for row_idx, col in enumerate(pivots):
        out[col] = free.size == 0 or not np.any(r[row_idx, free])
    return out


def essential_columns(a: np.ndarray, q: int) -> np.ndarray:
    """Boolean mask of columns not contained in the span of the other columns.

    Column j is outside the span of the rest iff every null-space vector of
    the matrix has a zero j-th coordinate. Over F_2 the bit-packed kernel
    finds this directly; otherwise it is read off the RREF: j must be a
    pivot column whose pivot row is zero on all free columns.
    """
    if q == 2:
        words = gf2_column_words(a)
        ess = gf2_essential(words)
        return np.array([(ess >> t) & 1 for t in range(len(words))], dtype=bool)
    r, pivots = _rref(a, q)
    return _determined(r, pivots, r.shape[1])


@dataclass(frozen=True)
class LinearSolution:
    """A particular solution plus per-coordinate uniqueness flags."""

    values: np.ndarray
    unique: np.ndarray


def solve_consistent(mat: FMatrix, rhs) -> LinearSolution:
    """Solve M y = rhs over F_q, assuming consistency.

    Returns one solution (free variables set to 0) and, per coordinate, a
    flag that is True iff the coordinate takes the same value across all
    solutions. Raises InconsistentSystemError if no solution exists.
    """
    q = mat.field.q
    rhs = np.asarray(rhs, dtype=np.int64) % q
    if rhs.shape != (mat.n_rows,):
        raise DimensionError(f"rhs length {rhs.shape} incompatible with {mat.n_rows} rows")
    aug = np.hstack([mat.entries, rhs[:, None]])
    r, pivots = _rref(aug, q)
    m = mat.n_cols
    if m in pivots:
        raise InconsistentSystemError("rhs is not in the column space")
    values = np.zeros(m, dtype=np.int64)
    for row_idx, col in enumerate(pivots):
        values[col] = r[row_idx, m]
    return LinearSolution(values=values, unique=_determined(r, pivots, m))
