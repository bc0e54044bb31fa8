"""Linear algebra over prime fields F_q.

Matrices are dense numpy integer arrays with entries reduced mod q. This
module is the only one that branches on the field order. Decodability
(essential) and consistent solving (solve) run on one column-insertion
kernel for every prime q: column_words turns each column into one Python
int with row r at bit r (F_2, eliminated by XOR; every column packed by
one numpy call into 64-bit limbs) or a tuple of reduced Python ints
(q > 2); FMatrix.words is a code's columns so packed, once per code, and
strip subtracts a combination of packed columns from a packed target. _rref,
rank_generic, in_span and solve_consistent form an independent int64 RREF
reference (in_span on one RREF). FieldSpec alone
checks a field order: a prime at most MAX_ORDER, so every product of two
reduced entries fits in int64. The kernels take a bare q from a FieldSpec.
field_array alone checks an array a caller hands in: ragged rows or a wrong
shape raise DimensionError, a float, string or bool member FieldError. An
empty matrix has rank 0, and the span of an empty set of vectors is {0}.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from itertools import chain, compress, repeat
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


def is_real(x) -> bool:
    """True for Python and numpy ints and floats; False for bools (numpy's too), str and the rest."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_integer(x, lo: int, hi: int | None, what: str, error: type[ValueError]) -> int:
    """x as a Python int; raises error unless x is an integer (not a bool) in
    [lo, hi), hi None meaning unbounded: the one rule for every count and index."""
    if not (is_integer(x) and lo <= x and (hi is None or x < hi)):
        bound = f"must be >= {lo}" if hi is None else f"out of range: must be in [{lo}, {hi})"
        raise error(f"{what} {bound} and an integer, got {x!r}")
    return int(x)


def check_integers(values, lo: int, hi: int | None, what: str, error: type[ValueError]) -> None:
    """Raises error unless values is a nonempty collection of members check_integer
    accepts. An integer ndarray needs only its min and max checked. Any other
    collection (a bool, float or object array too) has one member of each type
    but int checked, then its smallest and largest (sorted compares plain ints
    faster than min and max do)."""
    if len(values) == 0:
        raise error(f"no {what} given")
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        extremes = values.min(), values.max()
    else:
        for x in _odd_members(values):
            check_integer(x, lo, hi, what, error)
        ordered = sorted(values)
        extremes = ordered[0], ordered[-1]
    for x in extremes:
        check_integer(x, lo, hi, what, error)


def check_probability(p, what: str, error: type[ValueError]) -> None:
    """Raises error unless p is a real number (not a bool) in [0, 1]; NaN is not."""
    if not is_real(p) or not 0.0 <= p <= 1.0:
        raise error(f"{what} must be a number in [0, 1], got {p!r}")


def _odd_members(values) -> list:
    """One member of each type but int among values, which is iterated twice."""
    return [next(x for x in values if type(x) is t) for t in set(map(type, values)) - {int}]


def field_array(x, q: int | None, shape: tuple, what: str) -> np.ndarray:
    """x as an array of the given shape (None: any length), reduced mod q into
    int64 when q is given. Raises DimensionError on ragged rows or another
    shape, and FieldError on a member numpy would cast (a float, string or
    bool). An integer ndarray is not scanned; other input has one member of
    each type but int checked, and any size of Python int passes."""
    try:
        a = np.asarray(x)
    except ValueError:  # numpy refuses ragged rows
        a = None
    if a is None or a.shape != shape and (
        a.ndim != len(shape) or any(n not in (None, d) for n, d in zip(shape, a.shape))
    ):
        got = "ragged rows" if a is None else a.shape
        raise DimensionError(f"{what} must have shape {str(shape).replace('None', 'any')}, got {got}")
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iu"):
        for v in _odd_members(list(chain.from_iterable(x)) if a.ndim == 2 else x):
            if not is_integer(v):
                raise FieldError(f"{what} must be integers, got {v!r}")
        if a.dtype.kind == "f":  # an empty list, or ints past int64 among others
            a = np.asarray(x, dtype=object)
    return a if q is None else (a % q).astype(np.int64, copy=False)


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
        # A numpy order is stored as a Python int, so to_json output stays serialisable.
        object.__setattr__(self, "q", check_integer(self.q, 2, None, "field order", FieldError))
        if self.q > MAX_ORDER:
            raise FieldError(f"field order must be <= {MAX_ORDER}, got {self.q}")
        if not is_prime(self.q):
            raise FieldError(f"field order must be a prime >= 2, got {self.q}")


@dataclass(frozen=True, eq=False)
class FMatrix:
    """A K x m matrix over a prime field; rows are broadcast transmissions."""

    entries: np.ndarray
    field: FieldSpec

    def __post_init__(self):
        a = field_array(self.entries, None, (None, None), "matrix entries")
        if a.size and (a.min() < 0 or a.max() >= self.field.q):
            raise FieldError(f"entries must lie in [0, {self.field.q})")
        a = a.astype(np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @classmethod
    def from_rows(cls, rows, q: int) -> "FMatrix":
        return cls(rows, FieldSpec(q))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, q: int) -> "FMatrix":
        n_rows = check_integer(n_rows, 0, None, "row count", DimensionError)
        n_cols = check_integer(n_cols, 0, None, "column count", DimensionError)
        field = FieldSpec(q)
        try:
            entries = np.zeros((n_rows, n_cols), dtype=np.int64)
        except (ValueError, MemoryError) as exc:
            raise DimensionError(f"no room for a {n_rows} x {n_cols} matrix: {exc}") from exc
        return cls(entries, field)

    @functools.cached_property
    def words(self) -> tuple:
        """The columns in column_words format, packed on first use; entries is read-only, so it never goes stale."""
        return tuple(column_words(self.entries, self.field.q))

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def mul_vector(self, b) -> np.ndarray:
        """Compute x = A b mod q, reducing each product before the sum so no term overflows.

        No program path calls it: decode_value strips on FMatrix.words."""
        q = self.field.q
        b = field_array(b, q, (self.n_cols,), "vector entries")
        return ((self.entries * b) % q).sum(axis=1) % q

    def prune_zero_rows(self) -> "FMatrix":
        keep = np.any(self.entries != 0, axis=1)
        return FMatrix(self.entries[keep], self.field)

    def equals(self, other: "FMatrix") -> bool:
        return self.field == other.field and np.array_equal(self.entries, other.entries)

    def to_json(self) -> dict:
        return {"q": self.field.q, "rows": self.entries.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "FMatrix":
        """Parse {"q": int, "rows": [[int, ...], ...]}; any non-integer value is rejected.

        "rows": [] carries no width and parses as 0 x 0."""
        if not (isinstance(obj, dict) and {"q", "rows"} <= obj.keys()):
            raise DimensionError('a matrix must be an object with keys "q" and "rows"')
        q, rows = obj["q"], obj["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise DimensionError("rows must be a list of lists")
        if not rows:
            return cls.zeros(0, 0, q)
        return cls.from_rows(rows, q)


def _rref(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q; returns (R, pivot column list)."""
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
    """Rank over F_q via Gaussian elimination on a plain integer array;
    raises FieldError on an order FieldSpec refuses or any non-integer entry."""
    q = FieldSpec(q).q
    return len(_rref(field_array(a, q, (None, None), "matrix entries"), q)[1])


def column_words(a: np.ndarray, q: int) -> list:
    """Each column of a, in the format essential and solve take: over F_2 one
    Python int with row r at bit r (any row count), over q > 2 a tuple of
    Python ints reduced mod q.

    Over F_2 one packbits call fills whole little-endian 64-bit limbs per
    column; each limb index is read with one tolist, and limb t is OR-ed in
    shifted by 64 t, so no Python loop runs per column."""
    if q == 2:
        bits = np.asarray(a).T & 1
        n_cols, k = bits.shape
        limbs = -(-k // 64) or 1
        buf = np.zeros((n_cols, 8 * limbs), dtype=np.uint8)
        buf[:, : -(-k // 8)] = np.packbits(bits, axis=1, bitorder="little")
        words = buf.view("<u8")
        out = words[:, 0].tolist()
        for t in range(1, limbs):
            out = [w | h << 64 * t for w, h in zip(out, words[:, t].tolist())]
        return out
    return [tuple(col) for col in (np.asarray(a, dtype=np.int64) % q).T.tolist()]


def _eliminate(words: Sequence, q: int) -> tuple[dict, int]:
    """Column insertion into a basis keyed by lead; returns (basis, essential-column mask).

    Each basis vector carries the input columns that sum to it: over F_2 a
    (word, column mask) pair keyed by the leading bit; over q > 2 one list,
    the k entries scaled to a lead of 1 and then one coefficient per column,
    keyed by its first nonzero row. A column that reduces to zero yields one
    null-space vector; these span the null space, so the union of their
    supports is the set of columns that occur in some dependency, and the
    essential columns are the rest.
    """
    basis: dict = {}
    dependent = 0
    n = len(words)
    if q == 2:
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
    else:
        for t, col in enumerate(words):
            k = len(col)
            v = [x % q for x in col] + [0] * n
            v[k + t] = 1
            for r in range(k):
                a = v[r]
                if not a:
                    continue
                hit = basis.get(r)
                if hit is None:
                    if a != 1:
                        inv = pow(a, -1, q)
                        v = [x * inv % q for x in v]
                    basis[r] = v
                    break
                v = [(x - a * y) % q for x, y in zip(v, hit)]
            else:
                for j in range(n):
                    if v[k + j]:
                        dependent |= 1 << j
    return basis, ((1 << n) - 1) & ~dependent


def essential(words: Sequence, q: int) -> int:
    """Bit t set iff column t (column_words format) lies outside the F_q span of the others."""
    return _eliminate(words, q)[1]


def strip(target, words: Sequence, values: Sequence, q: int):
    """target - sum of values[t] * words[t] over F_q, target and words in column_words format.

    values are Python or numpy integers of any sign and size; they are not
    checked. Over F_2 the words at odd values are XOR-ed into target, the
    loop in C; over q > 2 each row is one sum of Python-int products, exact
    for every order up to MAX_ORDER."""
    if q == 2:
        odd = map(operator.and_, values, repeat(1))
        return functools.reduce(operator.xor, compress(words, odd), target)
    if not words:
        return tuple(x % q for x in target)
    # Python ints: a sum of numpy int64 products could overflow.
    values = [operator.index(v) % q for v in values]
    return tuple((x - sum(map(operator.mul, values, row))) % q for x, row in zip(target, zip(*words)))


def solve(words: Sequence, target, q: int) -> tuple[list[int], int]:
    """Solve sum of y_t * column t = target over F_q, all in column_words format.

    Returns (y, essential(words, q)). y is zero off the basis columns, so it
    is solve_consistent's free-variables-zero solution, and every solution
    agrees with it on the essential columns. Raises InconsistentSystemError
    if target is outside the column span.
    """
    basis, ess = _eliminate(words, q)
    n = len(words)
    if q == 2:
        y = 0
        while target:
            hit = basis.get(target.bit_length())
            if hit is None:
                raise InconsistentSystemError("rhs is not in the column space")
            target ^= hit[0]
            y ^= hit[1]
        values = [(y >> t) & 1 for t in range(n)]
    else:
        # Each step subtracts a times a basis vector's coefficients: the tail ends as -y.
        k = len(target)
        v = [x % q for x in target] + [0] * n
        for r in range(k):
            a = v[r]
            if a:
                hit = basis.get(r)
                if hit is None:
                    raise InconsistentSystemError("rhs is not in the column space")
                v = [(x - a * y) % q for x, y in zip(v, hit)]
        values = [-x % q for x in v[k:]]
    return values, ess


def in_span(v, vectors, spec: FieldSpec) -> bool:
    """True iff v is an F_q-linear combination of the given vectors.

    The span of an empty collection is {0}. Raises FieldError on any
    non-integer entry.
    """
    v = field_array(v, spec.q, (None,), "vector entries")
    vecs = [field_array(c, spec.q, v.shape, "span members") for c in vectors]
    if not vecs:
        return not np.any(v)
    # A vector of the row space equals the sum of the RREF rows weighted by
    # its own pivot entries; each product is reduced before the sum.
    q = spec.q
    r, pivots = _rref(np.stack(vecs), q)
    return not np.any((v - (v[pivots, None] * r[: len(pivots)] % q).sum(axis=0)) % q)


def _determined(r: np.ndarray, pivots: list[int], n_cols: int) -> np.ndarray:
    """Mask of the pivots among the first n_cols RREF columns whose row is zero on every free column.

    Exactly these coordinates vanish in every null-space vector, so they
    take one value across all solutions.
    """
    out = np.zeros(n_cols, dtype=bool)
    free = np.ones(n_cols, dtype=bool)
    free[pivots] = False
    out[pivots] = ~r[: len(pivots), :n_cols][:, free].any(axis=1)
    return out


def essential_columns(a: np.ndarray, q: int) -> np.ndarray:
    """Boolean mask of columns not contained in the span of the other columns.

    Column j is outside the span of the rest iff every null-space vector of
    the matrix has a zero j-th coordinate; essential finds them. Raises
    FieldError on an order FieldSpec refuses or any non-integer entry. No
    program path calls it: decoding runs essential on FMatrix.words."""
    q = FieldSpec(q).q
    a = field_array(a, q, (None, None), "matrix entries")
    ess = essential(column_words(a, q), q)
    return np.array([(ess >> t) & 1 for t in range(a.shape[1])], dtype=bool)


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
    rhs = field_array(rhs, q, (mat.n_rows,), "rhs entries")
    aug = np.hstack([mat.entries, rhs[:, None]])
    r, pivots = _rref(aug, q)
    m = mat.n_cols
    if m in pivots:
        raise InconsistentSystemError("rhs is not in the column space")
    values = np.zeros(m, dtype=np.int64)
    for row_idx, col in enumerate(pivots):
        values[col] = r[row_idx, m]
    return LinearSolution(values=values, unique=_determined(r, pivots, m))
