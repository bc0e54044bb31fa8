"""Desk-scale exact computations: optimal code length, constrained minrank,
and the field-size threshold for the all-pairs instance family.

The two main searches are deliberately independent of each other:
optimal_code_length enumerates canonical coding matrices (reduced echelon,
non-pivot columns scaled to a first nonzero entry of 1; client verdicts
survive A -> G A D, so nothing is lost) column by column with
client-complete pruning (each client verdict is memoised on the options at
its required columns), while minrank_fitted enumerates low-dimensional
subspaces through canonical reduced-echelon bases, in _rref_chunks order,
and tests all clients against a batch of them per integer product: a batch
fills at most _BATCH_CELLS cells, and a level small enough for one batch is
built once and memoised. The length search judges clients on
fields.essential, which takes every prime q in one column format, so
nothing here branches on the field order; it caches the options' columns
only as far as a search has read them. Witnesses are always re-verified
through the decodability engine. MAX_NODES bounds the options the length
search tries (its .enumerated), checked as it runs, and the pairs
count_pairwise_independent enumerates, checked on entry. That bounds time,
not memory: a level with no code reads option ids up to MAX_NODES, so a
level with more options per column is refused on entry. MAX_SUBSPACES
bounds the subspaces of the levels minrank_fitted enters.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np

from .decoding import is_valid_code
from .fields import FieldSpec, FMatrix, check_integer, column_words, essential
from .instances import PliableInstance, all_pairs_instance


MAX_NODES = 10**7  # optimal_code_length's budget on options tried, over all levels
MAX_SUBSPACES = 10**6  # minrank_fitted's budget on subspaces, checked per level entered
_BATCH_CELLS = 2**18  # minrank_fitted's cells per batched product (see _batch_size)


class BudgetError(RuntimeError):
    """The requested search exceeds its enumeration budget."""


class OracleError(RuntimeError):
    """A search produced a witness that failed independent re-verification."""


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exact search; value is None when the cap was exhausted."""

    value: int | None
    witness: FMatrix | None
    enumerated: int
    elapsed_ms: float

    def to_json(self) -> dict:
        return {
            "K": self.value,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "enumerated": self.enumerated,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _options(q: int, k: int) -> Iterator[tuple[int, ...]]:
    """The columns of canonical k-row codes over F_q, by id: the zero vector,
    then block b = 0..k-1 of the vectors whose last nonzero row is b: e_b,
    then c = 1..q-1 at row b under each head (rows < b) whose first nonzero
    entry is 1, the heads in lexicographic order."""
    yield (0,) * k
    for b in range(k):
        tail = (0,) * (k - b - 1)
        yield (0,) * b + (1,) + tail
        for lead in reversed(range(b)):  # a later first nonzero row sorts first
            for rest in itertools.product(range(q), repeat=b - lead - 1):
                head = (0,) * lead + (1,) + rest
                for c in range(1, q):
                    yield head + (c,) + tail


@functools.lru_cache(maxsize=16)
def _columns(q: int, k: int) -> list[tuple]:
    """(option, its column_words word) for the ids of _options(q, k) read so
    far by any search, by id. _search_fixed_length only appends to it."""
    return []


def _search_fixed_length(
    instance: PliableInstance, q: int, k: int, counter: list[int]
) -> np.ndarray | None:
    """Backtracking over canonical codes; exhaustive thanks to client-complete pruning.

    Whether a client decodes depends only on the span relations among its
    required columns, which A -> G A D keeps for every invertible G and
    nonzero diagonal D. Every k x m code is G-equivalent to its reduced
    echelon form, and scaling a non-pivot column to a first nonzero entry of
    1 keeps both the pivots and every client's verdict. So some valid code
    exists iff a canonical one does: with r pivots placed, column j is the
    zero vector, a vector supported on rows < r with first nonzero entry 1,
    or (while r < k) the next pivot e_r.

    A client's satisfaction depends only on its own requirement columns, so
    it can be checked (and the branch pruned) as soon as its last required
    column is assigned. Column col holds option choice[col], and a
    client's verdict is a function of the option ids at its required
    columns alone, so each distinct tuple of ids is judged once per search,
    on plain ints, by fields.essential on the options in column_words format.

    counter[0] sums the options tried over every level searched so far;
    BudgetError is raised as soon as it passes MAX_NODES.
    """
    m = instance.m
    budget = MAX_NODES
    # below[r] options are supported on rows < r, and id below[r] is e_r. With r
    # pivots placed, the ids below limit[r] are open: those, and e_r while r < k.
    below = [1 + (q**r - 1) // (q - 1) for r in range(k + 1)]
    limit = [n + 1 for n in below[:k]] + [below[k]]
    if below[k] > budget:
        raise BudgetError(f"{below[k]} options per column at K = {k} pass budget {budget} on options tried")
    columns = _columns(q, k)
    # Per column, the key getters of the clients whose last required column
    # it is; itemgetter of one index returns it bare, so that key is wrapped.
    finish: list[list[Callable]] = [[] for _ in range(m)]
    for req in filter(None, instance.requirements):
        j = req[0]
        finish[req[-1]].append(itemgetter(*req) if len(req) > 1 else lambda c, j=j: (c[j],))
    verdicts: dict[tuple[int, ...], bool] = {}
    choice = [-1] * m  # -1: no option tried yet at this column
    pivots = [0] * (m + 1)  # pivots[col]: pivots placed in columns < col
    col = 0
    while col < m:
        r = pivots[col]
        t = choice[col] + 1
        if t == limit[r]:
            choice[col] = -1
            col -= 1
            if col < 0:
                return None
            continue
        choice[col] = t
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetError(f"length search passed budget {budget} on options tried, at K = {k}")
        if t == len(columns):
            # First read past the cache (ids go in order): double it from words
            # built in full beforehand, so it stays a prefix.
            new = list(itertools.islice(_options(q, k), t, 2 * t + 1))
            columns += zip(new, column_words(np.array(new, dtype=np.int64).T, q))
        for get in finish[col]:
            key = get(choice)
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = essential([columns[t][1] for t in key], q) != 0
            if not ok:
                break
        else:
            pivots[col + 1] = r + (t == below[r])
            col += 1
    return np.array([columns[t][0] for t in choice], dtype=np.int64).T


def optimal_code_length(instance: PliableInstance, q: int, max_K: int) -> SearchResult:
    """Smallest K <= max_K admitting a valid K x m code over F_q.

    Raises BudgetError once the search, over all levels so far, has tried
    more than MAX_NODES options without having found a code, so the budget
    bounds .enumerated itself, or on entering a level with more than
    MAX_NODES options per column. value is None when no code of length
    <= max_K exists.
    """
    check_integer(max_K, 0, None, "max_K", ValueError)
    spec = FieldSpec(q)
    q = spec.q  # a Python int, so fields.essential's arithmetic stays exact
    t0 = time.perf_counter()
    if not instance.non_vacuous_clients():
        return SearchResult(0, FMatrix.zeros(0, instance.m, q), 0, _ms(t0))
    counter = [0]
    for k in range(1, max_K + 1):
        found = _search_fixed_length(instance, q, k, counter)
        if found is not None:
            witness = FMatrix(found, spec)
            if not is_valid_code(witness, instance):
                raise OracleError("length search returned an invalid witness")
            return SearchResult(k, witness, counter[0], _ms(t0))
    return SearchResult(None, None, counter[0], _ms(t0))


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^m."""
    if r < 0 or r > m:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _digits(values: np.ndarray, q: int, width: int) -> np.ndarray:
    """Base-q digits of values, most significant first: len(values) x width.
    _digits(np.arange(q**width), q, width) lists F_q^width in
    itertools.product order."""
    return values[:, None] // q ** np.arange(width - 1, -1, -1) % q


def _rref_chunks(m: int, r: int, q: int, size: int):
    """Yield every r-dimensional subspace of F_q^m once, as B x r x m arrays
    (B <= size) of canonical reduced-echelon bases, in lexicographic order:
    by pivot columns, then by the entries at the free positions (row by
    row, the first most significant). A chunk never spans two pivot tuples."""
    for pivots in itertools.combinations(range(m), r):
        free = np.array(
            [(row, col) for row in range(r) for col in range(pivots[row] + 1, m) if col not in pivots],
            dtype=np.intp,
        ).reshape(-1, 2)
        total = q ** len(free)
        for start in range(0, total, size):
            index = np.arange(start, min(start + size, total))
            chunk = np.zeros((len(index), r, m), dtype=np.int64)
            chunk[:, np.arange(r), pivots] = 1
            chunk[:, free[:, 0], free[:, 1]] = _digits(index, q, len(free))
            yield chunk


def _batch_size(m: int, r: int, q: int, clients: int) -> int:
    """Bases per batch whose spans' supports and client counts, (q^r - 1) x
    (m + clients) cells per basis, fill at most _BATCH_CELLS: possibly 0."""
    return _BATCH_CELLS // ((q**r - 1) * (m + clients))


def _supports(bases: np.ndarray, q: int) -> np.ndarray:
    """B x (q^r - 1) x m: the 0/1 supports of the nonzero vectors spanned by
    each of the B r x m bases."""
    r = bases.shape[1]
    coeffs = _digits(np.arange(1, q**r), q, r)
    return (coeffs @ bases % q != 0).astype(np.uint8)


@functools.lru_cache(maxsize=16)
def _level(m: int, r: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """A whole level's bases and their spans' supports, read-only; only
    levels of at most one batch are memoised, so an entry holds at most
    _BATCH_CELLS support cells."""
    bases = np.concatenate(list(_rref_chunks(m, r, q, gaussian_binomial(m, r, q))))
    support = _supports(bases, q)
    bases.setflags(write=False)
    support.setflags(write=False)
    return bases, support


def minrank_fitted(instance: PliableInstance, q: int, max_r: int) -> SearchResult:
    """Smallest r <= max_r such that some r-dimensional subspace of F_q^m
    contains, for every non-vacuous client, a vector with exactly one 1
    inside R_i and zeros on the rest of R_i (coordinates outside R_i are
    unconstrained). Raises BudgetError on entering a level r whose
    subspaces, with those of the levels before it, pass MAX_SUBSPACES, or
    one of whose spans alone fills more than _BATCH_CELLS cells.

    Subspaces are tested in _rref_chunks order, a batch of bases per
    integer product. A batch holds every nonzero vector of each span, so a
    vector with exactly one nonzero entry inside R_i has a multiple whose
    entry there is 1, and the nonzero count alone decides.
    """
    check_integer(max_r, 0, None, "max_r", ValueError)
    spec = FieldSpec(q)
    q = spec.q  # a Python int, so the subspace count below cannot wrap
    t0 = time.perf_counter()
    nonvac = instance.non_vacuous_clients()
    if not nonvac:
        return SearchResult(0, FMatrix.zeros(0, instance.m, q), 0, _ms(t0))
    m = instance.m
    # m x clients 0/1 incidence: column c marks client c's required messages.
    # The budget holds for every level entered. Level 1 comes first with at
    # least 2^m - 1 subspaces, so m, the largest uint8 count, stays below 20;
    # a level entered holds at most MAX_SUBSPACES, so _digits' powers fit int64.
    incidence = instance.adjacency[nonvac].T.astype(np.uint8)
    count = 0
    for r in range(1, max_r + 1):
        level = gaussian_binomial(m, r, q)
        if count + level > MAX_SUBSPACES:
            raise BudgetError(f"{count + level} subspaces of dimension 1..{r} exceed budget {MAX_SUBSPACES}")
        size = _batch_size(m, r, q, len(nonvac))
        if not size:
            raise BudgetError(f"one span of dimension {r} over F_{q} passes the batch budget {_BATCH_CELLS}")
        if level <= size:
            batches = [_level(m, r, q)]
        else:
            batches = ((b, _supports(b, q)) for b in _rref_chunks(m, r, q, size))
        for bases, support in batches:
            fits = (support @ incidence == 1).any(axis=1).all(axis=1)
            hit = int(fits.argmax())
            if fits[hit]:
                witness = FMatrix(bases[hit], spec)
                if not is_valid_code(witness, instance):
                    raise OracleError("minrank search returned an invalid witness")
                return SearchResult(r, witness, count + hit + 1, _ms(t0))
            count += len(bases)
    return SearchResult(None, None, count, _ms(t0))


DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13)


def min_field_for_length2(m: int) -> int | None:
    """Smallest prime q in DEFAULT_PRIMES admitting a length-2 code for the
    all-pairs instance on m messages; None if none of them works."""
    check_integer(m, 3, None, "m", ValueError)
    instance = all_pairs_instance(m)
    for q in DEFAULT_PRIMES:
        res = optimal_code_length(instance, q, max_K=2)
        if res.value == 2:
            return q
    return None


def count_pairwise_independent(q: int) -> int:
    """Maximum number of pairwise linearly independent nonzero vectors in F_q^2.

    Counted by exhaustive enumeration of direction classes: one
    representative per class, first nonzero coordinate normalized to 1.
    Raises BudgetError when the q^2 pairs pass MAX_NODES."""
    q = FieldSpec(q).q
    if q * q > MAX_NODES:
        raise BudgetError(f"{q * q} pairs over F_{q} pass budget {MAX_NODES}")
    directions = set()
    for x, y in itertools.product(range(q), repeat=2):
        if x or y:
            inv = pow(x or y, -1, q)
            directions.add((x * inv % q, y * inv % q))
    return len(directions)


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0
