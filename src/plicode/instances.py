"""Bipartite problem instances, stored as their client-message adjacency.

Messages and clients are 0-indexed everywhere (API, files, reports). The
usual prose convention for these problems is 1-indexed; shift by one when
comparing against hand-worked examples.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fields import check_integer, check_integers, check_probability


class InstanceError(ValueError):
    """Malformed instance data."""


@dataclass(frozen=True, eq=False)
class PliableInstance:
    """m messages and n clients; client i needs any one message in R_i.

    The only stored field is the n x m boolean adjacency, (i, j) set iff j
    is in R_i. It must be a 2-D bool array; it is never cast, is copied only
    if it is a view, and is made read-only. Three views are derived from it
    once each, on first use: `clients_by_message` (message-major, for the
    encoders), `messages_by_client` (client-major CSR, for the decoding
    sweep and the randomized encoder's bins) and `requirements[i]` (R_i as
    an increasing tuple of Python ints, for sweeps over every client).
    Readers of one client read its adjacency row instead.
    S_i = {0..m-1} \\ R_i is never stored.
    Clients with an empty R_i are kept but vacuously satisfied and excluded
    from every active set. Equality compares shape and contents; instances
    are not hashable.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        adj = self.adjacency
        if not (isinstance(adj, np.ndarray) and adj.dtype == bool and adj.ndim == 2):
            got = f"{adj.dtype} {adj.shape}" if isinstance(adj, np.ndarray) else type(adj).__name__
            raise InstanceError(f"adjacency must be a 2-D bool array, got {got}")
        if adj.base is not None:  # a view could still be written through its base
            object.__setattr__(self, "adjacency", adj := adj.copy())
        adj.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, PliableInstance) and np.array_equal(self.adjacency, other.adjacency)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def m(self) -> int:
        return self.adjacency.shape[1]

    @functools.cached_property
    def clients_by_message(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSC view (indptr, indices): the clients requiring message j
        are indices[indptr[j]:indptr[j + 1]], in increasing order.

        indices has the smallest unsigned dtype that holds n - 1 (2 bytes per
        edge up to n = 65536).
        """
        return _compressed_rows(self.adjacency.T)

    @functools.cached_property
    def messages_by_client(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR view (indptr, indices): R_i is
        indices[indptr[i]:indptr[i + 1]], in increasing order.

        indices has the smallest unsigned dtype that holds m - 1.
        """
        return _compressed_rows(self.adjacency)

    @functools.cached_property
    def requirements(self) -> tuple[tuple[int, ...], ...]:
        """Per client, R_i as a tuple of Python ints in increasing order, cut
        once from the CSR view: the form every sweep over all clients reads."""
        indptr, indices = self.messages_by_client
        bounds, cols = indptr.tolist(), indices.tolist()
        return tuple(tuple(cols[a:b]) for a, b in zip(bounds, bounds[1:]))

    def client_row(self, i: int) -> np.ndarray:
        """Client i's adjacency row; raises InstanceError unless i is an integer in [0, n)."""
        return self.adjacency[check_integer(i, 0, self.n, "client index", InstanceError)]

    def side_info(self, i: int) -> frozenset[int]:
        """S_i = {0..m-1} \\ R_i; raises InstanceError unless i is an integer in [0, n)."""
        return frozenset(np.flatnonzero(~self.client_row(i)).tolist())

    def non_vacuous_clients(self) -> list[int]:
        """The clients with a nonempty R_i, increasing: each encoder's active set at start."""
        return np.flatnonzero(self.adjacency.any(axis=1)).tolist()

    def to_json(self) -> dict:
        return {"m": self.m, "requirements": [list(r) for r in self.requirements]}

    @classmethod
    def from_json(cls, obj: dict) -> "PliableInstance":
        """Parse {"m": int, "requirements": [[int, ...], ...]}; a duplicate index
        within a client's list collapses ([1, 1] is R = {1})."""
        if not (isinstance(obj, dict) and {"m", "requirements"} <= obj.keys()):
            raise InstanceError('an instance must be an object with keys "m" and "requirements"')
        reqs = obj["requirements"]
        if not isinstance(reqs, list) or not all(isinstance(r, list) for r in reqs):
            raise InstanceError("requirements must be a list of lists")
        return build_instance(obj["m"], reqs)

    def to_text(self) -> str:
        """Line format: "m n" header, then one line of required indices per client."""
        lines = [f"{self.m} {self.n}"]
        lines += [" ".join(map(str, r)) for r in self.requirements]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PliableInstance":
        """Parse the line format; only blank lines may follow the n-th client line,
        and a duplicate index within a line collapses ("1 1" is R = {1})."""
        # The newline ending the last line starts no line of its own.
        lines = text.removesuffix("\n").split("\n")
        if not lines or not lines[0].strip():
            raise InstanceError("missing 'm n' header line")
        try:
            m, n = (int(t) for t in lines[0].split())
        except ValueError as exc:
            raise InstanceError(f"bad header line {lines[0]!r}") from exc
        check_integer(n, 0, None, "client count", InstanceError)
        body = lines[1 : n + 1]
        if len(body) < n:
            raise InstanceError(f"expected {n} client lines, got {len(body)}")
        extra = [k for k, line in enumerate(lines[n + 1 :], start=n + 2) if line.strip()]
        if extra:
            raise InstanceError(f"line {extra[0]}: content after the {n} client lines")
        try:
            reqs = [[int(t) for t in line.split()] for line in body]
        except ValueError as exc:
            raise InstanceError(f"client lines must hold integer indices: {exc}") from exc
        return build_instance(m, reqs)


def _compressed_rows(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices), read-only, of a 2-D bool array: the set columns of
    row r are indices[indptr[r]:indptr[r + 1]], in increasing order, stored in
    the smallest unsigned dtype that holds the largest column index."""
    rows, cols = adj.shape
    flat = np.flatnonzero(adj)
    indptr = np.searchsorted(flat, np.arange(rows + 1) * cols)
    indices = (flat % cols).astype(np.min_scalar_type(max(cols - 1, 0)))
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


def build_instance(m: int, requirements: Sequence[Iterable[int]]) -> PliableInstance:
    """Validate and build an instance; duplicate indices within a set collapse.

    m and every index must be integers (bool, float and str are rejected,
    never truncated).
    """
    m = check_integer(m, 0, None, "message count", InstanceError)
    rows = [list(r) for r in requirements]
    try:
        adj = np.zeros((len(rows), m), dtype=bool)
    except (ValueError, MemoryError) as exc:
        raise InstanceError(f"no room for {len(rows)} clients x {m} messages: {exc}") from exc
    for i, r in enumerate(rows):
        if r:
            check_integers(r, 0, m, f"client {i}: message index", InstanceError)
        adj[i, r] = True
    return PliableInstance(adj)


def seed_entries(seed, error: type[ValueError]) -> list[int]:
    """The entries of a seed (an int or a sequence of ints) as Python ints.

    A bool, float or negative entry raises error; no entry is truncated.
    An int seeds a generator exactly as the one-entry list does.
    """
    entries = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    return [check_integer(x, 0, None, "seed entries", error) for x in entries]


def random_instance(n: int, m: int, p: float, seed) -> PliableInstance:
    """Each (client, message) edge present independently with probability p.

    n and m must be integers and p a real number (a bool is neither); seed
    may be an int or a sequence of ints, each >= 0. Identical (n, m, p, seed)
    always yields the identical instance.
    """
    n = check_integer(n, 1, None, "need integers n, m >= 1: n", InstanceError)
    m = check_integer(m, 1, None, "need integers n, m >= 1: m", InstanceError)
    check_probability(p, "edge probability", InstanceError)
    rng = np.random.default_rng(seed_entries(seed, InstanceError))
    # Row blocks of about 2^16 draws, taken in order from one generator, give
    # the bits of a single rng.random((n, m)) < p without its n x m floats.
    adj = np.empty((n, m), dtype=bool)
    step = max(1, (1 << 16) // m)
    for a in range(0, n, step):
        block = adj[a : a + step]
        np.less(rng.random(block.shape), p, out=block)
    return PliableInstance(adj)


def all_pairs_instance(m: int) -> PliableInstance:
    """One client per singleton {j} and one per pair {j1, j2}; n = m + C(m, 2).

    The pairs follow the singletons in lexicographic order, as
    itertools.combinations lists them."""
    m = check_integer(m, 2, None, "all-pairs m", InstanceError)
    first, second = np.triu_indices(m, 1)
    pairs = np.arange(m, m + len(first))
    adj = np.zeros((m + len(first), m), dtype=bool)
    adj[:m] = np.eye(m, dtype=bool)
    adj[pairs, first] = True
    adj[pairs, second] = True
    return PliableInstance(adj)


def adjacency_matrix(instance: PliableInstance) -> np.ndarray:
    """The instance's read-only n x m boolean adjacency. No program path calls
    it (they read instance.adjacency); it stays because perfbench's tracer
    binds it by name."""
    return instance.adjacency


def instance_hash(instance: PliableInstance) -> str:
    """sha256 of the shape and the bit-packed adjacency (packbits alone maps
    the all-zero instances of shapes (1, 8) and (8, 1) to the same byte)."""
    digest = hashlib.sha256(b"%d %d\n" % (instance.n, instance.m))
    digest.update(np.packbits(instance.adjacency).tobytes())
    return digest.hexdigest()
