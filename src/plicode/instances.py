"""Bipartite problem instances: clients, requirement sets, generators.

Messages and clients are 0-indexed everywhere (API, files, reports). The
usual prose convention for these problems is 1-indexed; shift by one when
comparing against hand-worked examples.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class InstanceError(ValueError):
    """Malformed instance data."""


@dataclass(frozen=True)
class PliableInstance:
    """m messages and n clients; client i needs any one message in requirements[i].

    Side information is never stored: S_i = {0..m-1} \\ R_i. Clients with an
    empty requirement set are kept in the data but are vacuously satisfied
    and excluded from every active set.
    """

    m: int
    requirements: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.requirements)

    @functools.cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only n x m boolean matrix: entry (i, j) iff client i requires message j.

        Built on first access, then shared by every caller.
        """
        adj = np.zeros((self.n, self.m), dtype=bool)
        for i, r in enumerate(self.requirements):
            adj[i, list(r)] = True
        adj.setflags(write=False)
        return adj

    def side_info(self, i: int) -> frozenset[int]:
        return frozenset(range(self.m)) - self.requirements[i]

    def is_vacuous(self, i: int) -> bool:
        return not self.requirements[i]

    def non_vacuous_clients(self) -> list[int]:
        return [i for i in range(self.n) if self.requirements[i]]

    def initial_active(self) -> set[int]:
        """Active set at encoder start: every client with a nonempty requirement set."""
        return set(self.non_vacuous_clients())

    def to_json(self) -> dict:
        return {"m": self.m, "requirements": [sorted(r) for r in self.requirements]}

    @classmethod
    def from_json(cls, obj: dict) -> "PliableInstance":
        return build_instance(int(obj["m"]), obj["requirements"])

    def to_text(self) -> str:
        """Line format: "m n" header, then one line of required indices per client."""
        lines = [f"{self.m} {self.n}"]
        lines += [" ".join(str(j) for j in sorted(r)) for r in self.requirements]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PliableInstance":
        lines = text.split("\n")
        if not lines or not lines[0].strip():
            raise InstanceError("missing 'm n' header line")
        try:
            m, n = (int(t) for t in lines[0].split())
        except ValueError as exc:
            raise InstanceError(f"bad header line {lines[0]!r}") from exc
        body = lines[1 : n + 1]
        if len(body) < n:
            raise InstanceError(f"expected {n} client lines, got {len(body)}")
        reqs = [[int(t) for t in line.split()] for line in body]
        return build_instance(m, reqs)


def build_instance(m: int, requirements: Sequence[Iterable[int]]) -> PliableInstance:
    """Validate and build an instance; duplicate indices within a set collapse."""
    if m < 0:
        raise InstanceError(f"message count must be >= 0, got {m}")
    reqs = []
    for i, r in enumerate(requirements):
        rs = frozenset(int(j) for j in r)
        for j in rs:
            if not 0 <= j < m:
                raise InstanceError(f"client {i}: message index {j} out of range [0, {m})")
        reqs.append(rs)
    return PliableInstance(m=m, requirements=tuple(reqs))


def random_instance(n: int, m: int, p: float, seed) -> PliableInstance:
    """Each (client, message) edge present independently with probability p.

    seed may be an int or a sequence of ints; identical (n, m, p, seed)
    always yields the identical instance.
    """
    if n < 1 or m < 1:
        raise InstanceError(f"need n, m >= 1, got n={n}, m={m}")
    if not 0.0 <= p <= 1.0:
        raise InstanceError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    edges = rng.random((n, m)) < p
    return PliableInstance(
        m=m,
        requirements=tuple(frozenset(int(j) for j in np.nonzero(edges[i])[0]) for i in range(n)),
    )


def all_pairs_instance(m: int) -> PliableInstance:
    """One client per singleton {j} and one per pair {j1, j2}; n = m + C(m, 2)."""
    if m < 2:
        raise InstanceError(f"all-pairs family needs m >= 2, got {m}")
    reqs: list[frozenset[int]] = [frozenset({j}) for j in range(m)]
    for j1 in range(m):
        for j2 in range(j1 + 1, m):
            reqs.append(frozenset({j1, j2}))
    return PliableInstance(m=m, requirements=tuple(reqs))


def neighbors(instance: PliableInstance, j: int) -> frozenset[int]:
    """Clients requiring message j."""
    if not 0 <= j < instance.m:
        raise InstanceError(f"message index {j} out of range [0, {instance.m})")
    return frozenset(np.flatnonzero(instance.adjacency[:, j]).tolist())


def adjacency_matrix(instance: PliableInstance) -> np.ndarray:
    """The instance's cached, read-only n x m boolean adjacency."""
    return instance.adjacency


def instance_hash(instance: PliableInstance) -> str:
    """Stable digest of the canonical JSON form."""
    blob = json.dumps(instance.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
