"""BinGreedy: deterministic round-based encoder over F_2.

One loop in bingreedy runs the rounds. Each round sorts messages by
effective degree on the remaining active subgraph (sort_and_group), groups
them into degree bands by reports.dyadic_band, greedily assigns one of the
three nonzero 2-bit coding vectors per message (greedy_assign) so that two
transmissions per group satisfy at least a third of the group's effective
clients, writes the group's two rows and records the group and the round.
sort_and_group returns the effective clients by message, in greedy order,
and the groups; greedy_assign returns the vectors and the SAT clients.
Rounds repeat until every client is satisfied; reports.encoded stacks the
rows of all rounds.

All tie-breaks are fixed (smallest message index; vector preference
(1,0) > (0,1) > (1,1)) so identical instances yield identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FMatrix, check_integers
from .instances import InstanceError, PliableInstance, adjacency_matrix
from .reports import GroupRecord, RoundRecord, RunReport, dyadic_band, encoded

CODING_VECTORS = ((1, 0), (0, 1), (1, 1))


class EncoderStallError(RuntimeError):
    """A round satisfied zero clients; unreachable unless there is a bug."""


@dataclass(frozen=True)
class SortingResult:
    """Each message's effective clients, keyed in the greedy order, and dyadic groups.

    groups[s-1] holds the messages j whose effective degree d = |eff[j]|
    satisfies n_thr / 2^s < d <= n_thr / 2^(s-1), n_thr being |active|, or
    the instance's n when sort_and_group's use_original_n is set. Messages
    whose effective degree is 0 appear in neither eff nor any group.
    """

    eff: dict[int, frozenset[int]]
    groups: list[list[int]]


@dataclass
class GroupCode:
    """One coding vector per group message, in group order, and the group's SAT clients."""

    vectors: list[tuple[int, int]]
    sat: set[int]


def sort_and_group(
    instance: PliableInstance,
    active: set[int],
    use_original_n: bool = False,
) -> SortingResult:
    """Greedy max-remaining-degree ordering plus dyadic grouping.

    The bands are cut against |active|, or against the instance's original
    n when use_original_n is set (the fixed-threshold variant). active must
    be a nonempty set of clients in [0, n).
    """
    check_integers(active, 0, instance.n, "active client", InstanceError)
    n_thr = instance.n if use_original_n else len(active)
    adj = adjacency_matrix(instance)
    indptr, indices = instance.clients_by_message
    bounds = indptr.tolist()
    remaining = np.zeros(instance.n, dtype=bool)
    remaining[list(active)] = True
    acc = np.min_scalar_type(instance.n)
    csum = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(remaining[indices], out=csum[1:])
    deg = np.diff(csum[indptr])

    eff: dict[int, frozenset[int]] = {}
    # Removing j's remaining clients drops deg[j] to 0, so a chosen message
    # is never the argmax again while any degree is positive.
    while True:
        j = int(np.argmax(deg))
        if deg[j] <= 0:
            break
        col = indices[bounds[j] : bounds[j + 1]]
        clients = col[remaining[col]]
        eff[j] = frozenset(clients.tolist())
        remaining[clients] = False
        # No column sum exceeds n, so the narrowest type holding n is exact.
        deg -= adj[clients].sum(axis=0, dtype=acc)

    smax = max(1, n_thr.bit_length())
    groups: list[list[int]] = [[] for _ in range(smax)]
    for j, s in zip(eff, dyadic_band([len(c) for c in eff.values()], n_thr).tolist()):
        groups[s - 1].append(j)
    return SortingResult(eff, groups)


def _counts_ok(counts: list[int]) -> bool:
    # Satisfaction under the 2-row F_2 criterion, from the multiset of
    # nonzero coding vectors among a client's visited required messages:
    # some vector type must occur exactly once, and at most two distinct
    # types may occur (three distinct types span all of F_2^2).
    distinct = (counts[0] > 0) + (counts[1] > 0) + (counts[2] > 0)
    return distinct <= 2 and (counts[0] == 1 or counts[1] == 1 or counts[2] == 1)


# _counts_ok reads each count only as 0, 1 or >= 2, so a SAT client is one of
# 27 states c0 + 3*c1 + 9*c2 with counts capped at 2. _NEXT[t][state] adds one
# vector of type t; _OK[state] is _counts_ok of the state's counts.
_STATES = [(c0, c1, c2) for c2 in range(3) for c1 in range(3) for c0 in range(3)]
_OK = [_counts_ok(list(c)) for c in _STATES]
_NEXT = [
    [_STATES.index(tuple(min(x + (k == t), 2) for k, x in enumerate(c))) for c in _STATES]
    for t in range(3)
]


def greedy_assign(
    instance: PliableInstance,
    group: list[int],
    eff: dict[int, frozenset[int]],
) -> GroupCode:
    """Assign one coding vector per group message, keeping SAT clients maximal.

    Visits messages in order; for each, evaluates the three candidate
    vectors against the currently satisfied clients connected to the
    message, keeps the maximizer, drops newly broken clients from SAT,
    and promotes the message's effective clients to SAT. group must be a
    nonempty list of distinct messages in [0, m), each of them a key of eff.
    """
    check_integers(group, 0, instance.m, "group message", InstanceError)
    if len(set(group)) < len(group):
        raise ValueError(f"group repeats messages {sorted({j for j in group if group.count(j) > 1})}")
    missing = [j for j in group if j not in eff]
    if missing:
        raise ValueError(f"eff lacks the effective clients of group messages {missing}")
    indptr, indices = instance.clients_by_message
    bounds = indptr.tolist()
    sat: dict[int, int] = {}  # client -> state
    vectors: list[tuple[int, int]] = []
    for j in group:
        affected = [i for i in indices[bounds[j] : bounds[j + 1]].tolist() if i in sat]
        states = [sat[i] for i in affected]
        keeps = [sum(_OK[nxt[st]] for st in states) for nxt in _NEXT]
        best_t = keeps.index(max(keeps))  # first maximum: (1,0) > (0,1) > (1,1)
        nxt = _NEXT[best_t]
        for i, st in zip(affected, states):
            st = nxt[st]
            if _OK[st]:
                sat[i] = st
            else:
                del sat[i]
        first = nxt[0]
        for i in eff[j]:
            sat[i] = first
        vectors.append(CODING_VECTORS[best_t])
    return GroupCode(vectors=vectors, sat=set(sat))


def bingreedy(
    instance: PliableInstance,
    use_original_n: bool = False,
) -> tuple[FMatrix, RunReport]:
    """Run rounds until every client is satisfied; stack all rows over F_2.

    A round that satisfies no client raises EncoderStallError.
    use_original_n switches the grouping thresholds from the per-round
    |active| to the instance's original client count. The returned matrix
    keeps its all-zero rows; the report carries both row counts.
    """
    active = set(instance.non_vacuous_clients())
    all_rows: list[np.ndarray] = []
    round_records: list[RoundRecord] = []
    while active:
        sr = sort_and_group(instance, active, use_original_n)
        bands = [(s, group) for s, group in enumerate(sr.groups, start=1) if group]
        # Two rows per nonempty group, zero outside the group's columns.
        rows = np.zeros((2 * len(bands), instance.m), dtype=np.int64)
        groups: list[GroupRecord] = []
        satisfied: set[int] = set()
        for g, (s, group) in enumerate(bands):
            gc = greedy_assign(instance, group, sr.eff)
            rows[2 * g : 2 * g + 2, group] = np.array(gc.vectors).T
            # The round's effective-client sets are disjoint, so this is |SAT| + |UNSAT|.
            eff = sum(len(sr.eff[j]) for j in group)
            groups.append(GroupRecord(s, group, len(gc.sat), eff))
            satisfied |= gc.sat
        if not satisfied:
            raise EncoderStallError(
                f"round satisfied zero of {len(active)} active clients; "
                f"groups={[g.messages for g in groups]}"
            )
        round_records.append(RoundRecord(groups=groups, satisfied=len(satisfied)))
        all_rows.extend(rows)
        active -= satisfied
    return encoded(all_rows, instance.m, rounds=round_records)
