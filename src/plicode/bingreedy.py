"""BinGreedy: deterministic round-based encoder over F_2.

One loop in bingreedy runs the rounds. Each round sorts messages by
effective degree on the remaining active subgraph (sort_and_group), groups
them into degree bands by reports.dyadic_band, greedily assigns one of the
three nonzero 2-bit coding vectors per message (greedy_assign) so that two
transmissions per group satisfy at least a third of the group's effective
clients, writes the group's two rows and records the group and the round.
sort_and_group returns the effective clients by message, in greedy order,
each as a read-only increasing index array, and the groups; greedy_assign
returns the vectors and the SAT clients as an increasing index array.
greedy_assign holds every client's SAT state in one int8 array (27,
_ABSENT, for a client not in SAT), and bingreedy holds the active clients
as one bool mask that each group's SAT clients clear. Rounds repeat until
every client is satisfied; reports.encoded stacks the rows of all rounds.

All tie-breaks are fixed (smallest message index; vector preference
(1,0) > (0,1) > (1,1)) so identical instances yield identical matrices.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .fields import FMatrix, check_integers
from .instances import InstanceError, PliableInstance
from .reports import GroupRecord, RoundRecord, RunReport, dyadic_band, encoded

CODING_VECTORS = ((1, 0), (0, 1), (1, 1))


class EncoderStallError(RuntimeError):
    """A round satisfied zero clients; unreachable unless there is a bug."""


@dataclass(frozen=True)
class SortingResult:
    """Each message's effective clients, keyed in the greedy order, and dyadic groups.

    eff[j] is a read-only index array of the clients, in increasing order.
    groups[s-1] holds the messages j whose effective degree d = |eff[j]|
    satisfies n_thr / 2^s < d <= n_thr / 2^(s-1), n_thr being |active|, or
    the instance's n when sort_and_group's use_original_n is set. Messages
    whose effective degree is 0 appear in neither eff nor any group.
    """

    eff: dict[int, np.ndarray]
    groups: list[list[int]]


@dataclass
class GroupCode:
    """One coding vector per group message, in group order, and the group's
    SAT clients as an increasing index array."""

    vectors: list[tuple[int, int]]
    sat: np.ndarray


def sort_and_group(
    instance: PliableInstance,
    active: Collection[int],
    use_original_n: bool = False,
) -> SortingResult:
    """Greedy max-remaining-degree ordering plus dyadic grouping.

    The bands are cut against the number of active clients, or against the
    instance's original n when use_original_n is set (the fixed-threshold
    variant). active must be a nonempty collection, or integer array, of
    clients in [0, n).

    A pick's degree update subtracts the sum of its clients' adjacency rows.
    Over round 1's 341-344 picks at n = 10^4, m = 1000, p = 0.01 (four
    instances, 2 vCPUs), summing the rows took 3.0-3.4 ms, a repeat-gather
    of the clients' slices of the client-major view 4.6-6.8 ms, and a
    padded client-by-message table 1.7-2.1 ms plus 0.8-1.0 ms to build it,
    which would be a fourth cached view on the instance.
    """
    check_integers(active, 0, instance.n, "active client", InstanceError)
    adj = instance.adjacency
    indptr, indices = instance.clients_by_message
    bounds = indptr.tolist()
    remaining = np.zeros(instance.n, dtype=bool)
    remaining[active if isinstance(active, np.ndarray) else list(active)] = True
    n_thr = instance.n if use_original_n else int(np.count_nonzero(remaining))
    csum = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(remaining[indices], out=csum[1:])
    deg = np.diff(csum[indptr])
    # Degrees only fall, so no pick has more clients than the largest degree
    # now, and no column sum of a pick's rows exceeds it: the narrowest type
    # holding it sums them exactly (uint8 on sparse instances).
    acc = np.min_scalar_type(deg.max())

    eff: dict[int, np.ndarray] = {}
    # Removing j's remaining clients drops deg[j] to 0, so a chosen message
    # is never the argmax again while any degree is positive.
    while True:
        j = int(deg.argmax())
        if deg[j] <= 0:
            break
        col = indices[bounds[j] : bounds[j + 1]]
        clients = col[remaining[col]]
        clients.setflags(write=False)
        eff[j] = clients
        remaining[clients] = False
        np.subtract(deg, adj[clients].sum(axis=0, dtype=acc), out=deg)

    smax = max(1, n_thr.bit_length())
    groups: list[list[int]] = [[] for _ in range(smax)]
    for j, s in zip(eff, dyadic_band([c.size for c in eff.values()], n_thr).tolist()):
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
# State _ABSENT is a client not in SAT. _STEP[t][state] is the state after a
# vector of type t, _ABSENT once the client breaks or if it was absent;
# _KEEP[t][state] is 1 where that step keeps the client in SAT.
_ABSENT = len(_STATES)
_STEP = np.array(
    [[nxt[st] if _OK[nxt[st]] else _ABSENT for st in range(_ABSENT)] + [_ABSENT] for nxt in _NEXT],
    dtype=np.int8,
)
_KEEP = (_STEP != _ABSENT).astype(np.int64)


def greedy_assign(
    instance: PliableInstance,
    group: list[int],
    eff: dict[int, np.ndarray],
) -> GroupCode:
    """Assign one coding vector per group message, keeping SAT clients maximal.

    Visits messages in order; for each, evaluates the three candidate
    vectors against the currently satisfied clients connected to the
    message, keeps the maximizer, drops newly broken clients from SAT,
    and promotes the message's effective clients to SAT. group must be a
    nonempty list of distinct messages in [0, m), each of them a key of eff
    whose value is a 1-D integer array (or list) of clients in [0, n).
    """
    check_integers(group, 0, instance.m, "group message", InstanceError)
    if len(set(group)) < len(group):
        raise ValueError(f"group repeats messages {sorted({j for j in group if group.count(j) > 1})}")
    missing = [j for j in group if j not in eff]
    if missing:
        raise ValueError(f"eff lacks the effective clients of group messages {missing}")
    parts = [np.asarray(eff[j]) for j in group]
    bad = [j for j, c in zip(group, parts) if c.ndim != 1 or c.size and c.dtype.kind not in "iu"]
    if bad:
        raise InstanceError(f"effective clients of group messages {bad} must be 1-D integer arrays")
    # Every part is integer or empty (np.asarray([]) is float); a uint64
    # client past int64 wraps negative, so the range check still refuses it.
    effective = np.concatenate(parts, dtype=np.int64, casting="unsafe")
    if effective.size:
        check_integers(effective, 0, instance.n, "effective client", InstanceError)
    ends = list(accumulate(c.size for c in parts))
    indptr, indices = instance.clients_by_message
    bounds = indptr.tolist()
    state = np.full(instance.n, _ABSENT, dtype=np.int8)
    vectors: list[tuple[int, int]] = []
    for j, start, end in zip(group, [0] + ends, ends):
        col = indices[bounds[j] : bounds[j + 1]]
        st = state[col]
        keeps = _KEEP @ np.bincount(st, minlength=_ABSENT + 1)
        best_t = int(keeps.argmax())  # first maximum: (1,0) > (0,1) > (1,1)
        state[col] = _STEP[best_t][st]
        state[effective[start:end]] = _NEXT[best_t][0]
        vectors.append(CODING_VECTORS[best_t])
    return GroupCode(vectors=vectors, sat=np.flatnonzero(state != _ABSENT))


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
    active = instance.adjacency.any(axis=1)  # the non-vacuous clients
    all_rows: list[np.ndarray] = []
    round_records: list[RoundRecord] = []
    while (clients := np.flatnonzero(active)).size:
        sr = sort_and_group(instance, clients, use_original_n)
        bands = [(s, group) for s, group in enumerate(sr.groups, start=1) if group]
        # Two rows per nonempty group, zero outside the group's columns.
        rows = np.zeros((2 * len(bands), instance.m), dtype=np.int64)
        groups: list[GroupRecord] = []
        for g, (s, group) in enumerate(bands):
            gc = greedy_assign(instance, group, sr.eff)
            rows[2 * g : 2 * g + 2, group] = np.array(gc.vectors).T
            # The round's effective-client sets are disjoint, so this is |SAT| + |UNSAT|.
            eff = sum(len(sr.eff[j]) for j in group)
            groups.append(GroupRecord(s, group, len(gc.sat), eff))
            active[gc.sat] = False
        # SAT lies within the group's effective clients, so the groups' SAT sets are disjoint.
        satisfied = sum(g.sat for g in groups)
        if not satisfied:
            raise EncoderStallError(
                f"round satisfied zero of {clients.size} active clients; "
                f"groups={[g.messages for g in groups]}"
            )
        round_records.append(RoundRecord(groups=groups, satisfied=satisfied))
        all_rows.extend(rows)
    return encoded(all_rows, instance.m, rounds=round_records)
