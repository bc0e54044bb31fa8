"""Randomized baseline encoder: client bins by degree, random binary rows.

Clients are split into bins by reports.dyadic_band, BinGreedy's band
rule, and plan_bins maps each s to its clients; bin s receives
independent Bernoulli rows (bit probability p_s = 2^s/n, clamped to 1/2)
until all its clients are satisfied, and reports.encoded stacks the rows
of all bins. The default satisfaction rule is per-row exactly-one: a row
with exactly one 1 inside R_i satisfies client i, and that row remains a
decoding witness no matter which rows follow. Each row's hits are
counted from one of two sides: from the message side, the message-major
slices of the row's support (about p_s * |E| edges); from the client
side, the edges of the bin's unsatisfied clients, gathered from their
client-major slices and dropped as their clients are satisfied. The side
is chosen per row: a bin starts on the client side when it holds at most
p_s * |E| edges, and a bin still on the message side moves, for good, at
the first row where its unsatisfied clients hold at most that many (see
_from_clients). Both sides give the same rows. The cumulative span-
criterion stopping rule is available behind a flag.
"""

from __future__ import annotations

import numpy as np

from .fields import FMatrix, essential
from .instances import PliableInstance, seed_entries
from .reports import BinRecord, RunReport, dyadic_band, encoded


MAX_ROWS_PER_BIN = 100_000


class RandomizedCapError(RuntimeError):
    """A bin reached MAX_ROWS_PER_BIN rows; signals pathological parameters."""


def plan_bins(instance: PliableInstance) -> dict[int, np.ndarray]:
    """{s: the clients of bin s, increasing}: bin s holds the clients with
    n/2^s < |R_i| <= n/2^(s-1); vacuous clients are in no bin."""
    deg = np.diff(instance.messages_by_client[0])
    clients = np.flatnonzero(deg)
    band = dyadic_band(deg[clients], instance.n)
    return {int(s): clients[band == s] for s in np.unique(band)}


def _from_clients(bin_edges: int, p: float, edges: int) -> bool:
    """Whether a bin's exactly-one test reads its unsatisfied clients' edges,
    not the row's support, given those clients' edge count.

    A drawn row's support reaches about p * edges edges of the instance.
    In per-bin timings of both sides over n = 100..10^4 and p = 0.001..0.3,
    the client side won 31 of the 34 bins holding at most that many edges
    (losing the other three by under 0.1 ms) and none of the 11 holding
    five times as many or more; between the two, each side won some.
    Asked again on every row of a message-side bin, with the edge count of
    its clients still unsatisfied, the same test moves the bin once those
    are few. At n = 10^4, m = 1000, p = 0.01 (2 vCPUs, median of 200
    calls, four runs) that took randomized_code from 7.7-11.0 ms per call,
    asking once per bin, to 4.4-6.5 ms.
    """
    return bin_edges <= p * edges


def _client_edges(
    live: np.ndarray, clients: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(position in clients, message) for every edge of the clients at
    positions live, gathered from their slices of the client-major view."""
    starts = indptr[clients[live]]
    lens = indptr[clients[live] + 1] - starts
    # Edge t of the gathered run sits at indices[start + t - (edges before its client)].
    at = np.repeat(starts + lens - np.cumsum(lens), lens) + np.arange(lens.sum())
    return np.repeat(live, lens), indices[at]


def randomized_code(
    instance: PliableInstance,
    seed,
    stopping: str = "exactly_one",
) -> tuple[FMatrix, RunReport]:
    """Draw random F_2 rows per bin until every bin client is satisfied.

    Bin s draws bits with probability p_s = min(2^s/n, 1/2) from a generator
    seeded with the seed's entries followed by s. Bins run in increasing s,
    so the output is deterministic for a given seed regardless of how many
    bins exist. stopping is "exactly_one" (default) or "cumulative" for the
    cumulative span-criterion rule.
    """
    if stopping not in ("exactly_one", "cumulative"):
        raise ValueError(f"unknown stopping rule {stopping!r}")
    seed = seed_entries(seed, ValueError)  # checked even when there are no bins
    bins = plan_bins(instance)
    indptr, indices = instance.clients_by_message
    bounds = indptr.tolist()  # Python-int slice bounds; numpy scalars cost more per slice
    client_ptr, client_msgs = instance.messages_by_client
    n, m = instance.n, instance.m
    all_rows: list[np.ndarray] = []
    bin_records: list[BinRecord] = []
    for s in sorted(bins):
        clients = bins[s]
        p = min(2**s / n, 0.5)
        rng = np.random.default_rng(seed + [s])
        unsat = np.ones(len(clients), dtype=bool)
        rows: list[np.ndarray] = []
        if stopping == "exactly_one":
            degree = client_ptr[clients + 1] - client_ptr[clients]
            live_edges = int(degree.sum())  # of the unsatisfied clients, while on the message side
            edge_client = None  # set once the bin moves to the client side
        else:
            # Column j of this bin's rows, packed as words[j] with row r at bit r.
            words = [0] * m
            reqs = [instance.requirements[i] for i in clients]
        while unsat.any():
            if len(rows) >= MAX_ROWS_PER_BIN:
                raise RandomizedCapError(
                    f"bin {s}: {len(rows)} rows drawn, {int(unsat.sum())} of "
                    f"{len(clients)} clients still unsatisfied (p_s={p})"
                )
            row = rng.random(m) < p
            rows.append(row)
            if stopping == "cumulative":
                bit = 1 << (len(rows) - 1)
                for j in np.flatnonzero(row).tolist():
                    words[j] |= bit
                for t in np.flatnonzero(unsat).tolist():
                    if essential([words[j] for j in reqs[t]], 2):
                        unsat[t] = False
            elif edge_client is None and not _from_clients(live_edges, p, indices.size):
                support = np.flatnonzero(row).tolist()
                if support:
                    # Per client, how many of its required messages the row covers.
                    cols = [indices[bounds[j] : bounds[j + 1]] for j in support]
                    done = unsat & (np.bincount(np.concatenate(cols), minlength=n)[clients] == 1)
                    if done.any():
                        unsat &= ~done
                        live_edges -= int(degree[done].sum())
            else:
                if edge_client is None:
                    edge_client, edge_msg = _client_edges(
                        np.flatnonzero(unsat), clients, client_ptr, client_msgs
                    )
                # Per bin client, how many of its required messages the row
                # covers; a satisfied client's edges are gone, so it counts 0.
                hits = np.bincount(edge_client[row[edge_msg]], minlength=len(clients))
                if (hits == 1).any():
                    unsat &= hits != 1
                    keep = unsat[edge_client]
                    edge_client, edge_msg = edge_client[keep], edge_msg[keep]
        all_rows += rows
        bin_records.append(BinRecord(s=s, clients=len(clients), rows=len(rows)))
    return encoded(all_rows, m, rounds=[], bins=bin_records)
