"""The benchmark's own output checks, independent of the program's decodability engine.

A client of an F_2 code is certified when one of two sufficient conditions
holds on its requirement set R_i:

* some row has exactly one 1 inside R_i (that message is read off directly);
* for a consecutive row pair (2g, 2g+1), the 2-bit column types inside R_i
  take at most two distinct nonzero values and one of them occurs once (that
  column is outside the span of the others in those two rows, hence outside
  the span of the others in the whole code).

Both conditions only ever certify genuinely decodable clients; a client they
miss is not necessarily undecodable and must be checked another way.
"""

from __future__ import annotations

import numpy as np


def requirement_matrix(requirements, m: int) -> np.ndarray:
    """n x m boolean matrix built from the instance's requirement sets."""
    adj = np.zeros((len(requirements), m), dtype=bool)
    for i, r in enumerate(requirements):
        if r:
            adj[i, list(r)] = True
    return adj


def f2_witnesses(adj: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Per client, a message index it provably decodes under the F_2 code, or -1."""
    n, m = adj.shape
    rows = np.asarray(code) % 2 == 1
    wit = np.full(n, -1, dtype=np.int64)
    if rows.shape[0] == 0 or n == 0:
        return wit
    adjf = adj.astype(np.float32)

    # Exact in float32: every count is at most m < 2^24.
    hit = (adjf @ rows.T.astype(np.float32)) == 1
    idx = np.nonzero(hit.any(axis=1))[0]
    r = hit[idx].argmax(axis=1)
    wit[idx] = (adj[idx] & rows[r]).argmax(axis=1)

    g_count = rows.shape[0] // 2
    if g_count:
        top, bot = rows[0 : 2 * g_count : 2], rows[1 : 2 * g_count : 2]
        types = np.stack([top & ~bot, ~top & bot, top & bot])  # 3 x G x m
        counts = np.stack([adjf @ t.T.astype(np.float32) for t in types])  # 3 x n x G
        once = counts == 1
        ok = ((counts > 0).sum(axis=0) <= 2) & once.any(axis=0)
        idx = np.nonzero((wit < 0) & ok.any(axis=1))[0]
        g = ok[idx].argmax(axis=1)
        t = once[:, idx, g].argmax(axis=0)
        wit[idx] = (adj[idx] & types[t, g]).argmax(axis=1)
    return wit
