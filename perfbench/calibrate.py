"""Machine-speed reference for scaling measured times.

On a shared host the same fixed work can run at very different speeds from
one second to the next (a pure-CPU loop measured in 2 s windows on the
2-vCPU development VM ranged from 66 to 122 iterations per second within a
minute), which swamps differences between commits. The benchmark therefore
times this fixed kernel, which belongs to the benchmark and never changes
with the program, every REF_EVERY_S of item time, and reports each item's
latency scaled by REF_NOMINAL_S / (median of the kernel times measured
around it). The kernel mixes what the program spends its time on: small
numpy row operations in an interpreted loop, plain interpreter work, and a
pass over an array larger than the L2 cache.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.0025  # kernel time that defines "reference speed"
REF_EVERY_S = 0.05
REF_WINDOW = 2  # samples on each side of an item used for its scale

_MATRIX = np.random.default_rng(12345).integers(0, 2, (40, 40))
_BUFFER = np.ones(1 << 20)


def _kernel() -> int:
    r = _MATRIX.copy()
    row = 0
    for col in range(r.shape[1]):
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        p = int(nz[0]) + row
        if p != row:
            r[[row, p]] = r[[p, row]]
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            r[others] = (r[others] + np.outer(r[others, col], r[row])) % 2
        row += 1
        if row == r.shape[0]:
            break
    acc = 0
    for i in range(2000):
        acc += i * i
    return row + int(_BUFFER.sum() > 0) + (acc & 1)


def sample() -> float:
    """Seconds taken by one run of the reference kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def scales(samples: list[float], item_refs: list[int]) -> list[float]:
    """Per item, REF_NOMINAL_S over the median kernel time around it.

    item_refs[k] is the index of the last sample taken before item k.
    """
    return [
        REF_NOMINAL_S / statistics.median(samples[max(0, r - REF_WINDOW) : r + REF_WINDOW + 1])
        for r in item_refs
    ]
