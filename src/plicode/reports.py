"""What the encoders share: the dyadic degree band, the code assembly and the run reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .fields import FMatrix


def dyadic_band(degrees, n: int) -> np.ndarray:
    """Per degree d >= 1, the smallest s >= 1 with d * 2^s > n, i.e. n/2^s < d <= n/2^(s-1).

    BinGreedy bands messages by effective degree, the randomized baseline
    clients by requirement degree. s = max(1, bit_length(n // d)), read off
    frexp (exact while n < 2^53).
    """
    return np.maximum(1, np.frexp(n // np.asarray(degrees, dtype=np.int64))[1])


@dataclass(frozen=True)
class GroupRecord:
    s: int
    messages: list[int]
    sat: int
    eff: int


@dataclass(frozen=True)
class RoundRecord:
    groups: list[GroupRecord]
    satisfied: int


@dataclass(frozen=True)
class BinRecord:
    s: int
    clients: int
    rows: int


@dataclass(frozen=True)
class RunReport:
    """Per-run accounting: rounds/groups for the greedy encoder, bins for the randomized one."""

    rounds: list[RoundRecord]
    rows_raw: int
    rows_pruned: int
    bins: list[BinRecord] = field(default_factory=list)

    def to_json(self) -> dict:
        out = asdict(self)
        if not self.bins:
            del out["bins"]
        return out


def encoded(rows, m: int, **records) -> tuple[FMatrix, RunReport]:
    """The F_2 code stacking the given length-m rows, and its report.

    The matrix keeps its all-zero rows; the report counts rows with and
    without them. records are the remaining RunReport fields.
    """
    entries = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    pruned = int(entries.any(axis=1).sum())
    return FMatrix.from_rows(entries, 2), RunReport(rows_raw=len(rows), rows_pruned=pruned, **records)
