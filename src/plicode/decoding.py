"""Client-side decodability: which messages a coding matrix delivers.

A client can uniquely decode message j iff column a_j lies outside the
span of the other columns indexed by its requirement set. Over F_2 the
whole-code checks pack the code once and run the bit-packed kernel
(fields.gf2_essential) per client; over q > 2, and for a single client,
they go through fields.essential_columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .fields import (
    DimensionError,
    FMatrix,
    essential_columns,
    gf2_column_words,
    gf2_essential,
    solve_consistent,
)
from .instances import PliableInstance


class DecodingError(ValueError):
    """The client cannot uniquely decode any required message."""


@dataclass(frozen=True)
class ClientStatus:
    """Per-client outcome: satisfied / unsatisfied / vacuous, with the delivered message."""

    client: int
    status: str
    decodes: int | None = None

    def to_json(self) -> dict:
        return {"client": self.client, "status": self.status, "decodes": self.decodes}


def _check_shape(mat: FMatrix, instance: PliableInstance) -> None:
    if mat.n_cols != instance.m:
        raise DimensionError(f"matrix has {mat.n_cols} columns, instance has {instance.m} messages")


def decodable_messages(mat: FMatrix, instance: PliableInstance, i: int) -> set[int]:
    """All j in R_i that client i can uniquely decode under the matrix."""
    _check_shape(mat, instance)
    req = sorted(instance.requirements[i])
    if not req:
        return set()
    mask = essential_columns(mat.entries[:, req], mat.field.q)
    return {req[t] for t in np.nonzero(mask)[0]}


def _first_decodable(mat: FMatrix, instance: PliableInstance) -> Iterator[tuple[int, int | None]]:
    """(i, smallest message client i decodes, or None) for each non-vacuous client, in order."""
    _check_shape(mat, instance)
    q = mat.field.q
    words = gf2_column_words(mat.entries) if q == 2 else None
    for i, r in enumerate(instance.requirements):
        if not r:
            continue
        req = sorted(r)
        if words is not None:
            ess = gf2_essential([words[j] for j in req])
            yield i, req[(ess & -ess).bit_length() - 1] if ess else None
        else:
            hit = np.flatnonzero(essential_columns(mat.entries[:, req], q))
            yield i, req[hit[0]] if hit.size else None


def satisfied_set(
    mat: FMatrix, instance: PliableInstance, active: Iterable[int]
) -> tuple[set[int], list[ClientStatus]]:
    """Clients in the active set with a nonempty decodable set, plus a full report.

    The delivered message j* is the smallest decodable index, so reruns are
    reproducible. The report covers every client of the instance.
    """
    active = set(active)
    first = dict(_first_decodable(mat, instance))
    satisfied = {i for i, j in first.items() if j is not None and i in active}
    report: list[ClientStatus] = []
    for i in range(instance.n):
        if i not in first:
            report.append(ClientStatus(i, "vacuous"))
        elif first[i] is None:
            report.append(ClientStatus(i, "unsatisfied"))
        else:
            report.append(ClientStatus(i, "satisfied", first[i]))
    return satisfied, report


def is_valid_code(mat: FMatrix, instance: PliableInstance) -> bool:
    """True iff every non-vacuous client can decode at least one required message."""
    return all(j is not None for _, j in _first_decodable(mat, instance))


def decode_value(
    mat: FMatrix,
    instance: PliableInstance,
    i: int,
    x,
    side_values: Mapping[int, int],
) -> tuple[int, int]:
    """Recover one new message value for client i from the transmissions.

    x must equal A b for a message vector b consistent with side_values
    (values of b on S_i). Strips the side information from x, solves the
    reduced system, and returns the smallest uniquely determined message
    index with its value.
    """
    _check_shape(mat, instance)
    q = mat.field.q
    x = np.asarray(x, dtype=np.int64) % q
    if x.shape != (mat.n_rows,):
        raise DimensionError(f"transmission vector length {x.shape} != {mat.n_rows} rows")
    side = sorted(instance.side_info(i))
    if set(side_values) != set(side):
        raise DecodingError(f"side_values keys must be exactly S_{i} = {side}")
    req = sorted(instance.requirements[i])
    if side:
        sv = np.array([side_values[j] for j in side], dtype=np.int64) % q
        x = (x - FMatrix(mat.entries[:, side], mat.field).mul_vector(sv)) % q
    sub = FMatrix(mat.entries[:, req], mat.field)
    sol = solve_consistent(sub, x)
    uniq = np.nonzero(sol.unique)[0]
    if uniq.size == 0:
        raise DecodingError(f"client {i} cannot uniquely decode any required message")
    t = int(uniq[0])
    return req[t], int(sol.values[t])


def report_to_json(report: list[ClientStatus]) -> list[dict]:
    return [cs.to_json() for cs in report]
