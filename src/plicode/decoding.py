"""Client-side decodability: which messages a coding matrix delivers.

A client can uniquely decode message j iff column a_j lies outside the
span of the other columns indexed by its requirement set. The whole-code
checks put the code's columns in fields.column_words format once and run
fields.essential per client, reading each R_i as a slice of the instance's
client-major view; decodable_messages runs fields.essential_columns on R_i,
empty or not. The single-client readers read the client's adjacency row and
build no view. satisfied_set takes only the code and the instance: every
non-vacuous client is judged.

decode_value strips the side information through the code's own
mul_vector, on a message vector that is zero on R_i, and recovers a value
from one fields.solve call on the client's required columns and the
stripped transmissions: the same elimination that decides decodability
yields one solution, read at the smallest decodable index. Nothing here
branches on the field order or checks it: the code's FieldSpec did.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator, Mapping

import numpy as np

from .fields import (
    DimensionError,
    FMatrix,
    column_words,
    essential,
    essential_columns,
    field_array,
    solve,
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


def _check_shape(mat: FMatrix, instance: PliableInstance) -> None:
    if mat.n_cols != instance.m:
        raise DimensionError(f"matrix has {mat.n_cols} columns, instance has {instance.m} messages")


def decodable_messages(mat: FMatrix, instance: PliableInstance, i: int) -> set[int]:
    """All j in R_i that client i can uniquely decode under the matrix.

    Raises InstanceError unless i is an integer in [0, n)."""
    _check_shape(mat, instance)
    req = np.flatnonzero(instance.client_row(i))
    mask = essential_columns(mat.entries[:, req], mat.field.q)
    return set(req[mask].tolist())


def _first_decodable(mat: FMatrix, instance: PliableInstance) -> Iterator[tuple[int, int | None]]:
    """(i, smallest message client i decodes, or None) for each non-vacuous client, in order."""
    _check_shape(mat, instance)
    q = mat.field.q
    indptr, indices = instance.messages_by_client
    bounds, cols = indptr.tolist(), indices.tolist()
    # The columns laid out edge by edge: R_i's words are one slice.
    words = column_words(mat.entries, q)
    edge_words = [words[j] for j in cols]
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if a == b:
            continue
        ess = essential(edge_words[a:b], q)
        yield i, cols[a + (ess & -ess).bit_length() - 1] if ess else None


def satisfied_set(mat: FMatrix, instance: PliableInstance) -> tuple[set[int], list[ClientStatus]]:
    """The clients with a nonempty decodable set, plus a full report.

    The delivered message j* is the smallest decodable index, so reruns are
    reproducible. The report covers every client of the instance.
    """
    first = dict(_first_decodable(mat, instance))
    satisfied = {i for i, j in first.items() if j is not None}
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
    (values of b on S_i). Strips the side information from x as x - A b',
    where b' is b on S_i and zero on R_i, solves the reduced system on R_i's
    columns, and returns the smallest uniquely determined message index
    with its value. Raises InstanceError unless i is an integer in
    [0, n), and InconsistentSystemError, before any DecodingError, when no
    such b gives x.
    """
    _check_shape(mat, instance)
    row = instance.client_row(i)
    q = mat.field.q
    x = field_array(x, q, (mat.n_rows,), "transmission values")
    side = np.flatnonzero(~row).tolist()
    if set(side_values) != set(side):
        raise DecodingError(f"side_values keys must be exactly S_{i} = {side}")
    req = np.flatnonzero(row)
    # b holds the side values on S_i and zeros on R_i, so A b is S_i's share of x.
    b = np.zeros(mat.n_cols, dtype=np.int64)
    b[side] = field_array([side_values[j] for j in side], q, (None,), "side values")
    x = (x - mat.mul_vector(b)) % q
    *words, target = column_words(np.column_stack([mat.entries[:, req], x]), q)
    y, ess = solve(words, target, q)
    if not ess:
        raise DecodingError(f"client {i} cannot uniquely decode any required message")
    t = (ess & -ess).bit_length() - 1
    return int(req[t]), y[t]


def report_to_json(report: list[ClientStatus]) -> list[dict]:
    return [asdict(cs) for cs in report]
