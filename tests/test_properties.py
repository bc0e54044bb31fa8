"""Property-based contracts on small instances (n <= 12, m <= 6).

For both encoders: the code is valid, each client's delivered message is
re-checked through in_span, and decode_value recovers the message's value.
For BinGreedy: the 1/3 fractions per group and per round and the raw row
cap of the acceptance suite. For every instance: JSON and text round trips
keep the bytes and the instance hash.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plicode import (
    FieldSpec,
    PliableInstance,
    bingreedy,
    build_instance,
    decode_value,
    in_span,
    instance_hash,
    is_valid_code,
    randomized_code,
    satisfied_set,
)

SETTINGS = settings(derandomize=True, deadline=None)

# Explicit examples: m = 1, every client vacuous, duplicate clients, full
# rows, single-message requirement sets.
EDGE_CASES = [
    build_instance(1, [[0]] * 3),
    build_instance(3, [[]] * 4),
    build_instance(4, [[0, 2]] * 5 + [[1]]),
    build_instance(5, [list(range(5))] * 6),
    build_instance(6, [[j] for j in range(6)] * 2),
]


@st.composite
def instances(draw):
    m = draw(st.integers(1, 6))
    reqs = draw(st.lists(st.sets(st.integers(0, m - 1)), max_size=12))
    return build_instance(m, [sorted(r) for r in reqs])


def with_examples(**others):
    def add(test):
        for inst in EDGE_CASES:
            test = example(inst=inst, **others)(test)
        return test

    return add


def check_code(matrix, inst, seed):
    assert is_valid_code(matrix, inst)
    spec = FieldSpec(2)
    cols = matrix.entries.T
    _, report = satisfied_set(matrix, inst)
    b = np.random.default_rng(seed).integers(0, 2, size=inst.m)
    x = matrix.mul_vector(b)
    for cs in report:
        req = np.flatnonzero(inst.adjacency[cs.client]).tolist()
        if not req:
            assert cs.status == "vacuous"
            continue
        j = cs.decodes
        assert cs.status == "satisfied" and j in req
        assert not in_span(cols[j], [cols[t] for t in req if t != j], spec)
        side = {t: int(b[t]) for t in inst.side_info(cs.client)}
        got, value = decode_value(matrix, inst, cs.client, x, side)
        assert got in req and value == b[got]


@SETTINGS
@given(inst=instances(), seed=st.integers(0, 2**16))
@with_examples(seed=0)
def test_encoders_give_valid_decodable_codes(inst, seed):
    check_code(bingreedy(inst)[0], inst, seed)
    check_code(randomized_code(inst, seed=seed)[0], inst, seed)


@SETTINGS
@given(inst=instances(), use_original_n=st.booleans())
@with_examples(use_original_n=False)
def test_bingreedy_report_bounds(inst, use_original_n):
    _, report = bingreedy(inst, use_original_n=use_original_n)
    active = len(inst.non_vacuous_clients())
    for rnd in report.rounds:
        for g in rnd.groups:
            assert 3 * g.sat >= g.eff
        assert 3 * rnd.satisfied >= active
        active -= rnd.satisfied
    assert active == 0
    if inst.n:
        n = inst.n
        cap = 2 * (math.floor(math.log2(n)) + 1) * (math.ceil(math.log(n, 1.5)) + 1)
        assert report.rows_raw <= cap
    else:
        assert report.rows_raw == 0


@SETTINGS
@given(inst=instances())
@with_examples()
def test_round_trips_keep_bytes_and_hash(inst):
    text = json.dumps(inst.to_json())
    back = PliableInstance.from_json(json.loads(text))
    assert json.dumps(back.to_json()) == text
    assert instance_hash(back) == instance_hash(inst)
    back = PliableInstance.from_text(inst.to_text())
    assert back.to_text() == inst.to_text()
    assert instance_hash(back) == instance_hash(inst)
