"""Property-based contracts on small instances (n <= 12, m <= 6).

For both encoders: the code is valid, each client's delivered message is
re-checked through in_span, and decode_value recovers the message's value.
For BinGreedy: the 1/3 fractions per group and per round and the raw row
cap of the acceptance suite. Over F_2 with caps of 3: the optimal code
length bounds both encoders' pruned lengths from below, and minrank over
the fitted subspaces equals it; the first bound is also checked on seeded
instances with n in {50, 100} and m = 12. For every instance: JSON and text round trips
keep the bytes and the instance hash. For the CLI: an instance or matrix
file made malformed by one mutation makes verify exit 2 with an error
message, never 3 and never a traceback.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plicode import (
    FieldSpec,
    PliableInstance,
    all_pairs_instance,
    bingreedy,
    build_instance,
    decode_value,
    instance_hash,
    is_valid_code,
    minrank_fitted,
    optimal_code_length,
    random_instance,
    randomized_code,
    satisfied_set,
)
from plicode.cli import main
from plicode.fields import MAX_ORDER, in_span

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
@given(inst=instances(), seed=st.integers(0, 2**16))
@with_examples(seed=0)
@example(inst=all_pairs_instance(4), seed=0)  # optimum 3, which drawn instances rarely reach
def test_exact_oracles_bound_the_encoders(inst, seed):
    # At m <= 6 and caps of 3 both searches stay within budget, so both
    # settle; value None means no code of length <= 3 exists.
    opt = optimal_code_length(inst, 2, max_K=3).value
    assert minrank_fitted(inst, 2, max_r=3).value == opt
    for report in (bingreedy(inst)[1], randomized_code(inst, seed=seed)[1]):
        assert report.rows_pruned > 3 if opt is None else opt <= report.rows_pruned


@pytest.mark.parametrize("n", [50, 100])
@pytest.mark.parametrize("s", range(3))
def test_exact_optimum_bounds_the_encoders_at_m12(n, s):
    # Seeded instances past the drawn ones' m <= 6: the length search
    # settles within its node budget (optimum 3 at n = 50, 4 at n = 100).
    inst = random_instance(n, 12, 0.3, seed=[s, n, 12])
    opt = optimal_code_length(inst, 2, max_K=6).value
    assert opt is not None
    for report in (bingreedy(inst)[1], randomized_code(inst, seed=s)[1]):
        assert opt <= report.rows_pruned


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


# Small and huge magnitudes: a small negative index would wrap around in
# numpy indexing, a huge one overflows int64.
NEGATIVE = st.one_of(st.integers(-8, -1), st.integers(-(2**70), -1))
PAST = st.one_of(st.integers(0, 3), st.integers(0, 2**70))
MUTATIONS = [
    (target, kind)
    for target in ("instance json", "instance text", "matrix")
    for kind in ("truncate", "float", "negative", "out of range", "width")
    if kind != "width" or target == "matrix"
]


def mutate_number(draw, kind, old, bound):
    if kind == "float":
        return draw(st.sampled_from([old + 0.5, float(old)]))
    if kind == "negative":
        return draw(NEGATIVE)
    return bound + draw(PAST)


@st.composite
def mutated_files(draw, target, kind):
    """(instance file text, matrix file text) for an instance and its BinGreedy
    code, with the target file made malformed by one mutation of the kind."""
    inst = draw(instances())
    m, reqs = inst.m, inst.to_json()["requirements"]
    matrix = bingreedy(inst)[0].to_json()
    q, rows = matrix["q"], matrix["rows"]
    if target != "matrix" and kind != "truncate":
        if not any(reqs):
            reqs.append([0])
        slots = [(i, k) for i, r in enumerate(reqs) for k in range(len(r))]
        slot = draw(st.sampled_from(slots + ([] if kind == "out of range" else ["m"])))
        if slot == "m":
            m = mutate_number(draw, kind, m, None)
        else:
            i, k = slot
            reqs[i][k] = mutate_number(draw, kind, reqs[i][k], m)
    elif kind == "width":
        if not rows:
            rows.append([0] * m)
        # Every row (a code of the wrong width) or one row (a ragged matrix).
        changed = rows if draw(st.booleans()) else [draw(st.sampled_from(rows))]
        grow = draw(st.booleans())
        for row in changed:
            row.append(0) if grow else row.pop()
    elif kind != "truncate":
        slots = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
        slot = draw(st.sampled_from(slots + ["q"]))
        if slot == "q":
            q = mutate_number(draw, kind, q, MAX_ORDER + 1)
        else:
            r, c = slot
            rows[r][c] = mutate_number(draw, kind, rows[r][c], q)
    if target == "instance text":
        lines = [f"{m} {len(reqs)}"] + [" ".join(map(str, r)) for r in reqs]
        inst_text = "\n".join(lines) + "\n"
    else:
        inst_text = json.dumps({"m": m, "requirements": reqs})
    mat_text = json.dumps({"q": q, "rows": rows})
    if kind == "truncate":
        if target == "instance text":
            # A cut inside a line can leave a valid file, so whole client lines go.
            inst_text = "".join(inst_text.splitlines(keepends=True)[: draw(st.integers(0, len(reqs)))])
        elif target == "instance json":
            inst_text = inst_text[: draw(st.integers(0, len(inst_text) - 1))]
        else:
            mat_text = mat_text[: draw(st.integers(0, len(mat_text) - 1))]
    return inst_text, mat_text


@pytest.mark.parametrize("target, kind", MUTATIONS)
@settings(SETTINGS, max_examples=15)
@given(data=st.data())
def test_mutated_files_are_input_errors(target, kind, data):
    files = data.draw(mutated_files(target, kind))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / name) for name in ("instance", "matrix.json")]
        for path, text in zip(paths, files):
            Path(path).write_text(text)
        with contextlib.redirect_stderr(err):
            code = main(["verify", "--instance", paths[0], "--matrix", paths[1]])
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith("error: ") and "internal" not in err.getvalue()
