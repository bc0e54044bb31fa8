"""Decodability engine: per-client message sets, code validity, value decoding."""

import numpy as np
import pytest

from plicode.bingreedy import bingreedy
from plicode.decoding import (
    DecodingError,
    decodable_messages,
    decode_value,
    is_valid_code,
    report_to_json,
    satisfied_set,
)
from plicode.fields import (
    MAX_ORDER,
    FieldError,
    FieldSpec,
    FMatrix,
    InconsistentSystemError,
    in_span,
    solve_consistent,
)
from plicode.instances import InstanceError, PliableInstance, build_instance, random_instance
from plicode.randomized import randomized_code


class TestDecodableMessages:
    def test_demo_client_decodes_both(self, demo_instance, demo_matrix):
        assert decodable_messages(demo_matrix, demo_instance, 3) == {0, 1}

    def test_zero_columns_decode_nothing(self, demo_instance):
        assert decodable_messages(FMatrix.zeros(2, 3, 2), demo_instance, 3) == set()

    def test_plain_transmission(self):
        inst = build_instance(2, [{1}])
        mat = FMatrix.from_rows([[0, 1]], 2)
        assert decodable_messages(mat, inst, 0) == {1}

    def test_empty_requirements(self):
        inst = build_instance(2, [set()])
        assert decodable_messages(FMatrix.zeros(1, 2, 2), inst, 0) == set()

    def test_matches_span_criterion(self):
        inst = random_instance(6, 4, 0.6, seed=5)
        mat = FMatrix.from_rows([[1, 1, 1, 0], [0, 1, 2, 1]], 3)
        spec = FieldSpec(3)
        for i in range(inst.n):
            req = sorted(inst.requirements[i])
            expected = {
                j
                for j in req
                if not in_span(mat.entries[:, j], [mat.entries[:, t] for t in req if t != j], spec)
            }
            assert decodable_messages(mat, inst, i) == expected


class TestSatisfiedSet:
    def test_greedy_output_satisfies_everyone(self, demo_instance):
        matrix, _ = bingreedy(demo_instance)
        sat, report = satisfied_set(matrix, demo_instance)
        assert sat == set(range(7))
        assert all(cs.status == "satisfied" for cs in report)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delivered_message_matches_span_oracle(self, seed):
        inst = random_instance(60, 20, 0.3, seed=seed)
        spec = FieldSpec(2)
        for matrix in (bingreedy(inst)[0], randomized_code(inst, seed=seed)[0]):
            sat, report = satisfied_set(matrix, inst)
            assert sat == set(inst.non_vacuous_clients())
            for cs in report:
                req = sorted(inst.requirements[cs.client])
                if not req:
                    assert cs.status == "vacuous"
                    continue
                cols = {j: matrix.entries[:, j] for j in req}
                smallest = next(
                    j for j in req if not in_span(cols[j], [cols[t] for t in req if t != j], spec)
                )
                assert cs.status == "satisfied" and cs.decodes == smallest

    def test_zero_matrix_satisfies_nobody(self, demo_instance):
        sat, report = satisfied_set(FMatrix.zeros(2, 3, 2), demo_instance)
        assert sat == set()
        assert all(cs.status == "unsatisfied" for cs in report)

    def test_delivered_message_is_smallest(self, demo_instance, demo_matrix):
        _, report = satisfied_set(demo_matrix, demo_instance)
        assert report[3].decodes == 0

    def test_vacuous_status(self):
        inst = build_instance(2, [set(), {0}])
        _, report = satisfied_set(FMatrix.from_rows([[1, 0]], 2), inst)
        assert report[0].status == "vacuous"
        assert report[1].status == "satisfied"

    def test_report_json_shape(self, demo_instance, demo_matrix):
        _, report = satisfied_set(demo_matrix, demo_instance)
        obj = report_to_json(report)
        assert obj[3] == {"client": 3, "status": "satisfied", "decodes": 0}


class TestIsValidCode:
    def test_greedy_demo_output_valid(self, demo_instance):
        matrix, _ = bingreedy(demo_instance)
        assert is_valid_code(matrix, demo_instance)

    def test_ternary_code_valid(self, quad_instance, ternary_code):
        assert is_valid_code(ternary_code, quad_instance)

    def test_zero_column_client_invalid(self):
        inst = build_instance(2, [{0}, {1}])
        assert not is_valid_code(FMatrix.from_rows([[1, 0]], 2), inst)

    def test_vacuous_only_instance_valid_under_empty_code(self):
        inst = build_instance(2, [set(), set()])
        assert is_valid_code(FMatrix.zeros(0, 2, 2), inst)


class TestDecodeValue:
    def test_demo_walkthrough(self, demo_instance, demo_matrix):
        b = np.array([1, 1, 0])
        x = demo_matrix.mul_vector(b)
        assert x.tolist() == [0, 1, 0]
        j, value = decode_value(demo_matrix, demo_instance, 3, x, {2: 0})
        # Both required messages are uniquely determined here; the smallest
        # message index wins the tie-break.
        assert (j, value) == (0, 1)

    def test_single_message(self):
        inst = build_instance(1, [{0}])
        mat = FMatrix.from_rows([[1]], 5)
        j, value = decode_value(mat, inst, 0, [4], {})
        assert (j, value) == (0, 4)

    def test_unsatisfied_client_raises(self):
        inst = build_instance(2, [{0}])
        mat = FMatrix.from_rows([[0, 1]], 2)
        with pytest.raises(DecodingError):
            decode_value(mat, inst, 0, [0], {1: 0})

    def test_exact_at_largest_field_order(self):
        # One int64 dot product of four side products near 2^62 would overflow.
        q = MAX_ORDER
        inst = build_instance(5, [{0}])
        row = [1, q - 1, q - 2, q - 3, q - 4]
        b = [7, q - 5, q - 6, q - 7, q - 8]
        x = [sum(a * v for a, v in zip(row, b)) % q]
        side = {j: b[j] for j in range(1, 5)}
        assert decode_value(FMatrix.from_rows([row], q), inst, 0, x, side) == (0, 7)

    def test_side_values_must_cover_side_info(self, demo_instance, demo_matrix):
        with pytest.raises(DecodingError, match="side_values"):
            decode_value(demo_matrix, demo_instance, 3, [0, 1, 0], {})

    def test_non_integer_values_rejected(self, demo_instance, demo_matrix):
        # Both were truncated to integers and decoded to a value.
        x = demo_matrix.mul_vector([1, 1, 0])
        with pytest.raises(FieldError, match="integer"):
            decode_value(demo_matrix, demo_instance, 3, x + 0.5, {2: 0})
        with pytest.raises(FieldError, match="integer"):
            decode_value(demo_matrix, demo_instance, 3, x, {2: 0.5})

    @pytest.mark.parametrize("i", [-1, 7, True, 1.0], ids=["negative", "n", "bool", "float"])
    def test_bad_client_index_rejected(self, demo_instance, demo_matrix, i):
        # The demo instance has n = 7 clients. -1 read client 6's row; True
        # and 1.0 reached numpy indexing.
        x = demo_matrix.mul_vector([1, 1, 0])
        with pytest.raises(InstanceError, match="client index"):
            decodable_messages(demo_matrix, demo_instance, i)
        with pytest.raises(InstanceError, match="client index"):
            decode_value(demo_matrix, demo_instance, i, x, {})
        with pytest.raises(InstanceError, match="client index"):
            demo_instance.side_info(i)

    @pytest.mark.parametrize(
        "q, rows, reaching",
        [(2, [[1, 1, 1], [1, 1, 0]], 0), (3, [[1, 2, 1], [2, 1, 0]], 2)],
        ids=["F2", "F3"],
    )
    def test_inconsistent_transmissions_raise(self, q, rows, reaching):
        # a_1 is a multiple of a_0, so the client decodes neither. With
        # b_2 = 1 the stripped x = (1, 1) - (1, 0) = (0, 1) is no multiple of
        # a_0, so no b gives x; b_2 = reaching does. The inconsistency is
        # reported before the failure to decode.
        inst = build_instance(3, [{0, 1}])
        mat = FMatrix.from_rows(rows, q)
        with pytest.raises(InconsistentSystemError):
            decode_value(mat, inst, 0, [1, 1], {2: 1})
        with pytest.raises(DecodingError):
            decode_value(mat, inst, 0, [1, 1], {2: reaching})


def reference_decode_value(mat, inst, i, x, side_values):
    """decode_value through solve_consistent for every field: strip, solve, first unique coordinate."""
    q = mat.field.q
    req = np.flatnonzero(inst.adjacency[i])
    side = sorted(inst.side_info(i))
    x = np.asarray(x, dtype=np.int64) % q
    if side:
        # Python-int products: over F_(2^31 - 1) an int64 dot product can overflow.
        sv = np.array([side_values[j] for j in side], dtype=object)
        x = ((x - mat.entries[:, side].astype(object) @ sv) % q).astype(np.int64)
    sol = solve_consistent(FMatrix(mat.entries[:, req], mat.field), x)
    uniq = np.flatnonzero(sol.unique)
    if not uniq.size:
        raise DecodingError("no unique coordinate")
    return int(req[uniq[0]]), int(sol.values[uniq[0]])


def test_f2_value_recovery_matches_solve_consistent_reference():
    # Over F_2 (its own generator, inputs as first written) and over
    # q = 3, 5, 7 and 2^31 - 1. K = 0 and K = 70 (multi-word packed columns
    # over F_2) included; zero columns, vacuous clients, transmissions no
    # consistent b produces, and systems with no unique coordinate all occur.
    for q in (2, 3, 5, 7, MAX_ORDER):
        rng = np.random.default_rng(2024 if q == 2 else [2024, q])
        outcomes = {"value": 0, InconsistentSystemError: 0, DecodingError: 0}
        for trial in range(150):
            K = int(rng.choice([0, 1, 2, 3, 5, 70]))
            m = int(rng.integers(1, 8))
            inst = random_instance(int(rng.integers(1, 6)), m, 0.5, seed=[17, trial])
            entries = rng.integers(0, q, size=(K, m))
            entries[:, rng.random(m) < 0.2] = 0
            mat = FMatrix(entries, FieldSpec(q))
            b = rng.integers(0, q, size=m)
            x = mat.mul_vector(b) if rng.random() < 0.5 else rng.integers(0, q, size=K)
            for i in range(inst.n):
                side = {j: int(rng.integers(0, q)) for j in inst.side_info(i)}
                try:
                    expected = reference_decode_value(mat, inst, i, x, side)
                except (InconsistentSystemError, DecodingError) as err:
                    with pytest.raises(type(err)):
                        decode_value(mat, inst, i, x, side)
                    outcomes[type(err)] += 1
                else:
                    assert decode_value(mat, inst, i, x, side) == expected
                    outcomes["value"] += 1
        assert min(outcomes.values()) >= 20, (q, outcomes)


def test_single_client_readers_build_no_client_view():
    # Every single-client reader goes through the client's adjacency row;
    # only sweeps over every client and the encoders build the client-major
    # view, so decoding on a fresh instance leaves it unbuilt.
    encoded_on = random_instance(60, 15, 0.3, seed=8)
    inst = PliableInstance(encoded_on.adjacency.copy())
    b = np.random.default_rng(1).integers(0, 2, size=inst.m)
    for code, _ in (bingreedy(encoded_on), randomized_code(encoded_on, seed=2)):
        x = code.mul_vector(b)
        for i in inst.non_vacuous_clients():
            assert inst.adjacency[i].any()
            j, value = decode_value(code, inst, i, x, {t: int(b[t]) for t in inst.side_info(i)})
            assert j == min(decodable_messages(code, inst, i)) and value == b[j]
    assert "messages_by_client" not in inst.__dict__
    assert "requirements" not in inst.__dict__


class TestEndToEnd:
    @pytest.mark.parametrize("q", [2, 3])
    def test_decoded_values_are_true_messages(self, q):
        # Random (instance, valid code, message vector) triples: every
        # satisfied client recovers the true value of the message it decodes.
        rng = np.random.default_rng(123 + q)
        checked = 0
        trial = 0
        while checked < 100:
            trial += 1
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 5))
            inst = random_instance(n, m, 0.5, seed=[9, q, trial])
            if q == 2:
                matrix, _ = bingreedy(inst)
            else:
                matrix = FMatrix(rng.integers(0, q, size=(m, m)), FieldSpec(q))
                if not is_valid_code(matrix, inst):
                    continue
            b = rng.integers(0, q, size=m)
            x = matrix.mul_vector(b)
            sat, _ = satisfied_set(matrix, inst)
            for i in sat:
                side = {j: int(b[j]) for j in inst.side_info(i)}
                j, value = decode_value(matrix, inst, i, x, side)
                assert j in inst.requirements[i]
                assert value == b[j]
            checked += 1

    def test_decodable_iff_some_unique_coordinate(self):
        # Nonempty decodable set must coincide with the reduced system having
        # at least one uniquely determined coordinate.
        rng = np.random.default_rng(7)
        for trial in range(50):
            inst = random_instance(4, 3, 0.6, seed=[4, trial])
            matrix = FMatrix(rng.integers(0, 2, size=(2, 3)), FieldSpec(2))
            b = rng.integers(0, 2, size=3)
            x = matrix.mul_vector(b)
            for i in range(inst.n):
                if not inst.adjacency[i].any():
                    continue
                side = {j: int(b[j]) for j in inst.side_info(i)}
                dec = decodable_messages(matrix, inst, i)
                if dec:
                    j, value = decode_value(matrix, inst, i, x, side)
                    assert j == min(dec)
                    assert value == b[j]
                else:
                    with pytest.raises(DecodingError):
                        decode_value(matrix, inst, i, x, side)

    def test_zero_column_padding_changes_nothing(self):
        inst = random_instance(6, 3, 0.5, seed=42)
        matrix, _ = bingreedy(inst)
        padded_inst = build_instance(5, [set(r) for r in inst.requirements])
        padded = FMatrix(
            np.hstack([matrix.entries, np.zeros((matrix.n_rows, 2), dtype=np.int64)]),
            matrix.field,
        )
        for i in range(inst.n):
            assert decodable_messages(matrix, inst, i) == decodable_messages(
                padded, padded_inst, i
            )
