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
from plicode.fields import MAX_ORDER, FieldSpec, FMatrix, in_span
from plicode.instances import build_instance, random_instance
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
        sat, report = satisfied_set(matrix, demo_instance, demo_instance.initial_active())
        assert sat == set(range(7))
        assert all(cs.status == "satisfied" for cs in report)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delivered_message_matches_span_oracle(self, seed):
        inst = random_instance(60, 20, 0.3, seed=seed)
        spec = FieldSpec(2)
        for matrix in (bingreedy(inst)[0], randomized_code(inst, seed=seed)[0]):
            sat, report = satisfied_set(matrix, inst, inst.initial_active())
            assert sat == inst.initial_active()
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
        sat, report = satisfied_set(FMatrix.zeros(2, 3, 2), demo_instance, range(7))
        assert sat == set()
        assert all(cs.status == "unsatisfied" for cs in report)

    def test_delivered_message_is_smallest(self, demo_instance, demo_matrix):
        _, report = satisfied_set(demo_matrix, demo_instance, range(7))
        assert report[3].decodes == 0

    def test_vacuous_status(self):
        inst = build_instance(2, [set(), {0}])
        _, report = satisfied_set(FMatrix.from_rows([[1, 0]], 2), inst, inst.initial_active())
        assert report[0].status == "vacuous"
        assert report[1].status == "satisfied"

    def test_report_json_shape(self, demo_instance, demo_matrix):
        _, report = satisfied_set(demo_matrix, demo_instance, range(7))
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
            sat, _ = satisfied_set(matrix, inst, inst.initial_active())
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
                if inst.is_vacuous(i):
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
