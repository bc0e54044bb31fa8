"""Field arithmetic and matrix kernels, checked against brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plicode.fields import (
    MAX_ORDER,
    FieldError,
    FieldSpec,
    FMatrix,
    InconsistentSystemError,
    essential_columns,
    in_span,
    is_prime,
    rank,
    rank_generic,
    solve_consistent,
)


def brute_force_rank(a: np.ndarray, q: int) -> int:
    """Independent oracle: size of the largest linearly independent row subset,
    with independence checked by enumerating all coefficient combinations."""
    a = np.asarray(a) % q
    rows = list(a)

    def independent(subset):
        k = len(subset)
        for coeffs in itertools.product(range(q), repeat=k):
            if all(c == 0 for c in coeffs):
                continue
            combo = sum(c * r for c, r in zip(coeffs, subset)) % q
            if not combo.any():
                return False
        return True

    best = 0
    for size in range(len(rows), 0, -1):
        if any(independent(list(sub)) for sub in itertools.combinations(rows, size)):
            best = size
            break
    return best


@st.composite
def gf2_matrices(draw):
    """0/1 matrices with K = 0, small K or K > 64, whose columns are XORs of a
    few random base columns: zero, duplicated and dependent columns all occur."""
    k = draw(st.one_of(st.just(0), st.integers(1, 6), st.integers(60, 140)))
    base = [
        np.array(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)), dtype=np.int64)
        for _ in range(draw(st.integers(1, 4)))
    ]
    picks = draw(st.lists(st.sets(st.integers(0, len(base) - 1)), max_size=7))
    cols = [sum((base[t] for t in pick), np.zeros(k, dtype=np.int64)) % 2 for pick in picks]
    return np.stack(cols, axis=1) if cols else np.zeros((k, 0), dtype=np.int64)


class TestArithmetic:
    def test_inverse(self):
        assert FieldSpec(3).inv(2) == 2

    def test_inverse_of_zero_errors(self):
        with pytest.raises(FieldError, match="no inverse for zero"):
            FieldSpec(2).inv(0)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_inverse_roundtrip(self, q):
        spec = FieldSpec(q)
        for a in range(1, q):
            assert spec.mul(a, spec.inv(a)) == 1

    @pytest.mark.parametrize("q", [0, 1, 4, 6, 9])
    def test_composite_order_rejected(self, q):
        with pytest.raises(FieldError):
            FieldSpec(q)

    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_largest_order_accepted(self):
        assert FieldSpec(MAX_ORDER).q == 2**31 - 1

    def test_huge_prime_rejected_before_primality_test(self):
        # Rejected by size, so trial division never runs on a 61-bit prime.
        with pytest.raises(FieldError, match="<="):
            FieldSpec(2**61 - 1)

    def test_rank_over_oversized_order_rejected(self):
        # Products of entries near 2^32 overflow int64 (this rank-1 matrix
        # read as rank 2), so such orders are rejected.
        q = 4294967311
        a = np.array([[1, q - 1], [q - 1, 1]])  # second row is -1 times the first
        with pytest.raises(FieldError):
            rank_generic(a, q)


class TestFMatrix:
    def test_entry_range_enforced(self):
        with pytest.raises(FieldError):
            FMatrix.from_rows([[0, 2]], 2)

    def test_json_roundtrip(self):
        m = FMatrix.from_rows([[1, 1, 1], [0, 1, 1], [1, 1, 0]], 2)
        assert m.to_json() == {"q": 2, "rows": [[1, 1, 1], [0, 1, 1], [1, 1, 0]]}
        assert FMatrix.from_json(m.to_json()).equals(m)

    @pytest.mark.parametrize(
        "obj",
        [
            {"q": 2, "rows": [[1.7, 0], [True, 1]]},  # not truncated to [[1, 0], [1, 1]]
            {"q": 2, "rows": [[1, "0"]]},
            {"q": 2.0, "rows": [[1, 0]]},
            {"q": True, "rows": [[1, 0]]},
        ],
    )
    def test_json_non_integer_rejected(self, obj):
        with pytest.raises(FieldError, match="integer"):
            FMatrix.from_json(obj)

    def test_mul_vector(self):
        m = FMatrix.from_rows([[1, 1, 1], [0, 1, 1], [1, 1, 0]], 2)
        assert m.mul_vector([1, 1, 0]).tolist() == [0, 1, 0]

    def test_mul_vector_exact_at_largest_order(self):
        # One int64 sum of four unreduced products near 2^62 would overflow.
        q = MAX_ORDER
        row = [q - 1, q - 2, q - 3, q - 4]
        b = [q - 5, q - 6, q - 7, q - 8]
        expected = sum(x * y for x, y in zip(row, b)) % q
        assert FMatrix.from_rows([row], q).mul_vector(b).tolist() == [expected]

    def test_prune_zero_rows(self):
        m = FMatrix.from_rows([[1, 0], [0, 0], [0, 1]], 2)
        assert m.prune_zero_rows().entries.tolist() == [[1, 0], [0, 1]]


class TestRank:
    def test_identity(self):
        assert rank(FMatrix.from_rows(np.eye(2, dtype=int), 2)) == 2

    def test_zero_matrix(self):
        assert rank(FMatrix.zeros(3, 3, 3)) == 0

    def test_demo_matrix_full_rank(self, demo_matrix):
        # Cross-checked against the exhaustive row-combination oracle.
        assert rank(demo_matrix) == 3
        assert brute_force_rank(demo_matrix.entries, 2) == 3

    def test_empty_matrix(self):
        assert rank(FMatrix.zeros(0, 4, 2)) == 0
        assert rank(FMatrix.zeros(4, 0, 5)) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rank_equals_transpose_rank_and_oracle(self, data):
        q = data.draw(st.sampled_from([2, 3, 5]))
        n_rows = data.draw(st.integers(1, 4))
        n_cols = data.draw(st.integers(1, 4))
        entries = data.draw(
            st.lists(
                st.lists(st.integers(0, q - 1), min_size=n_cols, max_size=n_cols),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        a = np.array(entries)
        r = rank_generic(a, q)
        assert r == rank_generic(a.T, q)
        assert r == brute_force_rank(a, q)

    @settings(max_examples=150, deadline=None)
    @given(gf2_matrices())
    def test_gf2_fast_path_matches_generic(self, a):
        assert rank(FMatrix(a, FieldSpec(2))) == rank_generic(a, 2)


class TestGf2Kernel:
    @settings(max_examples=150, deadline=None)
    @given(gf2_matrices())
    def test_essential_columns_match_span_oracle(self, a):
        spec = FieldSpec(2)
        ess = essential_columns(a, 2)
        assert ess.shape == (a.shape[1],)
        for j in range(a.shape[1]):
            others = [a[:, t] for t in range(a.shape[1]) if t != j]
            assert ess[j] == (not in_span(a[:, j], others, spec))


class TestInSpan:
    def test_demo_columns_independent(self, demo_matrix):
        a1 = demo_matrix.entries[:, 0]
        a2 = demo_matrix.entries[:, 1]
        assert not in_span(a1, [a2], FieldSpec(2))
        assert not in_span(a2, [a1], FieldSpec(2))

    def test_self_membership(self):
        v = np.array([1, 2, 0])
        assert in_span(v, [v], FieldSpec(3))

    def test_empty_span_is_zero(self):
        assert in_span(np.zeros(3, dtype=int), [], FieldSpec(2))
        assert not in_span(np.array([1, 0, 0]), [], FieldSpec(2))

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            in_span(np.array([1, 0]), [np.array([1, 0, 0])], FieldSpec(2))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_in_span_matches_rank_increment(self, data):
        q = data.draw(st.sampled_from([2, 3]))
        k = data.draw(st.integers(1, 4))
        n_vecs = data.draw(st.integers(0, 3))
        draw_vec = st.lists(st.integers(0, q - 1), min_size=k, max_size=k)
        v = np.array(data.draw(draw_vec))
        vecs = [np.array(data.draw(draw_vec)) for _ in range(n_vecs)]
        base = np.stack(vecs) if vecs else np.zeros((0, k), dtype=int)
        grew = rank_generic(np.vstack([base, v[None, :]]), q) == rank_generic(base, q) + 1
        assert in_span(v, vecs, FieldSpec(q)) == (not grew)


class TestSolveConsistent:
    def test_demo_reduced_system(self, demo_matrix):
        # Client with requirement {0, 1} and side message value b_3 = 1, for
        # the full message vector (1, 0, 1): rhs = x - b_3 * a_3.
        b = np.array([1, 0, 1])
        x = demo_matrix.mul_vector(b)
        rhs = (x - b[2] * demo_matrix.entries[:, 2]) % 2
        sub = FMatrix(demo_matrix.entries[:, [0, 1]], demo_matrix.field)
        sol = solve_consistent(sub, rhs)
        assert sol.unique.tolist() == [True, True]
        assert sol.values.tolist() == [1, 0]

    def test_trivial_identity(self):
        sol = solve_consistent(FMatrix.from_rows([[1]], 5), [3])
        assert sol.values.tolist() == [3] and sol.unique.tolist() == [True]

    def test_zero_column_not_unique(self):
        sol = solve_consistent(FMatrix.from_rows([[0]], 2), [0])
        assert sol.unique.tolist() == [False]

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentSystemError):
            solve_consistent(FMatrix.from_rows([[0]], 2), [1])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_uniqueness_matches_column_span(self, data):
        q = data.draw(st.sampled_from([2, 3]))
        k = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        entries = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, q - 1), min_size=m, max_size=m),
                    min_size=k,
                    max_size=k,
                )
            )
        )
        y = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m)))
        mat = FMatrix(entries, FieldSpec(q))
        sol = solve_consistent(mat, mat.mul_vector(y))
        for j in range(m):
            others = [entries[:, t] for t in range(m) if t != j]
            expected = not in_span(entries[:, j], others, FieldSpec(q))
            assert sol.unique[j] == expected
        ess = essential_columns(entries, q)
        assert ess.tolist() == sol.unique.tolist()
