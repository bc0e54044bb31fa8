"""Field arithmetic and matrix kernels, checked against brute-force oracles."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plicode.fields import (
    MAX_ORDER,
    DimensionError,
    FieldError,
    FieldSpec,
    FMatrix,
    InconsistentSystemError,
    check_integers,
    column_words,
    essential,
    essential_columns,
    in_span,
    is_prime,
    rank_generic,
    solve,
    solve_consistent,
    strip,
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


class TestCheckIntegers:
    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.int8])
    def test_integer_array_in_range_accepted(self, dtype):
        check_integers(np.array([4, 0, 9], dtype=dtype), 0, 10, "client", ValueError)

    @pytest.mark.parametrize(
        "values",
        [np.array([3, -1, 2]), np.array([3, 10, 2]), np.array([10], dtype=np.uint16),
         np.array([65535, 1], dtype=np.uint16), np.array([True, False]), np.array([1.0, 2.0]),
         np.array([1, 2.0], dtype=object), np.array([], dtype=np.int64), np.array([], dtype=bool)],
        ids=["int64-negative", "int64-n", "uint16-n", "uint16-max", "bool", "float", "object",
             "empty-int", "empty-bool"],
    )
    def test_bad_array_rejected(self, values):
        # An integer array has its min and max checked; any other dtype goes
        # through the per-type scan, which refuses bool and float members.
        with pytest.raises(FieldError, match="client"):
            check_integers(values, 0, 10, "client", FieldError)

    def test_object_array_of_ints_accepted(self):
        check_integers(np.array([1, 2], dtype=object), 0, 10, "client", FieldError)


class TestArithmetic:
    @pytest.mark.parametrize("q", [0, 1, 4, 6, 9])
    def test_composite_order_rejected(self, q):
        with pytest.raises(FieldError):
            FieldSpec(q)

    @pytest.mark.parametrize("q", [2.0, 2.5, "3"])
    def test_non_integer_order_rejected(self, q):
        with pytest.raises(FieldError, match="integer"):
            FieldSpec(q)

    def test_numpy_order_stored_as_int(self):
        mat = FMatrix.zeros(1, 2, np.int64(3))
        assert type(mat.field.q) is int
        assert json.loads(json.dumps(mat.to_json())) == {"q": 3, "rows": [[0, 0]]}

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


    @pytest.mark.parametrize(
        "a",
        [[[0.5, 1.0]], [[True, False]], [["1", "0"]], np.array([[1.5, 0]], dtype=object)],
        ids=["float", "bool", "str", "object-float"],
    )
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("kernel", [rank_generic, essential_columns], ids=lambda f: f.__name__)
    def test_rejects_non_integers(self, kernel, q, a):
        # The float matrix read as rank 1 (0.5 and 1.0 were cast to 0 and 1),
        # and essential_columns read 1.5 as 1 over F_3.
        with pytest.raises(FieldError, match="integer"):
            kernel(np.array(a), q)

    @pytest.mark.parametrize("q", [0, 1, 4, MAX_ORDER + 2])
    @pytest.mark.parametrize("kernel", [rank_generic, essential_columns], ids=lambda f: f.__name__)
    def test_rejects_what_fieldspec_rejects(self, kernel, q):
        # Each takes its order through FieldSpec. On [[1, 1]], rank_generic read
        # rank 0 at q = 0 and 1 and rank 1 at q = 4, and essential_columns raised
        # ZeroDivisionError at q = 0 and read [False, False] at q = 1 and 4.
        with pytest.raises(FieldError):
            kernel(np.array([[1, 1]]), q)

    @pytest.mark.parametrize("q", [2, 3])
    def test_essential_columns_reads_integer_objects_as_int64(self, q):
        # Over F_2 numpy's packbits refused an object array with a bare TypeError.
        a = np.array([[1, 0, 1, 0], [0, 1, 2, 0], [0, 0, 0, 5]], dtype=object)
        assert (essential_columns(a, q) == essential_columns(a.astype(np.int64), q)).all()

    @pytest.mark.parametrize("a", [np.array([[2**64 - 1, 1]], dtype=np.uint64), [[2**64 - 1, 1]]],
                             ids=["ndarray", "list"])
    def test_essential_columns_reduces_unsigned_entries_past_int64(self, a):
        # 2^64 - 1 is 0 mod 3; both inputs are read as uint64, whose cast to
        # int64 wrapped it to -1, i.e. 2, so column 1 lost its essential mark.
        assert essential_columns(a, 3).tolist() == [False, True]


class TestFMatrix:
    def test_entry_range_enforced(self):
        with pytest.raises(FieldError):
            FMatrix.from_rows([[0, 2]], 2)

    @pytest.mark.parametrize("shape", [(10**30, 2), (2, 10**30)], ids=["rows", "cols"])
    def test_zeros_unallocatable_shape_rejected(self, shape):
        # numpy refuses this shape before allocating anything.
        with pytest.raises(DimensionError, match="no room"):
            FMatrix.zeros(*shape, 2)

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

    @pytest.mark.parametrize(
        "obj",
        [[[1, 0]], {"q": 2}, {"rows": [[1, 0]]}, {"q": 2, "rows": [1, 0]}],
        ids=["not-a-dict", "no-rows", "no-q", "flat-list"],
    )
    def test_json_wrong_structure_rejected(self, obj):
        # The first three raised TypeError or KeyError.
        with pytest.raises(DimensionError):
            FMatrix.from_json(obj)

    @pytest.mark.parametrize(
        "entries",
        [
            np.array([[1.7, 0.2]]),  # not truncated to [[1, 0]]
            np.array([[1.0, 0.0]]),
            np.array([[True, False]]),
            np.array([[1 + 0j, 0j]]),
            np.array([[1, 0.5]], dtype=object),
            np.array([[1, "0"]], dtype=object),
        ],
        ids=["float", "integral-float", "bool", "complex", "object-float", "object-str"],
    )
    def test_non_integer_entries_rejected(self, entries):
        with pytest.raises(FieldError, match="integer"):
            FMatrix(entries, FieldSpec(2))
        with pytest.raises(FieldError, match="integer"):
            FMatrix.from_rows(entries.tolist(), 2)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64, object])
    def test_integer_entries_accepted(self, dtype):
        mat = FMatrix(np.array([[1, 0, 2]], dtype=dtype), FieldSpec(3))
        assert mat.entries.dtype == np.int64 and mat.entries.tolist() == [[1, 0, 2]]

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

    @pytest.mark.parametrize("b, expected", [([2**64 - 1, -1], 2), ([2**70, 1], 2)], ids=["uint64", "object"])
    def test_mul_vector_exact_past_int64(self, b, expected):
        # numpy reads [2^64 - 1, -1] as float64, which drops the low bits; it
        # is read again as Python ints. 2^64 - 1 is 0 mod 3 and 2^70 is 1.
        assert FMatrix.from_rows([[1, 1]], 3).mul_vector(b).tolist() == [expected]

    @pytest.mark.parametrize(
        "b", [[1.7, 0, 1], [1.0, 0.0, 1.0], [True, False, True], np.array([1, "0", 1], dtype=object)],
        ids=["float", "integral-float", "bool", "object-str"],
    )
    def test_mul_vector_non_integer_rejected(self, b):
        # [1.7, 0, 1] was truncated to [1, 0, 1].
        with pytest.raises(FieldError, match="integer"):
            FMatrix.from_rows([[1, 1, 1]], 2).mul_vector(b)

    def test_mul_vector_accepts_integer_dtypes(self):
        m = FMatrix.from_rows([[1, 2, 1]], 3)
        for b in ([1, 1, 5], np.array([1, 1, 5], dtype=np.uint8), np.array([1, 1, 5], dtype=object)):
            assert m.mul_vector(b).tolist() == [2]

    def test_json_zero_rows_roundtrip(self):
        # A zero-row matrix serialises as "rows": [], which carries no width.
        obj = FMatrix.zeros(0, 3, 5).to_json()
        assert obj == {"q": 5, "rows": []}
        mat = FMatrix.from_json(obj)
        assert mat.entries.shape == (0, 0) and mat.field.q == 5

    def test_prune_zero_rows(self):
        m = FMatrix.from_rows([[1, 0], [0, 0], [0, 1]], 2)
        assert m.prune_zero_rows().entries.tolist() == [[1, 0], [0, 1]]


class TestRank:
    """rank_generic, the int64 RREF reference."""

    def test_identity(self):
        assert rank_generic(np.eye(2, dtype=int), 2) == 2

    def test_zero_matrix(self):
        assert rank_generic(np.zeros((3, 3), dtype=int), 3) == 0

    def test_demo_matrix_full_rank(self, demo_matrix):
        # Cross-checked against the exhaustive row-combination oracle.
        assert rank_generic(demo_matrix.entries, 2) == 3
        assert brute_force_rank(demo_matrix.entries, 2) == 3

    def test_empty_matrix(self):
        assert rank_generic(np.zeros((0, 4), dtype=int), 2) == 0
        assert rank_generic(np.zeros((4, 0), dtype=int), 5) == 0

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


def column_words_reference(a: np.ndarray) -> list[int]:
    """Bit-by-bit F_2 words: bit r of word j is the parity of a[r, j]."""
    k, n = a.shape
    return [sum((int(a[r, j]) & 1) << r for r in range(k)) for j in range(n)]


class TestColumnWords:
    """The F_2 packing against a bit-by-bit reference, at every limb boundary."""

    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("k", [0, 1, 7, 8, 63, 64, 65, 127, 128, 129])
    def test_matches_bitwise_reference(self, k, n):
        rng = np.random.default_rng([31, k, n])
        bits = rng.integers(0, 2, size=(k, n))
        for a in (bits, bits.astype(bool), rng.integers(-9, 10, size=(k, n))):
            words = column_words(a, 2)
            assert words == column_words_reference(a)
            assert all(type(w) is int for w in words)


def fq_blocks(q, count, seed):
    """Seeded k x n blocks over F_q, 1 <= k <= 3 and 1 <= n <= 8, whose columns
    are zero, fresh random, repeated or scaled copies of an earlier column,
    or sums of two earlier ones."""
    rng = np.random.default_rng([seed, q])
    for _ in range(count):
        k, n = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        cols = []
        for _ in range(n):
            kind = int(rng.integers(0, 5)) if cols else 1
            if kind == 0:
                col = np.zeros(k, dtype=np.int64)
            elif kind == 1:
                col = rng.integers(0, q, size=k)
            elif kind == 2:
                col = cols[rng.integers(len(cols))].copy()
            elif kind == 3:
                col = cols[rng.integers(len(cols))] * int(rng.integers(1, q)) % q
            else:
                a, b = rng.integers(len(cols), size=2)
                col = (cols[a] + cols[b]) % q
            cols.append(col)
        yield np.stack(cols, axis=1)


class TestFqKernel:
    """essential and solve on column_words columns against the int64 RREF
    (solve_consistent's values and uniqueness flags), essential_columns and
    in_span, for every field order class the oracle can meet."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7, MAX_ORDER])
    def test_matches_rref_and_span(self, q):
        spec = FieldSpec(q)
        rng = np.random.default_rng([29, q])
        outcomes = {"solved": 0, "inconsistent": 0}
        for a in fq_blocks(q, 150, seed=23):
            n = a.shape[1]
            words = column_words(a, q)
            mask = essential(words, q)
            ess = essential_columns(a, q)
            unique = solve_consistent(FMatrix(a, spec), np.zeros(a.shape[0], dtype=np.int64))
            spans = [
                not in_span(a[:, j], [a[:, t] for t in range(n) if t != j], spec)
                for j in range(n)
            ]
            bits = [bool(mask >> j & 1) for j in range(n)]
            assert bits == ess.tolist() == unique.unique.tolist() == spans
            # solve: a right-hand side in the column span, then a random one.
            consistent = FMatrix(a, spec).mul_vector(rng.integers(0, q, size=n))
            for rhs in (consistent, rng.integers(0, q, size=a.shape[0])):
                target = column_words(rhs[:, None], q)[0]
                try:
                    ref = solve_consistent(FMatrix(a, spec), rhs)
                except InconsistentSystemError:
                    with pytest.raises(InconsistentSystemError):
                        solve(words, target, q)
                    outcomes["inconsistent"] += 1
                else:
                    values, solve_mask = solve(words, target, q)
                    assert values == ref.values.tolist() and solve_mask == mask
                    outcomes["solved"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_unreduced_entries(self):
        # Entries are reduced mod q on entry: (4, 1) is 2 * (2, 3) over F_5.
        assert essential([(4, 1), (7, 13), (0, 5)], 5) == 0

    def test_no_rows(self):
        # Over zero rows every column is the zero vector, in the span {0}.
        assert essential([(), ()], 3) == 0


class TestStrip:
    """strip against an object-dtype product reference, target - A values
    mod q, with values of every kind a caller may hold."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7, MAX_ORDER])
    def test_matches_object_product_reference(self, q):
        rng = np.random.default_rng([37, q])
        kinds = [
            lambda v: v,
            lambda v: v - 3 * q,  # negative
            lambda v: v + 2 * q,  # at least q
            np.int64,
            lambda v: np.int64(v - q),
            lambda v: v + q * 2**70,  # a Python int past int64
        ]
        for k in (0, 1, 5, 70):  # 70 rows span two 64-bit limbs over F_2
            for n in (0, 1, 4, 9):  # n = 0: no words, target unchanged
                a = rng.integers(0, q, size=(k, n))
                rhs = rng.integers(0, q, size=k)
                residues = rng.integers(0, q, size=n).tolist()
                values = [kinds[int(rng.integers(len(kinds)))](v) for v in residues]
                product = a.astype(object) @ np.array([int(v) for v in values], dtype=object)
                expected = ((rhs.astype(object) - product) % q).astype(np.int64)
                got = strip(column_words(rhs[:, None], q)[0], column_words(a, q), values, q)
                assert got == column_words(expected[:, None], q)[0]
                assert all(type(x) is int for x in ([got] if q == 2 else got))


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

    @pytest.mark.parametrize(
        "v, vectors",
        [([1.5, 0], [[1, 0]]), ([1, 0], [[1.0, 0.5]]), ([True, False], [[1, 0]]), (["1", "0"], [])],
        ids=["float-vector", "float-member", "bool", "str"],
    )
    def test_non_integer_entries_rejected(self, v, vectors):
        # The first read as True: 1.5 was cast to 1, which is in the span.
        with pytest.raises(FieldError, match="integer"):
            in_span(v, vectors, FieldSpec(3))

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            in_span(np.array([1, 0]), [np.array([1, 0, 0])], FieldSpec(2))

    @pytest.mark.parametrize("q", [2, 3, 7, MAX_ORDER])
    def test_seeded_blocks_match_rank_increment(self, q):
        # The rows of each block span; v is one of their combinations, then a random vector.
        spec = FieldSpec(q)
        rng = np.random.default_rng([37, q])
        outcomes = {True: 0, False: 0}
        for a in fq_blocks(q, 100, seed=41):
            k, n = a.shape
            vecs = list(a)
            combo = FMatrix(a.T.copy(), spec).mul_vector(rng.integers(0, q, size=k))
            for v in (combo, rng.integers(0, q, size=n)):
                expected = rank_generic(a, q) == rank_generic(np.vstack([a, v]), q)
                assert in_span(v, vecs, spec) == expected
                outcomes[expected] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_exact_at_largest_order(self):
        # v's pivot entries times the last column sum to 3 (q - 1)^2, which an
        # unreduced int64 dot product would wrap.
        q = MAX_ORDER
        base = [[1, 0, 0, q - 1], [0, 1, 0, q - 1], [0, 0, 1, q - 1]]
        assert in_span([q - 1, q - 1, q - 1, 3], base, FieldSpec(q))
        assert not in_span([q - 1, q - 1, q - 1, 4], base, FieldSpec(q))

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

    @pytest.mark.parametrize("rhs", [[3.5], [True], np.array(["3"])])
    def test_non_integer_rhs_rejected(self, rhs):
        with pytest.raises(FieldError, match="integer"):
            solve_consistent(FMatrix.from_rows([[1]], 5), rhs)

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
