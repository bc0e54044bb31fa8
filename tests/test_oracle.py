"""Exact oracles: brute-force code length, constrained minrank, field sizes."""

import itertools

import numpy as np
import pytest

from plicode import oracle
from plicode.decoding import is_valid_code
from plicode.fields import MAX_ORDER, FieldError, FMatrix, _rref, essential_columns, rank_generic
from plicode.instances import all_pairs_instance, build_instance, random_instance
from plicode.oracle import (
    BudgetError,
    OracleError,
    count_pairwise_independent,
    gaussian_binomial,
    min_field_for_length2,
    minrank_fitted,
    optimal_code_length,
)


# Reference searches: the column-by-column numpy DFS that re-eliminates every
# finished client at every node, and the minrank scan that tests one client
# at a time. Each returns (value, witness entries or None, enumerated).


def reference_optimal_code_length(instance, q, max_K):
    m = instance.m
    counter = 0
    for k in range(1, max_K + 1):
        finish = [[] for _ in range(m)]
        for i in instance.non_vacuous_clients():
            req = sorted(instance.requirements[i])
            finish[req[-1]].append(req)
        options = list(itertools.product(range(q), repeat=k))
        assigned = np.zeros((k, m), dtype=np.int64)

        def dfs(col):
            nonlocal counter
            if col == m:
                return True
            for vec in options:
                counter += 1
                assigned[:, col] = vec
                if all(essential_columns(assigned[:, req], q).any() for req in finish[col]):
                    if dfs(col + 1):
                        return True
            assigned[:, col] = 0
            return False

        if dfs(0):
            return k, assigned.tolist(), counter
    return None, None, counter


def rref_bases(m, r, q):
    """Each r-dimensional subspace of F_q^m as its canonical reduced-echelon
    basis (r x m array), in the order minrank_fitted tests them."""
    for chunk in oracle._rref_chunks(m, r, q, 64):
        yield from chunk


def _has_fitting_vector(vecs, req):
    sub = vecs[:, req]
    return bool((((sub == 1).sum(axis=1) == 1) & ((sub != 0).sum(axis=1) == 1)).any())


def reference_minrank_fitted(instance, q, max_r):
    reqs = [sorted(instance.requirements[i]) for i in instance.non_vacuous_clients()]
    count = 0
    for r in range(1, max_r + 1):
        coeffs = np.array(list(itertools.product(range(q), repeat=r)), dtype=np.int64)[1:]
        for basis in rref_bases(instance.m, r, q):
            count += 1
            vecs = (coeffs @ basis) % q
            if all(_has_fitting_vector(vecs, req) for req in reqs):
                return r, basis.tolist(), count
    return None, None, count


def _outcome(res):
    return res.value, None if res.witness is None else res.witness.entries.tolist(), res.enumerated


class TestOptimalCodeLength:
    def test_quad_ternary_length_two(self, quad_instance):
        res = optimal_code_length(quad_instance, q=3, max_K=2)
        assert res.value == 2
        assert is_valid_code(res.witness, quad_instance)

    def test_quad_binary_length_three(self, quad_instance):
        res = optimal_code_length(quad_instance, q=2, max_K=4)
        assert res.value == 3
        assert is_valid_code(res.witness, quad_instance)

    def test_quad_binary_exceeds_cap_two(self, quad_instance):
        res = optimal_code_length(quad_instance, q=2, max_K=2)
        assert res.value is None and res.witness is None

    def test_no_binary_length_two_by_flat_enumeration(self, quad_instance):
        # Independent oracle: enumerate all 256 binary 2x4 matrices directly.
        count = 0
        for entries in itertools.product(range(2), repeat=8):
            count += 1
            mat = FMatrix.from_rows(np.array(entries).reshape(2, 4), 2)
            assert not is_valid_code(mat, quad_instance)
        assert count == 256

    def test_single_client(self):
        inst = build_instance(3, [{1}])
        for q in (2, 3):
            assert optimal_code_length(inst, q=q, max_K=3).value == 1

    def test_vacuous_only(self):
        inst = build_instance(2, [set()])
        res = optimal_code_length(inst, q=2, max_K=2)
        assert res.value == 0 and res.witness.n_rows == 0

    def test_budget_guard(self, quad_instance, monkeypatch):
        # At q = 3 the search tries 4 options at level 1 and 14 at level 2,
        # where it finds K = 2: the budget bounds .enumerated itself.
        monkeypatch.setattr(oracle, "MAX_NODES", 18)
        res = optimal_code_length(quad_instance, q=3, max_K=20)
        assert (res.value, res.enumerated) == (2, 18)
        monkeypatch.setattr(oracle, "MAX_NODES", 17)
        with pytest.raises(BudgetError, match="17"):
            optimal_code_length(quad_instance, q=3, max_K=20)
        # Budget 10 trips on the 11th option, inside level 2 (entered after
        # 4 options), not on entering it.
        search, levels = oracle._search_fixed_length, []

        def spy(instance, q, k, counter):
            levels.append((k, counter))
            return search(instance, q, k, counter)

        monkeypatch.setattr(oracle, "_search_fixed_length", spy)
        monkeypatch.setattr(oracle, "MAX_NODES", 10)
        with pytest.raises(BudgetError, match="K = 2"):
            optimal_code_length(quad_instance, q=3, max_K=20)
        assert levels[-1] == (2, [11])

    def test_option_table_past_the_budget_refused(self, monkeypatch):
        # Level k over F_q has 1 + (q^k - 1) / (q - 1) options per column, and
        # no id >= MAX_NODES is ever tried, so a larger table is refused before
        # it is built: at q = 2^31 - 1, level 2 would hold 2^31 + 1 options.
        inst = all_pairs_instance(3)
        res = optimal_code_length(inst, 100003, 2)
        assert (res.value, res.enumerated) == (2, 13)
        with pytest.raises(BudgetError, match="options per column at K = 2"):
            optimal_code_length(inst, MAX_ORDER, 2)
        # Over F_101, level 2 has 103 options per column.
        monkeypatch.setattr(oracle, "MAX_NODES", 103)
        assert optimal_code_length(inst, 101, 2).value == 2
        monkeypatch.setattr(oracle, "MAX_NODES", 102)
        with pytest.raises(BudgetError, match="103 options"):
            optimal_code_length(inst, 101, 2)

    def test_numpy_budget_does_not_wrap(self):
        # Level 1 holds 2^64 canonical codes, a count that reads 0 in int64;
        # the budget counts options tried, and the first code that serves
        # the client is found on the 65th.
        inst = build_instance(64, [{0}])
        res = optimal_code_length(inst, q=np.int64(2), max_K=1)
        assert (res.value, res.enumerated) == (1, 65)

    @pytest.mark.parametrize("q", [2, 3])
    def test_numpy_field_order(self, quad_instance, q):
        # A numpy order searches as its Python int: same value, witness and count.
        assert _outcome(optimal_code_length(quad_instance, np.int64(q), 4)) == (
            _outcome(optimal_code_length(quad_instance, q, 4))
        )
        assert _outcome(minrank_fitted(quad_instance, np.int64(q), 3)) == (
            _outcome(minrank_fitted(quad_instance, q, 3))
        )

    def test_deterministic_witness(self, quad_instance):
        a = optimal_code_length(quad_instance, q=3, max_K=2)
        b = optimal_code_length(quad_instance, q=3, max_K=2)
        assert a.witness.equals(b.witness)

    def test_monotone_in_field_size(self, quad_instance):
        lengths = [optimal_code_length(quad_instance, q=q, max_K=4).value for q in (2, 3, 5)]
        assert lengths == sorted(lengths, reverse=True)

    def test_json_shape(self, quad_instance):
        obj = optimal_code_length(quad_instance, q=3, max_K=2).to_json()
        assert set(obj) == {"K", "witness", "enumerated", "elapsed_ms"}
        assert obj["K"] == 2 and obj["witness"]["q"] == 3


def _matches_length_reference(inst, q, max_K):
    # The canonical search finds the same length on a sparser tree: it may
    # return another witness, and it never tries more options.
    res = optimal_code_length(inst, q, max_K)
    value, _, enumerated = reference_optimal_code_length(inst, q, max_K)
    assert res.value == value
    assert res.witness is None if value is None else is_valid_code(res.witness, inst)
    assert res.enumerated <= enumerated


def _canonical_form(a, q):
    # Reduced echelon form, then each non-pivot column scaled to a first nonzero entry of 1.
    r, pivots = _rref(a, q)
    for j in set(range(a.shape[1])) - set(pivots):
        nz = np.nonzero(r[:, j])[0]
        if nz.size:
            r[:, j] = r[:, j] * pow(int(r[nz[0], j]), -1, q) % q
    return r


class TestCanonicalCodes:
    def test_shared_tables_are_immutable(self):
        # _tables is memoised across searches, so a search must not be able to alter it.
        tables = oracle._tables(3, 2)
        assert all(type(t) is tuple for t in tables)
        assert oracle._tables(3, 2) is tables

    def test_only_small_tables_stay_memoised(self):
        # This search tries 13 options, but its level-2 table holds 100,005;
        # kept in the cache, it held about 30 MB after the search returned.
        inst = all_pairs_instance(3)
        oracle._tables.cache_clear()
        res = optimal_code_length(inst, 100003, 2)
        assert (res.value, res.enumerated) == (2, 13)
        assert oracle._tables.cache_info().currsize == 1  # level 1's two options
        # The oracle workload's tables (q <= 13, K <= 3) hold at most 184
        # options and are built once.
        first = optimal_code_length(inst, 13, 3)
        assert oracle._tables.cache_info().currsize == 1 + first.value
        hits = oracle._tables.cache_info().hits
        again = optimal_code_length(inst, 13, 3)
        assert (again.value, again.enumerated) == (first.value, first.enumerated)
        assert oracle._tables.cache_info().hits == hits + first.value
        assert 1 + (13**3 - 1) // 12 == 184 <= oracle._MEMO_OPTIONS

    @pytest.mark.parametrize("m,k,q", [(3, 2, 3), (4, 2, 2), (3, 3, 2), (2, 2, 5)])
    def test_every_code_has_one_canonical_form_with_the_same_verdicts(self, m, k, q):
        # The canonical forms of all q^(k*m) codes are exactly the codes the
        # search may visit, those whose every column is an option open at its
        # pivot count, and each has the original's essential columns on every
        # column subset, so every client's verdict.
        options, _, below, _ = oracle._tables(q, k)
        allowed = set()
        for seq in itertools.product(range(len(options)), repeat=m):  # at most 512
            r = 0
            for t in seq:
                if not (t < below[r] or (t == below[r] and r < k)):
                    break
                r += t == below[r]
            else:
                allowed.add(tuple(options[t] for t in seq))
        subsets = [list(s) for r in range(1, m + 1) for s in itertools.combinations(range(m), r)]
        forms = set()
        for entries in itertools.product(range(q), repeat=k * m):
            a = np.array(entries, dtype=np.int64).reshape(k, m)
            c = _canonical_form(a, q)
            for s in subsets:
                assert (essential_columns(c[:, s], q) == essential_columns(a[:, s], q)).all()
            forms.add(tuple(map(tuple, c.T.tolist())))
        assert forms == allowed


class TestMatchesReferenceSearches:
    """The canonical length search returns the reference search's value, a
    valid witness and no more enumerated options; the all-clients minrank
    pass returns the same value, witness and enumeration count as its
    reference."""

    @pytest.mark.parametrize(
        "q,n,m,seeds",
        [
            (2, 8, 5, range(4)),
            (2, 30, 5, range(3)),
            (3, 15, 4, range(3)),
            (3, 20, 3, range(3)),
            (5, 8, 3, range(3)),
            (5, 12, 3, range(1)),  # the reference tries 12684 options here
            (7, 12, 4, range(3)),
        ],
    )
    def test_seeded_random_instances(self, q, n, m, seeds):
        for seed in seeds:
            inst = random_instance(n, m, 0.5, seed=[17, q, seed])
            _matches_length_reference(inst, q, 3)
            assert _outcome(minrank_fitted(inst, q, max_r=3)) == (
                reference_minrank_fitted(inst, q, 3)
            )

    @pytest.mark.parametrize("m", [4, 5, 6])
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_all_pairs_instances(self, m, q):
        inst = all_pairs_instance(m)
        _matches_length_reference(inst, q, 2)
        if gaussian_binomial(m, 2, q) < 10**5:  # the per-client reference is slow
            assert _outcome(minrank_fitted(inst, q, max_r=2)) == (
                reference_minrank_fitted(inst, q, 2)
            )


def _span(rows, q):
    """The row space of rows over F_q, as a frozenset of vectors."""
    return frozenset(
        tuple(sum(c * np.asarray(row) for c, row in zip(coeffs, rows)) % q)
        for coeffs in itertools.product(range(q), repeat=len(rows))
    )


def _batched(monkeypatch, inst, q, r, size):
    """Make minrank_fitted test the r-dimensional subspaces of inst in
    batches of size bases."""
    clients = len(inst.non_vacuous_clients())
    monkeypatch.setattr(oracle, "_BATCH_CELLS", size * (q**r - 1) * (inst.m + clients))
    assert oracle._batch_size(inst.m, r, q, clients) == size


class TestBatchBoundaries:
    """With small batches, the batched search keeps the reference's value,
    witness and enumeration count wherever the first fitting basis falls.

    On all_pairs_instance(4) over F_3 it is basis 42 of level 2, in the
    first pivot tuple's 81 bases (42 + 40 of level 1 = 82 enumerated)."""

    @pytest.mark.parametrize(
        "size,batch,last",
        [(64, 0, False), (8, 5, False), (21, 1, True)],
        ids=["first batch", "later batch", "last basis of a batch"],
    )
    def test_hit(self, monkeypatch, size, batch, last):
        inst = all_pairs_instance(4)
        expected = reference_minrank_fitted(inst, 3, 2)
        assert expected[0] == 2 and expected[2] == 82
        position = expected[2] - gaussian_binomial(4, 1, 3)  # 1-based, within level 2
        index, offset = divmod(position - 1, size)
        assert (index, offset == size - 1) == (batch, last)
        _batched(monkeypatch, inst, 3, 2, size)
        assert _outcome(minrank_fitted(inst, 3, 2)) == expected

    def test_no_hit(self, monkeypatch):
        # Binary all-pairs on 4 messages needs dimension 3.
        inst = all_pairs_instance(4)
        _batched(monkeypatch, inst, 2, 2, 4)
        total = gaussian_binomial(4, 1, 2) + gaussian_binomial(4, 2, 2)
        assert _outcome(minrank_fitted(inst, 2, 2)) == (None, None, total)
        assert reference_minrank_fitted(inst, 2, 2) == (None, None, total)


class TestSubspaceEnumeration:
    @pytest.mark.parametrize("m,r,q", [(4, 2, 3), (5, 2, 2), (4, 3, 2), (3, 1, 5)])
    def test_order_against_every_rank_r_matrix(self, m, r, q):
        # Every rank-r r x m matrix over F_q, found by brute force (its span
        # has q^r vectors), spans a subspace; the yielded bases span each of
        # them exactly once, and come sorted by (pivot columns, entries at
        # the free positions row by row), every other entry being fixed.
        every = set()
        for entries in itertools.product(range(q), repeat=r * m):
            span = _span(np.array(entries).reshape(r, m), q)
            if len(span) == q**r:
                every.add(span)
        bases = list(rref_bases(m, r, q))
        spans = [_span(b, q) for b in bases]
        assert len(set(spans)) == len(spans)
        assert set(spans) == every
        keys = []
        for b in bases:
            pivots = tuple(int(np.flatnonzero(row)[0]) for row in b)
            free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, m) if j not in pivots]
            expected = np.zeros((r, m), dtype=np.int64)
            expected[range(r), pivots] = 1
            for i, j in free:
                expected[i, j] = b[i, j]
            assert (b == expected).all()
            keys.append((pivots, tuple(int(b[i, j]) for i, j in free)))
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_count_3_2_2(self):
        bases = list(rref_bases(3, 2, 2))
        assert len(bases) == 7 == gaussian_binomial(3, 2, 2)

    @pytest.mark.parametrize("m,r,q", [(3, 1, 2), (4, 2, 3), (4, 3, 2), (2, 2, 5)])
    def test_counts_match_closed_form(self, m, r, q):
        assert len(list(rref_bases(m, r, q))) == gaussian_binomial(m, r, q)

    def test_bases_distinct_and_full_rank(self):
        seen = set()
        for basis in rref_bases(4, 2, 3):
            assert rank_generic(basis, 3) == 2
            key = tuple(basis.flatten())
            assert key not in seen
            seen.add(key)


class TestMinrankFitted:
    def test_quad_ternary(self, quad_instance):
        res = minrank_fitted(quad_instance, q=3, max_r=4)
        assert res.value == 2
        assert is_valid_code(res.witness, quad_instance)

    def test_single_message_single_client(self):
        inst = build_instance(1, [{0}])
        assert minrank_fitted(inst, q=2, max_r=1).value == 1

    def test_vacuous_only(self):
        inst = build_instance(2, [set()])
        assert minrank_fitted(inst, q=3, max_r=2).value == 0

    def test_budget_guard(self, monkeypatch):
        inst = all_pairs_instance(6)
        monkeypatch.setattr(oracle, "MAX_SUBSPACES", 100)
        with pytest.raises(BudgetError):
            minrank_fitted(inst, q=5, max_r=6)

    def test_span_past_a_batch_refused(self):
        # A basis of dimension r spans (q^r - 1) x (m + clients) cells; one that
        # alone passes _BATCH_CELLS = 262,144 is refused on entering its level.
        # At q = 1000003 the one subspace of F_q^1 memoised 2 x 10^6 cells.
        inst = build_instance(1, [{0}])
        assert minrank_fitted(inst, 131071, 1).value == 1  # 262,140 cells
        for q in (131101, 1000003, MAX_ORDER):
            with pytest.raises(BudgetError, match="batch"):
                minrank_fitted(inst, q, 1)

    def test_all_pairs_m6_over_f5(self):
        # Level 2 spans many batches, and the per-client reference takes
        # too long here, so the outcome is pinned.
        res = minrank_fitted(all_pairs_instance(6), 5, max_r=2)
        assert _outcome(res) == (2, [[1, 0, 1, 1, 1, 1], [0, 1, 1, 2, 3, 4]], 101_601)

    def test_budget_counts_only_the_levels_entered(self):
        # Levels 1..6 of F_5^6 hold 3,583,231 subspaces, past MAX_SUBSPACES,
        # but the search ends in level 2, and levels 1..2 hold 512,337.
        res = minrank_fitted(all_pairs_instance(6), 5, max_r=6)
        assert _outcome(res) == (2, [[1, 0, 1, 1, 1, 1], [0, 1, 1, 2, 3, 4]], 101_601)

    def test_equals_optimal_length_on_random_instances(self):
        matched = 0
        for trial in range(30):
            q = 2 if trial % 2 == 0 else 3
            inst = random_instance(1 + trial % 6, 2 + trial % 3, 0.5, seed=[31, trial])
            opt = optimal_code_length(inst, q=q, max_K=inst.m).value
            mr = minrank_fitted(inst, q=q, max_r=inst.m).value
            assert opt == mr
            matched += 1
        assert matched == 30


@pytest.mark.parametrize(
    "search, cap", [(optimal_code_length, "max_K"), (minrank_fitted, "max_r")], ids=["length", "minrank"]
)
def test_witness_failing_reverification_raises(monkeypatch, quad_instance, search, cap):
    # Each search re-verifies its witness through the decodability engine.
    assert search(quad_instance, 3, **{cap: 2}).value == 2
    monkeypatch.setattr(oracle, "is_valid_code", lambda matrix, instance: False)
    with pytest.raises(OracleError, match="invalid witness"):
        search(quad_instance, 3, **{cap: 2})


class TestFieldSize:
    def test_min_field_m4(self):
        assert min_field_for_length2(4) == 3

    def test_min_field_m3(self):
        assert min_field_for_length2(3) == 2

    def test_min_field_m6(self):
        assert min_field_for_length2(6) == 5

    @pytest.mark.parametrize("m", [7, 8])
    def test_min_field_m7_m8(self, m):
        # 7^(2m) nominal 2 x m codes over F_7, but only 85,520 canonical
        # ones at m = 7.
        assert min_field_for_length2(m) == 7

    def test_min_field_m9(self):
        assert min_field_for_length2(9) == 11

    @pytest.mark.parametrize("m", [10, 11, 12])
    def test_min_field_m10_to_m12(self, m):
        # Level 2 holds 1.04e9 to 1.77e11 canonical codes over F_11, but the
        # search finds one after at most 94 options.
        assert min_field_for_length2(m) == 11

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            min_field_for_length2(2)

    def test_non_integer_m_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            min_field_for_length2(3.0)

    @pytest.mark.parametrize("q,expected", [(2, 3), (3, 4), (5, 6), (7, 8), (11, 12), (13, 14)])
    def test_pairwise_independent_count(self, q, expected):
        assert count_pairwise_independent(q) == expected

    def test_pairwise_count_refused_past_the_budget(self, monkeypatch):
        # It enumerates all q^2 pairs: q = 1009 took about 0.5 s, and a q near
        # 2^31 never returned.
        with pytest.raises(BudgetError, match="pairs"):
            count_pairwise_independent(MAX_ORDER)
        monkeypatch.setattr(oracle, "MAX_NODES", 25)
        assert count_pairwise_independent(5) == 6
        with pytest.raises(BudgetError, match="49 pairs over F_7"):
            count_pairwise_independent(7)

    def test_pairwise_independent_exhaustive_check(self):
        # Direct verification for F_5^2 over all vector pairs: two nonzero
        # vectors have rank 2 iff their direction representatives differ, so
        # one representative per class is a maximal pairwise independent
        # family and any larger set repeats a class.
        q = 5
        vectors = [
            np.array(v) for v in itertools.product(range(q), repeat=2) if any(v)
        ]

        def direction(v):
            lead = int(v[0]) if v[0] else int(v[1])
            inv = pow(lead, -1, q)
            return (int(v[0]) * inv % q, int(v[1]) * inv % q)

        classes = set()
        for a, b in itertools.combinations(vectors, 2):
            independent = rank_generic(np.stack([a, b]), q) == 2
            assert independent == (direction(a) != direction(b))
            classes.add(direction(a))
            classes.add(direction(b))
        reps = [np.array(d) for d in sorted(classes)]
        assert all(
            rank_generic(np.stack(pair), q) == 2
            for pair in itertools.combinations(reps, 2)
        )
        assert len(reps) == q + 1 == count_pairwise_independent(q)


@pytest.mark.parametrize("cap", [True, -1, 2.0], ids=["bool", "negative", "float"])
@pytest.mark.parametrize(
    "search, name",
    [(optimal_code_length, "max_K"), (minrank_fitted, "max_r")],
    ids=["optimal_code_length", "minrank_fitted"],
)
def test_search_cap_must_be_a_non_negative_integer(quad_instance, search, name, cap):
    # A bool cap is not read as 1, and a negative one does not report "no code".
    with pytest.raises(ValueError, match=name):
        search(quad_instance, 2, cap)


def test_non_integer_field_order_rejected(quad_instance):
    with pytest.raises(FieldError, match="integer"):
        optimal_code_length(quad_instance, 2.0, 2)
