"""Instance model: construction, generators, bipartite bookkeeping."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plicode.instances import (
    InstanceError,
    PliableInstance,
    adjacency_matrix,
    all_pairs_instance,
    build_instance,
    instance_hash,
    random_instance,
)


def neighbors(instance, j):
    """Clients requiring message j, read off the message-major view."""
    indptr, indices = instance.clients_by_message
    return frozenset(indices[indptr[j] : indptr[j + 1]].tolist())


class TestBuildInstance:
    def test_demo_instance_shape(self, demo_instance):
        assert demo_instance.m == 3
        assert demo_instance.n == 7
        assert demo_instance.requirements[3] == (0, 1)

    def test_trivial_single_edge(self):
        inst = build_instance(1, [{0}])
        assert inst.n == 1 and inst.requirements[0] == (0,)

    def test_out_of_range_index(self):
        with pytest.raises(InstanceError, match="out of range"):
            build_instance(2, [{0, 5}])

    def test_duplicates_collapse(self):
        inst = build_instance(3, [[2, 1, 1]])
        assert inst.requirements[0] == (1, 2)

    def test_side_info_is_complement(self, demo_instance):
        assert demo_instance.side_info(0) == frozenset({1, 2})
        assert demo_instance.side_info(3) == frozenset({2})

    def test_vacuous_clients_flagged(self):
        inst = build_instance(2, [set(), {0}])
        assert not inst.adjacency[0].any() and inst.adjacency[1].any()
        assert inst.non_vacuous_clients() == [1]


class TestConstructor:
    @pytest.mark.parametrize(
        "adj",
        [
            np.zeros((2, 3), dtype=np.int64),
            np.zeros((2, 3), dtype=float),
            np.zeros(3, dtype=bool),
            np.zeros((2, 2, 2), dtype=bool),
            [[True, False]],
        ],
        ids=["int", "float", "1-D", "3-D", "list"],
    )
    def test_rejects_all_but_2d_bool(self, adj):
        # Not cast to bool and not reshaped.
        with pytest.raises(InstanceError, match="2-D bool"):
            PliableInstance(adj)

    def test_shape_gives_counts_and_array_is_frozen(self):
        adj = np.zeros((4, 7), dtype=bool)
        inst = PliableInstance(adj)
        assert (inst.n, inst.m) == (4, 7) and inst.adjacency is adj
        with pytest.raises(ValueError):
            adj[0, 0] = True

    def test_view_is_copied(self):
        base = np.zeros((3, 4), dtype=bool)
        inst = PliableInstance(base[:, :2])
        base[0, 0] = True
        assert not inst.adjacency.any() and inst.adjacency.flags.owndata

    def test_hash_covers_shape(self):
        # Both shapes pack to one zero byte.
        a = PliableInstance(np.zeros((1, 8), dtype=bool))
        b = PliableInstance(np.zeros((8, 1), dtype=bool))
        assert a != b and instance_hash(a) != instance_hash(b)

    def test_generated_and_built_agree(self):
        a = random_instance(40, 9, 0.3, seed=7)
        b = build_instance(9, [sorted(r, reverse=True) for r in a.requirements])
        assert a == b and instance_hash(a) == instance_hash(b)
        c = build_instance(9, [*b.requirements[:-1], [0, 1, 2]])
        assert a != c and instance_hash(a) != instance_hash(c)

    def test_not_hashable(self, demo_instance):
        with pytest.raises(TypeError):
            hash(demo_instance)


class TestRandomInstance:
    def test_p_zero_all_empty(self):
        inst = random_instance(5, 3, 0.0, seed=7)
        assert inst.requirements == ((),) * 5

    def test_p_one_all_full(self):
        inst = random_instance(5, 3, 1.0, seed=7)
        assert inst.requirements == ((0, 1, 2),) * 5

    def test_density_near_p(self):
        inst = random_instance(100, 32, 0.3, seed=1)
        density = sum(len(r) for r in inst.requirements) / (100 * 32)
        assert abs(density - 0.3) < 0.05

    def test_reproducible(self):
        a = random_instance(40, 10, 0.4, seed=11)
        b = random_instance(40, 10, 0.4, seed=11)
        assert a == b
        assert instance_hash(a) == instance_hash(b)

    def test_different_seed_differs(self):
        a = random_instance(40, 10, 0.4, seed=11)
        b = random_instance(40, 10, 0.4, seed=12)
        assert a != b

    def test_sequence_seed(self):
        a = random_instance(10, 5, 0.5, seed=[3, 100, 0])
        b = random_instance(10, 5, 0.5, seed=[3, 100, 0])
        assert a == b

    @pytest.mark.parametrize(
        "n, m, seed",
        [(1000, 100, 4), (1001, 70_000 // 64, [5, 2, 0]), (3, 70_000, 6), (3, 70_000, [6, 1])],
        ids=["partial-last-block", "sequence-seed", "row-per-block", "row-per-block-sequence"],
    )
    def test_blocked_draw_matches_one_shot(self, n, m, seed):
        # Blocks hold 2^16 // m rows (one row once m > 2^16); n is never a multiple.
        expected = np.random.default_rng(seed).random((n, m)) < 0.2
        assert np.array_equal(random_instance(n, m, 0.2, seed).adjacency, expected)

    def test_invalid_parameters(self):
        with pytest.raises(InstanceError):
            random_instance(0, 3, 0.5, seed=0)
        with pytest.raises(InstanceError):
            random_instance(3, 3, 1.5, seed=0)

    @pytest.mark.parametrize(
        "n, m, p",
        [
            (3, 4, True),
            (3, 4, np.True_),
            (3, 4, "0.5"),
            (3.0, 4, 0.5),
            (3, 4.0, 0.5),
            (True, 4, 0.5),
        ],
        ids=["bool-p", "numpy-bool-p", "str-p", "float-n", "float-m", "bool-n"],
    )
    def test_malformed_numbers_rejected(self, n, m, p):
        # Not every edge drawn for a bool p, and no TypeError for a float size or str p.
        with pytest.raises(InstanceError, match="integers n, m|edge probability"):
            random_instance(n, m, p, seed=0)

    @pytest.mark.parametrize("seed", [True, 1.9, -1, [3, 1.0], [3, False], (3, -1)])
    def test_seed_never_truncated(self, seed):
        # Not read as seed 1 (or [3, 1], [3, 0]), and no numpy error instead.
        with pytest.raises(InstanceError, match="seed entries"):
            random_instance(3, 3, 0.5, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        seed = [np.int64(3), np.uint8(1)]
        assert random_instance(10, 5, 0.5, seed=seed) == random_instance(10, 5, 0.5, seed=[3, 1])


class TestAllPairsInstance:
    def test_m4_matches_listing(self, quad_instance):
        assert quad_instance.n == 10
        expected = [
            {0},
            {1},
            {2},
            {3},
            {0, 1},
            {0, 2},
            {0, 3},
            {1, 2},
            {1, 3},
            {2, 3},
        ]
        assert sorted(map(sorted, quad_instance.requirements)) == sorted(
            map(sorted, map(frozenset, expected))
        )

    def test_smallest_case(self):
        inst = all_pairs_instance(2)
        assert [sorted(r) for r in inst.requirements] == [[0], [1], [0, 1]]

    def test_m6_count(self):
        assert all_pairs_instance(6).n == 21

    def test_non_integer_m_rejected(self):
        with pytest.raises(InstanceError, match="integer"):
            all_pairs_instance(3.0)

    @pytest.mark.parametrize("m", [*range(2, 13), np.int64(7)], ids=str)
    def test_matches_built_instance(self, m):
        reqs = [(j,) for j in range(m)] + list(itertools.combinations(range(m), 2))
        assert all_pairs_instance(m) == build_instance(m, reqs)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_singleton_and_pair_counts(self, m):
        inst = all_pairs_instance(m)
        singles = sum(1 for r in inst.requirements if len(r) == 1)
        pairs = sum(1 for r in inst.requirements if len(r) == 2)
        assert singles == m and pairs == m * (m - 1) // 2


class TestNeighbors:
    def test_demo_first_message(self, demo_instance):
        assert neighbors(demo_instance, 0) == frozenset({0, 3, 4, 6})

    def test_isolated_message(self):
        inst = build_instance(2, [{0}])
        assert neighbors(inst, 1) == frozenset()

    def test_full_instance(self):
        inst = random_instance(5, 3, 1.0, seed=0)
        assert neighbors(inst, 1) == frozenset(range(5))


class TestAdjacency:
    def test_cached_and_read_only(self, demo_instance):
        adj = adjacency_matrix(demo_instance)
        assert adjacency_matrix(demo_instance) is adj
        with pytest.raises(ValueError):
            adj[0, 0] = False
        # The cache is not part of the instance's value.
        assert demo_instance == build_instance(3, [set(r) for r in demo_instance.requirements])

    @pytest.mark.parametrize(
        "inst",
        [
            random_instance(40, 9, 0.3, seed=7),
            all_pairs_instance(5),
            build_instance(4, [set(), {1, 3}, set(), {0}]),
        ],
        ids=["random", "all-pairs", "vacuous"],
    )
    def test_matches_per_client_construction(self, inst):
        expected = np.zeros((inst.n, inst.m), dtype=bool)
        for i, r in enumerate(inst.requirements):
            for j in r:
                expected[i, j] = True
        adj = adjacency_matrix(inst)
        assert adj.dtype == bool and np.array_equal(adj, expected)

    @pytest.mark.parametrize(
        "inst",
        [
            random_instance(40, 9, 0.3, seed=7),
            all_pairs_instance(5),
            build_instance(4, [set(), {3, 1}, set(), {0}]),
        ],
        ids=["random", "all-pairs", "vacuous"],
    )
    def test_requirements_match_rows(self, inst):
        rows = [np.flatnonzero(row).tolist() for row in adjacency_matrix(inst)]
        reqs = inst.requirements
        assert reqs == tuple(map(tuple, rows))
        assert inst.requirements is reqs and all(type(r) is tuple for r in reqs)
        # to_json hands out fresh lists: editing them leaves the instance as it was.
        listed = inst.to_json()["requirements"]
        assert listed == rows and all(type(r) is list for r in listed)
        for r in listed:
            r.append(-1)
        assert inst.to_json()["requirements"] == rows and inst.requirements == reqs


class TestClientsByMessage:
    @pytest.mark.parametrize(
        "inst",
        [
            random_instance(300, 40, 0.01, seed=1),
            random_instance(300, 40, 0.3, seed=2),
            random_instance(300, 40, 0.9, seed=3),
            all_pairs_instance(6),
            build_instance(5, [set(), {1, 3}, set(), {0, 3}]),
            PliableInstance(np.zeros((0, 4), dtype=bool)),
            PliableInstance(np.zeros((4, 0), dtype=bool)),
        ],
        ids=["p0.01", "p0.3", "p0.9", "all-pairs", "empty-rows-and-columns", "n0", "m0"],
    )
    def test_matches_per_column_flatnonzero(self, inst):
        indptr, indices = inst.clients_by_message
        assert indptr.shape == (inst.m + 1,) and indptr[0] == 0
        for j in range(inst.m):
            column = indices[indptr[j] : indptr[j + 1]]
            assert column.tolist() == np.flatnonzero(inst.adjacency[:, j]).tolist()
        assert indptr[-1] == indices.size == inst.adjacency.sum()

    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (65536, np.uint16), (65537, np.uint32)])
    def test_index_dtype_holds_last_client(self, n, dtype):
        adj = np.zeros((n, 2), dtype=bool)
        adj[[0, n - 1], 1] = True
        indptr, indices = PliableInstance(adj).clients_by_message
        assert indices.dtype == dtype
        assert indptr.tolist() == [0, 0, 2] and indices.tolist() == [0, n - 1]

    def test_cached_and_read_only(self):
        inst = random_instance(30, 8, 0.3, seed=4)
        view = inst.clients_by_message
        assert inst.clients_by_message is view
        for arr in view:
            with pytest.raises(ValueError):
                arr[0] = 1


class TestMessagesByClient:
    @pytest.mark.parametrize(
        "inst",
        [
            random_instance(300, 40, 0.3, seed=2),
            all_pairs_instance(6),
            build_instance(4, [set(), set(), set()]),
            random_instance(20, 1, 0.5, seed=5),
            PliableInstance(np.zeros((0, 4), dtype=bool)),
        ],
        ids=["random", "all-pairs", "all-vacuous", "m1", "n0"],
    )
    def test_matches_per_row_flatnonzero(self, inst):
        indptr, indices = inst.messages_by_client
        assert indices.dtype == np.min_scalar_type(inst.m - 1)
        assert indptr.shape == (inst.n + 1,) and indptr[0] == 0
        for i in range(inst.n):
            row = indices[indptr[i] : indptr[i + 1]]
            assert row.tolist() == np.flatnonzero(inst.adjacency[i]).tolist()
        assert indptr[-1] == indices.size == inst.clients_by_message[1].size

    @pytest.mark.parametrize("m, dtype", [(256, np.uint8), (65536, np.uint16), (65537, np.uint32)])
    def test_index_dtype_holds_last_message(self, m, dtype):
        adj = np.zeros((2, m), dtype=bool)
        adj[1, [0, m - 1]] = True
        indptr, indices = PliableInstance(adj).messages_by_client
        assert indices.dtype == dtype
        assert indptr.tolist() == [0, 0, 2] and indices.tolist() == [0, m - 1]

    def test_cached_and_read_only(self):
        inst = random_instance(30, 8, 0.3, seed=4)
        view = inst.messages_by_client
        assert inst.messages_by_client is view
        for arr in view:
            with pytest.raises(ValueError):
                arr[0] = 1


class TestSerialization:
    def test_json_roundtrip(self, demo_instance):
        obj = demo_instance.to_json()
        assert obj["m"] == 3 and obj["requirements"][3] == [0, 1]
        assert PliableInstance.from_json(obj) == demo_instance

    def test_text_roundtrip_with_empty_set(self):
        inst = build_instance(3, [{0, 2}, set(), {1}])
        assert PliableInstance.from_text(inst.to_text()) == inst

    def test_text_roundtrip_with_last_client_vacuous(self):
        inst = build_instance(3, [{0}, {1}, set()])
        assert inst.to_text() == "3 3\n0\n1\n\n"
        assert PliableInstance.from_text(inst.to_text()) == inst

    def test_text_missing_client_line_rejected(self):
        # The newline ending client 2's line is not a third, vacuous client.
        with pytest.raises(InstanceError, match="expected 3 client lines, got 2"):
            PliableInstance.from_text("3 3\n0\n1\n")

    def test_text_header_required(self):
        with pytest.raises(InstanceError):
            PliableInstance.from_text("")

    @pytest.mark.parametrize(
        "obj",
        [
            {"m": 3, "requirements": [[0], [1.9]]},  # not truncated to index 1
            {"m": 3, "requirements": [[True]]},
            {"m": 3, "requirements": [["1"]]},
            {"m": 3.0, "requirements": [[0]]},
        ],
    )
    def test_json_non_integer_rejected(self, obj):
        with pytest.raises(InstanceError, match="integer"):
            PliableInstance.from_json(obj)

    def test_text_negative_client_count_rejected(self):
        # Not read as n = 2.
        with pytest.raises(InstanceError, match="client count"):
            PliableInstance.from_text("3 -2\n0\n1\n")

    def test_text_lines_after_last_client_rejected(self):
        # The two extra lines are not dropped silently.
        with pytest.raises(InstanceError, match="line 3"):
            PliableInstance.from_text("3 1\n0\n1\n2\n")

    def test_text_trailing_blank_lines_allowed(self):
        assert PliableInstance.from_text("3 1\n0 2\n\n  \n").requirements == ((0, 2),)

    def test_text_non_integer_index_rejected(self):
        with pytest.raises(InstanceError):
            PliableInstance.from_text("3 1\n1.9\n")

    def test_json_duplicates_collapse(self):
        # Canonicalisation, as in build_instance: [1, 1] is R = {1}.
        inst = PliableInstance.from_json({"m": 3, "requirements": [[1, 1], [2, 0, 2]]})
        assert inst.to_json() == {"m": 3, "requirements": [[1], [0, 2]]}

    def test_text_duplicates_collapse(self):
        inst = PliableInstance.from_text("3 2\n1 1\n2 0 2\n")
        assert inst.to_text() == "3 2\n1\n0 2\n"

    @pytest.mark.parametrize(
        "obj",
        [
            [[0], [1]],
            {"m": 3},
            {"requirements": [[0]]},
            {"m": 3, "requirements": [0, 1]},
            {"m": 3, "requirements": "01"},
        ],
        ids=["not-a-dict", "no-requirements", "no-m", "flat-list", "string"],
    )
    def test_json_wrong_structure_rejected(self, obj):
        # All but the string raised KeyError or TypeError.
        with pytest.raises(InstanceError):
            PliableInstance.from_json(obj)

    def test_unallocatable_message_count_rejected(self):
        with pytest.raises(InstanceError, match="no room"):
            build_instance(10**30, [[0]])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.lists(
            st.sets(st.integers(0, m - 1), max_size=m), min_size=1, max_size=8
        ).map(lambda reqs: (m, reqs))
    )
)
def test_edge_count_agrees_from_both_sides(case):
    m, reqs = case
    inst = build_instance(m, reqs)
    from_messages = sum(len(neighbors(inst, j)) for j in range(m))
    from_clients = sum(len(r) for r in inst.requirements)
    assert from_messages == from_clients
    assert adjacency_matrix(inst).sum() == from_clients
    assert PliableInstance.from_text(inst.to_text()) == inst
