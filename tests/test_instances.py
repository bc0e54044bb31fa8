"""Instance model: construction, generators, bipartite bookkeeping."""

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
    neighbors,
    random_instance,
)


class TestBuildInstance:
    def test_demo_instance_shape(self, demo_instance):
        assert demo_instance.m == 3
        assert demo_instance.n == 7
        assert demo_instance.requirements[3] == frozenset({0, 1})

    def test_trivial_single_edge(self):
        inst = build_instance(1, [{0}])
        assert inst.n == 1 and inst.requirements[0] == frozenset({0})

    def test_out_of_range_index(self):
        with pytest.raises(InstanceError, match="out of range"):
            build_instance(2, [{0, 5}])

    def test_duplicates_collapse(self):
        inst = build_instance(3, [[1, 1, 2]])
        assert inst.requirements[0] == frozenset({1, 2})

    def test_side_info_is_complement(self, demo_instance):
        assert demo_instance.side_info(0) == frozenset({1, 2})
        assert demo_instance.side_info(3) == frozenset({2})

    def test_vacuous_clients_flagged(self):
        inst = build_instance(2, [set(), {0}])
        assert inst.is_vacuous(0) and not inst.is_vacuous(1)
        assert inst.non_vacuous_clients() == [1]
        assert inst.initial_active() == {1}


class TestRandomInstance:
    def test_p_zero_all_empty(self):
        inst = random_instance(5, 3, 0.0, seed=7)
        assert all(r == frozenset() for r in inst.requirements)

    def test_p_one_all_full(self):
        inst = random_instance(5, 3, 1.0, seed=7)
        assert all(r == frozenset({0, 1, 2}) for r in inst.requirements)

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

    def test_invalid_parameters(self):
        with pytest.raises(InstanceError):
            random_instance(0, 3, 0.5, seed=0)
        with pytest.raises(InstanceError):
            random_instance(3, 3, 1.5, seed=0)


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

    def test_bad_index(self, demo_instance):
        with pytest.raises(InstanceError):
            neighbors(demo_instance, 3)


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


class TestSerialization:
    def test_json_roundtrip(self, demo_instance):
        obj = demo_instance.to_json()
        assert obj["m"] == 3 and obj["requirements"][3] == [0, 1]
        assert PliableInstance.from_json(obj) == demo_instance

    def test_text_roundtrip_with_empty_set(self):
        inst = build_instance(3, [{0, 2}, set(), {1}])
        assert PliableInstance.from_text(inst.to_text()) == inst

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
        assert PliableInstance.from_text("3 1\n0 2\n\n  \n").requirements == (frozenset({0, 2}),)

    def test_text_non_integer_index_rejected(self):
        with pytest.raises(InstanceError):
            PliableInstance.from_text("3 1\n1.9\n")


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
