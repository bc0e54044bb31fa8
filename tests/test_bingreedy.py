"""Deterministic greedy encoder: sorting, grouping, greedy coding, rounds."""

import importlib
import itertools
import math

import numpy as np
import pytest

from plicode.bingreedy import (
    CODING_VECTORS,
    EncoderStallError,
    GroupCode,
    SortingResult,
    _ABSENT,
    _KEEP,
    _NEXT,
    _OK,
    _STEP,
    _counts_ok,
    bingreedy,
    greedy_assign,
    sort_and_group,
)
from plicode.decoding import is_valid_code
from plicode.fields import FieldSpec, in_span
from plicode.instances import InstanceError, adjacency_matrix, build_instance, random_instance
from test_reports import _band_index


def reference_sort_and_group(instance, active, use_original_n=False):
    """sort_and_group on the dense adjacency: degrees from a row-subset sum,
    each message's clients from its strided column."""
    adj = adjacency_matrix(instance)
    n_thr = instance.n if use_original_n else len(active)
    remaining = np.zeros(instance.n, dtype=bool)
    remaining[sorted(active)] = True
    deg = adj[remaining].sum(axis=0).astype(np.int64)
    avail = np.ones(instance.m, dtype=bool)
    eff = {}
    while True:
        masked = np.where(avail, deg, -1)
        j = int(np.argmax(masked))
        if masked[j] <= 0:
            break
        clients = np.nonzero(adj[:, j] & remaining)[0]
        eff[j] = frozenset(int(c) for c in clients)
        remaining[clients] = False
        deg -= adj[clients].sum(axis=0)
        avail[j] = False
    smax = max(1, n_thr.bit_length())
    groups = [[] for _ in range(smax)]
    for j, clients in eff.items():
        groups[_band_index(len(clients), n_thr) - 1].append(j)
    return SortingResult(eff, groups)


def ordered(sr):
    """The reference's sr in a form whose == also compares eff's key order,
    the greedy order, and each message's clients in increasing order."""
    return [(j, sorted(c)) for j, c in sr.eff.items()], sr.groups


def program(sr):
    """sort_and_group's sr in ordered's form, after checking that each eff
    array is read-only and increasing."""
    for c in sr.eff.values():
        assert not c.flags.writeable and (np.diff(c.astype(np.int64)) > 0).all()
    return [(j, c.tolist()) for j, c in sr.eff.items()], sr.groups


def code(gc):
    """greedy_assign's GroupCode in reference_greedy_assign's form."""
    assert (np.diff(gc.sat) > 0).all()
    return GroupCode(vectors=gc.vectors, sat=set(gc.sat.tolist()))


def reference_greedy_assign(instance, group, eff):
    """greedy_assign reading each message's clients from its strided column,
    plus the clients it demoted to UNSAT."""
    adj = adjacency_matrix(instance)
    sat, unsat, vectors = {}, set(), []
    for j in group:
        affected = [i for i in np.flatnonzero(adj[:, j]).tolist() if i in sat]
        best_t, best_keep = 0, -1
        for t in range(3):
            keep = 0
            for i in affected:
                c = sat[i]
                c[t] += 1
                keep += _counts_ok(c)
                c[t] -= 1
            if keep > best_keep:
                best_t, best_keep = t, keep
        for i in affected:
            sat[i][best_t] += 1
            if not _counts_ok(sat[i]):
                del sat[i]
                unsat.add(i)
        for i in eff[j]:
            sat[i] = [int(t == best_t) for t in range(3)]
        vectors.append(CODING_VECTORS[best_t])
    return GroupCode(vectors=vectors, sat=set(sat)), unsat


@pytest.mark.parametrize("use_original_n", [False, True], ids=["active-n", "original-n"])
@pytest.mark.parametrize("n, p", [(200, 0.3), (3000, 0.01), (3000, 0.3)])
def test_matches_dense_reference(n, p, use_original_n):
    # Every round's SortingResult and GroupCodes, the rows and the report
    # agree with the column-scanning reference, round by round; each group
    # record's eff is its SAT plus its UNSAT clients.
    inst = random_instance(n, round(n**0.75), p, seed=[n, 9])
    active = set(inst.non_vacuous_clients())
    rows, records = [], []
    while active:
        sr = sort_and_group(inst, active, use_original_n)
        ref_sr = reference_sort_and_group(inst, active, use_original_n)
        assert program(sr) == ordered(ref_sr)
        satisfied = set()
        for s, group in enumerate(sr.groups, start=1):
            if group:
                gc = greedy_assign(inst, group, sr.eff)
                ref, unsat = reference_greedy_assign(inst, group, ref_sr.eff)
                assert code(gc) == ref
                records.append((s, group, len(ref.sat), len(ref.sat) + len(unsat)))
                rows += [[0] * inst.m, [0] * inst.m]
                for j, (v0, v1) in zip(group, gc.vectors):
                    rows[-2][j], rows[-1][j] = v0, v1
                satisfied |= ref.sat
        assert satisfied
        active -= satisfied
    matrix, report = bingreedy(inst, use_original_n=use_original_n)
    assert matrix.entries.tolist() == rows
    assert report.rows_raw == len(rows)
    got = [(g.s, g.messages, g.sat, g.eff) for rnd in report.rounds for g in rnd.groups]
    assert got == records


def test_state_table_matches_counts_ok():
    # A state caps each count at 2; the table must agree with _counts_ok on
    # uncapped counts, before and after adding any vector type.
    def state(counts):
        return sum(min(c, 2) * 3**k for k, c in enumerate(counts))

    for counts in itertools.product(range(5), repeat=3):
        assert _OK[state(counts)] == _counts_ok(list(counts)), counts
        for t in range(3):
            after = [c + (k == t) for k, c in enumerate(counts)]
            assert _NEXT[t][state(counts)] == state(after), (counts, t)
            assert _OK[_NEXT[t][state(counts)]] == _counts_ok(after), (counts, t)
    # _STEP moves a SAT state to its successor, or to _ABSENT once it breaks;
    # _KEEP marks the steps that stay in SAT. An absent client stays absent
    # and is never counted as kept.
    assert _ABSENT == 27 and _STEP.shape == _KEEP.shape == (3, 28)
    for t in range(3):
        for st in range(27):
            nxt = _NEXT[t][st]
            assert _STEP[t][st] == (nxt if _OK[nxt] else _ABSENT), (st, t)
            assert _KEEP[t][st] == _OK[nxt], (st, t)
        assert _STEP[t][_ABSENT] == _ABSENT and _KEEP[t][_ABSENT] == 0


class TestSortAndGroup:
    def test_pick_removing_more_than_255_clients(self):
        # One pick removes 300 clients from both columns' degrees, past what
        # an 8-bit column sum holds.
        inst = build_instance(2, [{0, 1}] * 300)
        active = set(inst.non_vacuous_clients())
        sr = sort_and_group(inst, active)
        assert program(sr) == ordered(reference_sort_and_group(inst, active))
        assert [(j, len(c)) for j, c in sr.eff.items()] == [(0, 300)]

    def test_demo_ordering_and_groups(self, demo_instance):
        sr = sort_and_group(demo_instance, set(demo_instance.non_vacuous_clients()))
        assert program(sr)[0] == [(0, [0, 3, 4, 6]), (1, [1, 5]), (2, [2])]
        assert sr.groups == [[0], [1], [2]]

    def test_single_message_single_client(self):
        inst = build_instance(1, [{0}])
        sr = sort_and_group(inst, {0})
        assert program(sr)[0] == [(0, [0])]
        assert sr.groups == [[0]]

    def test_duplicate_neighbor_sets_drop_second(self):
        inst = build_instance(2, [{0, 1}, {0, 1}])
        sr = sort_and_group(inst, {0, 1})
        assert program(sr)[0] == [(0, [0, 1])]

    def test_effective_clients_partition_active(self):
        inst = random_instance(30, 8, 0.4, seed=2)
        active = set(inst.non_vacuous_clients())
        sr = sort_and_group(inst, active)
        seen = set()
        for eff in sr.eff.values():
            assert not (seen & set(eff.tolist()))
            seen |= set(eff.tolist())
        assert seen == active

    def test_degree_band_membership(self):
        # Every grouped message's effective degree lies in its half-open band.
        inst = random_instance(50, 12, 0.3, seed=3)
        active = set(inst.non_vacuous_clients())
        sr = sort_and_group(inst, active)
        by_msg = {j: len(eff) for j, eff in sr.eff.items()}
        for s, group in enumerate(sr.groups, start=1):
            for j in group:
                assert len(active) / 2**s < by_msg[j] <= len(active) / 2 ** (s - 1)

    def test_group_neighbor_cap(self):
        # |N[j] within the round's clients, intersected with the group's
        # effective clients| never exceeds the upper band threshold.
        inst = random_instance(60, 15, 0.35, seed=4)
        active = set(inst.non_vacuous_clients())
        sr = sort_and_group(inst, active)
        for s, group in enumerate(sr.groups, start=1):
            group_set = set(group)
            eff_union = set()
            for j, eff in sr.eff.items():
                if j in group_set:
                    eff_union |= set(eff.tolist())
            for j in group:
                hits = sum(1 for i in eff_union if j in inst.requirements[i])
                assert hits <= len(active) / 2 ** (s - 1)

    def test_greedy_maximality(self):
        # Replay: at every step the chosen message has at least as many
        # remaining neighbors as any unchosen one.
        inst = random_instance(25, 7, 0.5, seed=5)
        active = set(inst.non_vacuous_clients())
        sr = sort_and_group(inst, active)
        remaining = set(active)
        unpicked = set(range(inst.m))
        for j, eff in sr.eff.items():
            count = lambda msg: sum(1 for i in remaining if msg in inst.requirements[i])
            assert count(j) == len(eff)
            assert all(count(other) <= len(eff) for other in unpicked)
            remaining -= set(eff.tolist())
            unpicked.discard(j)

    def test_original_n_threshold_variant(self, demo_instance):
        # Messages 1 and 2 have effective degrees 2 and 1 among clients
        # {1, 2, 5}: bands 2 and 3 against n = 7, bands 1 and 2 against 3.
        sr = sort_and_group(demo_instance, {1, 2, 5}, use_original_n=True)
        assert sr.groups == [[], [1], [2]]
        assert sort_and_group(demo_instance, {1, 2, 5}).groups == [[1], [2]]

    def test_empty_active_rejected(self, demo_instance):
        with pytest.raises(ValueError):
            sort_and_group(demo_instance, set())

    @pytest.mark.parametrize("active", [{-1}, {7}, {1.0}, {True}], ids=["negative", "n", "float", "bool"])
    def test_bad_active_client_rejected(self, demo_instance, active):
        # -1 was read as client n-1; 7 and 1.0 raised numpy's IndexError.
        with pytest.raises(InstanceError, match="active client"):
            sort_and_group(demo_instance, active)

    @pytest.mark.parametrize(
        "active",
        [np.array([0, -1]), np.array([0, 7]), np.array([0, 7], dtype=np.uint16),
         np.array([True, False]), np.array([0.0, 1.0]), np.array([], dtype=np.int64)],
        ids=["int64-negative", "int64-n", "uint16-n", "bool", "float", "empty"],
    )
    def test_bad_active_array_rejected(self, demo_instance, active):
        # bingreedy passes an index array; a bool array would read as a mask.
        with pytest.raises(InstanceError, match="active client"):
            sort_and_group(demo_instance, active)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16])
    def test_active_array_matches_set(self, dtype):
        inst = random_instance(50, 12, 0.3, seed=3)
        active = inst.non_vacuous_clients()[::2]
        got = sort_and_group(inst, np.array(active, dtype=dtype))
        assert program(got) == program(sort_and_group(inst, set(active)))


class TestGreedyAssign:
    def test_singleton_group(self, demo_instance):
        eff = {0: np.array([0, 3, 4, 6])}
        gc = greedy_assign(demo_instance, [0], eff)
        assert gc.vectors == [(1, 0)]
        assert gc.sat.tolist() == [0, 3, 4, 6]

    def test_one_message_all_satisfied(self):
        inst = build_instance(1, [{0}, {0}, {0}])
        gc = greedy_assign(inst, [0], {0: [0, 1, 2]})
        assert gc.sat.tolist() == [0, 1, 2]

    def test_avoids_breaking_double_requirement_client(self):
        # Client 0 requires both group messages; repeating (1,0) on the
        # second message would break it, so the greedy picks (0,1).
        inst = build_instance(2, [{0, 1}, {1}])
        gc = greedy_assign(inst, [0, 1], {0: [0], 1: [1]})
        assert gc.vectors == [(1, 0), (0, 1)]
        assert gc.sat.tolist() == [0, 1]

    def test_sat_soundness_replay(self):
        # Replay: after every greedy step, every SAT client passes the span
        # criterion restricted to the visited columns. The greedy is online,
        # so its state after k steps is its result on the group's first k
        # messages.
        inst = random_instance(40, 10, 0.4, seed=6)
        active = set(inst.non_vacuous_clients())
        sr = sort_and_group(inst, active)
        spec = FieldSpec(2)
        for group in sr.groups:
            if not group:
                continue
            gc = greedy_assign(inst, group, sr.eff)
            for k in range(1, len(group) + 1):
                step = greedy_assign(inst, group[:k], sr.eff)
                assert step.vectors == gc.vectors[:k]
                visited = {j: np.array(v) for j, v in zip(group, step.vectors)}
                for i in step.sat:
                    vecs = [visited[j] for j in sorted(inst.requirements[i]) if j in visited]
                    assert any(
                        not in_span(v, vecs[:t] + vecs[t + 1 :], spec)
                        for t, v in enumerate(vecs)
                    )

    def test_empty_group_rejected(self, demo_instance):
        with pytest.raises(ValueError):
            greedy_assign(demo_instance, [], {})

    @pytest.mark.parametrize("group", [[True], [-1], [3], [0.0]], ids=["bool", "negative", "m", "float"])
    def test_bad_group_message_rejected(self, demo_instance, group):
        # [True] returned a code; -1 and 3 reached numpy's IndexError.
        with pytest.raises(InstanceError, match="group message"):
            greedy_assign(demo_instance, group, {j: [] for j in group})

    def test_message_missing_from_eff_rejected(self, demo_instance):
        # It raised KeyError.
        with pytest.raises(ValueError, match=r"group messages \[1\]"):
            greedy_assign(demo_instance, [0, 1], {0: [0]})

    def test_repeated_group_message_rejected(self):
        # It returned two coding vectors for message 0.
        inst = random_instance(20, 6, 0.4, seed=1)
        with pytest.raises(ValueError, match=r"group repeats messages \[0\]"):
            greedy_assign(inst, [0, 2, 0], {0: [1], 2: []})

    @pytest.mark.parametrize(
        "eff",
        [{0: [99]}, {0: [-5]}, {0: np.array([1.0])}, {0: np.array([True])},
         {0: [1, 2], 1: np.array([True])}, {0: [[1, 2]]}, {0: frozenset({1})}],
        ids=["n", "negative", "float", "bool", "bool-beside-int", "2-d", "set"],
    )
    def test_bad_effective_client_rejected(self, demo_instance, eff):
        # {0: {99, -5}} returned sat == {99, -5}; with one state array, -5
        # would write client n - 5 and a bool array would read as a mask.
        with pytest.raises(InstanceError, match="effective client"):
            greedy_assign(demo_instance, sorted(eff), eff)

    def test_empty_effective_lists_accepted(self, demo_instance):
        # np.asarray([]) is a float array, but it holds no client.
        gc = greedy_assign(demo_instance, [0, 1], {0: [], 1: [1, 5]})
        assert gc.vectors == [(1, 0), (1, 0)] and gc.sat.tolist() == [1, 5]


class TestRunRound:
    """One round of bingreedy, read from its matrix and report."""

    def test_demo_round_matrix_pattern(self, demo_instance):
        matrix, report = bingreedy(demo_instance)
        assert len(report.rounds) == 1
        assert [g.messages for g in report.rounds[0].groups] == [[0], [1], [2]]
        expected = np.zeros((6, 3), dtype=np.int64)
        expected[0, 0] = expected[2, 1] = expected[4, 2] = 1
        assert np.array_equal(matrix.entries, expected)
        assert report.rounds[0].satisfied == demo_instance.n

    def test_single_common_message(self):
        inst = build_instance(3, [{1}, {1}, {1}])
        matrix, report = bingreedy(inst)
        assert len(report.rounds) == 1 and len(report.rounds[0].groups) == 1
        assert matrix.entries.shape == (2, 3)
        assert report.rounds[0].satisfied == 3

    def test_round_satisfies_at_least_third(self):
        # Every round, not only the first, satisfies a third of its active clients.
        for trial in range(30):
            inst = random_instance(60, 12, 0.3, seed=[8, trial])
            active = len(inst.non_vacuous_clients())
            _, report = bingreedy(inst)
            for rnd in report.rounds:
                assert rnd.satisfied >= math.ceil(active / 3)
                active -= rnd.satisfied
            assert active == 0

    def test_round_satisfying_no_client_stalls(self, demo_instance, monkeypatch):
        def assign_nothing(instance, group, eff):
            return GroupCode([(1, 0)] * len(group), sat=np.zeros(0, dtype=np.intp))

        module = importlib.import_module("plicode.bingreedy")
        monkeypatch.setattr(module, "greedy_assign", assign_nothing)
        with pytest.raises(EncoderStallError, match="satisfied zero of 7 active clients"):
            bingreedy(demo_instance)


class TestBinGreedy:
    def test_demo_single_round(self, demo_instance):
        matrix, report = bingreedy(demo_instance)
        assert len(report.rounds) == 1
        assert report.rows_raw == 6 and report.rows_pruned == 3
        assert is_valid_code(matrix, demo_instance)

    def test_single_client(self):
        inst = build_instance(2, [{0}])
        matrix, report = bingreedy(inst)
        assert report.rows_raw == 2
        assert is_valid_code(matrix, inst)

    def test_prune_flag(self, demo_instance):
        # Dropping the all-zero rows leaves report.rows_pruned rows and a valid code.
        matrix, report = bingreedy(demo_instance)
        pruned = matrix.prune_zero_rows()
        assert pruned.n_rows == report.rows_pruned == 3
        assert is_valid_code(pruned, demo_instance)

    def test_vacuous_only_instance(self):
        inst = build_instance(3, [set(), set()])
        matrix, report = bingreedy(inst)
        assert matrix.n_rows == 0 and report.rounds == []
        assert is_valid_code(matrix, inst)

    def test_deterministic(self):
        inst = random_instance(80, 20, 0.3, seed=9)
        m1, r1 = bingreedy(inst)
        m2, r2 = bingreedy(inst)
        assert m1.equals(m2)
        assert r1.to_json() == r2.to_json()

    def test_original_n_variant_valid(self):
        inst = random_instance(50, 12, 0.4, seed=10)
        matrix, _ = bingreedy(inst, use_original_n=True)
        assert is_valid_code(matrix, inst)

    def test_random_suite_caps_and_fractions(self):
        # Per-group 1/3 fraction, per-round 1/3 fraction, round cap, row cap.
        for trial in range(25):
            n = 40 + 17 * trial
            inst = random_instance(n, max(1, round(n**0.75)), 0.3, seed=[11, trial])
            matrix, report = bingreedy(inst)
            assert is_valid_code(matrix, inst)
            for rnd in report.rounds:
                for g in rnd.groups:
                    assert g.sat >= g.eff / 3
                assert rnd.satisfied >= sum(g.eff for g in rnd.groups) / 3
            assert len(report.rounds) <= math.ceil(math.log(n, 1.5)) + 1
            cap = 2 * (math.floor(math.log2(n)) + 1) * (math.ceil(math.log(n, 1.5)) + 1)
            assert report.rows_raw <= cap

    def test_runtime_scaling_smoke(self):
        # Doubling m at fixed n and p should not blow up the runtime; loose
        # smoke check only (threshold far above the expected ~4.5x).
        import time

        def clock(m):
            inst = random_instance(300, m, 0.3, seed=[12, m])
            t0 = time.perf_counter()
            bingreedy(inst)
            return time.perf_counter() - t0

        clock(40)  # warm-up
        t_small = min(clock(40) for _ in range(3))
        t_big = min(clock(80) for _ in range(3))
        assert t_big <= max(t_small, 1e-3) * 20
