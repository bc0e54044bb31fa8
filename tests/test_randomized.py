"""Randomized baseline: degree bins, random rows, stopping rules."""

import numpy as np
import pytest

from plicode import randomized
from plicode.bingreedy import bingreedy
from plicode.decoding import decodable_messages, is_valid_code
from plicode.instances import PliableInstance, build_instance, random_instance
from plicode.fields import essential_columns
from plicode.randomized import RandomizedCapError, _from_clients, plan_bins, randomized_code
from test_reports import _band_index


def bin_rng(seed, s):
    """Bin s's generator: the seed's entries followed by s."""
    return np.random.default_rng([seed, s] if isinstance(seed, int) else [*seed, s])


def bin_prob(instance, s):
    """p_s = min(2^s / n, 1/2)."""
    return min(2**s / instance.n, 0.5)


def bin_edges(instance, clients):
    """Sum of |R_i| over the given clients."""
    return sum(len(instance.requirements[i]) for i in clients)


def reference_cumulative_code(instance, seed):
    """The cumulative rule by direct re-elimination: after each draw, stack the
    bin's rows and test every unsatisfied client's required columns afresh.
    Returns (rows, [(s, clients, rows) per bin])."""
    bins = plan_bins(instance)
    all_rows, records = [], []
    for s in sorted(bins):
        clients = sorted(bins[s])
        rng = bin_rng(seed, s)
        unsat = np.ones(len(clients), dtype=bool)
        rows = []
        while unsat.any():
            rows.append((rng.random(instance.m) < bin_prob(instance, s)).astype(np.int64))
            cum = np.array(rows, dtype=np.int64)
            for t in np.nonzero(unsat)[0]:
                req = sorted(instance.requirements[clients[t]])
                if essential_columns(cum[:, req], 2).any():
                    unsat[t] = False
        all_rows += [row.tolist() for row in rows]
        records.append((s, len(clients), len(rows)))
    return all_rows, records


def reference_exactly_one_code(instance, seed):
    """The exactly-one rule on a dense per-bin sub-matrix: a drawn row's hit
    count per client is a count_nonzero over the row's columns.
    Returns (rows, [(s, clients, rows) per bin])."""
    bins = plan_bins(instance)
    adj = instance.adjacency
    all_rows, records = [], []
    for s in sorted(bins):
        clients = sorted(bins[s])
        sub = adj[clients]
        rng = bin_rng(seed, s)
        unsat = np.ones(len(clients), dtype=bool)
        rows = []
        while unsat.any():
            row = (rng.random(instance.m) < bin_prob(instance, s)).astype(np.int64)
            rows.append(row.tolist())
            unsat &= np.count_nonzero(sub[:, row == 1], axis=1) != 1
        all_rows += rows
        records.append((s, len(clients), len(rows)))
    return all_rows, records


def side_tests(monkeypatch, instance, seed):
    """Run randomized_code and return {s: [(bin_edges, p) per _from_clients
    call of bin s]}, attributing each call to the bin whose generator was
    made last."""
    calls: dict[int, list[tuple[int, float]]] = {}
    current = []
    make_rng = np.random.default_rng

    def spy_rng(entries):
        current[:] = [entries[-1]]
        return make_rng(entries)

    def spy(bin_edges, p, edges):
        calls.setdefault(current[0], []).append((bin_edges, p))
        return _from_clients(bin_edges, p, edges)

    monkeypatch.setattr(np.random, "default_rng", spy_rng)
    monkeypatch.setattr(randomized, "_from_clients", spy)
    randomized_code(instance, seed=seed)
    return calls


@pytest.mark.parametrize(
    "n, p, client_side, message_side",
    [
        (200, 0.3, {5}, {4}),
        (3000, 0.01, {8, 11, 12}, {9, 10}),
        (3000, 0.3, {6}, {5}),
        # Bins 13 and 14 hold 1801 and 3725 clients of degree 2 and 1.
        (10000, 0.001, {11, 12, 13, 14}, set()),
    ],
    ids=["200-0.3", "3000-0.01", "3000-0.3", "10000-0.001"],
)
def test_exactly_one_matches_dense_reference(n, p, client_side, message_side):
    inst = random_instance(n, round(n**0.75), p, seed=[n, 10])
    edges = inst.clients_by_message[1].size
    sides = {
        s: _from_clients(bin_edges(inst, c), bin_prob(inst, s), edges)
        for s, c in plan_bins(inst).items()
    }
    assert {s for s, by_client in sides.items() if by_client} == client_side
    assert {s for s, by_client in sides.items() if not by_client} == message_side
    for seed in (1, [2, 3]):
        matrix, report = randomized_code(inst, seed=seed)
        rows, bins = reference_exactly_one_code(inst, seed)
        assert matrix.entries.tolist() == rows
        assert [(b.s, b.clients, b.rows) for b in report.bins] == bins


def bin_sets(bins):
    """plan_bins' bins as {s: set of clients}; each bin is an increasing array."""
    for clients in bins.values():
        assert np.all(np.diff(clients) > 0)
    return {s: set(c.tolist()) for s, c in bins.items()}


@pytest.mark.parametrize("client_side", [True, False], ids=["client-side", "message-side"])
def test_either_side_alone_gives_the_default_code(monkeypatch, client_side):
    # Every bin counted from one side throughout, never switching.
    inst = random_instance(3000, round(3000**0.75), 0.01, seed=[3000, 10])
    seeds = (1, [2, 3])
    default = [randomized_code(inst, seed=seed) for seed in seeds]
    monkeypatch.setattr(randomized, "_from_clients", lambda *args: client_side)
    for seed, (code, report) in zip(seeds, default):
        matrix, got = randomized_code(inst, seed=seed)
        assert matrix.equals(code) and got == report
        rows, bins = reference_exactly_one_code(inst, seed)
        assert matrix.entries.tolist() == rows
        assert [(b.s, b.clients, b.rows) for b in got.bins] == bins


def test_message_side_bins_move_to_the_client_side(monkeypatch):
    # In the 3000-0.01 case bins 9 and 10 start on the message side; each is
    # asked again on every row and moves once its unsatisfied clients are few.
    inst = random_instance(3000, round(3000**0.75), 0.01, seed=[3000, 10])
    answers: dict[float, list[bool]] = {}

    def spy(bin_edges, p, edges):
        answers.setdefault(p, []).append(_from_clients(bin_edges, p, edges))
        return answers[p][-1]

    monkeypatch.setattr(randomized, "_from_clients", spy)
    matrix, report = randomized_code(inst, seed=1)
    rows = {b.s: b.rows for b in report.bins}
    for s in (9, 10):
        seen = answers[bin_prob(inst, s)]
        # False on every row until the last call, which moves the bin.
        assert seen[:-1] == [False] * (len(seen) - 1) and seen[-1] is True
        assert 1 < len(seen) < rows[s]
    assert matrix.entries.tolist() == reference_exactly_one_code(inst, 1)[0]


class TestPlanBins:
    def test_band_edges(self):
        inst = build_instance(
            8, [set(range(8))] + [{0}] + [set() for _ in range(6)]
        )
        bins = bin_sets(plan_bins(inst))
        assert 0 in bins[1]  # degree 8 with n=8: (4, 8]
        assert 1 in bins[4]  # degree 1 with n=8: (0.5, 1]

    def test_same_degree_single_bin(self):
        inst = build_instance(4, [{0, 1} for _ in range(10)])
        nonempty = [s for s, c in bin_sets(plan_bins(inst)).items() if c]
        assert len(nonempty) == 1

    def test_degree_30_of_100(self, monkeypatch):
        reqs = [set(range(30))] + [{0} for _ in range(99)]
        inst = build_instance(30, reqs)
        assert 0 in bin_sets(plan_bins(inst))[2]  # 25 < 30 <= 50
        assert side_tests(monkeypatch, inst, seed=1)[2][0][1] == pytest.approx(4 / 100)

    def test_bins_partition_nonvacuous(self):
        inst = random_instance(50, 10, 0.3, seed=1)
        seen: set[int] = set()
        for clients in bin_sets(plan_bins(inst)).values():
            assert not (seen & clients)
            seen |= clients
        assert seen == set(inst.non_vacuous_clients())

    def test_edges_sum_bin_requirements(self, monkeypatch):
        # A bin's first side test counts the edges of all its clients, and
        # each bin draws with p_s = min(2^s / n, 1/2).
        inst = random_instance(300, 40, 0.1, seed=2)
        calls = side_tests(monkeypatch, inst, seed=1)
        assert {s: c[0] for s, c in calls.items()} == {
            s: (bin_edges(inst, clients), bin_prob(inst, s))
            for s, clients in plan_bins(inst).items()
        }

    def test_probabilities_clamped(self, monkeypatch):
        # Degree 1 of n = 4 is bin 3, where 2^3 / 4 = 2 is clamped to 1/2.
        inst = build_instance(2, [{0} for _ in range(4)])
        calls = side_tests(monkeypatch, inst, seed=1)
        assert [p for c in calls.values() for _, p in c] == [0.5] * len(calls[3])
        assert list(calls) == [3]

    def test_bands_match_integer_band_index(self):
        # Every degree 0..n+1 at each n, so d = n and d > n (m > n) are covered.
        for n in [*range(1, 301), 1023, 1024, 1025]:
            for deg in (np.arange(n), np.arange(n) + 2):
                inst = PliableInstance(np.arange(n + 1) < deg[:, None])
                expected: dict[int, set[int]] = {}
                for i, d in enumerate(deg.tolist()):
                    if d:
                        expected.setdefault(_band_index(d, n), set()).add(i)
                assert bin_sets(plan_bins(inst)) == expected, n


class TestRandomizedCode:
    def test_single_client_single_message(self):
        inst = build_instance(1, [{0}])
        matrix, report = randomized_code(inst, seed=3)
        assert is_valid_code(matrix, inst)
        assert report.bins[0].clients == 1

    def test_seeded_determinism(self):
        inst = random_instance(40, 12, 0.3, seed=5)
        m1, r1 = randomized_code(inst, seed=42)
        m2, r2 = randomized_code(inst, seed=42)
        assert m1.equals(m2)
        assert r1.to_json() == r2.to_json()

    def test_different_seeds_differ(self):
        inst = random_instance(40, 12, 0.3, seed=5)
        m1, _ = randomized_code(inst, seed=42)
        m2, _ = randomized_code(inst, seed=43)
        assert not m1.equals(m2)

    def test_output_valid_and_longer_than_greedy_on_average(self):
        inst = random_instance(100, 32, 0.3, seed=7)
        greedy_len = bingreedy(inst)[1].rows_pruned
        lengths = []
        for seed in range(20):
            matrix, report = randomized_code(inst, seed=seed)
            assert is_valid_code(matrix, inst)
            lengths.append(report.rows_pruned)
        assert sum(lengths) / len(lengths) > greedy_len

    def test_exactly_one_rows_are_decoding_witnesses(self):
        # Each client satisfied by the exactly-one rule passes the span
        # criterion on the cumulative matrix.
        inst = random_instance(30, 10, 0.4, seed=9)
        matrix, _ = randomized_code(inst, seed=11)
        for i in inst.non_vacuous_clients():
            assert decodable_messages(matrix, inst, i)

    def test_satisfaction_monotone_in_rows(self):
        # Once a prefix of the rows satisfies a client, every longer prefix
        # still does: the exactly-one witness row persists.
        from plicode.fields import FMatrix

        inst = random_instance(20, 8, 0.4, seed=13)
        matrix, _ = randomized_code(inst, seed=17)
        satisfied_at: dict[int, int] = {}
        for k in range(1, matrix.n_rows + 1):
            prefix = FMatrix(matrix.entries[:k], matrix.field)
            for i in inst.non_vacuous_clients():
                if decodable_messages(prefix, inst, i):
                    satisfied_at.setdefault(i, k)
        full = FMatrix(matrix.entries, matrix.field)
        for i, k in satisfied_at.items():
            row = matrix.entries[k - 1]
            hits = sum(int(row[j]) != 0 for j in inst.requirements[i])
            if hits == 1:
                assert decodable_messages(full, inst, i)

    def test_cumulative_stopping_valid_and_not_longer(self):
        inst = random_instance(40, 12, 0.3, seed=19)
        m_exact, r_exact = randomized_code(inst, seed=23, stopping="exactly_one")
        m_span, r_span = randomized_code(inst, seed=23, stopping="cumulative")
        assert is_valid_code(m_exact, inst)
        assert is_valid_code(m_span, inst)
        # The cumulative criterion is weaker than exactly-one, so each bin
        # stops no later.
        assert r_span.rows_raw <= r_exact.rows_raw

    @pytest.mark.parametrize(
        "n,m,p,seeds",
        [(40, 12, 0.3, range(5)), (120, 30, 0.2, range(3)), (300, 60, 0.3, range(2))],
    )
    def test_cumulative_stopping_matches_reference(self, n, m, p, seeds):
        for seed in seeds:
            inst = random_instance(n, m, p, seed=[29, n, seed])
            matrix, report = randomized_code(inst, seed=seed, stopping="cumulative")
            assert (
                matrix.entries.tolist(),
                [(b.s, b.clients, b.rows) for b in report.bins],
            ) == reference_cumulative_code(inst, seed)

    def test_row_cap_error(self, monkeypatch):
        inst = build_instance(2, [{0, 1} for _ in range(4)])
        monkeypatch.setattr(randomized, "MAX_ROWS_PER_BIN", 1)
        with pytest.raises(RandomizedCapError, match="bin"):
            randomized_code(inst, seed=1)

    @pytest.mark.parametrize("seed", [True, 1.9, -1, [1, 2.0], [1, True], (1, -2)])
    def test_seed_never_truncated(self, seed):
        # Not read as seed 1 (or [1, 2], [1, 1]).
        inst = build_instance(2, [{0}, {1}])
        with pytest.raises(ValueError, match="seed entries"):
            randomized_code(inst, seed=seed)

    def test_seed_checked_without_bins(self):
        inst = build_instance(2, [set(), set()])
        with pytest.raises(ValueError, match="seed entries"):
            randomized_code(inst, seed=1.5)

    def test_unknown_stopping_rule(self):
        inst = build_instance(1, [{0}])
        with pytest.raises(ValueError):
            randomized_code(inst, seed=1, stopping="bogus")

    def test_vacuous_only_instance(self):
        inst = build_instance(2, [set(), set()])
        matrix, report = randomized_code(inst, seed=1)
        assert matrix.n_rows == 0 and report.bins == []

    def test_report_json_includes_bins(self):
        inst = random_instance(16, 6, 0.5, seed=21)
        _, report = randomized_code(inst, seed=2)
        obj = report.to_json()
        assert obj["rounds"] == []
        assert obj["rows_pruned"] <= obj["rows_raw"]
        assert all(set(b) == {"s", "clients", "rows"} for b in obj["bins"])
