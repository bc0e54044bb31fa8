"""Acceptance gate: the eight headline guarantees, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also fails loudly through plain asserts.
"""

import itertools
import json
import math
import time

import numpy as np

from plicode.bench import ExperimentConfig, rows_to_csv, run_benchmark
from plicode.bingreedy import bingreedy, sort_and_group
from plicode.decoding import decodable_messages, decode_value, is_valid_code, satisfied_set
from plicode.fields import FieldSpec, FMatrix
from plicode.instances import all_pairs_instance, random_instance
from plicode.oracle import (
    count_pairwise_independent,
    min_field_for_length2,
    minrank_fitted,
    optimal_code_length,
)


def _report(number: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status}  criterion {number}: {name} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f}s budget"


def test_criterion_1_demo_sorting_and_single_round(demo_instance):
    t0 = time.perf_counter()
    sr = sort_and_group(demo_instance, set(demo_instance.non_vacuous_clients()))
    ok = (
        [(j, len(c)) for j, c in sr.eff.items()] == [(0, 4), (1, 2), (2, 1)]
        and sr.eff[0].tolist() == [0, 3, 4, 6]
        and sr.groups == [[0], [1], [2]]
    )
    matrix, report = bingreedy(demo_instance)
    ok = (
        ok
        and len(report.rounds) == 1
        and report.rows_pruned == 3
        and is_valid_code(matrix, demo_instance)
    )
    _report(1, "demo fixture sorting, grouping, one-round code", ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_decoding_engine(demo_instance, demo_matrix):
    t0 = time.perf_counter()
    ok = decodable_messages(demo_matrix, demo_instance, 3) == {0, 1}
    checked = 0
    for q in (2, 3):
        rng = np.random.default_rng(123 + q)
        trial = 0
        per_field = 0
        while per_field < 100:
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
                ok = ok and j in inst.requirements[i] and value == b[j]
            per_field += 1
        checked += per_field
    ok = ok and checked == 200
    _report(2, "per-client decoding and 200 end-to-end value recoveries", ok, time.perf_counter() - t0, 10.0)


def _greedy_suite():
    suite = []
    for idx, p in itertools.product(range(34), (0.1, 0.3, 0.5)):
        n = 50 + (450 * idx) // 33
        m = max(2, round(n**0.75))
        inst = random_instance(n, m, p, seed=[77, idx, int(p * 10)])
        if inst.non_vacuous_clients():
            suite.append(inst)
    return suite


def test_criterion_3_and_4_group_round_fractions_and_row_cap():
    t0 = time.perf_counter()
    suite = _greedy_suite()
    ok_fraction = len(suite) >= 100
    ok_cap = True
    for inst in suite:
        matrix, report = bingreedy(inst)
        ok_fraction = ok_fraction and is_valid_code(matrix, inst)
        for rnd in report.rounds:
            for g in rnd.groups:
                ok_fraction = ok_fraction and g.sat >= g.eff / 3
            ok_fraction = ok_fraction and rnd.satisfied >= sum(g.eff for g in rnd.groups) / 3
        cap = 2 * (math.floor(math.log2(inst.n)) + 1) * (math.ceil(math.log(inst.n, 1.5)) + 1)
        ok_cap = ok_cap and report.rows_raw <= cap
    elapsed = time.perf_counter() - t0
    _report(3, f"1/3 group and round fractions on {len(suite)} instances", ok_fraction, elapsed, 120.0)
    _report(4, "raw transmission cap on the same suite", ok_cap, elapsed, 120.0)


def test_criterion_5_minrank_equals_optimal_length(quad_instance):
    t0 = time.perf_counter()
    matched = 0
    for trial in range(50):
        q = 2 if trial % 2 == 0 else 3
        n = 1 + trial % 6
        m = 2 + trial % 3
        inst = random_instance(n, m, 0.5, seed=[55, trial])
        opt = optimal_code_length(inst, q=q, max_K=inst.m).value
        mr = minrank_fitted(inst, q=q, max_r=inst.m).value
        if opt == mr:
            matched += 1
    opt_quad = optimal_code_length(quad_instance, q=3, max_K=4).value
    mr_quad = minrank_fitted(quad_instance, q=3, max_r=4).value
    ok = matched == 50 and opt_quad == mr_quad == 2
    _report(5, "constrained minrank equals optimal length on 51 instances", ok, time.perf_counter() - t0, 120.0)


def test_criterion_6_field_size_suite(quad_instance, ternary_code):
    t0 = time.perf_counter()
    no_binary = all(
        not is_valid_code(FMatrix.from_rows(np.array(entries).reshape(2, 4), 2), quad_instance)
        for entries in itertools.product(range(2), repeat=8)
    )
    ternary_exists = optimal_code_length(quad_instance, q=3, max_K=2).value == 2
    explicit_ok = is_valid_code(ternary_code, quad_instance)
    fields_ok = min_field_for_length2(4) == 3 and min_field_for_length2(6) == 5
    counts_ok = all(count_pairwise_independent(q) == 2 + (q - 1) for q in (2, 3, 5))
    ok = no_binary and ternary_exists and explicit_ok and fields_ok and counts_ok
    _report(6, "field-size threshold suite for the all-pairs family", ok, time.perf_counter() - t0, 60.0)


def test_criterion_7_comparison_trend():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        n_values=(100, 316, 1000),
        p=0.3,
        instances=20,
        base_seed=0,
        algorithms=("bingreedy", "randomized"),
        timing=False,
    )
    _, summary = run_benchmark(config)
    ok = True
    for n in config.n_values:
        greedy = summary[n]["bingreedy"]
        rand = summary[n]["randomized"]
        ok = ok and greedy["mean"] <= 0.90 * rand["mean"]
        ok = ok and greedy["worst_over_mean"] < rand["worst_over_mean"]
    _report(7, "greedy beats randomized mean by >=10% with tighter spread", ok, time.perf_counter() - t0, 900.0)


def test_criterion_8_determinism(demo_instance, quad_instance):
    t0 = time.perf_counter()

    def greedy_artifacts():
        parts = []
        for seed in (1, 2, 3):
            inst = random_instance(80, 20, 0.3, seed=seed)
            matrix, report = bingreedy(inst)
            parts.append(json.dumps([matrix.to_json(), report.to_json()]))
        return "".join(parts)

    def oracle_artifacts():
        res_len = optimal_code_length(quad_instance, q=3, max_K=2)
        res_mr = minrank_fitted(quad_instance, q=3, max_r=2)
        return json.dumps([res_len.witness.to_json(), res_mr.witness.to_json()])

    def bench_artifacts():
        config = ExperimentConfig(
            n_values=(60,), p=0.3, instances=5, base_seed=4,
            algorithms=("bingreedy", "randomized"), timing=False,
        )
        rows, _ = run_benchmark(config)
        return rows_to_csv(rows)

    ok = (
        greedy_artifacts() == greedy_artifacts()
        and oracle_artifacts() == oracle_artifacts()
        and bench_artifacts() == bench_artifacts()
    )
    _report(8, "byte-identical artifacts across repeated runs", ok, time.perf_counter() - t0, 120.0)
