"""Benchmark harness: fairness, CSV format, determinism, summaries."""

import numpy as np
import pytest

from plicode.bench import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    rows_to_csv,
    run_benchmark,
    summarize,
    write_csv,
)


def small_config(**overrides):
    base = dict(
        n_values=(30, 50),
        p=0.3,
        instances=3,
        base_seed=7,
        algorithms=("bingreedy", "randomized"),
        timing=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_m_rule_n075(self):
        assert small_config().m_for(100) == 32

    def test_m_rule_fixed(self):
        cfg = small_config(m_fixed=10)
        assert cfg.m_for(1000) == 10

    def test_m_fixed_alone_sets_m(self):
        assert ExperimentConfig(m_fixed=5).m_for(100) == 5

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_values=()),
            dict(n_values=(0,)),
            dict(p=1.5),
            dict(instances=0),
            dict(m_fixed=0),
            dict(algorithms=("bogus",)),
            dict(base_seed=-1),  # rejected here, not later inside numpy's seeding
            dict(algorithms=()),  # would run no encoder and write a header-only CSV
            dict(n_values=(30, 30)),  # would write every row of n = 30 twice
            dict(algorithms=("bingreedy", "bingreedy")),  # would count one instance twice
        ],
    )
    def test_invalid_configs(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("instances", True),  # would run one instance
            ("instances", 2.0),
            ("p", True),  # would run p = 1 and write 1 to the CSV
            ("p", np.True_),
            ("p", "0.3"),
            ("n_values", (100.0,)),  # would fail later as "seed entries must be integers"
            ("n_values", (True,)),
            ("m_fixed", 4.0),
            ("base_seed", True),
        ],
    )
    def test_malformed_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=field.replace("_values", " values")):
            small_config(**{field: value})


class TestRunBenchmark:
    def test_row_counts_and_ordering(self):
        cfg = small_config()
        rows, _ = run_benchmark(cfg)
        assert len(rows) == 2 * 3 * 2
        assert rows == sorted(rows, key=lambda r: (r.n, r.seed, r.algorithm))

    def test_single_instance_config(self):
        cfg = small_config(n_values=(20,), instances=1)
        rows, _ = run_benchmark(cfg)
        assert len(rows) == 2

    def test_pruned_never_exceeds_raw(self):
        rows, _ = run_benchmark(small_config())
        assert all(r.code_length_pruned <= r.code_length_raw for r in rows)

    def test_identical_instance_per_seed(self):
        # Both algorithms see the same instance, so the satisfied count
        # (non-vacuous clients) agrees across algorithms per (n, seed).
        rows, _ = run_benchmark(small_config())
        by_point = {}
        for r in rows:
            by_point.setdefault((r.n, r.seed), set()).add(r.satisfied)
        assert all(len(v) == 1 for v in by_point.values())

    def test_byte_identical_rerun_without_timing(self, tmp_path):
        cfg = small_config()
        for name in ("a.csv", "b.csv"):
            rows, _ = run_benchmark(cfg)
            write_csv(rows, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_header_exact(self, tmp_path):
        rows, _ = run_benchmark(small_config(n_values=(20,), instances=1))
        out = tmp_path / "r.csv"
        write_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].split(",")[0:3] == ["20", "9", "0.3"]

    def test_summary_contents(self):
        rows, summary = run_benchmark(small_config())
        for n in (30, 50):
            for alg in ("bingreedy", "randomized"):
                cell = summary[n][alg]
                assert cell["count"] == 3
                assert cell["max"] >= cell["mean"] > 0
                assert cell["worst_over_mean"] == pytest.approx(cell["max"] / cell["mean"])


class TestCsv:
    def test_round_trip_formatting(self):
        row = ResultRow(100, 32, 0.3, 0, "bingreedy", 10, 8, 1, 99, 12)
        assert row.to_csv_line() == "100,32,0.3,0,bingreedy,10,8,1,99,12"

    def test_rows_to_csv_ends_with_newline(self):
        rows, _ = run_benchmark(small_config(n_values=(20,), instances=1))
        text = rows_to_csv(rows)
        assert text.startswith(CSV_HEADER + "\n") and text.endswith("\n")

    def test_summarize_groups_by_n_and_algorithm(self):
        rows = [
            ResultRow(10, 5, 0.3, s, "bingreedy", 4, 4, 1, 9, 0) for s in range(3)
        ]
        summary = summarize(rows)
        assert summary[10]["bingreedy"]["mean"] == 4
