"""Benchmark harness: identical instances fed to every algorithm, CSV out.

Every matrix an algorithm produces is re-verified through the decodability
engine before its row is recorded, and each algorithm consumes the very
same instance object per (n, seed) point (checked by hash).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields

from .bingreedy import bingreedy
from .decoding import is_valid_code
from .fields import check_integer, check_integers, check_probability
from .instances import instance_hash, random_instance
from .randomized import randomized_code

class BenchmarkError(RuntimeError):
    """An encoder produced an invalid code or inconsistent instance state."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one comparison experiment.

    m_fixed sets m for every n; None means m = round(n^0.75). timing=False
    records runtime_ms as 0 so reruns are byte-identical. The n values,
    instances, base_seed and m_fixed must be integers (a bool or a float is
    rejected, never truncated), p must be a real number, not a bool, and
    algorithms must name at least one of "bingreedy" and "randomized".
    Neither the n values nor the algorithms may repeat.
    """

    n_values: tuple[int, ...] = (100, 316, 1000)
    p: float = 0.3
    instances: int = 20
    base_seed: int = 0
    algorithms: tuple[str, ...] = ("bingreedy", "randomized")
    m_fixed: int | None = None
    timing: bool = True

    def __post_init__(self):
        check_integers(self.n_values, 1, None, "n values", ValueError)
        check_probability(self.p, "p", ValueError)
        check_integer(self.instances, 1, None, "instances", ValueError)
        check_integer(self.base_seed, 0, None, "base_seed", ValueError)
        if self.m_fixed is not None:
            check_integer(self.m_fixed, 1, None, "m_fixed", ValueError)
        if not self.algorithms or not set(self.algorithms) <= {"bingreedy", "randomized"}:
            raise ValueError(f"algorithms must name bingreedy, randomized or both, got {self.algorithms!r}")
        for what, values in (("n values", self.n_values), ("algorithms", self.algorithms)):
            if len(set(values)) < len(values):
                raise ValueError(f"{what} must not repeat, got {values!r}")

    def m_for(self, n: int) -> int:
        return max(1, round(n**0.75)) if self.m_fixed is None else self.m_fixed


@dataclass(frozen=True)
class ResultRow:
    n: int
    m: int
    p: float
    seed: int
    algorithm: str
    code_length_raw: int
    code_length_pruned: int
    rounds: int
    satisfied: int
    runtime_ms: int

    def to_csv_line(self) -> str:
        return ",".join(format(getattr(self, f.name), "g" if f.name == "p" else "") for f in fields(self))


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


def run_benchmark(config: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Run every configured algorithm on every (n, seed) instance.

    Instance seeds derive deterministically from (base_seed, n, seed index);
    the seed CSV column is the index. Returns sorted rows plus a summary of
    mean/max pruned code length per (n, algorithm).
    """
    rows: list[ResultRow] = []
    for n in config.n_values:
        m = config.m_for(n)
        for idx in range(config.instances):
            stream = [config.base_seed, n, idx]
            instance = random_instance(n, m, config.p, seed=stream)
            digest = instance_hash(instance)
            satisfied = len(instance.non_vacuous_clients())
            for alg in config.algorithms:
                t0 = time.perf_counter()
                if alg == "bingreedy":
                    matrix, report = bingreedy(instance)
                    rounds = len(report.rounds)
                else:
                    matrix, report = randomized_code(instance, seed=stream)
                    rounds = len(report.bins)
                elapsed = (time.perf_counter() - t0) * 1000.0
                if instance_hash(instance) != digest:
                    raise BenchmarkError("instance mutated during encoding")
                if not is_valid_code(matrix, instance):
                    raise BenchmarkError(f"{alg} produced an invalid code at n={n}, seed={idx}")
                rows.append(
                    ResultRow(
                        n=n,
                        m=m,
                        p=config.p,
                        seed=idx,
                        algorithm=alg,
                        code_length_raw=report.rows_raw,
                        code_length_pruned=report.rows_pruned,
                        rounds=rounds,
                        satisfied=satisfied,
                        runtime_ms=int(round(elapsed)) if config.timing else 0,
                    )
                )
    rows.sort(key=lambda r: (r.n, r.seed, r.algorithm))
    return rows, summarize(rows)


def summarize(rows: list[ResultRow]) -> dict:
    """Mean, max, and worst/mean ratio of pruned code length per (n, algorithm)."""
    groups: dict[tuple[int, str], list[int]] = {}
    for r in rows:
        groups.setdefault((r.n, r.algorithm), []).append(r.code_length_pruned)
    out: dict = {}
    for (n, alg), lengths in sorted(groups.items()):
        mean = statistics.fmean(lengths)
        worst = max(lengths)
        out.setdefault(n, {})[alg] = {
            "mean": mean,
            "max": worst,
            "worst_over_mean": worst / mean if mean else float("nan"),
            "count": len(lengths),
        }
    return out


def rows_to_csv(rows: list[ResultRow]) -> str:
    return "".join(f"{line}\n" for line in [CSV_HEADER, *(r.to_csv_line() for r in rows)])


def write_csv(rows: list[ResultRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows))
