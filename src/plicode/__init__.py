"""Pliable index coding toolkit.

A server broadcasts linear combinations of m messages over a prime field
so that each of n clients decodes at least one message outside its side
information. This package provides the deterministic round-based greedy
encoder, the randomized bin-based baseline, the algebraic decodability
engine, exact brute-force oracles (optimal code length and constrained
minrank), and a benchmark harness.

Indices are 0-based throughout.
"""

from .bench import ExperimentConfig, ResultRow, run_benchmark, summarize, write_csv
from .bingreedy import bingreedy, greedy_assign, sort_and_group
from .decoding import (
    ClientStatus,
    decodable_messages,
    decode_value,
    is_valid_code,
    satisfied_set,
)
from .fields import FieldSpec, FMatrix, rank
from .instances import (
    PliableInstance,
    all_pairs_instance,
    build_instance,
    instance_hash,
    random_instance,
)
from .oracle import (
    SearchResult,
    count_pairwise_independent,
    min_field_for_length2,
    minrank_fitted,
    optimal_code_length,
)
from .randomized import plan_bins, randomized_code
from .reports import RunReport

__all__ = [
    "ClientStatus",
    "ExperimentConfig",
    "FMatrix",
    "FieldSpec",
    "PliableInstance",
    "ResultRow",
    "RunReport",
    "SearchResult",
    "all_pairs_instance",
    "bingreedy",
    "build_instance",
    "count_pairwise_independent",
    "decodable_messages",
    "decode_value",
    "greedy_assign",
    "instance_hash",
    "is_valid_code",
    "min_field_for_length2",
    "minrank_fitted",
    "optimal_code_length",
    "plan_bins",
    "random_instance",
    "randomized_code",
    "rank",
    "run_benchmark",
    "satisfied_set",
    "sort_and_group",
    "summarize",
    "write_csv",
]
