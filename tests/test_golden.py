"""Golden digests: encoder matrices, run reports and a bench CSV stay byte-identical.

A refactor must leave every digest unchanged; a change to message order,
tie-breaks, seeding or the serialized forms shows up here. Update a digest
only for a deliberate change of output, and say why.
"""

import hashlib
import json

import pytest

from plicode.bingreedy import bingreedy
from plicode.cli import main
from plicode.instances import random_instance
from plicode.randomized import randomized_code

# (n, m, p, seed) -> (bingreedy digest, randomized_code digest)
ENCODER_DIGESTS = {
    (80, 27, 0.3, 1): (
        "84965cba5670a69d57721b2b25f973801f5f6ad5a5f15b4a0caea5493ac5a7c5",
        "2fadbae7bf76b405d57b2091550270018a1d29f27154b8bd0ec84673a8bc61d3",
    ),
    (80, 27, 0.3, 2): (
        "d45c863b238ab9d46a1efe51bc13e3983c0039d08439154918c2b2c21bd7de95",
        "3cafe7c1250279e0264161daa67e8a5639270ccc1afb5385bca467fef358e4a1",
    ),
    (80, 27, 0.3, 3): (
        "534cfceb578d7f7558cca86ace1ce435dd04941ec4b56b371af38b4cee3e82ee",
        "95a3fdd7968a9bb99bc9dbcee6954cd8f1fdfb7e10481f11d2252047e9d1cea0",
    ),
    (2000, 300, 0.01, 1): (
        "82baac977553e4cc292050dd5bb9c3dbd716fce7e48d051153a3dfea94400cad",
        "cc6c9dfe7b33fd0d859c46d22debb4d26d921092a8911d5c76040ed04f37d10a",
    ),
}
BENCH_CSV_DIGEST = "f819cb028a2d8e1034a5d30ab0595bb29397937a5ee9bf8efa6e01949e389031"
BENCH_SUMMARY_DIGEST = "1433afdb13f394a1204e1e7e6e5da14dce2188db8d909e7b327b7a449de80f50"


def _digest(matrix, report) -> str:
    blob = json.dumps(
        {"matrix": matrix.to_json(), "report": report.to_json()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(ENCODER_DIGESTS), ids=str)
def test_encoder_outputs(case):
    n, m, p, seed = case
    inst = random_instance(n, m, p, seed=seed)
    assert (
        _digest(*bingreedy(inst)),
        _digest(*randomized_code(inst, seed=seed)),
    ) == ENCODER_DIGESTS[case]


def test_bench_csv_and_summary(tmp_path):
    csv, summary = tmp_path / "bench.csv", tmp_path / "summary.json"
    assert main(["bench", "--n", "20", "40", "--instances", "2", "--seed", "3",
                 "--no-timing", "--out", str(csv), "--summary-out", str(summary)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == BENCH_CSV_DIGEST
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == BENCH_SUMMARY_DIGEST
