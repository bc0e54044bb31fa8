"""Golden digests: instance files, encoder matrices, run reports, a bench CSV
and the exact oracles' results stay byte-identical.

A refactor must leave every digest unchanged; a change to message order,
tie-breaks, seeding or the serialized forms shows up here. Update a digest
only for a deliberate change of output, and say why.
"""

import hashlib
import json

import pytest

from plicode.bingreedy import bingreedy
from plicode.cli import main
from plicode.instances import all_pairs_instance, build_instance, random_instance
from plicode.oracle import (
    DEFAULT_PRIMES,
    min_field_for_length2,
    minrank_fitted,
    optimal_code_length,
)
from plicode.randomized import randomized_code

# instance -> (sha256 of canonical to_json() JSON, sha256 of to_text())
SERIALIZATION_DIGESTS = {
    "random-80-27-0.3-s1": (
        "bafeef6a24dcf0933cc2cc2a286015ae0b7a97a9664c6c2c0f3ff222fb7b2859",
        "b3c0bcb4386e2d0329185fba9fbb737f3a4b2b2587e55f5bce9b0646c36ab680",
    ),
    "random-80-27-0.3-s2": (
        "dfe5ab448cc33ce22f7e43c4a26d4a2189d8b873fcb5536059860a61b9474ac7",
        "ebea07b2f81b5a2d4441b0a06e5e1345ab7b1b0900985b12efa6d8cccfd88378",
    ),
    "random-80-27-0.3-s3": (
        "64af1e84b9eaa3216c8713785a11381f3222fb0369c4ec78f282ae197af92641",
        "11bad1f03517880b583941a3b57765860b1fe26a822ff8984368be2bbe811d78",
    ),
    "random-2000-300-0.01-s1": (
        "fd9c25238f62f4998aa9ffb542b6465a00eb979911028622139d324b707bea7c",
        "9b1b389b3fbb68ec384ba075a70a68a62d64688c3cc967f7afbcf882d04aa229",
    ),
    "all-pairs-5": (
        "419ce125dce88398df7e63d51ea5f00024223fa8c2e4f6d0573e227382794f16",
        "c567aafbcd7c1222c359d079be225e4f080b1f4383bb64ee713def3031a11508",
    ),
    "built-unsorted-duplicates-empty": (
        "43344f69acf51b203b22d8b2ffa06e8b48c699c154b7811a39443921fe5e0bba",
        "23e0e0bef9708b6baff0896b04ae3a112a11dc39a5d2aea3fb67f9e973a22d64",
    ),
}
SERIALIZATION_CASES = {
    **{
        f"random-80-27-0.3-s{seed}": lambda seed=seed: random_instance(80, 27, 0.3, seed=seed)
        for seed in (1, 2, 3)
    },
    "random-2000-300-0.01-s1": lambda: random_instance(2000, 300, 0.01, seed=1),
    "all-pairs-5": lambda: all_pairs_instance(5),
    "built-unsorted-duplicates-empty": lambda: build_instance(
        6, [[5, 1, 3, 1], [], [2, 2], [0, 5, 4, 0], []]
    ),
}
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
    # The perfbench encode-large size; BinGreedy takes 3 rounds on it.
    (10000, 1000, 0.01, 1): (
        "b1ba6fd3845420324701d67f27feea57d2270702e7b5073f768eb83c76b652a0",
        "407fde5109d40f2cfe13f2772dd967a001045b0efec00f85f36f323eac38f52e",
    ),
}
# (n, m, p, seed) -> BinGreedy's round count, for the cases that must stay multi-round
ENCODER_ROUNDS = {(10000, 1000, 0.01, 1): 3}
BENCH_CSV_DIGEST = "f819cb028a2d8e1034a5d30ab0595bb29397937a5ee9bf8efa6e01949e389031"
BENCH_SUMMARY_DIGEST = "1433afdb13f394a1204e1e7e6e5da14dce2188db8d909e7b327b7a449de80f50"
# (q, n, m, p, seed) -> (optimal_code_length digest, minrank_fitted digest), max length m
ORACLE_DIGESTS = {
    (2, 20, 4, 0.5, 1): (
        "846d676a8a3a47a0475a57d4c8ef880c37618f77919f49786a2d650f44102ba3",
        "161dbbc6e1900f54ff4cf1321de91c3f62fcb3d6a9e267fd848ed942e3411de1",
    ),
    (2, 20, 4, 0.5, 2): (
        "2dda3af4afdfac3f2b5cd4d14fcf1d18a5272347f5e090247e6cba43315d31ef",
        "161dbbc6e1900f54ff4cf1321de91c3f62fcb3d6a9e267fd848ed942e3411de1",
    ),
    (3, 15, 4, 0.5, 1): (
        "caacb4d7954c7d86ce4a5a93ad5dd572419637b7c5ac6f0d8621344a16cc6457",
        "75c6a346cce08c087d77233c85dcab378a287bd193e82447e05a51bfdd52d3c3",
    ),
    (3, 15, 4, 0.5, 2): (
        "3c242cb71c32208e6ba7ca4ce8078ba63e3ba20ff5d2de45eca11e59d57d2110",
        "d577da6844201814a1f9c239247747d13ee3a3f7cd496243913695206f306367",
    ),
    (5, 8, 3, 0.5, 1): (
        "f8d63724ce49b9f73554949ca847d12af5276884a334b0f05d28fa967c400b15",
        "a9388a033cd0695f8a5bccd93584cc496adf3798cc75141def1ebea884ab0e98",
    ),
}
# all-pairs m -> (min_field_for_length2(m), digest of the length-2 searches it runs)
THRESHOLD_DIGESTS = {
    4: (3, "a852d266a18cf7aa4de6a14a09549b24a00ba587eda530925a6d258f65faeee0"),
    5: (5, "7ae2b74ab02c4c788c9a4a088d9b1e51254daf01d829c619575cce18d08cc4e6"),
    6: (5, "64abcd0e30507fe7f8bd794e3a4c2b83db83c1eb9c85de6dc0f8164166f6d4d8"),
    10: (11, "9d65bb5b3ac34dd663d1953954523eec95a5250f885e3b4c42e84ccad7c560b4"),
    11: (11, "d69c7d13e54703781ca04d65050338d8ae3d495d181ccd529de0f5a327cd9391"),
    12: (11, "e62d4f9f61d4cc9a916d09d01a47a0d10064c0cb8a04193099e56e08987aecf3"),
}


def _digest(matrix, report) -> str:
    blob = json.dumps(
        {"matrix": matrix.to_json(), "report": report.to_json()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _search_digest(results) -> str:
    blob = json.dumps(
        [
            [r.value, r.enumerated, None if r.witness is None else r.witness.entries.tolist()]
            for r in results
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SERIALIZATION_DIGESTS))
def test_instance_serialization(name):
    inst = SERIALIZATION_CASES[name]()
    blob = json.dumps(inst.to_json(), sort_keys=True, separators=(",", ":"))
    assert (
        hashlib.sha256(blob.encode()).hexdigest(),
        hashlib.sha256(inst.to_text().encode()).hexdigest(),
    ) == SERIALIZATION_DIGESTS[name]


@pytest.mark.parametrize("case", sorted(ENCODER_DIGESTS), ids=str)
def test_encoder_outputs(case):
    n, m, p, seed = case
    inst = random_instance(n, m, p, seed=seed)
    matrix, report = bingreedy(inst)
    assert (
        _digest(matrix, report),
        _digest(*randomized_code(inst, seed=seed)),
    ) == ENCODER_DIGESTS[case]
    if case in ENCODER_ROUNDS:
        assert len(report.rounds) == ENCODER_ROUNDS[case]


def test_bench_csv_and_summary(tmp_path):
    csv, summary = tmp_path / "bench.csv", tmp_path / "summary.json"
    assert main(["bench", "--n", "20", "40", "--instances", "2", "--seed", "3",
                 "--no-timing", "--out", str(csv), "--summary-out", str(summary)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == BENCH_CSV_DIGEST
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == BENCH_SUMMARY_DIGEST


@pytest.mark.parametrize("case", sorted(ORACLE_DIGESTS), ids=str)
def test_oracle_searches(case):
    q, n, m, p, seed = case
    inst = random_instance(n, m, p, seed=seed)
    assert (
        _search_digest([optimal_code_length(inst, q, max_K=m)]),
        _search_digest([minrank_fitted(inst, q, max_r=m)]),
    ) == ORACLE_DIGESTS[case]


@pytest.mark.parametrize("m", sorted(THRESHOLD_DIGESTS))
def test_field_threshold_searches(m):
    threshold = min_field_for_length2(m)
    inst = all_pairs_instance(m)
    runs = [optimal_code_length(inst, q, max_K=2) for q in DEFAULT_PRIMES if q <= threshold]
    assert (threshold, _search_digest(runs)) == THRESHOLD_DIGESTS[m]
