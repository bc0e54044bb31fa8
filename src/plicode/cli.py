"""Command-line front end: instance generation, encoding, verification,
minrank queries, benchmarks, and the field-size counterexample suite.

Exit codes: 0 ok, 1 invalid code (verify) or a failed check (counterexample),
2 usage or input error, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import BenchmarkError, ExperimentConfig, run_benchmark, write_csv
from .bingreedy import EncoderStallError, bingreedy
from .decoding import is_valid_code, report_to_json, satisfied_set
from .fields import DimensionError, FieldError, FMatrix, InconsistentSystemError
from .instances import InstanceError, PliableInstance, all_pairs_instance, random_instance
from .oracle import (
    BudgetError,
    OracleError,
    count_pairwise_independent,
    min_field_for_length2,
    minrank_fitted,
    optimal_code_length,
)
from .randomized import RandomizedCapError, randomized_code


class CliError(Exception):
    """User-facing CLI failure; the message names the offending flag/file."""


class SelfCheckError(RuntimeError):
    """An encoder's output failed the CLI's own re-verification."""


# Exit 2: the user's arguments or files are at fault (OSError: an output path
# that cannot be written; unreadable inputs already raise CliError).
INPUT_ERRORS = (CliError, BudgetError, InstanceError, FieldError, DimensionError, OSError)
# Exit 3: an invariant the program itself guarantees was broken.
INTERNAL_ERRORS = (
    SelfCheckError,
    EncoderStallError,
    OracleError,
    RandomizedCapError,
    BenchmarkError,
    InconsistentSystemError,
)


def _default_seed() -> int:
    return int(os.environ.get("PLICODE_SEED", "0"))


def load_instance(path: str) -> PliableInstance:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"--instance: cannot read {path}: {exc}") from exc
    try:
        if text.lstrip().startswith("{"):
            return PliableInstance.from_json(json.loads(text))
        return PliableInstance.from_text(text)
    except Exception as exc:
        raise CliError(f"--instance: {path} is not a valid instance file: {exc}") from exc


def save_instance(instance: PliableInstance, path: str, fmt: str) -> None:
    if fmt == "auto":
        fmt = "json" if path.endswith(".json") else "text"
    with open(path, "w") as fh:
        if fmt == "json":
            json.dump(instance.to_json(), fh)
            fh.write("\n")
        else:
            fh.write(instance.to_text())


def load_matrix(path: str) -> FMatrix:
    try:
        with open(path) as fh:
            return FMatrix.from_json(json.load(fh))
    except OSError as exc:
        raise CliError(f"--matrix: cannot read {path}: {exc}") from exc
    except Exception as exc:
        raise CliError(f"--matrix: {path} is not a valid matrix file: {exc}") from exc


def _write_json(obj, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    else:
        print(json.dumps(obj, indent=2))


def cmd_gen(args) -> int:
    if args.kind == "random":
        if args.n is None or args.m is None:
            raise CliError("gen random: both --n and --m are required")
        instance = random_instance(args.n, args.m, args.p, seed=args.seed)
    else:
        if args.m is None:
            raise CliError("gen all-pairs: --m is required")
        instance = all_pairs_instance(args.m)
    save_instance(instance, args.out, args.format)
    return 0


def cmd_encode(args) -> int:
    instance = load_instance(args.instance)
    if args.alg == "bingreedy":
        matrix, report = bingreedy(instance, use_original_n=args.use_original_n)
        report_obj = report.to_json()
    elif args.alg == "randomized":
        matrix, report = randomized_code(instance, seed=args.seed, stopping=args.stopping)
        report_obj = report.to_json()
    else:
        max_k = instance.m if args.max_k is None else args.max_k
        res = optimal_code_length(instance, q=args.q, max_K=max_k)
        if res.witness is None:
            raise CliError(f"encode optimal: no code of length <= {max_k} found")
        matrix = res.witness
        report_obj = res.to_json()
    if args.prune:
        matrix = matrix.prune_zero_rows()
    if not is_valid_code(matrix, instance):
        raise SelfCheckError(f"encode {args.alg}: produced matrix failed verification")
    _write_json(matrix.to_json(), args.matrix_out)
    _write_json(report_obj, args.report_out)
    return 0


def cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    matrix = load_matrix(args.matrix)
    active = instance.initial_active()
    satisfied, report = satisfied_set(matrix, instance, active)
    valid = satisfied == active
    if args.report_out:
        _write_json(report_to_json(report), args.report_out)
    print("valid" if valid else "invalid")
    return 0 if valid else 1


def cmd_minrank(args) -> int:
    instance = load_instance(args.instance)
    max_r = instance.m if args.max_r is None else args.max_r
    res = minrank_fitted(instance, q=args.q, max_r=max_r)
    _write_json(res.to_json(), args.out)
    return 0


def cmd_bench(args) -> int:
    try:
        config = ExperimentConfig(
            n_values=tuple(args.n),
            p=args.p,
            instances=args.instances,
            base_seed=args.seed,
            algorithms=tuple(args.algs),
            m_rule="fixed" if args.m_fixed else "n075",
            m_fixed=args.m_fixed,
            timing=not args.no_timing,
        )
    except ValueError as exc:
        raise CliError(f"bench: {exc}") from exc
    rows, summary = run_benchmark(config)
    write_csv(rows, args.out)
    if args.summary_out:
        _write_json(summary, args.summary_out)
    else:
        print(json.dumps(summary, indent=2))
    return 0


def cmd_counterexample(args) -> int:
    checks: list[tuple[str, bool]] = []
    quad = all_pairs_instance(4)

    res2 = optimal_code_length(quad, q=2, max_K=2)
    checks.append(("no length-2 binary code for the 4-message all-pairs instance", res2.value is None))
    res2full = optimal_code_length(quad, q=2, max_K=4)
    checks.append(("binary optimum for that instance is 3", res2full.value == 3))
    res3 = optimal_code_length(quad, q=3, max_K=2)
    checks.append(("length-2 code exists over F_3", res3.value == 2))

    explicit = FMatrix.from_rows([[1, 1, 0, 1], [0, 1, 1, 2]], 3)
    checks.append(("explicit ternary length-2 code verifies", is_valid_code(explicit, quad)))

    checks.append(("smallest prime field for m=4 at length 2 is F_3", min_field_for_length2(4) == 3))
    checks.append(("smallest prime field for m=6 at length 2 is F_5", min_field_for_length2(6) == 5))
    for q in (2, 3, 5):
        checks.append(
            (f"pairwise-independent vector count in F_{q}^2 is {q + 1}", count_pairwise_independent(q) == q + 1)
        )

    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok &= passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plicode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a random or all-pairs instance file")
    p.add_argument("kind", choices=["random", "all-pairs"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["auto", "json", "text"], default="auto")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("encode", help="run an encoder on an instance file")
    p.add_argument("--alg", choices=["bingreedy", "randomized", "optimal"], required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--matrix-out", default=None, help="output matrix JSON (stdout if omitted)")
    p.add_argument("--report-out", default=None, help="output report JSON (stdout if omitted)")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--q", type=int, default=2, help="field order for --alg optimal")
    p.add_argument("--max-k", type=int, default=None, help="length cap for --alg optimal")
    p.add_argument("--prune", action="store_true", help="drop all-zero rows from the matrix (any --alg)")
    p.add_argument("--use-original-n", action="store_true", help="fixed grouping thresholds")
    p.add_argument("--stopping", choices=["exactly_one", "cumulative"], default="exactly_one")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("verify", help="check a matrix file against an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minrank", help="constrained minrank of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-r", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_minrank)

    p = sub.add_parser("bench", help="run the comparison experiment, write CSV")
    p.add_argument("--n", type=int, nargs="+", default=[100, 316, 1000])
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--algs", nargs="+", default=["bingreedy", "randomized"])
    p.add_argument("--m-fixed", type=int, default=None, help="fixed m instead of round(n^0.75)")
    p.add_argument("--out", required=True)
    p.add_argument("--summary-out", default=None)
    p.add_argument("--no-timing", action="store_true", help="record runtime_ms as 0 for reproducible CSVs")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("counterexample", help="run the field-size suite, print pass/fail")
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INTERNAL_ERRORS as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
