"""Command-line front end: instance generation, encoding, verification,
minrank queries, benchmarks, and the field-size counterexample suite.

Exit codes: 0 ok, 1 invalid code (verify) or a failed check (counterexample),
2 usage or input error, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .bench import ExperimentConfig, run_benchmark, write_csv
from .bingreedy import bingreedy
from .decoding import is_valid_code, report_to_json, satisfied_set
from .fields import DimensionError, FieldError, FMatrix, check_integer
from .instances import InstanceError, PliableInstance, all_pairs_instance, random_instance
from .oracle import (
    BudgetError,
    count_pairwise_independent,
    min_field_for_length2,
    minrank_fitted,
    optimal_code_length,
)
from .randomized import randomized_code


class CliError(Exception):
    """User-facing CLI failure; the message names the offending flag/file."""


# Exit 2: the user's arguments or files are at fault (OSError: an output path
# that cannot be written; a malformed file raises the JSON and decode errors).
# Any other exception exits 3: the program broke an invariant it guarantees.
INPUT_ERRORS = (CliError, BudgetError, InstanceError, FieldError, DimensionError, OSError,
                json.JSONDecodeError, UnicodeDecodeError)


def non_negative_int(text: str) -> int:
    """argparse type for --seed, --max-k and --max-r: seeds are >= 0, and 0 is a real cap."""
    return check_integer(int(text), 0, None, "value", ValueError)


def _load(path: str, what: str, parse):
    """parse(text) of the file given as --<what>; a failure to read or parse it is a CliError."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise CliError(f"--{what}: cannot read {path}: {exc}") from exc
    except INPUT_ERRORS as exc:
        raise CliError(f"--{what}: {path} is not a valid {what} file: {exc}") from exc


def load_instance(path: str) -> PliableInstance:
    def parse(text):
        if text.lstrip().startswith("{"):
            return PliableInstance.from_json(json.loads(text))
        return PliableInstance.from_text(text)

    return _load(path, "instance", parse)


def load_matrix(path: str) -> FMatrix:
    return _load(path, "matrix", lambda text: FMatrix.from_json(json.loads(text)))


def save_instance(instance: PliableInstance, path: str) -> None:
    with open(path, "w") as fh:
        if path.endswith(".json"):
            json.dump(instance.to_json(), fh)
            fh.write("\n")
        else:
            fh.write(instance.to_text())


def _write_json(obj, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    else:
        print(json.dumps(obj, indent=2))


def reject_unread_flags(args, chosen: str, readers: dict) -> None:
    """CliError for a flag given with an --alg or gen kind that does not read it.
    readers maps a dest to (the choice that reads it, its default); such flags
    default to argparse.SUPPRESS, so they are in args only when given."""
    for dest, (reader, default) in readers.items():
        if reader != chosen and dest in args:
            raise CliError(f"--{dest.replace('_', '-')} applies only to {reader}, not {chosen}")
        vars(args).setdefault(dest, default)


def cmd_gen(args) -> int:
    reject_unread_flags(args, args.kind, {"n": ("random", None), "p": ("random", 0.3), "seed": ("random", 0)})
    if args.kind == "random":
        if args.n is None or args.m is None:
            raise CliError("gen random: both --n and --m are required")
        instance = random_instance(args.n, args.m, args.p, seed=args.seed)
    else:
        if args.m is None:
            raise CliError("gen all-pairs: --m is required")
        instance = all_pairs_instance(args.m)
    save_instance(instance, args.out)
    return 0


def cmd_encode(args) -> int:
    reject_unread_flags(args, args.alg, {
        "use_original_n": ("bingreedy", False), "seed": ("randomized", 0),
        "stopping": ("randomized", "exactly_one"), "q": ("optimal", 2), "max_k": ("optimal", None),
    })
    instance = load_instance(args.instance)
    if args.alg == "bingreedy":
        matrix, report = bingreedy(instance, use_original_n=args.use_original_n)
    elif args.alg == "randomized":
        matrix, report = randomized_code(instance, seed=args.seed, stopping=args.stopping)
    else:
        max_k = instance.m if args.max_k is None else args.max_k
        report = optimal_code_length(instance, q=args.q, max_K=max_k)
        if report.witness is None:
            raise CliError(f"encode optimal: no code of length <= {max_k} found")
        matrix = report.witness
    if args.prune:
        matrix = matrix.prune_zero_rows()
    if not is_valid_code(matrix, instance):
        raise RuntimeError(f"encode {args.alg}: produced matrix failed verification")
    _write_json(matrix.to_json(), args.matrix_out)
    _write_json(report.to_json(), args.report_out)
    return 0


def cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    matrix = load_matrix(args.matrix)
    if not matrix.n_rows:
        # A zero-row matrix file carries no width; it has the instance's.
        matrix = FMatrix.zeros(0, instance.m, matrix.field.q)
    satisfied, report = satisfied_set(matrix, instance)
    valid = len(satisfied) == len(instance.non_vacuous_clients())
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
            m_fixed=args.m_fixed,
            timing=not args.no_timing,
        )
    except ValueError as exc:
        raise CliError(f"bench: {exc}") from exc
    rows, summary = run_benchmark(config)
    write_csv(rows, args.out)
    _write_json(summary, args.summary_out)
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

    unset = argparse.SUPPRESS  # see reject_unread_flags
    p = sub.add_parser("gen", help="write a random or all-pairs instance file")
    p.add_argument("kind", choices=["random", "all-pairs"])
    p.add_argument("--n", type=int, default=unset)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=float, default=unset, help="default 0.3")
    p.add_argument("--seed", type=non_negative_int, default=unset, help="default 0")
    p.add_argument("--out", required=True, help="JSON if it ends in .json, else the text format")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("encode", help="run an encoder on an instance file")
    p.add_argument("--alg", choices=["bingreedy", "randomized", "optimal"], required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--matrix-out", default=None, help="output matrix JSON (stdout if omitted)")
    p.add_argument("--report-out", default=None, help="output report JSON (stdout if omitted)")
    p.add_argument("--seed", type=non_negative_int, default=unset, help="default 0")
    p.add_argument("--q", type=int, default=unset, help="field order for --alg optimal (default 2)")
    p.add_argument("--max-k", type=non_negative_int, default=unset, help="length cap for --alg optimal")
    p.add_argument("--prune", action="store_true", help="drop all-zero rows from the matrix (any --alg)")
    p.add_argument("--use-original-n", action="store_true", default=unset, help="fixed grouping thresholds")
    p.add_argument("--stopping", choices=["exactly_one", "cumulative"], default=unset)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("verify", help="check a matrix file against an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minrank", help="constrained minrank of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-r", type=non_negative_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_minrank)

    p = sub.add_parser("bench", help="run the comparison experiment, write CSV")
    p.add_argument("--n", type=int, nargs="+", default=[100, 316, 1000])
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=non_negative_int, default=0)
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
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
