"""plicode benchmark: one workload per run, end-to-end metrics or a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Workloads: headline, encode-large, oracle, decode (see perfbench/README.md).
With --trace 0 the run measures end-to-end metrics with no instrumentation.
With --trace 1 every item runs twice, untraced and with every public program
function wrapped in a timing span, and the run reports per-layer metrics plus
the tracing overhead.

Human-readable lines go to standard output first; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. A full record (and, in
a traced run, the gzipped span list) is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("instances", "fields", "decoding", "bingreedy", "randomized", "oracle", "bench")
SETUP_REPEATS = 3
# Tail percentile rungs. The ladder stops at p90: above it the figure is set
# by host jitter rather than the program (over ten seeds decode's p99 ranged
# 2.75-4.47 ms and moved 24% between quartiles, its p90 2.18-2.57 ms).
TAIL_LADDER = (50.0, 75.0, 90.0)
TAIL_BEYOND = 10
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Busy ms / self ms / call counts reported per traced span name.
LAYER_FIELDS = {
    "item": ("ms", "calls"),
    "instances.random_instance": ("ms", "calls"),
    "instances.adjacency_matrix": ("ms", "calls"),
    "instances.instance_hash": ("ms", "calls"),
    "fields.essential_columns": ("ms", "calls"),
    "fields.solve_consistent": ("ms", "calls"),
    "decoding.is_valid_code": ("ms", "self_ms", "calls"),
    "decoding.decodable_messages": ("ms",),
    "decoding.decode_value": ("ms", "self_ms"),
    "bingreedy.bingreedy": ("ms", "self_ms", "calls"),
    "bingreedy.sort_and_group": ("ms", "calls"),
    "bingreedy.greedy_assign": ("ms", "calls"),
    "randomized.randomized_code": ("ms", "self_ms", "calls"),
    "randomized.plan_bins": ("ms",),
    "oracle.optimal_code_length": ("ms", "calls"),
    "oracle.minrank_fitted": ("ms", "calls"),
    "oracle.min_field_for_length2": ("ms",),
    "bench.run_benchmark": ("ms", "self_ms"),
}
FIELD_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def import_program():
    """Import plicode from this checkout's src/ (never from an installed copy)."""
    src = ROOT / "src"
    if not (src / "plicode" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found at {src / 'plicode'}")
    sys.path.insert(0, str(src))
    import plicode

    if Path(plicode.__file__).resolve().parent != (src / "plicode").resolve():
        raise SystemExit(f"error: imported plicode from {plicode.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"plicode.{m}") for m in MODULES})


def tail(lat_ms: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest TAIL_LADDER rung with
    at least TAIL_BEYOND samples beyond it (p50 when none has)."""
    xs = sorted(lat_ms)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if best is None or n - rank >= TAIL_BEYOND:
            best = (p, xs[rank - 1], n - rank)
    return best


def run_phase(wl, budget_s, tracer=None):
    """Closed loop over items; stops at a cycle boundary once the busy time reaches the budget.

    A reference-kernel sample is taken before an item whenever REF_EVERY_S of
    item time has passed since the last one, and once after the loop.

    With a tracer each item runs twice, untraced and traced, in alternating
    order, so the overhead is measured on identical work.
    """
    import calibrate  # loads numpy, so only after main() has set the thread counts

    ph = SimpleNamespace(n=0, lat=[], traced_lat=[], busy=0.0, failed=set(), errors=[])
    ph.refs, ph.item_refs = [], []  # reference-kernel samples; last sample before each item
    since = math.inf
    k = 0
    while not (k >= wl.min_items and k % wl.cycle == 0 and ph.busy >= budget_s):
        if since >= calibrate.REF_EVERY_S:
            ph.refs.append(calibrate.sample())
            since = 0.0
        ph.item_refs.append(len(ph.refs) - 1)
        order = (False,) if tracer is None else ((False, True) if k % 2 == 0 else (True, False))
        for traced in order:
            dt = run_item(wl, k, tracer if traced else None, ph)
            (ph.traced_lat if traced else ph.lat).append(dt * 1000.0)
            ph.busy += dt
            since += dt
        k += 1
    ph.refs.append(calibrate.sample())
    ph.n = k
    ph.scale = calibrate.scales(ph.refs, ph.item_refs)
    return ph


def run_item(wl, k, tracer, ph) -> float:
    """One timed call plus its untimed output check; failures are recorded, not raised."""
    inp = wl.item(k)
    out, exc = None, None
    if tracer:
        tracer.install()
        span = tracer.begin_item(k)
    t0 = perf_counter()
    try:
        out = wl.call(inp)
    except Exception as e:  # counted as a failed item; the run goes on
        exc = e
    dt = perf_counter() - t0
    if tracer:
        tracer.end_item(span)
        tracer.uninstall()
    if exc is None:
        try:
            if not wl.check(k, inp, out):
                ph.failed.add(k)
                ph.errors.append(f"item {k}: output check failed")
        except Exception as e:
            exc = e
    if exc is not None:
        ph.failed.add(k)
        ph.errors.append(f"item {k}: " + "".join(traceback.format_exception(exc)).strip())
    return dt


def environment(args, wl) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": wl.sizes(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def layer_metrics(tracer, ph) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Per-layer metrics (name -> (value, unit)) and the base of each ratio."""
    totals = tracer.layer_totals(scale=ph.scale)
    c = tracer.counters
    get = lambda name, f: totals.get(name, {}).get(f, 0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    out = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            out[f"{name}.{f}"] = (get(name, f), FIELD_UNITS[f])
    out["fields.essential_columns.cells"] = (c["fields.essential_columns.cells"], "count")
    out["bingreedy.rows_zero_frac"] = (ratio(c["bingreedy.rows_zero"], c["bingreedy.rows_raw"]), "ratio")
    out["bingreedy.min_group_sat_frac"] = (c.get("bingreedy.min_group_sat_frac", 0.0), "ratio")
    rcalls = get("randomized.randomized_code", "calls")
    out["randomized.rows_drawn"] = (ratio(c["randomized.rows_drawn"], rcalls), "rows")
    out["randomized.rows_zero_frac"] = (
        ratio(c["randomized.rows_zero"], c["randomized.rows_drawn"]),
        "ratio",
    )
    for k in ("oracle.optimal_code_length.enumerated", "oracle.minrank_fitted.enumerated"):
        out[k] = (c[k], "count")
    out["bench.verify_share"] = (
        ratio(get("decoding.is_valid_code", "ms"), get("bench.run_benchmark", "ms")),
        "ratio",
    )
    out["encoders.item_share"] = (
        ratio(
            get("bingreedy.bingreedy", "ms") + get("randomized.randomized_code", "ms"),
            get("item", "ms"),
        ),
        "ratio",
    )
    scaled = lambda xs: sum(x * f for x, f in zip(xs, ph.scale))  # noqa: E731
    out["trace.overhead_frac"] = (scaled(ph.traced_lat) / scaled(ph.lat) - 1.0, "ratio")
    ms = lambda name: get(name, "ms")  # noqa: E731
    bases = {
        "bench.verify_share": f"{ms('decoding.is_valid_code'):.1f} ms / {ms('bench.run_benchmark'):.1f} ms",
        "encoders.item_share": (
            f"{ms('bingreedy.bingreedy') + ms('randomized.randomized_code'):.1f} ms / {ms('item'):.1f} ms"
        ),
        "bingreedy.rows_zero_frac": f"{c['bingreedy.rows_zero']} / {c['bingreedy.rows_raw']} rows",
        "bingreedy.min_group_sat_frac": f"over {c['bingreedy.groups']} groups (paper bound 1/3)",
        "randomized.rows_drawn": f"{c['randomized.rows_drawn']} rows / {rcalls} calls",
        "randomized.rows_zero_frac": f"{c['randomized.rows_zero']} / {c['randomized.rows_drawn']} rows",
        "trace.overhead_frac": f"{scaled(ph.traced_lat):.1f} ms traced / {scaled(ph.lat):.1f} ms untraced",
    }
    return out, bases


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"

    t0 = perf_counter()
    prog = import_program()
    import_s = perf_counter() - t0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import calibrate
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    prep, setup_refs = [], [calibrate.sample() for _ in range(3)]
    for _ in range(SETUP_REPEATS):
        wl = WORKLOADS[args.workload](prog, args.seed)
        t0 = perf_counter()
        wl.prepare()
        prep.append(perf_counter() - t0)
        setup_refs.append(calibrate.sample())
    setup_raw_s = import_s + statistics.median(prep)
    setup_s = setup_raw_s * calibrate.REF_NOMINAL_S / statistics.median(setup_refs)

    tracer = Tracer(prog) if args.trace else None
    ph = run_phase(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    post_failed = wl.finish()
    failed = len(ph.failed | post_failed)
    attempted = ph.n
    errors = ph.errors + [f"item {k}: post-run code check failed" for k in sorted(post_failed)]
    quality = wl.quality()
    deterministic = dict(quality)
    if tracer:
        prefix = tracer.layer_totals(items=range(wl.min_items))
        deterministic["prefix_essential_columns_calls"] = prefix.get(
            "fields.essential_columns", {}
        ).get("calls", 0)
    digest = hashlib.sha256(json.dumps(deterministic, sort_keys=True).encode()).hexdigest()

    if args.trace:
        metrics, bases = layer_metrics(tracer, ph)
    else:
        lat = [x * f for x, f in zip(ph.lat, ph.scale)]  # ms at reference speed
        p_tail, v_tail, beyond = tail(lat)
        raw = {
            "setup_s": setup_raw_s,
            "items_per_s": ph.n / ph.busy,
            "item_p50_ms": statistics.median(ph.lat),
            "item_tail_ms": tail(ph.lat)[1],
        }
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (ph.n / (sum(lat) / 1000.0), "1/s"),
            "item_p50_ms": (statistics.median(lat), "ms"),
            "item_tail_ms": (v_tail, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "code_rows_greedy": (quality["code_rows_greedy"], "rows"),
            "code_rows_randomized": (quality["code_rows_randomized"], "rows"),
        }
        bases = {k: f"unscaled {v:.6g}" for k, v in raw.items()}
        bases["item_tail_ms"] += f"; p{p_tail:g}, {beyond} of {ph.n} samples beyond"
        bases["setup_s"] += (
            f"; import {import_s:.4f} s + median of {SETUP_REPEATS} preparations "
            + ", ".join(f"{x:.4f}" for x in prep)
        )

    env = environment(args, wl)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  cpu {env['cpu']}  "
          f"commit {env['commit'][:12]}")
    print(f"sizes {json.dumps(env['sizes'])}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({bases[name]})" if name in bases else ""
        print(f"  {name:<42} {value:>14.6g} {unit}{extra}")
    print(f"  {'failed_frac':<42} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} items)")
    print(f"deterministic sha256 {digest}")
    for e in errors[:5]:
        print(e, file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "bases": bases,
        "deterministic": deterministic,
        "deterministic_sha256": digest,
        "latencies_ms": ph.lat,
        "traced_latencies_ms": ph.traced_lat,
        "scale": ph.scale,
        "reference_samples_s": ph.refs,
        "setup_reference_samples_s": setup_refs,
        "traced_bindings": tracer.bindings if tracer else [],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record))
    if tracer:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl.gz")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
