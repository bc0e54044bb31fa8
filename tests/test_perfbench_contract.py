"""The benchmark's use of the program: traced names and one cycle per workload.

perfbench/ drives the program through its public API and wraps the functions
named in tracer.TRACED. This suite imports perfbench's tracer and workloads
as they are and checks that every traced name still resolves and binds, and
that each workload's set-up, one full cycle of items and their output checks
run and pass, with the tracer installed for the first item. Workload
quality() summaries are not run here.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer as tracer_mod  # noqa: E402
import workloads as workloads_mod  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def prog():
    names = sorted({mod for mod, _ in tracer_mod.TRACED})
    return SimpleNamespace(**{m: importlib.import_module(f"plicode.{m}") for m in names})


def test_every_traced_name_resolves_and_binds(prog):
    tracer = tracer_mod.Tracer(prog)
    bound = {b.rsplit(".", 1)[1] for b in tracer.bindings}
    for mod, fn in tracer_mod.TRACED:
        assert callable(getattr(getattr(prog, mod), fn)), f"{mod}.{fn}"
        assert fn in bound, f"{mod}.{fn} has no binding to wrap"


@pytest.mark.parametrize("name", sorted(workloads_mod.WORKLOADS))
def test_workload_cycle(prog, name):
    work = workloads_mod.WORKLOADS[name](prog, SEED)
    work.prepare()
    tracer = tracer_mod.Tracer(prog)
    for k in range(work.cycle):
        inp = work.item(k)
        if k == 0:
            rec = tracer.begin_item(k)
            tracer.install()
            try:
                out = work.call(inp)
            finally:
                tracer.uninstall()
                tracer.end_item(rec)
        else:
            out = work.call(inp)
        assert work.check(k, inp, out), f"{name} item {k} failed its check"
    assert work.finish() == set()
    layers = tracer.layer_totals()
    assert layers[tracer_mod.ITEM]["calls"] == 1
    assert len(layers) > 1, f"{name}: no traced program call inside the item"
