"""Contract: every public entry point fails closed on a malformed number.

The walk over plicode.__all__ and the public classmethods of its classes
finds every parameter annotated as an int, a float or a collection of ints;
CONTRACTS gives one valid call per callable and each such parameter's
accepted range (plus the unannotated seeds). Every parameter gets bool,
float, negative, out-of-range and NaN variants, and each must raise a
ValueError subclass from inside plicode: never return, and never raise
IndexError, KeyError, AttributeError or TypeError. A numpy scalar must
give the plain call's result. The record classes the library
builds for its callers are not entry points and are skipped.
"""

import dataclasses
import functools
import inspect
import math
import types
import typing
from collections import abc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plicode
from plicode import (
    FMatrix,
    SearchResult,
    all_pairs_instance,
    bingreedy,
    random_instance,
    sort_and_group,
)
from plicode.bingreedy import GroupCode, SortingResult
from plicode.fields import MAX_ORDER

PACKAGE = Path(plicode.__file__).parent
RECORDS = {"ClientStatus", "ResultRow", "RunReport", "SearchResult"}

INST = random_instance(12, 5, 0.4, seed=1)
QUAD = all_pairs_instance(3)
CODE = bingreedy(INST)[0]
CLIENT = INST.non_vacuous_clients()[0]
# Without clients 0 and 1, a bool member cannot coincide with another member.
ACTIVE = {i for i in INST.non_vacuous_clients() if i >= 2}
SORTED = sort_and_group(INST, set(INST.non_vacuous_clients()))
FIELD_ORDERS = (2, MAX_ORDER + 1)


def entry(name):
    """The public callable named "f" or "Class.method"."""
    return functools.reduce(getattr, name.split("."), plicode)


def entry_points() -> list[str]:
    """The names in plicode.__all__ but the records, and "Class.method" for
    each public classmethod of the classes among them."""
    names = []
    for name in sorted(set(plicode.__all__) - RECORDS):
        names.append(name)
        obj = getattr(plicode, name)
        if isinstance(obj, type):
            names += [f"{name}.{attr}" for attr, raw in vars(obj).items()
                      if not attr.startswith("_") and isinstance(raw, classmethod)]
    return names


# Per public callable: the keyword arguments of one valid call, and per
# numeric parameter its accepted range: [lo, hi) for integers (hi None: no
# upper bound), [lo, hi] for reals.
CONTRACTS = {
    "ExperimentConfig": (
        dict(n_values=(10,), p=0.3, instances=1, base_seed=0, m_fixed=4),
        {"n_values": (1, None), "p": (0, 1), "instances": (1, None),
         "base_seed": (0, None), "m_fixed": (1, None)},
    ),
    "FMatrix.from_rows": (dict(rows=[[1, 0, 2], [0, 1, 1]], q=3), {"q": FIELD_ORDERS}),
    "FMatrix.zeros": (
        dict(n_rows=2, n_cols=3, q=3),
        {"n_rows": (0, None), "n_cols": (0, None), "q": FIELD_ORDERS},
    ),
    "FieldSpec": (dict(q=3), {"q": FIELD_ORDERS}),
    "all_pairs_instance": (dict(m=3), {"m": (2, None)}),
    "build_instance": (dict(m=4, requirements=[[0, 2], [], [3]]), {"m": (0, None), "requirements": (0, 4)}),
    "count_pairwise_independent": (dict(q=3), {"q": FIELD_ORDERS}),
    "decodable_messages": (dict(mat=CODE, instance=INST, i=CLIENT), {"i": (0, INST.n)}),
    "decode_value": (
        dict(mat=CODE, instance=INST, i=CLIENT, x=CODE.mul_vector(np.ones(INST.m, dtype=int)),
             side_values={j: 1 for j in INST.side_info(CLIENT)}),
        {"i": (0, INST.n)},
    ),
    "greedy_assign": (
        dict(instance=INST, group=next(g for g in SORTED.groups if g),
             eff=SORTED.eff),
        {"group": (0, INST.m)},
    ),
    "min_field_for_length2": (dict(m=3), {"m": (3, None)}),
    "minrank_fitted": (dict(instance=QUAD, q=2, max_r=2), {"q": FIELD_ORDERS, "max_r": (0, None)}),
    "optimal_code_length": (dict(instance=QUAD, q=2, max_K=2), {"q": FIELD_ORDERS, "max_K": (0, None)}),
    "random_instance": (
        dict(n=6, m=4, p=0.5, seed=1),
        {"n": (1, None), "m": (1, None), "p": (0, 1), "seed": (0, None)},
    ),
    "randomized_code": (dict(instance=INST, seed=1), {"seed": (0, None)}),
    "sort_and_group": (
        dict(instance=INST, active=ACTIVE, use_original_n=True),
        {"active": (0, INST.n)},
    ),
}
CASES = [(name, param) for name, (_, ranges) in CONTRACTS.items() for param in ranges]
INT_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def kind(hint) -> str | None:
    """'int', 'real' or 'indices' (a possibly nested collection of ints) for
    a numeric annotation, None for any other."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is int or (origin in (typing.Union, types.UnionType) and int in args):
        return "int"
    if hint is float:
        return "real"
    if origin in (set, frozenset, list, tuple, abc.Collection, abc.Sequence, abc.Iterable) and args:
        return "indices" if kind(args[0]) in ("int", "indices") else None
    return None


def numeric_parameters(obj) -> dict[str, str]:
    hints = typing.get_type_hints(obj)
    params = inspect.signature(obj).parameters
    return {p: kind(hints[p]) for p in params if p in hints and kind(hints[p])}


def test_kind_reads_the_annotations():
    assert [kind(h) for h in (int, int | None, float, bool, str, set[int], tuple[int, ...])] == [
        "int", "int", "real", None, None, "indices", "indices",
    ]
    assert kind(typing.Sequence[typing.Iterable[int]]) == "indices"
    assert kind(abc.Collection[int]) == "indices"
    assert kind(dict[int, frozenset[int]]) is None


def test_every_numeric_parameter_has_a_contract():
    missing = {}
    for name in entry_points():
        found = set(numeric_parameters(entry(name)))
        covered = set(CONTRACTS[name][1]) if name in CONTRACTS else set()
        if found - covered:
            missing[name] = sorted(found - covered)
    assert missing == {} and set(CONTRACTS) <= set(entry_points())
    for name, (kwargs, ranges) in CONTRACTS.items():
        assert set(ranges) <= set(kwargs) <= set(inspect.signature(entry(name)).parameters)


def canonical(result):
    """The result in a form that == compares by value, timings dropped."""
    if isinstance(result, tuple):
        return tuple(map(canonical, result))
    if isinstance(result, FMatrix):
        return result.to_json()
    if isinstance(result, SearchResult):
        return dataclasses.replace(result, witness=canonical(result.witness), elapsed_ms=0)
    if isinstance(result, SortingResult):
        # A dict's == ignores key order; eff's key order is the greedy order.
        return [(j, c.tolist()) for j, c in result.eff.items()], result.groups
    if isinstance(result, GroupCode):
        return result.vectors, result.sat.tolist()
    return result


@functools.cache
def plain_result(name):
    kwargs, _ = CONTRACTS[name]
    return canonical(entry(name)(**kwargs))


def replace_member(value, new):
    """A collection like value with one integer member, the first found
    depth-first (the smallest, in a set), replaced by new."""
    if isinstance(value, (set, frozenset)):
        old = min(value)
        return type(value)(value - {old} | {new})
    items = list(value)
    k = next(k for k, x in enumerate(items) if not isinstance(x, (list, tuple)) or x)
    items[k] = new if not isinstance(items[k], (list, tuple)) else replace_member(items[k], new)
    return type(value)(items)


def to_numpy(value, dtype):
    if isinstance(value, (set, frozenset, list, tuple)):
        return type(value)(to_numpy(x, dtype) for x in value)
    return dtype(value)


def bad_values(value_kind, lo, hi):
    """Values outside the parameter's contract, one strategy per variant."""
    variants = {
        "bool": st.sampled_from([True, False, np.True_, np.False_]),
        "negative": st.integers(max_value=-1),
        "nan": st.sampled_from([math.nan, np.float64("nan")]),
    }
    if value_kind == "real":
        variants["out of range"] = st.one_of(
            st.floats(min_value=hi, exclude_min=True), st.floats(max_value=lo, exclude_max=True)
        )
    else:
        # A float is never an integer, however integral its value.
        finite = st.floats(allow_nan=False)
        variants["float"] = st.one_of(finite, finite.map(np.float64))
        above = st.integers(min_value=hi) if hi is not None else st.nothing()
        variants["out of range"] = st.one_of(above, st.integers(max_value=lo - 1))
    return variants


def param_kind(name, param):
    # The seeds are unannotated and take integers.
    return numeric_parameters(entry(name)).get(param, "int")


def call_with(name, param, value):
    kwargs, _ = CONTRACTS[name]
    if param_kind(name, param) == "indices":
        value = replace_member(kwargs[param], value)
    return entry(name)(**{**kwargs, param: value})


BAD_CASES = [
    (name, param, variant)
    for name, param in CASES
    for variant in bad_values(param_kind(name, param), *CONTRACTS[name][1][param])
]


@pytest.mark.parametrize("name, param, variant", BAD_CASES)
@settings(derandomize=True, deadline=None, max_examples=6)
@given(data=st.data())
def test_malformed_number_fails_closed(name, param, variant, data):
    strategy = bad_values(param_kind(name, param), *CONTRACTS[name][1][param])[variant]
    value = data.draw(strategy, label=variant)
    with pytest.raises(ValueError) as info:
        call_with(name, param, value)
    tb = info.tb
    while tb.tb_next:
        tb = tb.tb_next
    assert Path(tb.tb_frame.f_code.co_filename).parent == PACKAGE, info.getrepr(style="short")


@pytest.mark.parametrize("name, param", CASES)
@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data())
def test_numpy_scalar_gives_the_plain_result(name, param, data):
    kwargs, _ = CONTRACTS[name]
    real = param_kind(name, param) == "real"
    dtype = np.float64 if real else data.draw(st.sampled_from(INT_TYPES), label="dtype")
    value = to_numpy(kwargs[param], dtype)
    result = entry(name)(**{**kwargs, param: value})
    assert canonical(result) == plain_result(name)
