"""What the encoders share: the dyadic band rule and the code assembly."""

import numpy as np
import pytest

from plicode.bingreedy import bingreedy
from plicode.instances import PliableInstance, build_instance
from plicode.randomized import randomized_code
from plicode.reports import dyadic_band


def _band_index(degree, threshold_n):
    """Reference band rule by doubling: smallest s >= 1 with degree * 2^s > threshold_n."""
    s = 1
    while (degree << s) <= threshold_n:
        s += 1
    return s


def test_dyadic_band_matches_doubling_loop():
    for n in [*range(1, 200), 2**31 - 1, 2**40, 2**52 + 1]:
        degrees = sorted({*range(1, min(n, 300) + 3), n // 3 + 1, n // 2, n - 1, n, n + 1} - {0})
        assert dyadic_band(degrees, n).tolist() == [_band_index(d, n) for d in degrees], n


@pytest.mark.parametrize(
    "encode", [bingreedy, lambda inst: randomized_code(inst, seed=1)], ids=["bingreedy", "randomized"]
)
@pytest.mark.parametrize(
    "inst",
    [PliableInstance(np.zeros((3, 0), dtype=bool)), build_instance(4, [set(), set()])],
    ids=["m=0", "all-vacuous"],
)
def test_zero_row_code_keeps_its_width(encode, inst):
    matrix, report = encode(inst)
    assert matrix.entries.shape == (0, inst.m)
    assert report.rows_raw == report.rows_pruned == 0
