"""Metamorphic properties: relabeling invariance, and encoders never beat the optimum."""

import numpy as np
import pytest

from plicode.bingreedy import bingreedy
from plicode.decoding import is_valid_code
from plicode.fields import FMatrix, FieldSpec
from plicode.instances import build_instance, random_instance
from plicode.oracle import minrank_fitted, optimal_code_length
from plicode.randomized import randomized_code


def relabel(instance, msg_perm, client_perm):
    """Message j becomes msg_perm[j]; client i becomes client client_perm[i]."""
    reqs = [None] * instance.n
    for i, r in enumerate(instance.requirements):
        reqs[client_perm[i]] = {int(msg_perm[j]) for j in r}
    return build_instance(instance.m, reqs)


def relabel_code(mat, msg_perm):
    entries = np.empty_like(mat.entries)
    entries[:, msg_perm] = mat.entries
    return FMatrix(entries, mat.field)


def _perms(rng, instance):
    return rng.permutation(instance.m), rng.permutation(instance.n)


class TestRelabeling:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_validity_preserved(self, q):
        rng = np.random.default_rng([5, q])
        seen = set()
        for trial in range(40):
            inst = random_instance(12, 5, 0.4, seed=[5, q, trial])
            k = int(rng.integers(1, 4))
            mat = FMatrix(rng.integers(0, q, size=(k, inst.m)), FieldSpec(q))
            msg_perm, client_perm = _perms(rng, inst)
            valid = is_valid_code(mat, inst)
            moved = relabel(inst, msg_perm, client_perm)
            assert is_valid_code(relabel_code(mat, msg_perm), moved) == valid
            seen.add(valid)
        assert seen == {True, False}  # both outcomes were exercised

    @pytest.mark.parametrize("seed", range(3))
    def test_encoder_codes_stay_valid(self, seed):
        inst = random_instance(60, 20, 0.3, seed=[6, seed])
        msg_perm, client_perm = _perms(np.random.default_rng([6, seed]), inst)
        moved = relabel(inst, msg_perm, client_perm)
        for mat, _ in (bingreedy(inst), randomized_code(inst, seed=seed)):
            assert is_valid_code(relabel_code(mat, msg_perm), moved)

    @pytest.mark.parametrize("q,n,m", [(2, 20, 4), (3, 15, 4), (5, 8, 3)])
    def test_optima_preserved(self, q, n, m):
        for seed in range(3):
            inst = random_instance(n, m, 0.5, seed=[7, q, seed])
            msg_perm, client_perm = _perms(np.random.default_rng([7, q, seed]), inst)
            moved = relabel(inst, msg_perm, client_perm)
            for search in (optimal_code_length, minrank_fitted):
                assert search(moved, q, 3).value == search(inst, q, 3).value


class TestEncodersAboveOptimum:
    @pytest.mark.parametrize("n,m", [(6, 3), (10, 4), (20, 4), (12, 5)])
    def test_pruned_length_never_below_optimum(self, n, m):
        for seed in range(5):
            inst = random_instance(n, m, 0.5, seed=[8, n, m, seed])
            opt = optimal_code_length(inst, 2, max_K=m).value
            assert opt is not None  # m uncoded transmissions always suffice
            assert bingreedy(inst)[1].rows_pruned >= opt
            assert randomized_code(inst, seed=seed)[1].rows_pruned >= opt
