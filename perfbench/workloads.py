"""The four benchmark workloads.

Every workload is a closed loop: one caller, and item k+1 is sent only after
item k returns. Inputs derive from the workload seed alone. `call` is the
timed region; `check`, `finish` and `quality` run outside it.
"""

from __future__ import annotations

import statistics

import numpy as np

from checks import f2_witnesses, requirement_matrix


class Workload:
    name = ""
    why = ""
    cycle = 1  # the timed loop stops only at multiples of this many items
    min_items = 1  # always completed; the deterministic record covers them

    def __init__(self, prog, seed: int):
        self.p = prog
        self.seed = seed

    def prepare(self) -> None:
        """Instance generation and any other set-up the timed items need."""

    def sizes(self) -> dict:
        raise NotImplementedError

    def item(self, k: int):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def check(self, k: int, inp, out) -> bool:
        raise NotImplementedError

    def finish(self) -> set[int]:
        """Checks run once after the timed loop; returns the items that failed them."""
        return set()

    def quality(self) -> dict:
        """Deterministic fields over the first min_items items (or the set-up codes)."""
        raise NotImplementedError


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _in_span_witness(prog, code: np.ndarray, req: list[int], wit: int) -> bool:
    """Cross-check through fields.in_span: some required column is outside the others' span."""
    spec = prog.fields.FieldSpec(2)
    cols = {j: code[:, j] for j in req}
    order = [wit] if wit >= 0 else req
    return any(
        not prog.fields.in_span(cols[j], [cols[t] for t in req if t != j], spec) for j in order
    )


class Headline(Workload):
    """The paper's comparison experiment through plicode.bench.run_benchmark.

    One (n, seed) instance per item, both encoders, every code verified by
    run_benchmark's own is_valid_code gate. Verification dominates item time.
    """

    name = "headline"
    why = "the paper's greedy-vs-randomized experiment as users run it; verification dominates"
    N_VALUES = (100, 316, 1000)
    EDGE_P = 0.3
    cycle = len(N_VALUES)
    min_items = 8 * len(N_VALUES)
    SAMPLE_CLIENTS = 4

    def prepare(self):
        self.rows: dict[int, list] = {}

    def sizes(self):
        return {
            "n": list(self.N_VALUES),
            "m": [round(n**0.75) for n in self.N_VALUES],
            "p": self.EDGE_P,
            "instances_per_item": 1,
        }

    def item(self, k):
        return self.p.bench.ExperimentConfig(
            n_values=(self.N_VALUES[k % self.cycle],),
            p=self.EDGE_P,
            instances=1,
            base_seed=self.seed * 1_000_000 + k // self.cycle,
        )

    def call(self, cfg):
        return self.p.bench.run_benchmark(cfg)[0]

    def check(self, k, cfg, rows):
        if sorted(r.algorithm for r in rows) != ["bingreedy", "randomized"]:
            return False
        if k < self.min_items:
            self.rows[k] = rows
        n = cfg.n_values[0]
        stream = [cfg.base_seed, n, 0]
        inst = self.p.instances.random_instance(n, cfg.m_for(n), cfg.p, seed=stream)
        codes = {
            "bingreedy": self.p.bingreedy.bingreedy(inst)[0],
            "randomized": self.p.randomized.randomized_code(inst, seed=stream)[0],
        }
        rng = np.random.default_rng([self.seed, k])
        nonvac = inst.non_vacuous_clients()
        clients = rng.choice(nonvac, size=min(self.SAMPLE_CLIENTS, len(nonvac)), replace=False)
        adj = requirement_matrix([inst.requirements[i] for i in clients], inst.m)
        for row in rows:
            code = codes[row.algorithm]
            if code.prune_zero_rows().n_rows != row.code_length_pruned:
                return False
            wit = f2_witnesses(adj, code.entries)
            for t, i in enumerate(clients):
                req = sorted(inst.requirements[i])
                if not _in_span_witness(self.p, code.entries, req, int(wit[t])):
                    return False
        return True

    def quality(self):
        rows = [r for k in sorted(self.rows) for r in self.rows[k]]
        greedy = [r for r in rows if r.algorithm == "bingreedy"]
        rand = [r for r in rows if r.algorithm == "randomized"]
        return {
            "code_rows_greedy": _mean([r.code_length_pruned for r in greedy]),
            "code_rows_randomized": _mean([r.code_length_pruned for r in rand]),
            "items": [
                [r.n, r.algorithm, r.code_length_raw, r.code_length_pruned, r.rounds] for r in rows
            ],
        }


class EncodeLarge(Workload):
    """Sparse large instances; one encoder call per item, codes checked after timing.

    Each instance gets one bingreedy call and two randomized_code draws with
    different seeds. With a 1:1 mix the two encoders' latencies form two
    equal clusters and the median would fall in the gap between them.
    """

    name = "encode-large"
    why = "large sparse instances; encoders and adjacency do the timed work, verification none"
    N, M, EDGE_P = 10_000, 1_000, 0.01
    POOL = 4
    CALLS = ("bingreedy", "randomized", "randomized")  # per instance, in order
    cycle = len(CALLS)
    min_items = len(CALLS) * POOL

    def prepare(self):
        self.instances = [
            self.p.instances.random_instance(self.N, self.M, self.EDGE_P, seed=[self.seed, 2, idx])
            for idx in range(self.POOL)
        ]
        self.codes: dict[tuple[int, int], tuple] = {}
        self.keys: dict[int, tuple[int, int]] = {}
        self.fallback = 0  # clients the vectorised test left to decodable_messages

    def sizes(self):
        return {"n": self.N, "m": self.M, "p": self.EDGE_P, "instances": self.POOL,
                "calls_per_instance": list(self.CALLS)}

    def item(self, k):
        c, slot = divmod(k, self.cycle)
        return c % self.POOL, slot

    def call(self, inp):
        idx, slot = inp
        inst = self.instances[idx]
        if self.CALLS[slot] == "bingreedy":
            return self.p.bingreedy.bingreedy(inst)
        return self.p.randomized.randomized_code(inst, seed=[self.seed, 2, idx, slot])

    def check(self, k, inp, out):
        # Encoders are deterministic: a repeat must equal the first code, which
        # finish() checks in full.
        self.keys[k] = inp
        first = self.codes.setdefault(inp, out)
        return first is out or first[0].equals(out[0])

    def finish(self):
        failed = set()
        for key, (code, _) in self.codes.items():
            inst = self.instances[key[0]]
            wit = f2_witnesses(requirement_matrix(inst.requirements, inst.m), code.entries)
            ok = True
            for i in np.nonzero(wit < 0)[0]:
                if inst.requirements[i]:
                    self.fallback += 1
                    ok = ok and bool(self.p.decoding.decodable_messages(code, inst, int(i)))
            if not ok:
                failed |= {k for k, kk in self.keys.items() if kk == key}
        return failed

    def quality(self):
        out = {"items": [], "fallback_clients": self.fallback}
        for alg, metric in (("bingreedy", "code_rows_greedy"), ("randomized", "code_rows_randomized")):
            keys = [key for key in sorted(self.codes) if self.CALLS[key[1]] == alg]
            reports = [self.codes[key][1] for key in keys]
            out[metric] = _mean([r.rows_pruned for r in reports])
            out["items"] += [
                [*key, alg, r.rows_raw, r.rows_pruned, len(r.rounds) if alg == "bingreedy" else len(r.bins)]
                for key, r in zip(keys, reports)
            ]
        return out


class Oracle(Workload):
    """Exact searches: both oracles on small random instances, plus all-pairs thresholds.

    Search cost on a random instance is heavy-tailed (it depends on where in
    the enumeration order the first code lies), so many small instances are
    used per run rather than a few large ones; the seed-independent
    threshold queries carry most of the q > 2 elimination work.
    """

    name = "oracle"
    why = "thousands of tiny eliminations over F_2, F_3 and F_5, no encoders; per-call overhead shows"
    RANDOM = ((2, 20, 4, 0.5, 8), (3, 15, 4, 0.5, 2))  # (q, n, m, p, items per cycle)
    MAX_LEN = 3
    THRESHOLDS = {4: 3, 5: 5, 6: 5}  # all-pairs m -> smallest q with a length-2 code
    POOL = 16  # cycles of distinct random instances before they repeat
    SLOTS = [("threshold", m, 0) for m in THRESHOLDS] + [
        ("search", q, j) for q, *_, count in RANDOM for j in range(count)
    ]
    cycle = len(SLOTS)
    min_items = 2 * cycle

    def prepare(self):
        self.pool = {
            (q, c, j): self.p.instances.random_instance(n, m, p, seed=[self.seed, 3, q, c, j])
            for c in range(self.POOL)
            for q, n, m, p, count in self.RANDOM
            for j in range(count)
        }
        self.results: dict[int, list] = {}

    def sizes(self):
        keys = ("q", "n", "m", "p", "per_cycle")
        return {
            "random": [dict(zip(keys, r)) for r in self.RANDOM],
            "max_length": self.MAX_LEN,
            "all_pairs_m": sorted(self.THRESHOLDS),
            "items_per_cycle": self.cycle,
            "distinct_random_instances": len(self.pool),
        }

    def item(self, k):
        c, pos = divmod(k, self.cycle)
        kind, a, j = self.SLOTS[pos]
        return kind, a, self.pool[(a, c % self.POOL, j)] if kind == "search" else None

    def call(self, inp):
        kind, a, inst = inp
        if kind == "threshold":
            return self.p.oracle.min_field_for_length2(a)
        return (
            self.p.oracle.optimal_code_length(inst, a, self.MAX_LEN),
            self.p.oracle.minrank_fitted(inst, a, self.MAX_LEN),
        )

    def check(self, k, inp, out):
        kind, a, inst = inp
        if kind == "threshold":
            record, ok = [kind, a, out], out == self.THRESHOLDS[a]
        else:
            length, mr = out
            record = [kind, a, length.value, length.enumerated, mr.value, mr.enumerated]
            # Agreement includes both searches finding no code of length <= MAX_LEN.
            ok = length.value == mr.value
        if k < self.min_items:
            self.results[k] = record
        return ok

    def quality(self):
        # Code lengths of both encoders over every pool instance, set against
        # the exact optima found in the first min_items items.
        greedy, rand = [], []
        for key, inst in sorted(self.pool.items()):
            greedy.append(self.p.bingreedy.bingreedy(inst)[1].rows_pruned)
            rand.append(self.p.randomized.randomized_code(inst, seed=[self.seed, 3, *key])[1].rows_pruned)
        optima = [r[2] for k, r in sorted(self.results.items()) if r[0] == "search"]
        return {
            "code_rows_greedy": _mean(greedy),
            "code_rows_randomized": _mean(rand),
            "optimum_mean": _mean(optima),
            "items": [self.results[k] for k in sorted(self.results)],
        }


class Decode(Workload):
    """Client-side value recovery at the paper's n=1000 point.

    An item is one client recovering a message from each encoder's broadcast.
    Per code the two latencies differ about threefold, so timing one code per
    item would split items into two equal clusters with the median between them.
    """

    name = "decode"
    why = "client value recovery via solve_consistent; thousands of ~2 ms items"
    N, M, EDGE_P = 1000, 178, 0.3
    POOL = 16
    min_items = 1000

    def prepare(self):
        self.cases = []
        items = []
        for idx in range(self.POOL):
            stream = [self.seed, 4, idx]
            inst = self.p.instances.random_instance(self.N, self.M, self.EDGE_P, seed=stream)
            b = np.random.default_rng(stream + [1]).integers(0, 2, size=self.M)
            codes = [
                self.p.bingreedy.bingreedy(inst),
                self.p.randomized.randomized_code(inst, seed=stream),
            ]
            self.cases.append((inst, b, [(code, report, code.mul_vector(b)) for code, report in codes]))
            items += [(idx, i) for i in inst.non_vacuous_clients()]
        order = np.random.default_rng([self.seed, 4]).permutation(len(items))
        self.items = [items[t] for t in order]

    def sizes(self):
        return {"n": self.N, "m": self.M, "p": self.EDGE_P, "instances": self.POOL,
                "codes_per_instance": ["bingreedy", "randomized"], "clients": len(self.items)}

    def item(self, k):
        idx, i = self.items[k % len(self.items)]
        inst, b, codes = self.cases[idx]
        side = {j: int(b[j]) for j in inst.side_info(i)}
        return inst, i, side, b, codes

    def call(self, inp):
        inst, i, side, _, codes = inp
        dec = self.p.decoding
        return [
            (dec.decodable_messages(code, inst, i), dec.decode_value(code, inst, i, x, side))
            for code, _, x in codes
        ]

    def check(self, k, inp, out):
        b = inp[3]
        return all(bool(d) and j == min(d) and v == int(b[j]) for d, (j, v) in out)

    def quality(self):
        reports = [(alg, codes[t][1]) for _, _, codes in self.cases for t, alg in enumerate(("bingreedy", "randomized"))]
        return {
            "code_rows_greedy": _mean([r.rows_pruned for alg, r in reports if alg == "bingreedy"]),
            "code_rows_randomized": _mean([r.rows_pruned for alg, r in reports if alg == "randomized"]),
            "items": [
                [alg, r.rows_raw, r.rows_pruned, len(r.rounds) if alg == "bingreedy" else len(r.bins)]
                for alg, r in reports
            ],
        }


WORKLOADS = {w.name: w for w in (Headline, EncodeLarge, Oracle, Decode)}
