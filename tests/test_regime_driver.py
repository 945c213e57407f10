"""Guards for the shared low/high regime driver.

Each pin runs one public entry on a fixed instance and must keep its
output digest and its WorkCounter snapshot exactly. The digests of the
hitting and core pins also cover their round reports.

- hitting_high: hitting_set with every candidate at level 6 <= K, so
  only the high regime runs.
- hitting_both: hitting_set with half the candidates above K, so both
  regimes run.
- hitting_spread: hitting_set whose watchers' candidates spread over
  12 000 ids, so a halving's layout has thousands of classes.
- core_aux, core_no_aux: core_mis_hitting at level 5, with and without
  aux edges.
- core_tall: core_mis_hitting with a layer of candidates at level 21; its
  second low round keeps an aux edge (the adaptive-eps path).
- mis: maximal_independent_set on gnm(600, 170 000).
- matching: maximal_matching on gnm(2000, 16 000).

core_aux, core_tall and mis were last re-recorded when core_mis_hitting
stopped charging core_mis_finalize a unit per aux edge for a pass over
the aux edges that it no longer makes: only their core_mis_finalize
units moved (core_aux 3 640 -> 1 848, core_tall 4 495 -> 1 816, mis
234 683 -> 64 239), their digests did not. hitting_both and
hitting_spread were last re-recorded when halvings with no clique
member, no explicit term and no non-zero utility stopped rounding
(hitting.run_half): each snapshot fell by exactly those rounds'
half_sample and local_round units, and each digest moved only through
those rounds' sweep_steps, now 0. matching was last re-recorded when the
point-step rounds began to compare only pairs whose two ends are both
undecided (coloring._SlotRule and _CliqueRule drop the entries of
decided nodes): only its colouring units moved (recolor_slots
57 262 -> 31 008, word_sort 114 073 -> 61 580), its digest did not.
CHANGES.md holds the earlier re-recordings.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpar.hitting
import dpar.matching
import dpar.rounding
from dpar.generate import gnm_graph
from dpar.graph import Graph
from dpar.hitting import BipartiteInstance, ParamSet, RegimeDriver, hitting_set
from dpar.matching import maximal_matching
from dpar.mis import MisAuxInstance, MisRegimeDriver, core_mis_hitting, maximal_independent_set
from dpar.rounding import RoundingInstance, max_cut_half
from dpar.workcount import WorkCounter

BIG_N = 1 << 64
DESK = ParamSet.desk()


def _rounded(x):
    """Report values with floats cut to 10 significant digits, so that a
    pin records the values of a report and not the last bits of its float
    sums, which a change of summation order may move."""
    if isinstance(x, float):
        return float(f"{x:.10g}")
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_rounded(v) for v in x]
    return x


def digest(*arrays, rounds=()) -> str:
    """Arrays by their bytes, round reports by their sorted-key JSON."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(json.dumps(_rounded(list(rounds)), sort_keys=True).encode())
    return h.hexdigest()[:16]


def hitting_instance(seed, n_u, n_v, deg, levels, size_param):
    rng = np.random.default_rng(seed)
    eu = np.repeat(np.arange(n_u), deg)
    ev = np.concatenate([rng.choice(n_v, size=deg, replace=False) for _ in range(n_u)])
    return BipartiteInstance(
        imp=rng.random(n_u) + 0.5, levels=levels, edge_u=eu, edge_v=ev, size_param=size_param
    )


def core_instance(seed, tall_level=None, aux=True, n_u=8):
    """Watcher mass in [5.5, 9.3] at level 5, optionally 40 more candidates
    per watcher from a layer of 600 at tall_level, and about 3 random
    weighted aux edges per candidate."""
    rng = np.random.default_rng(seed)
    deg0 = int(round(rng.uniform(5.5, 9.3) * 32))
    n_base = 1200
    eu = [np.repeat(np.arange(n_u), deg0)]
    ev = [np.concatenate([rng.choice(n_base, size=deg0, replace=False) for _ in range(n_u)])]
    levels = np.full(n_base, 5, dtype=np.int64)
    if tall_level is not None:
        levels = np.concatenate([levels, np.full(600, tall_level, dtype=np.int64)])
        eu.append(np.repeat(np.arange(n_u), 40))
        tall = [n_base + rng.choice(600, size=40, replace=False) for _ in range(n_u)]
        ev.append(np.concatenate(tall))
    n_v = len(levels)
    ai, aj = rng.integers(0, n_v, size=(2, 3 * n_v if aux else 0))
    keep = ai < aj
    code = np.unique(ai[keep] * np.int64(n_v) + aj[keep])
    return MisAuxInstance(
        imp=rng.random(n_u) + 0.2,
        levels=levels,
        edge_u=np.concatenate(eu),
        edge_v=np.concatenate(ev),
        aux_i=code // n_v,
        aux_j=code % n_v,
        aux_w=rng.random(len(code)),
        vert_w=np.zeros(n_v),
        size_param=BIG_N,
    )


def run_hitting_high():
    inst = hitting_instance(31, 6, 900, 200, np.full(900, 6), 1 << 16)
    work = WorkCounter()
    res = hitting_set(inst, DESK, work=work)
    return digest(res.selected, rounds=res.rounds), work


def run_hitting_both():
    levels = np.where(np.arange(1200) < 600, 20, 7)
    inst = hitting_instance(32, 8, 1200, 300, levels, BIG_N)
    work = WorkCounter()
    res = hitting_set(inst, DESK, work=work)
    return digest(res.selected, rounds=res.rounds), work


def spread_hitting_instance() -> BipartiteInstance:
    """60 watchers, each of 90 candidates spread over 12 000 at level 12:
    a watcher's bucket of 45 candidates spans about half the ids, so a
    halving's layout has thousands of classes, more than defective phase
    1's field holds."""
    rng = np.random.default_rng(37)
    n_watch, deg, n_cand, level = 60, 90, 12_000, 12
    return BipartiteInstance(
        imp=rng.random(n_watch) + 0.2,
        levels=np.full(n_cand, level, dtype=np.int64),
        edge_u=np.repeat(np.arange(n_watch), deg),
        edge_v=np.concatenate([rng.choice(n_cand, deg, replace=False) for _ in range(n_watch)]),
        size_param=1 << 17,
    )


def run_hitting_spread():
    work = WorkCounter()
    res = hitting_set(spread_hitting_instance(), DESK, floor=4, work=work)
    return digest(res.selected, rounds=res.rounds), work


def _core(inst):
    work = WorkCounter()
    res = core_mis_hitting(inst, DESK, work=work)
    return digest(res.selected, res.u_good, rounds=res.rounds), work


def run_core_aux():
    return _core(core_instance(33))


def run_core_no_aux():
    return _core(core_instance(34, aux=False))


def run_core_tall():
    return _core(core_instance(TALL_SEED, tall_level=21))


def run_mis():
    work = WorkCounter()
    res = maximal_independent_set(gnm_graph(600, 170_000, seed=35), DESK, work=work)
    return digest(res.in_set), work


def run_matching():
    work = WorkCounter()
    res = maximal_matching(gnm_graph(2000, 16_000, seed=36), DESK, work=work)
    return digest(res.match_with), work


TALL_SEED = 3  # the second low round keeps an aux edge: the adaptive-eps path

RUNS = {
    "hitting_high": run_hitting_high,
    "hitting_both": run_hitting_both,
    "hitting_spread": run_hitting_spread,
    "core_aux": run_core_aux,
    "core_no_aux": run_core_no_aux,
    "core_tall": run_core_tall,
    "mis": run_mis,
    "matching": run_matching,
}

PINS = {
    "hitting_high": ("4e24300ac92cca9c", {'half_sample': 3080, 'high_regime_round': 3325, 'high_regime_skip': 6, 'hitting_finalize': 1206, 'local_round': 6160}),
    "hitting_both": ("6290aa2ee7abf0bd", {'half_sample': 7272, 'high_regime_round': 8393, 'hitting_finalize': 2408, 'local_round': 14544, 'low_regime_round': 2706}),
    "hitting_spread": ("4635eb0f7eeee4ad", {'half_sample': 29791, 'high_regime_round': 90348, 'high_regime_skip': 1, 'hitting_finalize': 5460, 'local_round': 59582}),
    "core_aux": ("cfb03f502b70f2ae", {'core_mis_finalize': 1848, 'half_sample': 4792, 'local_round': 9584, 'mis_high_round': 4832, 'mis_high_skip': 13}),
    "core_no_aux": ("e097b9bfb8f1996f", {'core_mis_finalize': 1416, 'half_sample': 2280, 'local_round': 4560, 'mis_high_round': 2608, 'mis_high_skip': 13}),
    "core_tall": ("fee7fc49a9342854", {'core_mis_finalize': 1816, 'edge_buckets': 1003, 'half_sample': 4909, 'local_round': 9818, 'mis_high_round': 3032, 'mis_low_round': 1383}),
    "mis": ("d2067e6934a6fc2c", {'class_union': 160, 'compact': 22960, 'core_mis_finalize': 64239, 'half_sample': 175351, 'independentish': 341519, 'local_round': 350702, 'mis_high_round': 234440, 'mis_high_skip': 8, 'prefix_sum': 49}),
    "matching": ("4ac0fa1269c8bf52", {'high_regime_skip': 40, 'hitting_finalize': 21610, 'class_union': 13967, 'match_compact': 15985, 'match_conflicts': 27934, 'match_sweep': 21982, 'recolor_slots': 31008, 'word_sort': 61580}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_and_work_match_the_pins(name):
    pinned_digest, pinned_work = PINS[name]
    got_digest, work = RUNS[name]()
    snap = work.snapshot()
    assert got_digest == pinned_digest
    assert snap == pinned_work


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_u=st.integers(0, 6), n_v=st.integers(1, 60))
def test_split_sub_problems_pass_full_validation(seed, n_u, n_v):
    """The driver cuts its regime sub-problems from a validated instance
    by index masks and skips their validation; the full MisAuxInstance
    checks (dataclasses.replace runs them) must accept every one of them."""
    rng = np.random.default_rng(seed)
    k_cap = DESK.level_cap(BIG_N)
    deg = int(rng.integers(0, min(n_v, 30) + 1)) if n_u else 0  # mass stays under the entry cap
    pairs = np.stack(np.triu_indices(n_v, k=1), axis=1)
    pairs = pairs[rng.random(len(pairs)) < 0.2]
    pairs = pairs[rng.permutation(len(pairs))]
    inst = MisAuxInstance(
        imp=rng.random(n_u),
        levels=rng.integers(0, 2 * k_cap, size=n_v),
        edge_u=np.repeat(np.arange(n_u), deg),
        edge_v=np.concatenate(
            [rng.choice(n_v, size=deg, replace=False) for _ in range(n_u)] + [np.empty(0, int)]
        ),
        aux_i=pairs[:, 0],
        aux_j=pairs[:, 1],
        aux_w=rng.random(len(pairs)) * (rng.random(len(pairs)) < 0.8),
        vert_w=rng.random(n_v) * (rng.random(n_v) < 0.5),
        size_param=BIG_N,
    )
    drv = MisRegimeDriver(DESK, DESK.high_floor_mis)
    low_mask = inst.levels > k_cap
    frozen = low_mask & (rng.random(n_v) < 0.5)
    splits = [
        ("low", low_mask, rng.random(n_u) < 0.7, inst.levels),
        ("high", ~low_mask | frozen, rng.random(n_u) < 0.7, np.minimum(inst.levels, k_cap)),
    ]
    for regime, v_mask, u_mask, levels in splits:
        sub, ids = drv.restrict(inst, regime, v_mask, u_mask, levels)
        checked = dataclasses.replace(sub)
        assert isinstance(checked, MisAuxInstance)
        assert np.array_equal(ids, np.flatnonzero(v_mask))
        assert np.array_equal(checked.levels, levels[ids])
        hit_sub, hit_ids = RegimeDriver(DESK, DESK.high_floor_hitting).restrict(
            BipartiteInstance(inst.imp, inst.levels, inst.edge_u, inst.edge_v, inst.size_param),
            regime, v_mask, u_mask, levels,
        )
        dataclasses.replace(hit_sub)
        assert np.array_equal(hit_ids, ids)


# (builder of the public object, call on it)
PUBLIC_ENTRIES = {
    "maximal_matching": (lambda: gnm_graph(300, 6000, seed=3), lambda g: maximal_matching(g, DESK)),
    "maximal_independent_set": (
        lambda: gnm_graph(600, 170_000, seed=35), lambda g: maximal_independent_set(g, DESK)
    ),
    "hitting_set": (
        lambda: hitting_instance(32, 8, 1200, 300, np.where(np.arange(1200) < 600, 20, 7), BIG_N),
        lambda inst: hitting_set(inst, DESK),
    ),
    "core_mis_hitting": (
        lambda: core_instance(TALL_SEED, tall_level=21), lambda inst: core_mis_hitting(inst, DESK)
    ),
    "max_cut_half": (lambda: gnm_graph(500, 2000, seed=41), lambda g: max_cut_half(g, 0.25)),
}

CHECKS = [
    (Graph, "validate"),
    (BipartiteInstance, "__post_init__"),
    (MisAuxInstance, "__post_init__"),
    (RoundingInstance, "__post_init__"),
]


@pytest.mark.parametrize("name", sorted(PUBLIC_ENTRIES))
def test_no_check_runs_after_the_public_object_is_built(name, monkeypatch):
    """An input is validated once, when it is built; nothing the entry
    derives from it runs a check again."""
    build, call = PUBLIC_ENTRIES[name]
    obj = build()
    calls = []

    def counted(label, check):
        def wrapper(self):
            calls.append(label)
            return check(self)

        return wrapper

    for cls, attr in CHECKS:
        monkeypatch.setattr(cls, attr, counted(f"{cls.__name__}.{attr}", getattr(cls, attr)))
    call(obj)
    assert calls == []


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 300),
    deg=st.integers(2, 60),
    tall=st.booleans(),
    aux=st.booleans(),
)
def test_derived_rounding_and_matching_instances_pass_full_validation(seed, n, deg, tall, aux):
    """run_half and max_cut_half build their rounding instances, and the
    matching its per-sweep hitting instances, unchecked; the full checks
    (dataclasses.replace runs them) must accept every one of them."""
    rounded, swept = [], []

    def record(into, fn):
        def wrapper(inst, *args, **kwargs):
            into.append(inst)
            return fn(inst, *args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpar.hitting, "local_round", record(rounded, dpar.hitting.local_round))
        mp.setattr(dpar.rounding, "local_round", record(rounded, dpar.rounding.local_round))
        mp.setattr(dpar.matching, "hitting_set", record(swept, dpar.matching.hitting_set))
        g = gnm_graph(n, min(n * deg // 2, n * (n - 1) // 2), seed=seed)
        maximal_matching(g, DESK)
        max_cut_half(g, 0.25)
        core_mis_hitting(core_instance(seed, tall_level=21 if tall else None, aux=aux), DESK)
    assert swept and len(rounded) > 1
    for inst in swept:
        assert type(dataclasses.replace(inst)) is BipartiteInstance
    for inst in rounded:
        dataclasses.replace(inst)


def _digests(obj) -> dict[str, str]:
    """Per array field of an instance or graph: a hash of its bytes."""
    return {
        name: hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        for name, value in vars(obj).items()
        if isinstance(value, np.ndarray)
    }


# the pins' fixtures, and a gnm graph of average degree 571 > 512, where
# the MIS core halves its candidates
UNWRITTEN = {
    "mis_dense": (lambda: gnm_graph(700, 200_000, seed=10), maximal_independent_set),
    "core_aux": (lambda: core_instance(33), core_mis_hitting),
    "core_tall": (lambda: core_instance(TALL_SEED, tall_level=21), core_mis_hitting),
    "hitting_high": (
        lambda: hitting_instance(31, 6, 900, 200, np.full(900, 6), 1 << 16),
        hitting_set,
    ),
    "hitting_both": (
        lambda: hitting_instance(32, 8, 1200, 300, np.where(np.arange(1200) < 600, 20, 7), BIG_N),
        hitting_set,
    ),
}


@pytest.mark.parametrize("case", sorted(UNWRITTEN))
def test_no_call_writes_into_its_input_arrays(case):
    """The driver passes input arrays down uncopied where a mask keeps
    them whole (restrict, sub_problem, run_half), so no callee may write
    into one: every input array must hash the same after the call."""
    build, call = UNWRITTEN[case]
    inst = build()
    before = _digests(inst)
    assert len(before) >= 2
    call(inst, DESK)
    assert _digests(inst) == before
