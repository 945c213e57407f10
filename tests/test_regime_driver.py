"""Guards for the shared low/high regime driver.

The pinned digests and WorkCounter snapshots must keep matching. The
matching pin was recorded when color_delta_squared began stopping after
the first shrinking round whose prime field is set by the degree. The
first sweep's conflict colouring now keeps the 480 colours of its first
round, where eight more rounds took it to 178, so the matching and its
work moved. The other pins were recorded when defective_coloring began
stopping phase 1 before a round whose field holds the whole palette and
sweeping the phase-2 classes in a strided order, and when the round
reports gained sweep_steps. None of these runs colours more nodes than
its phase-1 field holds, so their phase 1 runs no round and charges no
recolouring, sort or square-root work; phase 2 orients the edges by the
new order, so the selections moved. The MIS run's two conflict
colourings fit their field too, so color_delta_squared now returns
before the one round each ran without shrinking. sqrt_tables is left out of the comparison: the driver shares its
number-theory tables across the rounds of a call, so it may only charge
fewer square-root tables than the pinned count.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpar.generate import gnm_graph
from dpar.hitting import BipartiteInstance, ParamSet, RegimeDriver, hitting_set
from dpar.matching import maximal_matching
from dpar.mis import MisAuxInstance, MisRegimeDriver, core_mis_hitting, maximal_independent_set
from dpar.workcount import WorkCounter

BIG_N = 1 << 64
DESK = ParamSet.desk()


def _rounded(x):
    """Report values with floats cut to 10 significant digits, so that the
    last bits of a BLAS dot product do not decide the digest."""
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
    "core_aux": run_core_aux,
    "core_no_aux": run_core_no_aux,
    "core_tall": run_core_tall,
    "mis": run_mis,
    "matching": run_matching,
}

PINS = {
    "hitting_high": ("d0da2c167225f523", {'defective_phase2': 33969, 'half_sample': 37115, 'high_regime_round': 3334, 'high_regime_skip': 6, 'hitting_finalize': 1206, 'local_round': 103578}),
    "hitting_both": ("b37b583862a6c481", {'defective_phase2': 68193, 'half_sample': 96291, 'high_regime_round': 9161, 'hitting_finalize': 2408, 'local_round': 228566, 'low_regime_round': 2723}),
    "core_aux": ("5ec6bd68251285e6", {'core_mis_finalize': 3640, 'defective_phase2': 38672, 'half_sample': 42592, 'local_round': 118736, 'mis_high_round': 4832, 'mis_high_skip': 13}),
    "core_no_aux": ("4f7e034263588edb", {'core_mis_finalize': 1416, 'defective_phase2': 23378, 'half_sample': 24960, 'local_round': 70516, 'mis_high_round': 2608, 'mis_high_skip': 13}),
    "core_tall": ("001be9708cbe4cf6", {'core_mis_finalize': 4495, 'defective_phase2': 22482, 'edge_buckets': 999, 'half_sample': 26652, 'local_round': 69372, 'mis_high_round': 3176, 'mis_low_round': 1386}),
    "mis": ("66d3af1eaab6dcac", {'class_union': 194, 'compact': 681732, 'core_mis_finalize': 234672, 'defective_phase2': 122396, 'half_sample': 1306516, 'independentish': 341497, 'local_round': 1550524, 'mis_high_round': 234440, 'mis_high_skip': 8, 'prefix_sum': 51}),
    "matching": ("4ac0fa1269c8bf52", {'high_regime_skip': 40, 'hitting_finalize': 21610, 'match_compact': 15985, 'match_conflicts': 211716, 'match_extract': 13967, 'match_sweep': 21982, 'recolor_slots': 437399, 'sqrt_tables': 215, 'word_sort': 618980}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_and_work_match_the_pins(name):
    pinned_digest, pinned_work = PINS[name]
    got_digest, work = RUNS[name]()
    snap = work.snapshot()
    assert got_digest == pinned_digest
    assert snap.get("sqrt_tables", 0) <= pinned_work.get("sqrt_tables", 0)
    drop = ("sqrt_tables",)
    assert {k: v for k, v in snap.items() if k not in drop} == {
        k: v for k, v in pinned_work.items() if k not in drop
    }


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
