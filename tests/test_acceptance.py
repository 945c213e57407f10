"""Acceptance gate: one test per primary requirement.

Each test prints a single [PASS]/[FAIL] line carrying the measured numbers
it was judged on, then asserts. Run with -v (and -s to see the lines on
success); the whole gate finishes in a couple of minutes.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpar
from dpar.bench import scaling_series
from dpar.coloring import color_delta_squared, defective_coloring
from dpar.generate import (
    attach_random_weights,
    complete_graph,
    gnm_graph,
    grid_graph,
    powerlaw_graph,
    star_graph,
)
from dpar.hitting import (
    BipartiteInstance,
    ParamSet,
    QuadPotential,
    _group_full_buckets,
    build_low_potentials,
    hitting_set,
)
from dpar.losses import LossSchedule, iterative_loss_bound
from dpar.matching import maximal_matching
from dpar.mis import (
    AUX_FACTOR_HIGH,
    AUX_FACTOR_LOW,
    LinearEdgePotential,
    MisAuxInstance,
    core_mis_hitting,
    edge_buckets,
    maximal_independent_set,
)
from dpar.rounding import RoundingInstance, evaluate_objective, local_round, max_cut_half
from dpar.verify import (
    check_cut_bound,
    check_defect_bound,
    check_hitting_window,
    check_maximal_independent,
    check_maximal_matching,
    cut_weight,
)
from dpar.workcount import WorkCounter

BIG_N = 1 << 64
DESK = ParamSet.desk()


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- shared instance families -------------------------------------------------------


def graph_suite(count: int, base_seed: int):
    """Deterministic mixed-kind graphs with n <= 2000."""
    for i in range(count):
        rng = np.random.default_rng(base_seed + i)
        kind = i % 10
        if kind == 0:
            yield star_graph(int(rng.integers(2, 2001)))
        elif kind == 1:
            yield complete_graph(int(rng.integers(2, 61)))
        elif kind == 2:
            yield grid_graph(int(rng.integers(2, 41)), int(rng.integers(2, 41)))
        elif kind == 3:
            n = int(rng.integers(50, 1200))
            yield powerlaw_graph(n, int(rng.integers(n, 2 * n)), seed=base_seed + i)
        else:
            n = int(rng.integers(2, 2001))
            m = int(rng.integers(0, min(n * (n - 1) // 2, 4 * n) + 1))
            yield gnm_graph(n, m, seed=base_seed + i)


def hitting_instance(seed: int) -> BipartiteInstance:
    """Per-watcher probability mass in [1, 10] by construction."""
    rng = np.random.default_rng(seed)
    n_u = int(rng.integers(4, 30))
    levels, eu, ev, degs = [], [], [], []
    nxt = 0
    for u in range(n_u):
        lev = int(rng.integers(0, 7))
        d = max(1, int(round(rng.uniform(1.2, 9.5) * 2**lev)))
        levels.extend([lev] * d)
        eu.extend([u] * d)
        ev.extend(range(nxt, nxt + d))
        degs.append(d)
        nxt += d
    perm = np.random.default_rng(seed + 1).permutation(nxt)
    return BipartiteInstance(
        imp=rng.random(n_u) + 0.2,
        levels=np.asarray(levels, dtype=np.int64)[np.argsort(perm)],
        edge_u=np.asarray(eu, dtype=np.int64),
        edge_v=perm[np.asarray(ev, dtype=np.int64)],
        size_param=max(nxt, 4),
    )


def hitting_low_instance(seed: int) -> BipartiteInstance:
    """Mass in [1, 10] carried at a level above the cap for this size, so
    the low regime runs with a non-vacuous shrinkage budget."""
    rng = np.random.default_rng(seed)
    n_u, n_v, lev = 3, 120_000, 15  # level cap for this size is 13
    deg = np.round(rng.uniform(1.0, 1.8, size=n_u) * 2**lev).astype(np.int64)
    eu = np.repeat(np.arange(n_u), deg)
    ev = np.concatenate([rng.choice(n_v, size=d, replace=False) for d in deg])
    return BipartiteInstance(
        imp=rng.random(n_u) + 0.2,
        levels=np.full(n_v, lev, dtype=np.int64),
        edge_u=eu,
        edge_v=ev,
        size_param=n_v,
    )


def mis_core_instance(seed: int, tall: bool) -> MisAuxInstance:
    """Mass in [5, 10] carried at level 5; tall instances add a thin layer
    of candidates above the desk cap so the low regime engages."""
    rng = np.random.default_rng(seed)
    n_u = int(rng.integers(6, 20))
    deg0 = int(round(rng.uniform(5.5, 9.3) * 32))
    n_base = 1200
    eu = [np.repeat(np.arange(n_u), deg0)]
    ev = [np.concatenate([rng.choice(n_base, size=deg0, replace=False) for _ in range(n_u)])]
    levels = np.full(n_base, 5, dtype=np.int64)
    n_v = n_base
    if tall:
        lev_t = int(rng.integers(19, 22))
        n_tall = 600
        levels = np.concatenate([levels, np.full(n_tall, lev_t, dtype=np.int64)])
        eu.append(np.repeat(np.arange(n_u), 40))
        ev.append(
            np.concatenate(
                [n_base + rng.choice(n_tall, size=40, replace=False) for _ in range(n_u)]
            )
        )
        n_v += n_tall
    ai, aj = rng.integers(0, n_v, size=(2, 3 * n_v))
    keep = ai < aj
    uniq = np.unique(ai[keep] * np.int64(n_v) + aj[keep])
    return MisAuxInstance(
        imp=rng.random(n_u) + 0.2,
        levels=levels,
        edge_u=np.concatenate(eu),
        edge_v=np.concatenate(ev),
        aux_i=(uniq // n_v).astype(np.int64),
        aux_j=(uniq % n_v).astype(np.int64),
        aux_w=np.random.default_rng(seed + 2).random(len(uniq)),
        vert_w=np.zeros(n_v),
        size_param=BIG_N if tall else n_v,
    )


@pytest.fixture(scope="module")
def hitting_battery():
    """200 desk hitting runs plus their per-round reports."""
    runs = []
    for i in range(198):
        inst = hitting_instance(1000 + i)
        res = hitting_set(inst, DESK)
        runs.append((inst, res))
    for i in range(2):
        inst = hitting_low_instance(1500 + i)
        res = hitting_set(inst, DESK)
        runs.append((inst, res))
    return runs


@pytest.fixture(scope="module")
def mis_core_battery():
    """Core selections, half of them engaging the low regime."""
    runs = []
    for i in range(14):
        inst = mis_core_instance(2000 + i, tall=i % 2 == 0)
        res = core_mis_hitting(inst, DESK)
        runs.append((inst, res))
    return runs


# --- the twelve requirements ---------------------------------------------------------


def test_c01_mis_correctness():
    bad = 0
    for g in graph_suite(300, base_seed=10_000):
        res = maximal_independent_set(g, DESK)
        ok, _ = check_maximal_independent(g, res.in_set)
        bad += not ok
    _line("criterion-01 mis-correctness", bad == 0, f"{300 - bad}/300 graphs maximal independent")


def test_c02_matching_correctness():
    bad = 0
    for g in graph_suite(300, base_seed=10_000):
        res = maximal_matching(g, DESK)
        ok, _ = check_maximal_matching(g, res.match_with)
        bad += not ok
    _line("criterion-02 matching-correctness", bad == 0, f"{300 - bad}/300 graphs maximal matching")


def test_c03_rounding_certificate():
    rng = np.random.default_rng(33)
    worst = math.inf
    for _ in range(200):
        n = int(rng.integers(1, 400))
        k = int(rng.integers(0, 4 * n))
        ci, cj = rng.integers(0, n, size=(2, k))
        keep = ci != cj
        eps = float(rng.choice([1 / 8, 1 / 32, 1 / 128]))
        inst = RoundingInstance(
            utils=rng.normal(0.0, 2.0, n),
            cost_i=ci[keep],
            cost_j=cj[keep],
            cost_c=rng.random(int(keep.sum())) * 3.0,
            eps=eps,
        )
        res = local_round(inst)
        su, sc = float(inst.utils.sum()), float(inst.cost_c.sum())
        bound = 0.5 * su - 0.25 * sc - eps * sc
        worst = min(worst, evaluate_objective(inst, res.in_set) - bound)
    _line(
        "criterion-03 rounding-certificate",
        worst >= 0.0,
        f"200/200 rounds at or above the bound; worst slack {worst:.6g}",
    )


def test_c04_defective_coloring():
    checked, bad = 0, 0
    graphs = list(graph_suite(50, base_seed=20_000))
    graphs = [attach_random_weights(g, seed=i) if i % 2 and g.m else g for i, g in enumerate(graphs)]
    for g in graphs:
        for eps in (1.0, 0.5, 0.25, 0.1):
            col = defective_coloring(g, eps)
            ok, _ = check_defect_bound(g, col.colors, eps, palette_cap=3 * math.ceil(1 / eps))
            checked += 1
            bad += not ok
    _line(
        "criterion-04 defective-coloring",
        bad == 0,
        f"{checked - bad}/{checked} runs within weight and palette bounds",
    )


def test_c05_maxcut_bound():
    checked, bad = 0, 0
    graphs = list(graph_suite(50, base_seed=20_000))
    graphs = [attach_random_weights(g, seed=i) if i % 2 and g.m else g for i, g in enumerate(graphs)]
    for g in graphs:
        for eps in (0.25, 0.1):
            cut = max_cut_half(g, eps)
            ok, _ = check_cut_bound(g, cut.side, eps)
            checked += 1
            bad += not ok
    k4 = max_cut_half(complete_graph(4), eps=0.1)
    k4_cut, _ = cut_weight(complete_graph(4), k4.side)
    checked += 1
    bad += not k4_cut >= 3.0
    _line(
        "criterion-05 maxcut-bound",
        bad == 0,
        f"{checked - bad}/{checked} cuts at or above (1/2 - eps) weight; K4 cut {k4_cut:.0f} >= 3",
    )


def _mc_quad(pot: QuadPotential, n: int, rng, samples: int = 10_000):
    picks = rng.random((samples, n)) < 0.5
    cnt = picks[:, pot.members].reshape(samples, pot.n_buckets, pot.b).sum(axis=2, dtype=np.float64)
    vals = ((cnt - pot.b / 2.0) ** 2) @ pot.coefs
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def _mc_linear(lin: LinearEdgePotential, n: int, rng, samples: int = 10_000):
    picks = rng.random((samples, n)) < 0.5
    e_part = (picks[:, lin.edge_i] & picks[:, lin.edge_j]).astype(np.float64) @ lin.cost
    v_part = picks.astype(np.float64) @ lin.vert_w
    vals = e_part + lin.factor * 2.0 * v_part / lin.norm
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def _divisible_bipartite(rng, b: int):
    """Disjoint watcher blocks, per-watcher degree divisible by b: the
    bucket trim drops nothing, so the analytic means are exact."""
    n_u = int(rng.integers(3, 9))
    degs = b * rng.integers(2, 7, size=n_u)
    levels_u = rng.integers(0, 7, size=n_u)
    eu = np.repeat(np.arange(n_u), degs)
    ev = np.arange(int(degs.sum()), dtype=np.int64)
    cand_levels = np.repeat(levels_u, degs)
    imp = rng.random(n_u) + 0.5
    return imp, eu, ev, cand_levels, degs


def test_c06_potential_calibration():
    checks, bad = 0, 0
    worst_z = 0.0

    def audit(mean, se, target):
        nonlocal checks, bad, worst_z
        z = abs(mean - target) / max(se, 1e-300)
        worst_z = max(worst_z, z)
        checks += 1
        bad += z >= 3.0

    for i in range(10):
        rng = np.random.default_rng(600 + i)
        b = int(rng.integers(8, 17))
        imp, eu, ev, cand_levels, _ = _divisible_bipartite(rng, b)
        n_cand = len(ev)
        lp = build_low_potentials(imp, cand_levels, eu, ev, b, n_cand)
        for pot, target in zip(lp.pots, (1.0, 1.0, 1.0)):  # pair, weighted, size
            assert pot.expectation() == pytest.approx(target, abs=1e-9)
            audit(*_mc_quad(pot, n_cand, rng), target)

        g = gnm_graph(150, 900, seed=700 + i)
        own = g.slot_owners()
        fwd = own < g.nbrs
        eb = edge_buckets(g.n, own[fwd], g.nbrs[fwd], b)
        assert eb.potential().expectation() == pytest.approx(1.0)
        audit(*_mc_quad(eb.potential(), g.n, rng), 1.0)

        gamma = DESK.gamma_low(i, BIG_N)
        ai, aj = np.triu_indices(60, k=1)
        keep = rng.random(len(ai)) < 0.25
        lin = LinearEdgePotential.build(
            "phi_aux", AUX_FACTOR_LOW / gamma, ai[keep], aj[keep],
            rng.random(int(keep.sum())), rng.random(60) * 0.5,
        )
        audit(*_mc_linear(lin, 60, rng), AUX_FACTOR_LOW / gamma)

        gamma_h = DESK.gamma_high_for(5)
        lin_h = LinearEdgePotential.build(
            "phi_aux", AUX_FACTOR_HIGH / gamma_h, ai[keep], aj[keep],
            rng.random(int(keep.sum())), rng.random(60) * 0.5,
        )
        audit(*_mc_linear(lin_h, 60, rng), AUX_FACTOR_HIGH / gamma_h)

        bh = DESK.bucket_high(gamma_h)
        imp2, eu2, ev2, _, degs2 = _divisible_bipartite(rng, bh)
        members, tag, _ = _group_full_buckets(eu2, np.zeros(len(eu2), dtype=np.int64), ev2, bh)
        pot_h = QuadPotential(
            members=members, coefs=imp2[tag] / degs2[tag].astype(np.float64), b=bh, name="phi_high"
        )
        assert pot_h.expectation() == pytest.approx(float(imp2.sum()) / 4.0, abs=1e-9)
        audit(*_mc_quad(pot_h, len(ev2), rng), float(imp2.sum()) / 4.0)

    _line(
        "criterion-06 potential-calibration",
        bad == 0,
        f"{checks - bad}/{checks} Monte-Carlo means within 3 SE (worst {worst_z:.2f} SE, 10^4 samples)",
    )


def test_c07_potential_certificates(hitting_battery, mis_core_battery):
    audited = {"hitting-low": 0, "hitting-high": 0, "mis-low": 0, "mis-high": 0}
    bad = 0
    for _, res in hitting_battery:
        for r in res.rounds:
            if "phi_total" not in r:
                continue
            tag = "hitting-low" if r.get("regime") == "low" else "hitting-high"
            if tag == "hitting-low" and r["phi_bound"] != pytest.approx(3.1):
                bad += 1
            audited[tag] += 1
            bad += not r["phi_total"] <= r["phi_bound"]
    for _, res in mis_core_battery:
        for r in res.rounds:
            if "phi_total" not in r:
                continue
            tag = "mis-low" if "aux_buckets" in r else "mis-high"
            base = (5.0, AUX_FACTOR_LOW) if tag == "mis-low" else (3.0, AUX_FACTOR_HIGH)
            if r["phi_bound"] != pytest.approx(base[0] + base[1] / r["gamma"]):
                bad += 1
            audited[tag] += 1
            bad += not r["phi_total"] <= r["phi_bound"]
    total = sum(audited.values())
    ok = bad == 0 and all(v > 0 for v in audited.values())
    _line(
        "criterion-07 potential-certificates",
        ok,
        f"{total - bad}/{total} assembled rounds under their bound {dict(audited)}",
    )


def test_c08_hitting_contract(hitting_battery):
    bad, worst_frac, worst_c = 0, 1.0, 0.0
    for inst, res in hitting_battery:
        _, d = check_hitting_window(inst.imp, inst.levels, inst.edge_u, inst.edge_v, res.selected)
        frac, c, c_bound = d["window_importance_fraction"], d["hit_constant"], d["hit_constant_bound"]
        worst_frac, worst_c = min(worst_frac, frac), max(worst_c, c)
        bad += not (frac >= 0.75 and c <= c_bound)
    _line(
        "criterion-08 hitting-contract",
        bad == 0,
        f"{200 - bad}/200 instances; worst importance fraction {worst_frac:.3f} >= 0.75, "
        f"max hit constant {worst_c:.1f} <= HIT_UPPER_C 2^floor = {c_bound:.0f}",
    )


def test_c09_shrinkage(hitting_battery, mis_core_battery):
    audited, bad = 0, 0
    rounds = [r for _, res in hitting_battery for r in res.rounds]
    rounds += [r for _, res in mis_core_battery for r in res.rounds]
    for r in rounds:
        if "shrink_lhs" in r:
            audited += 1
            bad += not r["shrink_lhs"] <= r["shrink_rhs"]
    _line(
        "criterion-09 shrinkage",
        bad == 0 and audited > 0,
        f"{audited - bad}/{audited} low-regime rounds within the 2/3 shrinkage bound",
    )


def test_c10_iterative_loss():
    rng = np.random.default_rng(44)
    worst_fg, worst_fp = math.inf, math.inf
    for _ in range(10_000):
        length = int(rng.integers(0, 16))
        raw = rng.random(length)
        s = float(raw.sum())
        target = float(rng.uniform(0.0, 0.5))
        gammas = tuple(raw * (target / s)) if s > 0 else tuple(raw)
        sched = LossSchedule(gammas=gammas)
        f, g, fp, gp = iterative_loss_bound(
            sched, float(rng.uniform(0.0, 8.0)), rounds=int(rng.integers(0, length + 1))
        )
        worst_fg = min(worst_fg, g - f)
        worst_fp = min(worst_fp, fp - gp)
    _line(
        "criterion-10 iterative-loss",
        worst_fg >= 0.0 and worst_fp >= 0.0,
        f"10000/10000 schedules keep f <= g and f' >= g' (min slacks {worst_fg:.3g}, {worst_fp:.3g})",
    )


def test_c11_work_efficiency():
    rows = scaling_series(list(range(12, 19)), deg_factor=8, params=DESK)
    first, last = rows[0], rows[-1]
    growth = last["det_ratio"] / first["det_ratio"]
    vs_luby = last["det_ratio"] / last["luby_ratio"]
    ok = (
        all(r["det_ok"] and r["luby_ok"] for r in rows)
        and growth <= 4.0
        and vs_luby <= 50.0
    )
    series = ", ".join(f"2^{int(math.log2(r['n']))}:{r['det_ratio']:.1f}" for r in rows)
    _line(
        "criterion-11 work-efficiency",
        ok,
        f"work/(m+n) {series}; growth {growth:.2f}x <= 4x, {vs_luby:.2f}x Luby <= 50x",
    )


def _c12_inputs() -> list:
    inputs = []
    for i in range(8):
        inputs.append(("mis", gnm_graph(200 + 150 * i, 900 + 600 * i, seed=50 + i)))
    for i in range(6):
        inputs.append(("matching", gnm_graph(150 + 120 * i, 600 + 480 * i, seed=70 + i)))
    for i in range(3):
        inputs.append(("color", gnm_graph(300 + 200 * i, 1500 + 900 * i, seed=90 + i)))
    for i in range(3):
        inputs.append(("maxcut", attach_random_weights(gnm_graph(250, 1200, seed=95 + i), seed=i)))
    return inputs


def _c12_run(algo: str, g) -> tuple[bytes, dict]:
    """Output bytes and WorkCounter snapshot of one determinism input."""
    work = WorkCounter()
    if algo == "mis":
        out = maximal_independent_set(g, DESK, work=work).in_set
    elif algo == "matching":
        out = maximal_matching(g, DESK, work=work).match_with
    elif algo == "color":
        out = color_delta_squared(g, work=work).colors
    else:
        out = max_cut_half(g, eps=0.1, work=work).side
    return out.tobytes(), work.snapshot()


# run in a fresh interpreter: the sha256 of every c12 output, and its str hash
_C12_CHILD = """
import hashlib, json
from test_acceptance import _c12_inputs, _c12_run
digests = [hashlib.sha256(_c12_run(algo, g)[0]).hexdigest() for algo, g in _c12_inputs()]
print(json.dumps({"str_hash": hash("dpar"), "digests": digests}))
"""


def test_c12_determinism():
    inputs = _c12_inputs()
    runs = [(_c12_run(algo, g), _c12_run(algo, g)) for algo, g in inputs]
    # a hash seed unlike this interpreter's, so set and dict orders differ
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = [str(Path(__file__).resolve().parent), str(Path(dpar.__file__).resolve().parents[1])]
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run(
        [sys.executable, "-c", _C12_CHILD], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    other = json.loads(child.stdout)
    good = sum(
        first == second and hashlib.sha256(first[0]).hexdigest() == digest
        for (first, second), digest in zip(runs, other["digests"])
    )
    _line(
        "criterion-12 determinism",
        good == len(inputs) and other["str_hash"] != hash("dpar"),
        f"{good}/{len(inputs)} inputs give equal bytes and work twice in-process "
        f"and the same sha256 under PYTHONHASHSEED={seed}",
    )
