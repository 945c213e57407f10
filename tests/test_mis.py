import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpar.hitting
from dpar import mis
from dpar.generate import complete_graph, gnm_graph, star_graph
from dpar.graph import Graph, sort_edges_to_csr
from dpar.hitting import ParamSet, QuadPotential, run_half
from dpar.mis import (
    AUX_FACTOR_LOW,
    LOW_BOUND_BASE,
    LinearEdgePotential,
    MisAuxInstance,
    MisRegimeDriver,
    core_mis_hitting,
    edge_buckets,
    independentish_set,
    luby_mis_baseline,
    maximal_independent_set,
)
from dpar.rounding import tiled_sum
from dpar.verify import check_independent, check_maximal_independent
from dpar.workcount import WorkCounter
from test_rounding import forbid_cost_graphs

BIG_N = 1 << 64
DESK = ParamSet.desk()


def driver(p=None):
    p = p or ParamSet.desk()
    return MisRegimeDriver(p, p.high_floor_mis)


def ring_graph(n):
    e = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return sort_edges_to_csr(e, n)


def core_instance(rng, n_u, n_v, deg, level):
    """Every watcher watches deg candidates at one level; mass = deg * 2^-level."""
    eu = np.repeat(np.arange(n_u), deg)
    ev = np.concatenate([rng.choice(n_v, size=deg, replace=False) for _ in range(n_u)])
    return MisAuxInstance(
        imp=np.ones(n_u),
        levels=np.full(n_v, level, dtype=np.int64),
        edge_u=eu,
        edge_v=ev,
        aux_i=np.empty(0, dtype=np.int64),
        aux_j=np.empty(0, dtype=np.int64),
        aux_w=np.empty(0, dtype=np.float64),
        vert_w=np.zeros(n_v),
        size_param=n_v,
    )


# --- instance validation -----------------------------------------------------


def test_aux_instance_validation():
    ok = dict(
        imp=np.ones(2),
        levels=np.zeros(3, dtype=np.int64),
        edge_u=np.array([0, 1]),
        edge_v=np.array([0, 2]),
        aux_i=np.array([0]),
        aux_j=np.array([1]),
        aux_w=np.array([1.0]),
        vert_w=np.zeros(3),
        size_param=8,
    )
    MisAuxInstance(**ok)
    with pytest.raises(ValueError):
        MisAuxInstance(**{**ok, "aux_i": np.array([1])})  # self-loop
    with pytest.raises(ValueError):
        MisAuxInstance(
            **{
                **ok,
                "aux_i": np.array([0, 1]),
                "aux_j": np.array([1, 0]),
                "aux_w": np.ones(2),
            }
        )  # same pair twice
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="aux weights must be finite and nonnegative"):
            MisAuxInstance(**{**ok, "aux_w": np.array([bad])})
        with pytest.raises(ValueError, match="vertex weights must be finite and nonnegative"):
            MisAuxInstance(**{**ok, "vert_w": np.array([0.0, bad, 0.0])})
    with pytest.raises(ValueError):
        MisAuxInstance(**{**ok, "edge_v": np.array([0, 3])})
    with pytest.raises(ValueError):
        MisAuxInstance(**{**ok, "vert_w": np.zeros(2)})
    with pytest.raises(ValueError):
        MisAuxInstance(**{**ok, "size_param": 1})


def test_watch_mass_frozen():
    inst = MisAuxInstance(
        imp=np.ones(2),
        levels=np.array([0, 1, 3]),
        edge_u=np.array([0, 0, 1]),
        edge_v=np.array([0, 1, 2]),
        aux_i=np.empty(0, dtype=np.int64),
        aux_j=np.empty(0, dtype=np.int64),
        aux_w=np.empty(0),
        vert_w=np.zeros(3),
        size_param=4,
    )
    assert inst.watch_mass() == pytest.approx([1.5, 0.125])


# --- edge bucketing ----------------------------------------------------------


def test_edge_buckets_star():
    # a degree-2b hub chunks its own edges: two full buckets, no leftover
    b = 5
    src = np.zeros(2 * b, dtype=np.int64)
    dst = np.arange(1, 2 * b + 1, dtype=np.int64)
    eb = edge_buckets(2 * b + 1, src, dst, b)
    assert eb.n_buckets == 2 and eb.leftover == 0
    assert np.all(np.sort(eb.specials) == dst)  # specials are the far endpoints


def test_edge_buckets_disjoint_edges():
    # b degree-1 owners with one edge each merge into a single cross-owner bucket
    b = 4
    src = np.array([0, 2, 4, 6], dtype=np.int64)
    dst = np.array([1, 3, 5, 7], dtype=np.int64)
    eb = edge_buckets(8, src, dst, b)
    assert eb.n_buckets == 1 and eb.leftover == 0
    assert set(eb.specials.tolist()) == {0, 2, 4, 6}  # specials are the owners


def test_edge_buckets_triangle_all_leftover():
    eb = edge_buckets(3, np.array([0, 0, 1]), np.array([1, 2, 2]), b=3)
    assert eb.n_buckets == 0 and eb.leftover == 3


def test_edge_buckets_rejects_bad_input():
    with pytest.raises(ValueError):
        edge_buckets(4, np.array([0]), np.array([0]), 2)  # self-loop
    with pytest.raises(ValueError):
        edge_buckets(4, np.array([0, 1]), np.array([1, 0]), 2)  # duplicate
    with pytest.raises(ValueError):
        edge_buckets(4, np.array([0]), np.array([1]), 1)  # bucket too small


@pytest.mark.parametrize("b", [2, 3, 7, 16])
def test_edge_buckets_invariants_random(b):
    rng = np.random.default_rng(b)
    g = gnm_graph(250, 2000, seed=b)
    owners = g.slot_owners()
    fwd = owners < g.nbrs
    src, dst = owners[fwd], g.nbrs[fwd]
    eb = edge_buckets(g.n, src, dst, b)
    k = eb.n_buckets
    # exact-size partition of the non-leftover edges
    cnt = np.bincount(eb.edge_bucket[eb.edge_bucket >= 0], minlength=k)
    assert np.all(cnt == b)
    assert eb.leftover + k * b == len(src)
    assert eb.leftover < b**3
    # each bucket's specials are distinct and incident to its edges
    sp = eb.specials.reshape(k, b)
    assert all(len(set(row.tolist())) == b for row in sp)
    incident = np.zeros((k, g.n), dtype=bool)
    e_in = eb.edge_bucket >= 0
    incident[eb.edge_bucket[e_in], src[e_in]] = True
    incident[eb.edge_bucket[e_in], dst[e_in]] = True
    assert all(incident[i, sp[i]].all() for i in range(k))


def reference_edge_buckets(n, edges, b):
    """The edge bucketing in plain Python: a set of (edges, specials) per
    bucket, and the leftover count. Each edge is owned by its one endpoint
    of degree >= b, else by its smaller endpoint. Every owner chunks its
    edges, sorted by far endpoint, into buckets of b (specials: the far
    endpoints). Owners left with d < b edges are taken b at a time in id
    order, within each d; such a part yields d buckets, the i-th made of
    each owner's i-th leftover edge (specials: the owners)."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    far: dict[int, list[int]] = {}
    for u, v in edges:
        hu, hv = deg[u] >= b, deg[v] >= b
        owner = u if hu and not hv else v if hv and not hu else min(u, v)
        far.setdefault(owner, []).append(u + v - owner)
    buckets = set()
    by_d: dict[int, list[tuple[int, list[int]]]] = {}
    for owner in sorted(far):
        ends = sorted(far[owner])
        full = len(ends) // b * b
        for i in range(0, full, b):
            chunk = ends[i : i + b]
            buckets.add((frozenset((min(owner, x), max(owner, x)) for x in chunk), frozenset(chunk)))
        if full < len(ends):
            by_d.setdefault(len(ends) - full, []).append((owner, ends[full:]))
    for d, owners in by_d.items():
        for p in range(len(owners) // b):
            part = owners[p * b : (p + 1) * b]
            for i in range(d):
                edges_i = frozenset((min(o, r[i]), max(o, r[i])) for o, r in part)
                buckets.add((edges_i, frozenset(o for o, _ in part)))
    return buckets, len(edges) - b * len(buckets)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 60),
    b=st.integers(2, 8),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_edge_buckets_match_the_reference(n, b, density, seed):
    # a random simple graph, each edge in a random direction and position
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < density
    flip = rng.random(int(keep.sum())) < 0.5
    perm = rng.permutation(int(keep.sum()))
    edges = [
        (int(v), int(u)) if f else (int(u), int(v))
        for u, v, f in zip(iu[keep][perm], ju[keep][perm], flip)
    ]
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    eb = edge_buckets(n, src, dst, b)
    got = set()
    for k in range(eb.n_buckets):
        in_k = np.flatnonzero(eb.edge_bucket == k)
        bucket_edges = frozenset(tuple(sorted(edges[e])) for e in in_k.tolist())
        specials = eb.specials[k * b : (k + 1) * b].tolist()
        assert len(set(specials)) == b
        got.add((bucket_edges, frozenset(specials)))
    want, leftover = reference_edge_buckets(n, edges, b)
    assert got == want
    assert eb.leftover == leftover


def test_edge_bucket_potential_mean_one():
    g = gnm_graph(150, 900, seed=9)
    owners = g.slot_owners()
    fwd = owners < g.nbrs
    eb = edge_buckets(g.n, owners[fwd], g.nbrs[fwd], b=6)
    pot = eb.potential()
    assert pot.expectation() == pytest.approx(1.0)
    rng = np.random.default_rng(1)
    vals = [pot.value(rng.random(g.n) < 0.5) for _ in range(3000)]
    se = np.std(vals) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - 1.0) < 3 * se


# --- linear aux potential ------------------------------------------------------


def test_linear_potential_mean_is_factor():
    rng = np.random.default_rng(3)
    n = 40
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(len(i)) < 0.3
    w = rng.random(keep.sum()) + 0.1
    vw = rng.random(n)
    lin = LinearEdgePotential.build("phi_aux", 7.5, i[keep], j[keep], w, vw)
    assert lin.expectation() == pytest.approx(7.5)
    vals = [lin.value(rng.random(n) < 0.5) for _ in range(4000)]
    se = np.std(vals) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - 7.5) < 3 * se


def test_linear_potential_vanishes_without_weight():
    e = np.empty(0, dtype=np.int64)
    assert LinearEdgePotential.build("x", 1.0, e, e, np.empty(0), np.zeros(5)) is None


def test_run_half_hands_the_linear_pairs_to_the_rounding_as_they_are(monkeypatch):
    # the linear potential is the one supplier of explicit terms, so its
    # pairs reach the rounding uncopied, next to a clique group
    rng = np.random.default_rng(4)
    n = 120
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(len(i)) < 0.2
    lin = LinearEdgePotential.build(
        "phi_aux", 1.0, i[keep], j[keep], rng.random(keep.sum()) + 0.1, np.zeros(n)
    )
    quad = QuadPotential(np.arange(n), np.full(n // 40, 0.1), 40, "phi_hits")
    supplied, handed = [], []
    real_pairs, real_round = lin.pairs, dpar.hitting.local_round

    def pairs():
        supplied.append(real_pairs())
        return supplied[-1]

    def local_round(inst, work=None):
        handed.append(inst)
        return real_round(inst, work=work)

    monkeypatch.setattr(lin, "pairs", pairs)
    monkeypatch.setattr(dpar.hitting, "local_round", local_round)
    run_half(n, [quad, lin], eps=0.01, phi_bound=1e9)
    ((ci, cj, cc),), (inst,) = supplied, handed
    assert len(ci) > 0
    for given, got in ((ci, inst.cost_i), (cj, inst.cost_j), (cc, inst.cost_c)):
        assert np.shares_memory(given, got)


# --- low regime ----------------------------------------------------------------


def low_instance(rng, n_u=30, n_v=400, deg=40, lev_lo=19, lev_hi=21):
    eu = np.repeat(np.arange(n_u), deg)
    ev = np.concatenate([rng.choice(n_v, size=deg, replace=False) for _ in range(n_u)])
    levels = rng.integers(lev_lo, lev_hi + 1, size=n_v)
    ai, aj = np.triu_indices(n_v, k=1)
    keep = rng.random(len(ai)) < 0.02
    return MisAuxInstance(
        imp=np.ones(n_u),
        levels=levels,
        edge_u=eu,
        edge_v=ev,
        aux_i=ai[keep],
        aux_j=aj[keep],
        aux_w=rng.random(keep.sum()),
        vert_w=np.zeros(n_v),
        size_param=BIG_N,
    )


@pytest.mark.parametrize("regime", ["low", "high"])
def test_full_mask_restrict_shares_the_aux_and_watch_arrays(regime):
    # a restriction that keeps every candidate and every watcher passes
    # the edge arrays on as they are; a partial one cuts them
    inst = low_instance(np.random.default_rng(6))
    k_cap = DESK.level_cap(inst.size_param)
    levels = inst.levels if regime == "low" else np.minimum(inst.levels, k_cap)
    names = ("aux_i", "aux_j", "aux_w", "edge_u", "edge_v")
    full_v, full_u = np.ones(inst.n_right, dtype=bool), np.ones(inst.n_left, dtype=bool)
    sub, ids = driver().restrict(inst, regime, full_v, full_u, levels)
    assert np.array_equal(ids, np.arange(inst.n_right))
    for name in names:
        assert np.shares_memory(getattr(sub, name), getattr(inst, name)), name
    part = full_v.copy()
    part[::3] = False
    sub, ids = driver().restrict(inst, regime, part, full_u, levels)
    for name in names:
        assert not np.shares_memory(getattr(sub, name), getattr(inst, name)), name
    kept = part[inst.aux_i] & part[inst.aux_j]
    assert np.array_equal(ids[sub.aux_i], inst.aux_i[kept])
    assert np.array_equal(ids[sub.aux_j], inst.aux_j[kept])
    assert np.array_equal(sub.aux_w, inst.aux_w[kept])


def test_low_half_certificate_and_report():
    rng = np.random.default_rng(5)
    inst = low_instance(rng)
    p = ParamSet.desk()
    gamma = p.gamma_low(0, BIG_N)
    report = driver(p).low(inst)[2][0]  # the first halving
    assert report["phi_total"] <= report["phi_bound"]
    assert report["phi_bound"] == pytest.approx(LOW_BOUND_BASE + AUX_FACTOR_LOW / gamma)
    assert 0 <= report["selected"] <= report["candidates"]
    assert report["trim_dropped_max"] >= 0
    assert set(report["phi"]) >= {"phi_pair", "phi_weighted", "phi_size"}


def test_low_regime_decides_everyone():
    rng = np.random.default_rng(7)
    inst = low_instance(rng)
    p = ParamSet.desk()
    drv = driver(p)
    fixed, u_good, rounds = drv.low(inst)
    assert rounds  # levels above K forced at least one halving
    assert drv.drift <= 2.0
    assert fixed.dtype == bool and len(fixed) == inst.n_right
    assert len(u_good) == inst.n_left


def test_low_regime_rejects_levels_at_or_below_cap():
    rng = np.random.default_rng(8)
    inst = low_instance(rng, lev_lo=5, lev_hi=10)
    with pytest.raises(ValueError):
        driver().low(inst)


# --- high regime -----------------------------------------------------------------


def test_high_regime_reaches_floor():
    rng = np.random.default_rng(11)
    inst = core_instance(rng, n_u=25, n_v=600, deg=160, level=5)
    p = ParamSet.desk()
    drv = driver(p)
    selected, _, rounds = drv.high(inst)
    assert len(rounds) == 1  # one halving from level 5 to the floor 4
    assert selected.sum() > 0
    assert drv.drift <= (1 + p.gamma_high_for(5)) ** 1 + 1e-12


def test_round_mass_cap_raises_under_desk(monkeypatch):
    # the per-round watcher mass cap used to raise under the paper preset only
    rng = np.random.default_rng(11)
    inst = core_instance(rng, n_u=25, n_v=600, deg=160, level=5)  # mass 5 per watcher
    res = core_mis_hitting(inst, ParamSet.desk())
    (high,) = [r for r in res.rounds if r["regime"] == "mis_high"]
    assert 1.0 < high["max_watch_mass"] <= mis.ROUND_MASS_CAP
    monkeypatch.setattr(mis, "ROUND_MASS_CAP", 1.0)
    with pytest.raises(RuntimeError, match="watcher probability mass exceeded the per-round cap"):
        core_mis_hitting(inst, ParamSet.desk())


def test_core_rejects_aux_edges_that_would_skip_the_low_regime():
    """4 watchers of 640 candidates at level 7, N = 16: K = 6 and the low
    bucket is 0, so the candidates would reach K unhalved. With about 3
    random aux edges per candidate the frozen aux weight check used to
    raise RuntimeError; the call now rejects the instance up front, and
    without aux edges it certifies."""
    rng = np.random.default_rng(5)
    inst = core_instance(rng, n_u=4, n_v=1280, deg=640, level=7)
    inst.size_param = 16
    ai, aj = rng.integers(0, 1280, size=(2, 3 * 1280))
    code = np.unique(ai[ai < aj] * 1280 + aj[ai < aj])
    with_aux = dataclasses.replace(
        inst, aux_i=code // 1280, aux_j=code % 1280, aux_w=rng.random(len(code))
    )
    with pytest.raises(ValueError, match=r"size_param 16 .* K = 6.*aux edge"):
        core_mis_hitting(with_aux, ParamSet.desk())
    res = core_mis_hitting(inst, ParamSet.desk())
    assert [r["straight_to_high"] for r in res.rounds if "straight_to_high" in r] == [1280]


def test_high_regime_rejects_levels_above_cap():
    rng = np.random.default_rng(12)
    inst = core_instance(rng, n_u=5, n_v=100, deg=32, level=30)
    with pytest.raises(ValueError):
        driver().high(inst)


def test_high_regime_rejects_heavy_watchers():
    rng = np.random.default_rng(13)
    inst = core_instance(rng, n_u=5, n_v=100, deg=90, level=1)  # mass 45 > 40
    with pytest.raises(ValueError):
        core_mis_hitting(inst)  # rejected at the public entry
    # past the entry, the same mass trips the high regime's entry cap
    with pytest.raises(RuntimeError, match="entry cap"):
        driver().run(inst)


def test_high_regime_below_floor_survives_outright():
    rng = np.random.default_rng(14)
    inst = core_instance(rng, n_u=4, n_v=50, deg=30, level=3)  # floor is 4
    selected, _, rounds = driver().high(inst)
    assert selected.all()
    assert all(r.get("skipped", False) or r["candidates"] == 0 for r in rounds) or not rounds


# --- core selection ---------------------------------------------------------------


def test_core_rejects_vertex_weights():
    rng = np.random.default_rng(15)
    inst = core_instance(rng, n_u=8, n_v=200, deg=160, level=5)
    inst.vert_w = np.ones(inst.n_right)
    with pytest.raises(ValueError):
        core_mis_hitting(inst)


def test_core_rejects_mass_outside_window():
    rng = np.random.default_rng(16)
    light = core_instance(rng, n_u=8, n_v=200, deg=64, level=5)  # mass 2
    with pytest.raises(ValueError):
        core_mis_hitting(light)
    heavy = core_instance(rng, n_u=8, n_v=400, deg=352, level=5)  # mass 11
    with pytest.raises(ValueError):
        core_mis_hitting(heavy)


def test_core_good_watchers_keep_hits():
    rng = np.random.default_rng(17)
    inst = core_instance(rng, n_u=30, n_v=900, deg=192, level=5)  # mass 6
    res = core_mis_hitting(inst)
    assert res.selected.sum() > 0
    assert np.all(res.hits[res.u_good] >= 1)
    assert 0.0 <= res.good_importance_fraction <= 1.0
    assert res.aux_selected_weight == 0.0  # no aux edges in this instance


def test_core_splits_low_levels_first():
    rng = np.random.default_rng(18)
    n_v = 2000
    levels = np.full(n_v, 5, dtype=np.int64)
    levels[rng.choice(n_v, 200, replace=False)] = 25  # above the desk cap K=18
    eu = np.repeat(np.arange(10), 192)
    ev = np.concatenate([rng.choice(n_v, size=192, replace=False) for _ in range(10)])
    inst = MisAuxInstance(
        imp=np.ones(10),
        levels=levels,
        edge_u=eu,
        edge_v=ev,
        aux_i=np.empty(0, dtype=np.int64),
        aux_j=np.empty(0, dtype=np.int64),
        aux_w=np.empty(0),
        vert_w=np.zeros(n_v),
        size_param=BIG_N,
    )
    res = core_mis_hitting(inst)
    assert res.rounds  # the low split must have run at least one round
    assert res.selected.sum() > 0
    assert np.all(res.hits[res.u_good] >= 1)


# --- independent-ish marking -----------------------------------------------------


def test_independentish_complete_graph():
    g = complete_graph(50)
    res = independentish_set(g)
    # equal degrees orient edges by id: node i has i in-neighbors
    assert int(res.watchers.sum()) == 33  # 3i >= 49 needs i >= 17
    assert np.all(~res.s_star | res.s_raw)
    assert res.core.selected.shape == (50,)


def test_dense_halving_reports_one_cost_slot_per_term():
    # the watchers' hit buckets reach the rounding as cliques, b members
    # each; only the aux edges are explicit cost terms, and the layout
    # sweep takes each as one slot, from its later endpoint
    res = independentish_set(gnm_graph(540, 140_000, seed=1))
    halvings = [r for r in res.core.rounds if "clique_members" in r]
    assert halvings
    for r in halvings:
        assert r["clique_members"] == r["b"] * r["buckets"] > 0
        assert r["cost_terms"] > 0
        # buckets overlap, so some class has a head in an earlier one
        assert r["sweep_steps"] >= 2


def test_dense_halvings_never_expand_their_cliques(monkeypatch):
    g = gnm_graph(540, 140_000, seed=1)
    forbid_cost_graphs(monkeypatch)
    work = WorkCounter()
    res = maximal_independent_set(g, work=work)
    assert work.per_phase["half_sample"] > 0  # some halving ran
    assert check_maximal_independent(g, res.in_set)[0]


def test_independentish_small_degrees_take_everyone():
    g = ring_graph(12)  # degree 2 everywhere: level 0, no watchers
    res = independentish_set(g)
    assert res.s_raw.all()
    assert not res.watchers.any()


def reference_independentish(g, s_raw, outdeg_cap):
    """independentish_set's instance and output by Python loops over the
    CSR blocks: (watchers, h_u, h_v, aux_i, aux_j, aux_w, s_star)."""
    n = g.n
    block = [g.nbrs[g.offsets[u] : g.offsets[u + 1]].tolist() for u in range(n)]
    deg = [len(b) for b in block]
    key = [deg[u] * n + u for u in range(n)]
    # ceil(log2 d) - 5 above degree 32
    level = [(d - 1).bit_length() - 5 if d > 32 else 0 for d in deg]
    watchers, taken = [], []
    for u in range(n):
        incoming = [w for w in block[u] if key[w] < key[u]]
        if deg[u] < 33 or 3 * len(incoming) < deg[u]:
            continue
        mass, prefix = 0.0, []
        for w in incoming:  # the prefix of in-neighbors until the mass reaches 5
            if mass >= 5.0:
                break
            prefix.append(w)
            mass += 2.0 ** -level[w]
        if mass >= 5.0:
            watchers.append(u)
            taken += [(u, w) for w in prefix]
    rank = {u: r for r, u in enumerate(watchers)}
    weight = [0.0] * n
    for u, w in taken:
        weight[w] += deg[u]
    aux = [(u, w) for u in range(n) for w in block[u] if u < w]
    aux_w = [weight[u if key[u] < key[w] else w] for u, w in aux]
    s_star = [
        bool(s_raw[u]) and sum(bool(s_raw[w]) and key[w] > key[u] for w in block[u]) <= outdeg_cap
        for u in range(n)
    ]
    return (
        watchers, [rank[u] for u, _ in taken], [w for _, w in taken],
        [u for u, _ in aux], [w for _, w in aux], aux_w, s_star,
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 70),
    density=st.floats(0.0, 1.0),
    shape=st.sampled_from(["gnm", "clique", "clique+isolated"]),
)
@example(seed=1, n=70, density=0.8, shape="gnm")
@example(seed=2, n=50, density=0.0, shape="clique")
@example(seed=3, n=70, density=0.7, shape="clique+isolated")
def test_independentish_instance_matches_a_loop_reference(seed, n, density, shape):
    """The watchers, watch edges (h_u, h_v), aux edges with their weights
    and s_star of one sweep equal a Python-loop reference: random graphs
    of degree up to 69, mostly at most 32, cliques whose equal degrees tie
    the orientation keys, and cliques beside isolated nodes. The instance
    the sweep builds also passes MisAuxInstance's full validation."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    if shape == "gnm":
        pick = rng.random(len(iu)) < density
    else:  # a clique on the first nodes, the rest isolated or not there
        size = n if shape == "clique" else int(density * n)
        pick = ju < size
    order = rng.permutation(int(pick.sum()))
    g = sort_edges_to_csr(np.stack([iu[pick], ju[pick]], axis=1)[order], n)
    built = []
    real = mis.core_mis_hitting

    def capture(inst, params, work):
        built.append(inst)
        return real(inst, params, work=work)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mis, "core_mis_hitting", capture)
        res = independentish_set(g)
    inst = built[0]
    watchers, h_u, h_v, aux_i, aux_j, aux_w, s_star = reference_independentish(
        g, res.s_raw, ParamSet.desk().outdeg_cap
    )
    assert np.flatnonzero(res.watchers).tolist() == watchers
    assert inst.edge_u.tolist() == h_u and inst.edge_v.tolist() == h_v
    assert inst.aux_i.tolist() == aux_i and inst.aux_j.tolist() == aux_j
    assert inst.aux_w.tolist() == aux_w
    assert res.s_star.tolist() == s_star
    fields = {f.name: getattr(inst, f.name) for f in dataclasses.fields(MisAuxInstance)}
    checked = MisAuxInstance(**fields)
    for name, value in fields.items():
        again = getattr(checked, name)
        if isinstance(value, np.ndarray):
            assert value.dtype == again.dtype and value.tobytes() == again.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 60),
    top_level=st.sampled_from([0, 5, 40, 600, 1100]),
    tiny=st.booleans(),
)
def test_mixed_sum_has_the_bits_of_the_direct_formula(seed, n, top_level, tiny):
    """_mixed_sum's per-node factors give, bit for bit, the sum of
    w 2^-(k + k') over the aux edges with both ends masked plus w 2^-k over
    the masked nodes: zero weights, masked nodes, levels whose powers
    underflow to 0, and weights near the smallest normal float."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.random(len(iu)) < 0.4
    m = int(pick.sum())
    scale = 1e-300 if tiny else 1.0
    aux_w = rng.random(m) * scale * (rng.random(m) < 0.8)
    vert_w = rng.random(n) * scale * (rng.random(n) < 0.8)
    sub = dataclasses.make_dataclass("Sub", ["aux_i", "aux_j", "aux_w", "vert_w"])(
        iu[pick], ju[pick], aux_w, vert_w
    )
    mask = rng.random(n) < 0.7
    lev = rng.integers(0, top_level + 1, size=n)
    both = mask[sub.aux_i] & mask[sub.aux_j]
    exps = (lev[sub.aux_i] + lev[sub.aux_j]).astype(np.float64)
    e_term = tiled_sum(np.where(both, aux_w * np.exp2(-exps), 0.0))
    v_term = tiled_sum(np.where(mask, vert_w * np.exp2(-lev.astype(np.float64)), 0.0))
    want = float(e_term + v_term)
    got = mis._mixed_sum(sub, mask, lev)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_public_constructor_rejects_bad_aux_edges():
    ok = dict(
        imp=np.ones(1),
        levels=np.zeros(3, dtype=np.int64),
        edge_u=np.array([0]),
        edge_v=np.array([2]),
        aux_i=np.array([0, 1]),
        aux_j=np.array([1, 2]),
        aux_w=np.ones(2),
        vert_w=np.zeros(3),
        size_param=8,
    )
    MisAuxInstance(**ok)
    bad = {
        "duplicate aux edge": ([0, 1, 0], [1, 2, 1]),
        "aux self-loop": ([0, 1], [1, 1]),
        "aux edge endpoint out of range": ([0, 1], [1, 3]),
    }
    for message, (ai, aj) in bad.items():
        with pytest.raises(ValueError, match=message):
            MisAuxInstance(**{**ok, "aux_i": ai, "aux_j": aj, "aux_w": np.ones(len(ai))})
    with pytest.raises(ValueError, match="duplicate aux edge"):  # the same pair reversed
        MisAuxInstance(**{**ok, "aux_i": [0, 1], "aux_j": [1, 0]})
    with pytest.raises(ValueError, match="out of range"):
        MisAuxInstance(**{**ok, "aux_i": [-1, 1]})


# --- maximal independent set -------------------------------------------------------


def test_mis_complete_graph_picks_one():
    g = complete_graph(5)
    res = maximal_independent_set(g)
    assert int(res.in_set.sum()) == 1
    assert check_maximal_independent(g, res.in_set)[0]


def test_mis_edgeless_takes_all():
    g = Graph(n=6, offsets=np.zeros(7, dtype=np.int64), nbrs=np.empty(0, dtype=np.int64), weights=None)
    res = maximal_independent_set(g)
    assert res.in_set.all()


def test_mis_ring():
    g = ring_graph(5)
    res = maximal_independent_set(g)
    assert int(res.in_set.sum()) == 2
    assert check_maximal_independent(g, res.in_set)[0]


def test_mis_star():
    g = star_graph(7)
    res = maximal_independent_set(g)
    assert check_maximal_independent(g, res.in_set)[0]
    assert int(res.in_set.sum()) in (1, 6)


@settings(deadline=None, max_examples=12)
@given(seed=st.integers(0, 10_000))
def test_mis_random_graphs_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    max_m = n * (n - 1) // 2
    m = int(rng.integers(0, min(max_m, 4 * n) + 1))
    g = gnm_graph(n, m, seed=seed)
    res = maximal_independent_set(g)
    ok, rep = check_maximal_independent(g, res.in_set)
    assert ok, rep


def test_dense_mis_peak_memory_stays_under_nine_slot_arrays():
    # average degree 571 > 512: the core halves its candidates, and each
    # sweep holds one copy of each of its edge-sized arrays at a time
    g = gnm_graph(700, 200_000, seed=10)
    tracemalloc.start()
    try:
        maximal_independent_set(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * g.nbrs.nbytes


def test_mis_charges_work():
    g = gnm_graph(200, 1200, seed=22)
    res = maximal_independent_set(g)
    assert res.work.total > 0
    assert "class_union" in res.work.snapshot()
    assert res.iterations and all("removed" in it for it in res.iterations)


def test_luby_baseline_maximal_and_seeded():
    g = gnm_graph(400, 2500, seed=23)
    a = luby_mis_baseline(g, seed=7)
    b = luby_mis_baseline(g, seed=7)
    c = luby_mis_baseline(g, seed=8)
    assert np.array_equal(a.in_set, b.in_set)
    assert check_maximal_independent(g, a.in_set)[0]
    assert check_maximal_independent(g, c.in_set)[0]
    assert a.work.total > 0


def test_output_certificate_raises_with_the_oracle_details(monkeypatch):
    # choosing every selected node of a clique breaks independence
    monkeypatch.setattr(
        "dpar.mis.greedy_classes", lambda sub, colors, k, work: np.ones(sub.n, dtype=bool)
    )
    with pytest.raises(RuntimeError, match="not a maximal independent set.*'conflict_edges': 10"):
        maximal_independent_set(complete_graph(5))
