import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpar.coloring import (
    Coloring,
    _compact_colors,
    _conflict_roots,
    _defective_phase1,
    _kernel_round,
    _phase1_iterations,
    _poly_coeffs,
    _smallest_admissible,
    color_delta_squared,
    defective_coloring,
    reduce_colors_once,
    tables_limit_for,
)
from dpar.graph import Graph, sort_edges_to_csr
from dpar.matching import _line_graph
from dpar.ntheory import precompute_tables, prime_in_range
from dpar.workcount import WorkCounter


def is_proper(g: Graph, colors: np.ndarray) -> bool:
    return not np.any(colors[g.slot_owners()] == colors[g.nbrs])


def mono_weight_of(g: Graph, colors: np.ndarray) -> float:
    w = g.weights if g.weights is not None else np.ones(len(g.nbrs))
    return float(np.sum(w[colors[g.slot_owners()] == colors[g.nbrs]])) / 2.0


def random_graph(rng, n, m, weighted=False):
    edges = []
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    w = rng.random(len(edges)) if weighted else None
    return sort_edges_to_csr(np.array(edges, dtype=np.int64), n, weights=w)


# --- smallest admissible index -------------------------------------------

def test_smallest_admissible_frozen():
    groups = np.array([0, 0, 2], dtype=np.int64)
    items = np.array([0, 1, 1], dtype=np.int64)
    adm = np.zeros(3, dtype=bool)
    gids, best = _smallest_admissible(groups, items, adm, np.full(3, 3, dtype=np.int64))
    assert gids.tolist() == [0, 2]  # group 1 has no pairs: its answer is 0
    assert best.tolist() == [2, 0]


def test_smallest_admissible_prefers_present_admissible():
    groups = np.array([0, 0], dtype=np.int64)
    items = np.array([0, 1], dtype=np.int64)
    adm = np.array([True, False])
    gids, best = _smallest_admissible(groups, items, adm, np.full(1, 8, dtype=np.int64))
    assert gids.tolist() == [0] and best.tolist() == [0]


# --- single recoloring round ---------------------------------------------

def test_single_edge_round_uses_field_of_three():
    g = sort_edges_to_csr(np.array([[0, 1]]), 2)
    tables = precompute_tables(16)
    assert prime_in_range(tables, 3) == 3
    cur = Coloring(colors=np.array([0, 1], dtype=np.int64), num_colors=2)
    nxt = reduce_colors_once(g, cur, tables)
    assert nxt.num_colors <= 9
    assert is_proper(g, nxt.colors)


def test_round_rejects_understated_degree():
    g = sort_edges_to_csr(np.array([[0, 1], [0, 2], [0, 3]]), 4)
    tables = precompute_tables(64)
    cur = Coloring(colors=np.arange(4), num_colors=4)
    with pytest.raises(ValueError):
        reduce_colors_once(g, cur, tables, delta=1)


def per_slot_round(n, colors, kprime, tables, src, dst, weights, domain, budget, strict):
    """The per-slot rule that _kernel_round's pair solve must reproduce:
    every slot is solved on its own and hits its owner, all r1 hits go
    before all r2 hits, and the hits are stably sorted by (node, point)."""
    p = prime_in_range(tables, kprime)
    a, b, c = _poly_coeffs(colors, p)
    r1, ok1, r2, ok2 = _conflict_roots(
        a[dst] - a[src], b[dst] - b[src], c[dst] - c[src],
        p, tables.sqrt_table(p), tables.inv_table(p),
    )
    vv = np.concatenate([src, src])
    rr = np.concatenate([r1, r2])
    hit = np.concatenate([ok1, ok2]) & (rr < domain[vv])
    key = vv[hit] * p + rr[hit]
    order = np.argsort(key, kind="stable")
    ukey, groups = np.unique(key[order], return_inverse=True)
    uv, ur = ukey // p, ukey % p
    adm = np.zeros(len(ukey), dtype=bool)
    if weights is not None:
        ws = np.concatenate([weights, weights])[hit][order]
        score = np.bincount(groups, weights=ws, minlength=len(ukey))
        adm = (score < budget[uv]) | (score <= 0.0)
        adm[strict[uv]] = score[strict[uv]] <= 0.0
    x = np.zeros(n, dtype=np.int64)
    gids, best = _smallest_admissible(uv, ur, adm, domain)
    x[gids] = best
    return x * p + (a * x % p * x + b * x + c) % p


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    avg_deg=st.floats(0.5, 12.0),
    palette_mult=st.integers(1, 60),
    mode=st.sampled_from(["symmetric", "oriented", "weighted"]),
)
def test_pair_solve_matches_per_slot_rule(seed, n, avg_deg, palette_mult, mode):
    """Solving each conflict pair once and hitting both ends gives the same
    colours, byte for byte, as solving every slot: proper rounds over both
    directions of every edge or over a random subset of the slots, and
    weighted phase-1 rounds of defective_coloring."""
    rng = np.random.default_rng(seed)
    ends = rng.integers(0, n, size=(max(1, int(avg_deg * n / 2)), 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    # zero weights exercise the "zero hit weight is harmless" rule
    w = rng.random(len(ends)) * (rng.random(len(ends)) < 0.8)
    g = sort_edges_to_csr(ends, n, weights=w if mode == "weighted" else None)
    k = n * palette_mult
    colors = rng.choice(k, size=n, replace=False).astype(np.int64)
    src, dst = g.slot_owners(), g.nbrs
    weights = budget = strict = None
    if mode == "oriented":
        keep = rng.random(len(src)) < 0.5
        src, dst = src[keep], dst[keep]
    cdeg = np.bincount(src, minlength=n)
    if mode == "weighted":
        eps1 = [1.0, 0.5, 0.25, 0.05][seed % 4]
        weights = g.weights
        kprime = max(math.ceil(k ** (1.0 / 3.0)), 3 * math.ceil(1.0 / eps1), 3)
        strict = cdeg <= math.floor(1.0 / eps1)
        budget = eps1 * np.bincount(src, weights=weights, minlength=n)
    else:
        kprime = max(math.ceil(k ** (1.0 / 3.0)), 3 * int(cdeg.max()), 3)
    tables = precompute_tables(2 * kprime + 2)
    p = prime_in_range(tables, kprime)
    if mode == "weighted":
        domain = np.where(strict, np.minimum(3 * cdeg + 1, p), min(3 * math.ceil(1.0 / eps1), p))
    else:
        domain = np.minimum(np.maximum(3 * cdeg, 1), p)
    domain = domain.astype(np.int64)
    got = _kernel_round(
        n, colors, k, kprime, tables, src, dst, weights, domain, budget, strict,
        mode != "oriented", None,
    )
    want = per_slot_round(n, colors, kprime, tables, src, dst, weights, domain, budget, strict)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def greedy_colors(g: Graph, order: np.ndarray) -> np.ndarray:
    """A proper coloring: each node in turn takes the smallest color that
    none of its colored neighbours holds."""
    colors = np.full(g.n, -1, dtype=np.int64)
    for v in order.tolist():
        taken = set(colors[g.nbrs[g.offsets[v] : g.offsets[v + 1]]].tolist())
        colors[v] = next(c for c in range(g.n) if c not in taken)
    return colors


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 120),
    avg_deg=st.floats(0.0, 10.0),
    distinct=st.booleans(),
    mode=st.sampled_from(["symmetric", "oriented", "weighted"]),
)
def test_round_on_a_palette_inside_the_field_returns_its_input(seed, n, avg_deg, distinct, mode):
    """With k <= p every color is a constant polynomial, so a round over a
    coloring that is proper on its conflict slots finds no root and returns
    its input colors: proper rounds over both directions of every edge or
    over a random subset of the slots, and weighted phase-1 rounds."""
    rng = np.random.default_rng(seed)
    ends = rng.integers(0, n, size=(int(avg_deg * n / 2), 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    w = rng.random(len(ends)) * (rng.random(len(ends)) < 0.8)
    g = sort_edges_to_csr(ends, n, weights=w if mode == "weighted" else None)
    if distinct:  # node ids, as before the first round
        k = n + int(rng.integers(0, n + 1))
        colors = rng.choice(k, size=n, replace=False).astype(np.int64)
    else:  # few colors, as after a round
        colors = greedy_colors(g, rng.permutation(n))
        k = int(colors.max()) + 1
    src, dst = g.slot_owners(), g.nbrs
    if mode == "oriented":
        keep = rng.random(len(src)) < 0.5
        src, dst = src[keep], dst[keep]
    cdeg = np.bincount(src, minlength=n)
    kprime = max(k, 3)
    tables = precompute_tables(2 * kprime + 2)
    p = prime_in_range(tables, kprime)
    assert k <= p
    weights = budget = strict = None
    if mode == "weighted":
        weights = g.weights
        strict = cdeg <= 4
        budget = 0.25 * np.bincount(src, weights=weights, minlength=n)
        domain = np.where(strict, np.minimum(3 * cdeg + 1, p), min(12, p))
    else:
        domain = np.minimum(np.maximum(3 * cdeg, 1), p)
    got = _kernel_round(
        n, colors, k, kprime, tables, src, dst, weights, domain.astype(np.int64), budget,
        strict, mode != "oriented", None,
    )
    assert got.tobytes() == colors.tobytes()


def phase1_every_round(g: Graph, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(colors, alive) of defective_coloring's phase 1 with no round skipped:
    up to _phase1_iterations rounds, stopping after the first that does not
    shrink the palette."""
    n = g.n
    iters = _phase1_iterations(n)
    eps1 = eps / (2.0 * iters)
    spread = 3 * math.ceil(1.0 / eps1)
    owners = g.slot_owners()
    tables = precompute_tables(tables_limit_for(n, 0, math.ceil(1.0 / eps1)))
    alive = np.ones(len(g.nbrs), dtype=bool)
    colors, k = np.arange(n, dtype=np.int64), max(n, 1)
    for _ in range(iters):
        src, dst, w = owners[alive], g.nbrs[alive], g.weights[alive]
        deg = np.bincount(src, minlength=n)
        kprime = max(math.ceil(k ** (1.0 / 3.0)), spread, 3)
        p = prime_in_range(tables, kprime)
        low = deg <= math.floor(1.0 / eps1)
        domain = np.maximum(np.where(low, np.minimum(3 * deg + 1, p), min(spread, p)), 1)
        budget = eps1 * np.bincount(src, weights=w, minlength=n)
        new = _kernel_round(
            n, colors, k, kprime, tables, src, dst, w, domain.astype(np.int64), budget, low,
            True, None,
        )
        alive[np.flatnonzero(alive)[new[src] == new[dst]]] = False
        colors, k_new = _compact_colors(new)
        shrank, k = k_new < k, k_new
        if not shrank:
            break
    return colors, alive


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    avg_deg=st.floats(0.0, 12.0),
    eps=st.sampled_from([1.0, 0.5, 0.25, 0.1, 0.03]),
)
def test_phase1_skip_keeps_colors_and_alive_slots(seed, n, avg_deg, eps):
    """_defective_phase1 stops before a round whose field holds the whole
    palette; it must end where running that round would."""
    rng = np.random.default_rng(seed)
    ends = rng.integers(0, n, size=(int(avg_deg * n / 2), 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    g = sort_edges_to_csr(ends, n, weights=rng.random(len(ends)))
    colors, k, alive, rounds = _defective_phase1(g, eps, g.slot_owners(), g.weights, None, None)
    want_colors, want_alive = phase1_every_round(g, eps)
    assert colors.tobytes() == want_colors.tobytes()
    assert np.array_equal(alive, want_alive)
    assert k == (int(colors.max()) + 1 if n else 1)
    assert 0 <= rounds <= _phase1_iterations(n)


# --- full proper coloring --------------------------------------------------

def test_triangle_squared_degree_palette():
    g = sort_edges_to_csr(np.array([[0, 1], [1, 2], [0, 2]]), 3)
    col = color_delta_squared(g)
    assert is_proper(g, col.colors)
    assert col.num_colors <= 144  # (2 * max(3 * k^(1/3), 3*Delta))^2 at Delta=2


def test_star_oriented_low_outdegree():
    edges = np.array([[i, 8] for i in range(8)])
    g = sort_edges_to_csr(edges, 9)
    # orient every edge from leaf toward the hub: only leaf slots conflict
    orientation = g.nbrs == 8
    col = color_delta_squared(g, orientation=orientation)
    assert is_proper(g, col.colors)
    assert col.num_colors <= 20


def test_isolated_nodes_collapse_to_residues():
    g = Graph(
        n=5,
        offsets=np.zeros(6, dtype=np.int64),
        nbrs=np.empty(0, dtype=np.int64),
        weights=None,
    )
    col = color_delta_squared(g)
    assert col.colors.tolist() == [0, 1, 2, 0, 1]
    assert col.num_colors == 3


def test_random_graph_palette_bound():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 1000, 5000)
    work = WorkCounter()
    col = color_delta_squared(g, work=work)
    delta = int(g.degrees().max())
    assert is_proper(g, col.colors)
    assert col.num_colors <= 20 * delta * delta
    assert work.total > 0


def test_degree_bound_field_runs_one_round():
    """A line graph with ceil(n^(1/3)) <= 3*Delta has its field set by the
    degree from the first round on, so color_delta_squared stops after the
    first round that shrinks the palette."""
    rng = np.random.default_rng(11)
    base = random_graph(rng, 200, 600)
    owners = base.slot_owners()
    fwd = owners < base.nbrs
    g = _line_graph(owners[fwd], base.nbrs[fwd], base.n)
    delta = int(g.degrees().max())
    assert math.ceil(g.n ** (1.0 / 3.0)) <= 3 * delta
    work = WorkCounter()
    col = color_delta_squared(g, work=work)
    assert work.snapshot()["recolor_slots"] == len(g.nbrs) + g.n  # one round
    assert is_proper(g, col.colors)
    assert col.num_colors < g.n
    p = prime_in_range(precompute_tables(tables_limit_for(g.n, delta)), 3 * delta)
    assert col.num_colors <= p * min(3 * delta, p)


# --- defective coloring ----------------------------------------------------

def test_path_low_degree_loses_nothing():
    g = sort_edges_to_csr(np.array([[0, 1], [1, 2]]), 3)
    col = defective_coloring(g, eps=0.3)
    assert col.mono_weight == 0.0
    assert col.num_colors == 3 * math.ceil(1 / 0.3)
    assert mono_weight_of(g, col.colors) == 0.0


def test_star_small_eps_budget():
    edges = np.array([[i, 10] for i in range(10)])
    g = sort_edges_to_csr(edges, 11)
    col = defective_coloring(g, eps=0.1)
    assert col.num_colors == 30
    assert np.all(col.colors < 30)
    assert col.mono_weight <= 0.1 * 10.0


def test_eps_one_gives_three_colors():
    g = sort_edges_to_csr(np.array([[0, 1], [1, 2], [0, 2]]), 3)
    col = defective_coloring(g, eps=1.0)
    assert col.num_colors == 3
    assert np.all(col.colors < 3)
    assert col.mono_weight <= 3.0


def test_eps_validation():
    g = sort_edges_to_csr(np.array([[0, 1]]), 2)
    with pytest.raises(ValueError):
        defective_coloring(g, eps=0.0)
    with pytest.raises(ValueError):
        defective_coloring(g, eps=1.5)


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25, 0.1])
def test_defective_budget_random_graphs(eps):
    rng = np.random.default_rng(int(eps * 1000))
    for _ in range(5):
        n = int(rng.integers(5, 120))
        m = int(rng.integers(1, 4 * n))
        g = random_graph(rng, n, m, weighted=True)
        col = defective_coloring(g, eps=eps)
        total = g.edge_weight_total()
        assert col.num_colors <= 3 * math.ceil(1 / eps)
        assert np.all((col.colors >= 0) & (col.colors < col.num_colors))
        recomputed = mono_weight_of(g, col.colors)
        assert recomputed <= eps * total + 1e-12 * max(total, 1.0)
        assert abs(recomputed - col.mono_weight) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 10_000),
    density=st.floats(0.05, 0.9),
)
def test_property_proper_always(n, seed, density):
    rng = np.random.default_rng(seed)
    m = max(1, int(density * n * (n - 1) / 4))
    g = random_graph(rng, n, m)
    col = color_delta_squared(g)
    assert is_proper(g, col.colors)
    assert np.all(col.colors < col.num_colors)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), eps_idx=st.integers(0, 3))
def test_property_defective_budget(seed, eps_idx):
    eps = [1.0, 0.5, 0.25, 0.1][eps_idx]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    m = int(rng.integers(1, 3 * n))
    g = random_graph(rng, n, m, weighted=True)
    col = defective_coloring(g, eps=eps)
    total = g.edge_weight_total()
    assert mono_weight_of(g, col.colors) <= eps * total + 1e-12 * max(total, 1.0)
    assert col.num_colors <= 3 * math.ceil(1 / eps)


def test_tables_limit_covers_first_round():
    assert tables_limit_for(1000, 20) >= 2 * 60
