import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpar.coloring import (
    Coloring,
    _smallest_admissible,
    color_delta_squared,
    defective_coloring,
    reduce_colors_once,
    tables_limit_for,
)
from dpar.graph import Graph, sort_edges_to_csr
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
