import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpar.generate import complete_graph, gnm_graph, star_graph
from dpar.graph import Graph, sort_edges_to_csr
from dpar.matching import _pairs_within_groups, maximal_matching
from dpar.verify import check_maximal_matching


def path_graph(n):
    e = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return sort_edges_to_csr(e, n)


# --- conflict pair construction -----------------------------------------------


def test_pairs_within_groups_frozen():
    vals = np.array([0, 0, 0, 1, 1, 2])
    ids = np.array([10, 11, 12, 20, 21, 30])
    pairs = _pairs_within_groups(vals, ids)
    got = {frozenset(p) for p in pairs.tolist()}
    assert got == {
        frozenset({10, 11}),
        frozenset({10, 12}),
        frozenset({11, 12}),
        frozenset({20, 21}),
    }


def test_pairs_within_groups_empty_and_singletons():
    assert _pairs_within_groups(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)).shape == (0, 2)
    assert _pairs_within_groups(np.array([3, 4, 5]), np.array([0, 1, 2])).shape == (0, 2)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 5000))
def test_pairs_within_groups_counts(seed):
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 8, size=40)
    ids = np.arange(40)
    pairs = _pairs_within_groups(vals, ids)
    sizes = np.bincount(vals)
    assert len(pairs) == int(np.sum(sizes * (sizes - 1) // 2))
    assert np.all(vals[pairs[:, 0]] == vals[pairs[:, 1]])
    assert np.all(pairs[:, 0] != pairs[:, 1])


# --- maximal matching -----------------------------------------------------------


def test_matching_complete_even():
    g = complete_graph(50)
    res = maximal_matching(g)
    assert len(res.matched_edges) == 25  # perfect on K_50
    assert check_maximal_matching(g, res.match_with)[0]


def test_matching_complete_small():
    g = complete_graph(5)
    res = maximal_matching(g)
    assert len(res.matched_edges) == 2
    assert check_maximal_matching(g, res.match_with)[0]


def test_matching_path():
    g = path_graph(10)
    res = maximal_matching(g)
    assert 3 <= len(res.matched_edges) <= 5
    assert check_maximal_matching(g, res.match_with)[0]


def test_matching_edgeless():
    g = Graph(n=5, offsets=np.zeros(6, dtype=np.int64), nbrs=np.empty(0, dtype=np.int64), weights=None)
    res = maximal_matching(g)
    assert np.all(res.match_with == -1)
    assert len(res.matched_edges) == 0


def test_matching_single_edge():
    g = sort_edges_to_csr(np.array([[0, 1]]), 2)
    res = maximal_matching(g)
    assert res.match_with.tolist() == [1, 0]


@settings(deadline=None, max_examples=12)
@given(seed=st.integers(0, 10_000))
def test_matching_random_graphs_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    max_m = n * (n - 1) // 2
    m = int(rng.integers(1, min(max_m, 4 * n) + 1))
    g = gnm_graph(n, m, seed=seed)
    res = maximal_matching(g)
    ok, rep = check_maximal_matching(g, res.match_with)
    assert ok, rep


def test_matching_deterministic_across_threads():
    g = gnm_graph(600, 4000, seed=31)
    outs = [maximal_matching(g, threads=t).match_with.tobytes() for t in (1, 2, 8)]
    assert outs[0] == outs[1] == outs[2]


def test_matching_reports_stages():
    g = gnm_graph(400, 3200, seed=32)
    res = maximal_matching(g)
    assert res.iterations
    stages = [it["stage"] for it in res.iterations]
    assert all(s >= 1 for s in stages)
    assert res.work.total > 0


def test_output_certificate_raises_with_the_oracle_details(monkeypatch):
    # taking every selected edge of a star matches all leaves to the center
    monkeypatch.setattr(
        "dpar.matching._extract_matching",
        lambda e_u, e_v, n, work, threads: np.ones(len(e_u), dtype=bool),
    )
    with pytest.raises(RuntimeError, match="not a maximal matching.*'symmetric': False"):
        maximal_matching(star_graph(4))
