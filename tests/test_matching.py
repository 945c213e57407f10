import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpar.generate import complete_graph, gnm_graph, star_graph
from dpar.graph import Graph, sort_edges_to_csr
from dpar.matching import _line_graph, maximal_matching
from dpar.verify import check_maximal_matching


def path_graph(n):
    e = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return sort_edges_to_csr(e, n)


# --- conflict (line) graph --------------------------------------------------------


def _blocks(lg):
    return [sorted(lg.nbrs[lg.offsets[i] : lg.offsets[i + 1]].tolist()) for i in range(lg.n)]


def test_line_graph_frozen():
    # edges 0-2 form a star at node 0; edge 3 = (3, 4) meets edge 2 at node 3
    lg = _line_graph(np.array([0, 0, 0, 3]), np.array([1, 2, 3, 4]), 5)
    assert _blocks(lg) == [[1, 2], [0, 2], [0, 1, 3], [2]]
    lg.validate()


def test_line_graph_without_conflicts():
    lg = _line_graph(np.array([0, 2, 4]), np.array([1, 3, 5]), 6)
    assert lg.n == 3 and lg.offsets.tolist() == [0, 0, 0, 0] and len(lg.nbrs) == 0
    empty = np.empty(0, dtype=np.int64)
    assert _line_graph(empty, empty, 3).offsets.tolist() == [0]


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 5000), n=st.integers(2, 24))
def test_line_graph_matches_naive_reference(seed, n):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.permutation(len(iu))[: rng.integers(0, len(iu) + 1)]
    flip = rng.random(len(pick)) < 0.5  # either endpoint may come first
    e_u = np.where(flip, ju[pick], iu[pick])
    e_v = np.where(flip, iu[pick], ju[pick])
    k = len(pick)
    ref = [
        [j for j in range(k) if j != i and {e_u[i], e_v[i]} & {e_u[j], e_v[j]}] for i in range(k)
    ]
    lg = _line_graph(e_u, e_v, n)
    assert lg.offsets.tolist() == np.cumsum([0] + [len(r) for r in ref]).tolist()
    assert _blocks(lg) == ref
    lg.validate()


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
