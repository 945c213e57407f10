import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpar.generate import complete_graph, gnm_graph, star_graph
from dpar.graph import Graph, sort_edges_to_csr
from dpar.hitting import ParamSet
from dpar.matching import _extract_matching, maximal_matching
from dpar.mis import maximal_independent_set
from dpar.verify import check_maximal_matching
from dpar.workcount import WorkCounter


def path_graph(n):
    e = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return sort_edges_to_csr(e, n)


# --- conflict (line) graph --------------------------------------------------------


def line_graph(e_u: np.ndarray, e_v: np.ndarray, n: int) -> Graph:
    """The line graph of k distinct edges on nodes 0..n-1, in CSR form, the
    reference that the endpoint-clique colouring is compared against:
    edge i conflicts with every other edge at e_u[i] or at e_v[i].

    Two distinct edges of a simple graph share at most one endpoint, so
    edge i's block is the incidence list of e_u[i], then that of e_v[i],
    each without i itself; one argsort of the 2k endpoints gives both."""
    k = len(e_u)
    ends = np.concatenate([e_u, e_v])  # endpoint slot s belongs to edge s mod k
    order = np.argsort(ends, kind="stable")  # slots grouped by endpoint
    rank = np.empty(2 * k, dtype=np.int64)
    rank[order] = np.arange(2 * k, dtype=np.int64)
    deg = np.bincount(ends, minlength=n)
    start = np.cumsum(deg) - deg
    # per edge, its u-side slot and then its v-side slot, in CSR order
    slot = np.stack([np.arange(k), np.arange(k, 2 * k)], axis=1).ravel()
    seg = deg[ends[slot]] - 1
    src = np.repeat(slot, seg)
    pos = np.arange(len(src), dtype=np.int64) - np.repeat(np.cumsum(seg) - seg, seg)
    pos += start[ends[src]]
    pos += pos >= rank[src]  # skip the slot of the edge itself
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(seg[0::2] + seg[1::2], out=offsets[1:])
    return Graph(n=k, offsets=offsets, nbrs=order[pos] % k)


def _blocks(lg):
    return [sorted(lg.nbrs[lg.offsets[i] : lg.offsets[i + 1]].tolist()) for i in range(lg.n)]


def test_line_graph_frozen():
    # edges 0-2 form a star at node 0; edge 3 = (3, 4) meets edge 2 at node 3
    lg = line_graph(np.array([0, 0, 0, 3]), np.array([1, 2, 3, 4]), 5)
    assert _blocks(lg) == [[1, 2], [0, 2], [0, 1, 3], [2]]
    lg.validate()


def test_line_graph_without_conflicts():
    lg = line_graph(np.array([0, 2, 4]), np.array([1, 3, 5]), 6)
    assert lg.n == 3 and lg.offsets.tolist() == [0, 0, 0, 0] and len(lg.nbrs) == 0
    empty = np.empty(0, dtype=np.int64)
    assert line_graph(empty, empty, 3).offsets.tolist() == [0]


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
    lg = line_graph(e_u, e_v, n)
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
        "dpar.matching.greedy_classes",
        lambda cliques, colors, k, work: np.ones(len(cliques.e_u), dtype=bool),
    )
    with pytest.raises(RuntimeError, match="not a maximal matching.*'symmetric': False"):
        maximal_matching(star_graph(4))


# --- conflict colouring on endpoint cliques -----------------------------------------


def test_matching_builds_no_line_graph_and_solves_no_roots(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the matching reached a line-graph kernel")

    monkeypatch.setattr("dpar.coloring._SlotRule", refuse)
    g = gnm_graph(400, 3200, seed=32)
    res = maximal_matching(g)
    assert check_maximal_matching(g, res.match_with)[0]
    assert any(it["conflict_colors"] > 1 and it["point_steps"] >= 1 for it in res.iterations)
    assert "sqrt_tables" not in res.work.snapshot()


def test_extraction_charges_endpoint_memberships():
    """match_conflicts counts the 2k memberships of a star's k edges; the
    sweep has one class per color and the colouring reports its steps."""
    work = WorkCounter()
    k = 40
    star = np.zeros(k, dtype=np.int64), np.arange(1, k + 1)
    chosen, col = _extract_matching(*star, k + 1, work)
    assert chosen.sum() == 1
    assert work.snapshot()["match_conflicts"] == 2 * k
    # k colors fit the first field: no round runs
    assert (col.num_colors, col.point_steps, col.rounds) == (k, 0, 0)
    e_u, e_v = np.arange(300), np.arange(1, 301)  # a path: rounds run
    chosen, col = _extract_matching(e_u, e_v, 301, work)
    assert 1 < col.num_colors < 300 and col.point_steps >= col.rounds >= 1
    assert not np.any(chosen[1:] & chosen[:-1])


def test_extraction_without_conflicts_takes_every_edge():
    work = WorkCounter()
    chosen, col = _extract_matching(np.array([0, 2, 4]), np.array([1, 3, 5]), 6, work)
    assert chosen.tolist() == [True, True, True] and (col.num_colors, col.point_steps) == (1, 0)
    empty = np.empty(0, dtype=np.int64)
    chosen, col = _extract_matching(empty, empty, 3, work)
    assert len(chosen) == 0 and (col.num_colors, col.point_steps) == (0, 0)
    assert work.total == 0


def test_dense_matching_and_mis_work_stay_within_their_bounds():
    """On gnm(1 000, 100 000) a watcher's incident edges lie far apart in
    the edge numbering, so the matching's halvings sweep layouts of tens of
    thousands of classes. The matching reads 26.5 units per node and edge
    (952 when the halvings coloured an expanded cost graph instead) and is
    held to 29.3, four times the 7.32 the MIS read while its compactions
    charged every input slot. The MIS, whose compactions now charge only
    the kept nodes' slots, reads 3.63 and is held to 4.0."""
    g = gnm_graph(1000, 100_000, seed=1)
    units = {}
    for name, solve in [("matching", maximal_matching), ("mis", maximal_independent_set)]:
        work = WorkCounter()
        solve(g, ParamSet.desk(), work=work)
        units[name] = work.total / (g.n + g.m)
    assert units["matching"] <= 29.3, units
    assert units["mis"] <= 4.0, units


def test_sparse_matching_work_and_colouring_steps_stay_within_their_bounds():
    """On gnm(2 000, 16 000) the matching colours the conflicts of each
    sweep's selected edges, whose colourings' point steps set the depth
    of its sweeps. A step compares only edges that are both undecided, so
    the matching reads 10.78 units per node and edge and its colourings
    take 7 point steps in all. It is held to 12 and 10; a step that still
    compared decided edges read 15.16 and took 26."""
    g = gnm_graph(2000, 16_000, seed=36)
    work = WorkCounter()
    res = maximal_matching(g, ParamSet.desk(), work=work)
    assert work.total / (g.n + g.m) <= 12.0, work.snapshot()
    assert sum(it["point_steps"] for it in res.iterations) <= 10, res.iterations
