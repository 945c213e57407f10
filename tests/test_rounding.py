from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpar.coloring
import dpar.graph
import dpar.hitting
import dpar.rounding
from dpar.generate import gnm_graph
from dpar.graph import sort_edges_to_csr
from dpar.hitting import ParamSet, hitting_set
from dpar.rounding import (
    CliqueGroup,
    CutResult,
    RoundingInstance,
    _clique_span,
    evaluate_objective,
    local_round,
    max_cut_half,
)
from dpar.verify import check_cut_bound, check_hitting_window, cut_weight
from dpar.workcount import WorkCounter
from test_regime_driver import spread_hitting_instance


def make_instance(utils, costs, eps):
    if costs:
        ci, cj, cc = (np.array(x) for x in zip(*costs))
    else:
        ci = cj = np.empty(0, dtype=np.int64)
        cc = np.empty(0, dtype=np.float64)
    return RoundingInstance(
        utils=np.array(utils, dtype=np.float64), cost_i=ci, cost_j=cj, cost_c=cc, eps=eps
    )


def random_instance(rng, n=None, eps=0.25):
    n = n if n is not None else int(rng.integers(2, 50))
    utils = rng.normal(0.0, 2.0, size=n)
    m = int(rng.integers(0, 4 * n))
    costs = []
    for _ in range(m):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            costs.append((int(i), int(j), float(rng.random() * 3)))
    return make_instance(utils, costs, eps)


# --- frozen single-pair example --------------------------------------------

def test_zero_utils_single_unit_cost():
    inst = make_instance([0.0, 0.0], [(0, 1, 1.0)], eps=0.1)
    res = local_round(inst)
    assert res.bound == pytest.approx(-0.35)
    assert res.objective == 0.0
    assert int(res.in_set.sum()) == 1  # one node declines the half-cost, one joins free
    assert res.objective >= res.bound


def test_positive_utils_all_join_when_costless():
    inst = make_instance([1.0, 2.0, 3.0], [], eps=0.5)
    res = local_round(inst)
    assert res.in_set.all()
    assert res.objective == 6.0


def test_negative_utils_stay_out():
    inst = make_instance([-1.0, -0.5, 2.0], [], eps=0.25)
    res = local_round(inst)
    assert res.in_set.tolist() == [False, False, True]
    assert res.objective == 2.0


def test_scores_explain_membership():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, n=40, eps=0.1)
    res = local_round(inst)
    assert np.array_equal(res.in_set, res.scores >= 0.0)


def test_parallel_cost_terms_accumulate():
    inst = make_instance([5.0, 5.0], [(0, 1, 1.0)] * 3, eps=0.5)
    res = local_round(inst)
    # both join: 10 utility against 3 total cost
    assert res.in_set.all()
    assert res.objective == pytest.approx(7.0)
    assert evaluate_objective(inst, res.in_set) == pytest.approx(7.0)


@contextmanager
def calls_to(module, name):
    """Collect (args, result) of every call to module.<name> made inside
    the block."""
    calls = []
    real = getattr(module, name)

    def keep(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    setattr(module, name, keep)
    try:
        yield calls
    finally:
        setattr(module, name, real)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), eps_idx=st.integers(0, 2))
def test_split_parallel_terms_round_like_the_merged_instance(seed, eps_idx):
    # costs are multiples of 1/8 below 8, so halves and every sum are exact
    eps = [0.5, 0.25, 0.1][eps_idx]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    pairs = pairs[rng.random(len(pairs)) < rng.random()]
    pairs = pairs[rng.permutation(len(pairs))]
    ci, cj = pairs[:, 0], pairs[:, 1]
    cc = rng.integers(0, 64, size=len(pairs)) / 8.0
    utils = rng.normal(0.0, 2.0, size=n)
    whole = RoundingInstance(utils=utils, cost_i=ci, cost_j=cj, cost_c=cc, eps=eps)
    reversed_terms = RoundingInstance(utils=utils, cost_i=cj, cost_j=ci, cost_c=cc, eps=eps)
    order = rng.permutation(2 * len(pairs))
    split = RoundingInstance(
        utils=utils,
        cost_i=np.concatenate([ci, cj])[order],
        cost_j=np.concatenate([cj, ci])[order],
        cost_c=np.concatenate([cc, cc])[order] / 2.0,
        eps=eps,
    )
    a, b, c = (local_round(inst) for inst in (whole, split, reversed_terms))
    # one slot per term: split and reversed terms charge what their sums do
    for other in (b, c):
        assert np.array_equal(a.in_set, other.in_set)
        assert np.array_equal(a.scores, other.scores)
        assert a.bound == other.bound


def test_validation_errors():
    with pytest.raises(ValueError):
        make_instance([1.0, 1.0], [(0, 0, 1.0)], eps=0.5)
    with pytest.raises(ValueError):
        make_instance([1.0, 1.0], [(0, 1, -2.0)], eps=0.5)
    with pytest.raises(ValueError):
        make_instance([1.0, 1.0], [(0, 1, 1.0)], eps=0.0)
    with pytest.raises(ValueError):
        make_instance([1.0], [(0, 1, 1.0)], eps=0.5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), eps_idx=st.integers(0, 2))
def test_property_certificate_holds(seed, eps_idx):
    eps = [0.5, 0.25, 0.1][eps_idx]
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, eps=eps)
    work = WorkCounter()
    res = local_round(inst, work=work)
    cost_total = float(np.sum(inst.cost_c))
    assert res.objective >= res.bound
    assert res.bound == pytest.approx(0.5 * float(np.sum(inst.utils)) - (0.25 + eps) * cost_total)
    assert evaluate_objective(inst, res.in_set) == res.objective
    assert work.total > 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000), eps_idx=st.integers(0, 4), band=st.integers(1, 11)
)
def test_banded_costs_round_over_the_layout_classes(seed, eps_idx, band):
    # cliques on runs of at most band + 1 consecutive ids, as a halving lays
    # out its buckets: the bandwidth w is at most band, and the sweep takes
    # the min(n, w + 1) layout classes
    eps = [1.0, 0.5, 0.25, 0.1, 0.03][eps_idx]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    ci, cj = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for start in rng.integers(0, n, size=int(rng.integers(0, n // 2 + 2))):
        ids = np.arange(start, min(start + int(rng.integers(2, band + 2)), n))
        iu, ju = np.triu_indices(len(ids), k=1)
        ci.append(ids[iu])
        cj.append(ids[ju])
    ci, cj = np.concatenate(ci), np.concatenate(cj)
    cc = rng.random(len(ci)) * 3.0
    utils = rng.normal(0.0, 2.0, size=n)
    inst = RoundingInstance(utils=utils, cost_i=ci, cost_j=cj, cost_c=cc, eps=eps)
    w = int(np.abs(ci - cj).max()) if len(ci) else 0
    res = local_round(inst)
    assert res.num_classes == min(n, w + 1)
    assert res.bound == pytest.approx(0.5 * utils.sum() - (0.25 + eps) * cc.sum())
    assert res.objective == evaluate_objective(inst, res.in_set) >= res.bound


def layout_classes(inst: RoundingInstance) -> int:
    """min(n, w + 1), at least 1, for w the largest id distance of an
    explicit term or within a bucket, by plain loops."""
    w = max((abs(i - j) for i, j in zip(inst.cost_i.tolist(), inst.cost_j.tolist())), default=0)
    for group in inst.cliques:
        for lo in range(0, len(group.members), group.b):
            row = group.members[lo : lo + group.b].tolist()
            w = max(w, max(row) - min(row))
    return max(min(inst.n, w + 1), 1)


def forbid_cost_graphs(monkeypatch):
    """Make defective phase 1 and both graph builders raise, so that a
    rounding which colours or builds a cost graph fails."""

    def refuse(*args, **kwargs):
        raise AssertionError("a cost graph was built or coloured")

    monkeypatch.setattr(dpar.coloring, "_defective_phase1", refuse)
    for module, name in [
        (dpar.graph, "graph_from_directed_slots"),
        (dpar.rounding, "graph_from_directed_slots"),
    ]:
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("b", [1, 2, 45])
def test_clique_counts_are_integer_row_sums(b):
    rng = np.random.default_rng(b)
    nb = 300
    members = np.concatenate([rng.choice(5000, size=b, replace=False) for _ in range(nb)])
    in_set = rng.random(5000) < 0.5
    counts = CliqueGroup(members, np.ones(nb), b).counts(in_set)
    assert counts.dtype == np.int64
    assert counts.tolist() == [int(in_set[row].sum()) for row in members.reshape(-1, b)]
    empty = CliqueGroup(np.empty(0, dtype=np.int64), np.empty(0), b).counts(in_set)
    assert empty.dtype == np.int64 and len(empty) == 0


@pytest.mark.parametrize("b", [1, 2, 45])
def test_clique_span_is_the_largest_row_spread(b):
    rng = np.random.default_rng(b)
    nb = 300
    members = np.concatenate([rng.choice(5000, size=b, replace=False) for _ in range(nb)])
    rows = members.reshape(-1, b)
    group = CliqueGroup(members, np.ones(nb), b)
    assert _clique_span(group) == int((rows.max(axis=1) - rows.min(axis=1)).max())
    assert _clique_span(CliqueGroup(np.empty(0, dtype=np.int64), np.empty(0), b)) == 0


def test_local_round_charges_each_input_entry_twice():
    """The set-up and the sweep each charge every node, explicit term and
    bucket membership once."""
    rng = np.random.default_rng(5)
    n, b, nb = 200, 4, 30
    members = np.concatenate([rng.choice(n, size=b, replace=False) for _ in range(nb)])
    group = CliqueGroup(members, rng.random(nb), b)
    inst = random_instance(rng, n=n)
    inst = RoundingInstance(
        inst.utils, inst.cost_i, inst.cost_j, inst.cost_c, eps=0.25, cliques=[group]
    )
    assert len(inst.cost_c) > 0
    work = WorkCounter()
    local_round(inst, work=work)
    assert work.snapshot() == {"local_round": 2 * (n + len(inst.cost_c) + b * nb)}


def test_spread_instances_sweep_their_layout_classes(monkeypatch):
    """Three instances whose costs spread over thousands of ids, more
    layout classes than defective phase 1's field holds. Each is rounded
    over its min(n, w + 1) layout classes, with no cost graph and no
    clique expanded, and certifies."""
    # buckets of 12 members spread over 3 000 ids
    rng = np.random.default_rng(11)
    n, b, nb, eps = 3000, 12, 400, 0.25
    members = np.concatenate([rng.choice(n, size=b, replace=False) for _ in range(nb)])
    group = CliqueGroup(members, rng.random(nb) + 0.1, b)
    utils = rng.normal(0.0, 1.0, size=n)
    np.add.at(utils, members, np.repeat(group.coefs * (b - 1), b))
    e = np.empty(0, dtype=np.int64)
    inst = RoundingInstance(utils, cost_i=e, cost_j=e, cost_c=np.empty(0), eps=eps, cliques=[group])
    hset = spread_hitting_instance()
    cut_graph = gnm_graph(2000, 8000, seed=10)
    forbid_cost_graphs(monkeypatch)

    res = local_round(inst)
    assert res.num_classes == layout_classes(inst) > 2900
    cost_total = float(np.sum(group.coefs)) * b * (b - 1)
    assert res.bound == pytest.approx(0.5 * utils.sum() - (0.25 + eps) * cost_total)
    assert res.objective == evaluate_objective(inst, res.in_set) >= res.bound

    # the hitting_spread pin: its first two halvings, of 12 000 and 9 736
    # candidates, sweep 7 329 and 9 636 layout classes
    with calls_to(dpar.hitting, "local_round") as halvings:
        hit = hitting_set(hset, ParamSet.desk(), floor=4)
    classes = [half.num_classes for _, half in halvings]
    assert classes == [layout_classes(half_inst) for (half_inst,), _ in halvings]
    assert classes[:2] == [7329, 9636]
    assert check_hitting_window(
        hset.imp, hset.levels, hset.edge_u, hset.edge_v, hit.selected, floor=4
    )[0]

    cut = max_cut_half(cut_graph, eps=0.25)
    w = int(np.abs(cut_graph.slot_owners() - cut_graph.nbrs).max())
    assert cut.num_classes == min(cut_graph.n, w + 1) == 1974
    assert cut.sweep_steps >= 1
    assert check_cut_bound(cut_graph, cut.side, 0.25)[0]


def test_monte_carlo_expectation_reference():
    # the certificate bound sits eps*cost below the sampling mean; a random
    # subset experiment should agree with the closed form within noise
    rng = np.random.default_rng(5)
    inst = random_instance(rng, n=30, eps=0.25)
    samples = 4000
    vals = np.empty(samples)
    for s in range(samples):
        in_set = rng.random(inst.n) < 0.5
        vals[s] = evaluate_objective(inst, in_set)
    mean = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(samples)
    closed = 0.5 * float(np.sum(inst.utils)) - 0.25 * float(np.sum(inst.cost_c))
    assert abs(mean - closed) <= 4 * se
    res = local_round(inst)
    assert res.objective >= closed - inst.eps * float(np.sum(inst.cost_c))


# --- max cut ----------------------------------------------------------------

def test_k4_cut_at_least_three():
    edges = np.array([[i, j] for i in range(4) for j in range(i + 1, 4)])
    g = sort_edges_to_csr(edges, 4)
    res = max_cut_half(g, eps=0.1)
    assert res.bound == pytest.approx(2.4)
    assert res.cut_weight >= 3.0


def test_single_edge_is_cut():
    g = sort_edges_to_csr(np.array([[0, 1]]), 2)
    res = max_cut_half(g, eps=0.25)
    assert res.cut_weight == 1.0


def test_cut_matches_sides():
    rng = np.random.default_rng(9)
    edges = []
    n = 60
    while len(edges) < 200:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    w = rng.random(len(edges))
    g = sort_edges_to_csr(np.array(edges), n, weights=w)
    res = max_cut_half(g, eps=0.1)
    owners = g.slot_owners()
    recomputed = float(np.sum(g.weights[res.side[owners] != res.side[g.nbrs]])) / 2.0
    assert recomputed == pytest.approx(res.cut_weight)
    assert res.cut_weight >= (0.5 - 0.1) * g.edge_weight_total()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), weighted=st.booleans(), eps_idx=st.integers(0, 3))
def test_max_cut_instance_objective_is_the_cut_weight(seed, weighted, eps_idx):
    eps = [1.0, 0.5, 0.25, 0.1][eps_idx]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    m = int(rng.integers(1, 3 * n))
    u, v = rng.integers(0, n, size=(2, m))
    keep = u != v
    # some zero weights; others unequal, so a weight-blind degree shows
    w = (rng.random(m) * (rng.random(m) >= 0.2))[keep] if weighted else None
    g = sort_edges_to_csr(np.stack([u, v], axis=1)[keep], n, weights=w)
    with calls_to(dpar.rounding, "local_round") as calls:
        res = max_cut_half(g, eps=eps)
    ((args, _),) = calls
    inst = args[0]
    assert inst.eps == eps / 2.0
    # with every node in S nothing is cut: the costs must cancel the degrees
    sides = [res.side, np.ones(n, dtype=bool)] + [rng.random(n) < 0.5 for _ in range(4)]
    for side in sides:
        cut, total = cut_weight(g, side)
        assert evaluate_objective(inst, side) == pytest.approx(cut, rel=1e-9, abs=1e-9 * total)


@pytest.mark.parametrize("eps", [0.0, 1.5])
def test_max_cut_rejects_eps_outside_the_unit_interval(eps):
    g = sort_edges_to_csr(np.array([[0, 1]]), 2)
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
        max_cut_half(g, eps=eps)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), eps_idx=st.integers(0, 3))
def test_property_cut_bound(seed, eps_idx):
    eps = [1.0, 0.5, 0.25, 0.1][eps_idx]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    edges = []
    m = int(rng.integers(1, 3 * n))
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    w = rng.random(len(edges)) + 0.01
    g = sort_edges_to_csr(np.array(edges), n, weights=w)
    res = max_cut_half(g, eps=eps)
    assert res.cut_weight >= res.bound
