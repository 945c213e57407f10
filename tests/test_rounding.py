from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpar.rounding
from dpar.graph import sort_edges_to_csr
from dpar.rounding import (
    CutResult,
    RoundingInstance,
    evaluate_objective,
    local_round,
    max_cut_half,
)
from dpar.workcount import WorkCounter


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
    assert res.lost_cost == 0.0


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
def cost_graphs():
    """Collect the cost graphs local_round builds inside the block."""
    built = []
    build = dpar.rounding.graph_from_directed_slots

    def keep(*args):
        built.append(build(*args))
        return built[-1]

    dpar.rounding.graph_from_directed_slots = keep
    try:
        yield built
    finally:
        dpar.rounding.graph_from_directed_slots = build


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
    order = rng.permutation(2 * len(pairs))
    split = RoundingInstance(
        utils=utils,
        cost_i=np.concatenate([ci, cj])[order],
        cost_j=np.concatenate([cj, ci])[order],
        cost_c=np.concatenate([cc, cc])[order] / 2.0,
        eps=eps,
    )
    a = local_round(whole)
    with cost_graphs() as built:
        b = local_round(split)
    assert np.array_equal(a.in_set, b.in_set)
    assert np.array_equal(a.scores, b.scores)
    assert a.bound == b.bound
    assert a.cost_pairs == b.cost_pairs == len(pairs)
    (g,) = built
    codes = g.slot_owners() * n + g.nbrs
    assert len(np.unique(codes)) == len(codes)


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
    assert res.lost_cost <= eps * cost_total + 1e-12 * max(cost_total, 1.0)
    assert evaluate_objective(inst, res.in_set) == res.objective
    assert work.total > 0


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
