import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpar.coloring
from dpar.coloring import (
    EdgeCliques,
    _CliqueRule,
    _compact_colors,
    _defective_phase1,
    _phase1_iterations,
    _point_round,
    _poly_coeffs,
    _SlotRule,
    _smallest_admissible,
    bandwidth,
    color_delta_squared,
    defective_coloring,
    greedy_classes,
    layout_start,
    tables_limit_for,
)
from dpar.generate import gnm_graph
from dpar.graph import Graph, sort_edges_to_csr
from dpar.ntheory import precompute_tables, prime_in_range
from dpar.sorting import radix_passes
from dpar.verify import check_maximal_independent, check_maximal_matching
from dpar.workcount import WorkCounter
from test_matching import line_graph


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


def test_smallest_admissible_raises_on_a_full_domain():
    """A group whose whole domain is taken by inadmissible items has no
    answer, as defective phase 2 would have none."""
    groups, items = np.zeros(2, dtype=np.int64), np.arange(2, dtype=np.int64)
    with pytest.raises(RuntimeError, match="no admissible point"):
        _smallest_admissible(groups, items, np.zeros(2, dtype=bool), np.full(1, 2, dtype=np.int64))


# --- single recoloring round ---------------------------------------------

def test_single_edge_round_uses_field_of_three():
    g = sort_edges_to_csr(np.array([[0, 1]]), 2)
    tables = precompute_tables(16)
    assert prime_in_range(tables, 3) == 3
    domain = np.full(2, 3, dtype=np.int64)
    rule = _SlotRule(2, g.slot_owners(), g.nbrs)
    new_colors, steps = _point_round(rule, np.array([0, 1], dtype=np.int64), 2, 3, domain, None)
    colors, used = _compact_colors(new_colors)
    assert used <= 9 and steps >= 1
    assert is_proper(g, colors)


def slot_round_inputs(seed, n, avg_deg, palette_mult, mode):
    """A slot round as color_delta_squared ("symmetric", or "oriented" on
    a random half of the slots) or defective phase 1 ("weighted") would run
    it on a random graph of distinct colors: (colors, k, p, src, dst,
    weights, domain, budget)."""
    rng = np.random.default_rng(seed)
    ends = rng.integers(0, n, size=(max(1, int(avg_deg * n / 2)), 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    # zero weights exercise the "zero hit weight is harmless" rule
    w = rng.random(len(ends)) * (rng.random(len(ends)) < 0.8)
    g = sort_edges_to_csr(ends, n, weights=w if mode == "weighted" else None)
    k = n * palette_mult
    colors = rng.choice(k, size=n, replace=False).astype(np.int64)
    src, dst = g.slot_owners(), g.nbrs
    weights = budget = None
    if mode == "oriented":
        keep = rng.random(len(src)) < 0.5
        src, dst = src[keep], dst[keep]
    cdeg = np.bincount(src, minlength=n)
    if mode == "weighted":
        eps1 = [1.0, 0.5, 0.25, 0.05][seed % 4]
        weights = g.weights
        kprime = max(math.ceil(k ** (1.0 / 3.0)), 3 * math.ceil(1.0 / eps1), 3)
        strict = cdeg <= math.floor(1.0 / eps1)
        # strict nodes have budget 0: only zero hit weight will do
        budget = np.where(strict, 0.0, eps1 * np.bincount(src, weights=weights, minlength=n))
    else:
        kprime = max(math.ceil(k ** (1.0 / 3.0)), 3 * int(cdeg.max()), 3)
    p = prime_in_range(precompute_tables(2 * kprime + 2), kprime)
    if mode == "weighted":
        domain = np.where(strict, np.minimum(3 * cdeg + 1, p), min(3 * math.ceil(1.0 / eps1), p))
    else:
        domain = np.minimum(np.maximum(3 * cdeg, 1), p)
    return colors, k, p, src, dst, weights, domain.astype(np.int64), budget


def point_scan_round(n, colors, p, src, dst, weights, domain, budget):
    """The slot rule by plain Python, step by step: at step x every node
    still undecided, with x below its domain, sums the weight of its slots
    whose head is also undecided and has its value at x, in slot order,
    and takes x when that sum is 0 or below its budget (each slot weighs 1
    without weights; no budget admits 0 only). A head that decided at an
    earlier step holds another first coordinate, so it is not compared.
    Returns (new colors, steps, units): a step reads the undecided nodes
    and the slots whose two ends are both undecided."""
    a, b, c = (d.tolist() for d in _poly_coeffs(colors, p))

    def f(v, x):
        return (a[v] * x * x + b[v] * x + c[v]) % p

    slots = [[] for _ in range(n)]
    for i, s in enumerate(src.tolist()):
        slots[s].append(i)
    heads = dst.tolist()
    x_star = [-1] * n
    x = units = 0
    while -1 in x_star:
        if x >= int(domain.max()):
            raise AssertionError("no admissible point")
        pending = [v for v in range(n) if x_star[v] < 0]
        units += len(pending) + sum(x_star[heads[i]] < 0 for v in pending for i in slots[v])
        took = []  # the nodes of one step decide together
        for v in pending:
            score = 0
            for i in slots[v]:
                if x_star[heads[i]] < 0 and f(heads[i], x) == f(v, x):
                    score += 1 if weights is None else weights[i]
            if x < domain[v] and (score <= 0 or (budget is not None and score < budget[v])):
                took.append(v)
        for v in took:
            x_star[v] = x
        x += 1
    new = [x * p + f(v, x) for v, x in enumerate(x_star)]
    return np.array(new, dtype=np.int64), x, units


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    avg_deg=st.floats(0.5, 12.0),
    palette_mult=st.integers(1, 60),
    mode=st.sampled_from(["symmetric", "oriented", "weighted"]),
)
def test_slot_rule_matches_the_per_node_point_scan(seed, n, avg_deg, palette_mult, mode):
    """A round of point steps under the slot rule gives the colours of a
    step-by-step point scan that compares only pairs undecided at x, byte
    for byte, and charges each step's undecided nodes and the slots
    between them: proper rounds over both directions of every edge or over
    a random subset of the slots, and weighted phase-1 rounds of
    defective_coloring."""
    colors, k, p, src, dst, weights, domain, budget = slot_round_inputs(
        seed, n, avg_deg, palette_mult, mode
    )
    work = WorkCounter()
    got, steps = _point_round(_SlotRule(n, src, dst, weights, budget), colors, k, p, domain, work)
    want, want_steps, units = point_scan_round(n, colors, p, src, dst, weights, domain, budget)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert steps == want_steps and work.snapshot() == {"recolor_slots": units}


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
    weights = budget = None
    if mode == "weighted":
        weights = g.weights
        strict = cdeg <= 4
        budget = np.where(strict, 0.0, 0.25 * np.bincount(src, weights=weights, minlength=n))
        domain = np.where(strict, np.minimum(3 * cdeg + 1, p), min(12, p))
    else:
        domain = np.minimum(np.maximum(3 * cdeg, 1), p)
    rule = _SlotRule(n, src, dst, weights, budget)
    got, steps = _point_round(rule, colors, k, p, domain.astype(np.int64), None)
    assert got.tobytes() == colors.tobytes() and steps == (1 if n else 0)


def phase1_every_round(g: Graph, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(colors, alive) of defective_coloring's phase 1 with no round skipped:
    from the layout start, id mod (w + 1) for the largest id distance w of
    an edge, up to _phase1_iterations rounds, stopping after the first
    that does not shrink the palette."""
    n = g.n
    iters = _phase1_iterations(n)
    eps1 = eps / (2.0 * iters)
    spread = 3 * math.ceil(1.0 / eps1)
    owners = g.slot_owners()
    tables = precompute_tables(tables_limit_for(n, 0, math.ceil(1.0 / eps1)))
    alive = np.ones(len(g.nbrs), dtype=bool)
    w = max((abs(u - v) for u, v in zip(owners.tolist(), g.nbrs.tolist())), default=0)
    colors = np.array([v % (w + 1) for v in range(n)], dtype=np.int64)
    k = max(min(n, w + 1), 1)
    for _ in range(iters):
        src, dst, w = owners[alive], g.nbrs[alive], g.weights[alive]
        deg = np.bincount(src, minlength=n)
        kprime = max(math.ceil(k ** (1.0 / 3.0)), spread, 3)
        p = prime_in_range(tables, kprime)
        low = deg <= math.floor(1.0 / eps1)
        domain = np.maximum(np.where(low, np.minimum(3 * deg + 1, p), min(spread, p)), 1)
        budget = np.where(low, 0.0, eps1 * np.bincount(src, weights=w, minlength=n))
        rule = _SlotRule(n, src, dst, w, budget)
        new, _ = _point_round(rule, colors, k, p, domain.astype(np.int64), None)
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
    palette, and sieves no primes when its start already fits the field;
    it must end where running that round would."""
    rng = np.random.default_rng(seed)
    ends = rng.integers(0, n, size=(int(avg_deg * n / 2), 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    g = sort_edges_to_csr(ends, n, weights=rng.random(len(ends)))
    colors, k, alive, rounds, steps = _defective_phase1(g, eps, g.slot_owners(), g.weights, None)
    want_colors, want_alive = phase1_every_round(g, eps)
    assert colors.tobytes() == want_colors.tobytes()
    assert np.array_equal(alive, want_alive)
    assert k == (int(colors.max()) + 1 if n else 1)
    assert 0 <= rounds <= _phase1_iterations(n)
    assert steps >= rounds  # each round takes at least one point step


def bucket_clique_graph(rng, n: int, size: int, buckets: int, keep: float, permute: bool) -> Graph:
    """Cliques on runs of up to `size` consecutive ids at random starts, as a
    halving lays out its bucket potentials, each pair kept with probability
    keep, with the node ids shuffled when permute is set."""
    iu, ju = np.triu_indices(size, k=1)
    starts = rng.integers(0, n, size=buckets)
    ends = np.stack([(starts[:, None] + iu).ravel(), (starts[:, None] + ju).ravel()], axis=1)
    ends = ends[(ends[:, 1] < n) & (rng.random(len(ends)) < keep)]
    if permute:
        ends = rng.permutation(n)[ends]
    return sort_edges_to_csr(ends, n, weights=rng.random(len(ends)) + 0.1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 600),
    size=st.integers(2, 60),
    buckets=st.integers(0, 40),
    keep=st.floats(0.1, 1.0),
    permute=st.booleans(),
    eps=st.sampled_from([1.0, 0.25, 0.1, 0.03, 0.0057]),
)
def test_layout_start_is_proper_on_bucket_cliques(seed, n, size, buckets, keep, permute, eps):
    """id mod (w + 1), w the largest id distance of an edge, is a proper
    coloring on min(n, w + 1) colors, and a defective coloring that runs no
    phase-1 round sweeps at most w + 1 steps. The same layout with modulus
    w has a monochromatic edge, so the check can fail."""
    rng = np.random.default_rng(seed)
    g = bucket_clique_graph(rng, n, size, buckets, keep, permute)
    owners = g.slot_owners()
    w = max((abs(u - v) for u, v in zip(owners.tolist(), g.nbrs.tolist())), default=0)
    assert bandwidth(owners, g.nbrs) == w
    colors, k = layout_start(n, w)
    assert k == max(min(n, w + 1), 1)
    assert sorted(set(colors.tolist())) == list(range(k))
    assert is_proper(g, colors)
    if w >= 1:
        assert not is_proper(g, np.arange(n) % w)
    col = defective_coloring(g, eps)
    if col.phase1_rounds == 0:
        assert col.steps <= w + 1
    assert mono_weight_of(g, col.colors) <= eps * g.edge_weight_total() + 1e-9


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


def test_degree_bound_field_runs_one_round(monkeypatch):
    """A line graph with ceil(n^(1/3)) <= 3*Delta has its field set by the
    degree from the first round on, so color_delta_squared stops after the
    first round that shrinks the palette."""
    rng = np.random.default_rng(11)
    base = random_graph(rng, 200, 600)
    owners = base.slot_owners()
    fwd = owners < base.nbrs
    g = line_graph(owners[fwd], base.nbrs[fwd], base.n)
    delta = int(g.degrees().max())
    assert math.ceil(g.n ** (1.0 / 3.0)) <= 3 * delta
    rounds = []
    real = dpar.coloring._point_round

    def counted(*args):
        out = real(*args)
        rounds.append(out[1])
        return out

    monkeypatch.setattr(dpar.coloring, "_point_round", counted)
    col = color_delta_squared(g)
    assert len(rounds) == 1 and col.point_steps == rounds[0] >= 1
    assert is_proper(g, col.colors)
    assert col.num_colors < g.n
    p = prime_in_range(precompute_tables(tables_limit_for(g.n, delta)), 3 * delta)
    assert col.num_colors <= p * min(3 * delta, p)


# --- endpoint cliques ------------------------------------------------------

def edge_set(rng, shape, size):
    """(e_u, e_v, n): distinct edges of a simple graph of the given shape,
    on randomly relabelled nodes, in random order, either endpoint first."""
    if shape == "random":
        n = size
        iu, ju = np.triu_indices(n, k=1)
        pick = rng.permutation(len(iu))[: rng.integers(1, len(iu) + 1)]
        e_u, e_v = iu[pick], ju[pick]
    elif shape == "star":
        n = size + 1
        e_u, e_v = np.zeros(size, dtype=np.int64), np.arange(1, n)
    elif shape == "complete":
        n = size
        e_u, e_v = np.triu_indices(n, k=1)
    else:  # path or cycle
        n = size
        e_u, e_v = np.arange(n - 1), np.arange(1, n)
        if shape == "cycle":
            e_u, e_v = np.append(e_u, n - 1), np.append(e_v, 0)
    label = rng.permutation(n)
    order = rng.permutation(len(e_u))
    e_u, e_v = label[e_u[order]], label[e_v[order]]
    flip = rng.random(len(e_u)) < 0.5
    return np.where(flip, e_v, e_u), np.where(flip, e_u, e_v), n


def naive_clique_round(e_u, e_v, colors, p, domain):
    """Point steps by Python loops: (new colors, steps, memberships
    tallied). Step x tallies (endpoint, value at x) over the memberships
    of the edges still undecided, and each of them whose value is alone
    at both its endpoints, with x below its domain, takes x. An edge that
    decided at an earlier step holds another first coordinate, so its
    memberships are not tallied."""
    a, b, c = (d.tolist() for d in _poly_coeffs(colors, p))
    m = len(colors)
    x_star = [-1] * m
    x = tallied = 0
    while -1 in x_star:
        assert x < domain.max()
        pending = [i for i in range(m) if x_star[i] < 0]
        vals = {i: (a[i] * x * x + b[i] * x + c[i]) % p for i in pending}
        tally = Counter((int(e[i]), vals[i]) for i in pending for e in (e_u, e_v))
        tallied += sum(tally.values())
        for i in pending:
            alone = tally[(int(e_u[i]), vals[i])] == tally[(int(e_v[i]), vals[i])] == 1
            if x < domain[i] and alone:
                x_star[i] = x
        x += 1
    new = [xi * p + (a[i] * xi * xi + b[i] * xi + c[i]) % p for i, xi in enumerate(x_star)]
    return np.array(new, dtype=np.int64), x, tallied


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    palette_mult=st.integers(1, 60),
    crowded=st.booleans(),
)
def test_clique_rule_matches_the_slot_rule_on_the_line_graph(seed, n, palette_mult, crowded):
    """A round under the clique rule picks, for every node and domain with a
    free point, the point that the slot rule picks on the line graph, in
    as many steps; its charges are the memberships tallied at each step,
    radix-sorted below n * p. Crowded colors are mostly multiples of p,
    whose polynomials are all 0 at x = 0, so most nodes clash there and
    the later steps run with most, but not all, nodes undecided."""
    rng = np.random.default_rng(seed)
    e_u, e_v, n = edge_set(rng, "random", n)
    lg = line_graph(e_u, e_v, n)
    m, cdeg = lg.n, lg.degrees()
    delta = int(cdeg.max())
    if crowded:  # k = p * m * palette_mult <= p^3 colors, 70 % of them multiples of p
        kprime = max(math.isqrt(m * palette_mult) + 1, 3 * delta, 3)
        p = prime_in_range(precompute_tables(2 * kprime + 2), kprime)
        k = p * m * palette_mult
        colors = p * rng.choice(m * palette_mult, size=m, replace=False).astype(np.int64)
        colors += np.where(rng.random(m) < 0.7, 0, rng.integers(1, p, size=m))
    else:
        k = m * palette_mult
        colors = rng.choice(k, size=m, replace=False).astype(np.int64)  # proper: all distinct
        tables = precompute_tables(tables_limit_for(k, delta))
        kprime = max(math.ceil(k ** (1.0 / 3.0)), 3 * delta, 3)
        p = prime_in_range(tables, kprime)
    # each neighbour rules out at most 2 points, so 2 * cdeg + 1 leaves one free
    domain = rng.integers(np.minimum(2 * cdeg + 1, p), p + 1)
    want, want_steps = _point_round(_SlotRule(m, lg.slot_owners(), lg.nbrs), colors, k, p, domain, None)
    work = WorkCounter()
    got, steps = _point_round(_CliqueRule(EdgeCliques(e_u, e_v, n)), colors, k, p, domain, work)
    assert np.array_equal(got, want) and steps == want_steps
    ref, ref_steps, tallied = naive_clique_round(e_u, e_v, colors, p, domain)
    assert np.array_equal(got, ref) and steps == ref_steps
    sorted_units = radix_passes(n * p) * tallied
    assert work.snapshot() == {"recolor_slots": tallied, "word_sort": sorted_units}


def both_rules(e_u, e_v, n):
    """The clique rule of the edges (e_u, e_v) and the slot rule of their line graph."""
    lg = line_graph(e_u, e_v, n)
    return _CliqueRule(EdgeCliques(e_u, e_v, n)), _SlotRule(lg.n, lg.slot_owners(), lg.nbrs)


def test_clique_round_raises_past_the_largest_domain():
    """Three edges at node 0 with colors 0, p, 2p have the value 0 at x = 0
    and distinct values at x = 1; with domain 1 no edge has a free point, so
    a round under either rule raises instead of reaching past the domain."""
    e_u, e_v = np.zeros(3, dtype=np.int64), np.arange(1, 4)
    p = prime_in_range(precompute_tables(64), 3)
    colors = np.array([0, p, 2 * p], dtype=np.int64)
    for rule in both_rules(e_u, e_v, 4):
        for domain in (np.ones(3, dtype=np.int64), np.array([1, 1, 2])):
            with pytest.raises(RuntimeError, match="no admissible point"):
                _point_round(rule, colors, 3 * p, p, domain, None)
        got, steps = _point_round(rule, colors, 3 * p, p, np.full(3, 2), None)
        assert got.tolist() == [p, p + 1, p + 2] and steps == 2


def test_both_round_kernels_check_their_field():
    """A round whose prime p reaches past exact int64 products, or whose
    palette of k > p^3 colors does not fit degree-2 polynomials over F_p,
    raises before it recolours, under either rule."""
    colors, domain = np.array([0, 1], dtype=np.int64), np.full(2, 3, dtype=np.int64)
    big_prime = dpar.coloring.MAX_FIELD + 9  # 2^23 + 9
    for rule in both_rules(np.zeros(2, dtype=np.int64), np.arange(1, 3), 3):
        for k, p, error, message in [
            (2, big_prime, ValueError, "exceeds exact-arithmetic range"),
            (28, 3, RuntimeError, "palette does not fit the field"),
        ]:
            with pytest.raises(error, match=message):
                _point_round(rule, colors, k, p, domain, None)


def test_a_decided_neighbour_does_not_block_a_later_point():
    """Line-graph nodes 0 - 1 - 2 (the edges of the path 0-1-2-3) with the
    polynomials 1, x and 0 over F_3. At x = 0 node 0 is alone and takes 0;
    nodes 1 and 2 agree and wait. At x = 1 node 1 agrees with node 0, but
    node 0 holds the first coordinate 0, so node 1 takes 1, as node 2
    does, and the round is proper in two steps. A rule that still compared
    node 1 with node 0 would move it on to x = 2. Under both rules."""
    p = 3
    colors = np.array([1, p, 0], dtype=np.int64)  # base-p digits (b, c): (0, 1), (1, 0), (0, 0)
    for rule in both_rules(np.arange(3), np.arange(1, 4), 4):
        new, steps = _point_round(rule, colors, 4, p, np.full(3, p, dtype=np.int64), None)
        assert new.tolist() == [0 * p + 1, 1 * p + 1, 1 * p + 0] and steps == 2
        assert not rule.monochromatic(*_compact_colors(new))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    avg_deg=st.floats(0.5, 12.0),
    palette_mult=st.integers(1, 60),
    mode=st.sampled_from(["symmetric", "oriented", "weighted", "cliques"]),
)
def test_rounds_that_skip_decided_pairs_stay_sound(seed, n, avg_deg, palette_mult, mode):
    """A round compares only pairs undecided at x, and still each node
    takes a point x <= 2 * cdeg, since each undecided neighbour rules out
    at most 2 points. In the proper modes and on endpoint cliques no
    conflict comes out monochromatic. In weighted mode each node's
    monochromatic slots weigh 0 or less than its budget: a slot goes
    monochromatic only when both its ends take the same x, so both were
    undecided there and the slot counted in the owner's score."""
    if mode == "cliques":
        rng = np.random.default_rng(seed)
        e_u, e_v, ends = edge_set(rng, "random", 2 + n % 29)
        rule = _CliqueRule(EdgeCliques(e_u, e_v, ends))
        k = rule.n * palette_mult
        colors = rng.choice(k, size=rule.n, replace=False).astype(np.int64)
        kprime = max(math.ceil(k ** (1.0 / 3.0)), 3 * int(rule.cdeg.max()), 3)
        p = prime_in_range(precompute_tables(2 * kprime + 2), kprime)
        domain = np.minimum(np.maximum(3 * rule.cdeg, 1), p)
    else:
        colors, k, p, src, dst, weights, domain, budget = slot_round_inputs(
            seed, n, avg_deg, palette_mult, mode
        )
        rule = _SlotRule(n, src, dst, weights, budget)
    new, _ = _point_round(rule, colors, k, p, domain, None)
    assert np.all(new // p <= 2 * rule.cdeg)
    if mode != "weighted":
        assert not rule.monochromatic(*_compact_colors(new))
        return
    lost = new[src] == new[dst]
    lost_w = np.bincount(src[lost], weights=weights[lost], minlength=n)
    assert np.all((lost_w <= 0) | (lost_w < budget))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["random", "star", "complete", "path", "cycle"]),
    size=st.integers(1, 400),
)
def test_clique_colouring_matches_the_line_graph_colouring(seed, shape, size):
    """color_delta_squared on endpoint cliques gives, byte for byte, the
    colors and palette of color_delta_squared on their line graph: random
    simple graphs, stars, complete graphs, and paths and cycles of up to
    20 000 edges, whose first field is set by the palette."""
    sizes = {"random": 2 + size % 39, "star": size, "complete": 2 + size % 29}
    size = sizes.get(shape, 3 + 50 * size)  # paths and cycles
    e_u, e_v, n = edge_set(np.random.default_rng(seed), shape, size)
    want = color_delta_squared(line_graph(e_u, e_v, n))
    got = color_delta_squared(EdgeCliques(e_u, e_v, n))
    assert got.colors.dtype == want.colors.dtype
    assert got.colors.tobytes() == want.colors.tobytes()
    assert got.num_colors == want.num_colors


@pytest.mark.parametrize("shape", ["path", "cycle"])
def test_long_paths_and_cycles_run_two_clique_rounds(monkeypatch, shape):
    """On 20 000 edges of conflict degree <= 2 the first field is set by the
    palette (ceil(k^(1/3)) > 3 * delta), so a second round runs, and the
    colors still equal those of the line graph."""
    e_u, e_v, n = edge_set(np.random.default_rng(5), shape, 20_000)
    rounds = []
    real = dpar.coloring._point_round

    def counted(*args):
        new, steps = real(*args)
        rounds.append(steps)
        return new, steps

    monkeypatch.setattr(dpar.coloring, "_point_round", counted)
    assert math.ceil(len(e_u) ** (1.0 / 3.0)) > 3 * 2
    got = color_delta_squared(EdgeCliques(e_u, e_v, n))
    assert len(rounds) == 2 and got.point_steps == sum(rounds)
    want = color_delta_squared(line_graph(e_u, e_v, n))
    assert got.colors.tobytes() == want.colors.tobytes() and got.num_colors == want.num_colors


def test_clique_colouring_rejects_a_repeated_colour_at_an_endpoint(monkeypatch):
    """A round that gives edges 0 = (0, 1) and 1 = (1, 2) of a path one
    color is caught by the per-round check on every clique."""
    real = dpar.coloring._point_round

    def corrupted(*args):
        new, steps = real(*args)
        new[1] = new[0]
        return new, steps

    monkeypatch.setattr(dpar.coloring, "_point_round", corrupted)
    with pytest.raises(RuntimeError, match="monochromatic"):
        color_delta_squared(EdgeCliques(np.arange(500), np.arange(1, 501), 501))


def test_endpoint_cliques_take_no_orientation():
    cl = EdgeCliques(np.array([0]), np.array([1]), 2)
    with pytest.raises(ValueError, match="orientation"):
        color_delta_squared(cl, orientation=np.ones(2, dtype=bool))


@pytest.mark.parametrize("length", [0, 3, 399, 401])
def test_orientation_needs_one_entry_per_slot(length):
    """An orientation of another length than the graph's slots is rejected
    by name, not with an IndexError from the mask."""
    g = gnm_graph(100, 200, seed=3)
    assert len(g.nbrs) == 400
    with pytest.raises(ValueError, match="orientation"):
        color_delta_squared(g, orientation=np.ones(length, dtype=bool))


# --- greedy class sweep ----------------------------------------------------

def greedy_reference(partners, colors):
    """Items in (class, id) order, each taken when none of its conflict
    partners (partners[i]) was taken: the sweep by a plain Python loop."""
    taken = [False] * len(colors)
    for i in sorted(range(len(colors)), key=lambda i: (int(colors[i]), i)):
        taken[i] = not any(taken[j] for j in partners[i])
    return taken


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 200),
    avg_deg=st.integers(0, 8),
    oriented=st.booleans(),
)
def test_greedy_classes_on_a_graph_match_the_python_sweep(seed, n, avg_deg, oriented):
    """On a graph coloured by color_delta_squared, with or without an
    orientation, the class sweep takes what the one-at-a-time sweep takes,
    a maximal independent set, and charges every node and slot once."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, n * avg_deg // 2)
    key = rng.permutation(n)
    out = key[g.nbrs] > key[g.slot_owners()] if oriented else None
    col = color_delta_squared(g, orientation=out)
    work = WorkCounter()
    taken = greedy_classes(g, col.colors, col.num_colors, work)
    partners = [g.nbrs[g.offsets[v] : g.offsets[v + 1]].tolist() for v in range(n)]
    assert taken.tolist() == greedy_reference(partners, col.colors)
    assert check_maximal_independent(g, taken)[0]
    assert work.snapshot() == {"class_union": g.n + len(g.nbrs)}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["random", "star", "complete", "path", "cycle"]),
    size=st.integers(1, 60),
)
def test_greedy_classes_on_endpoint_cliques_match_the_python_sweep(seed, shape, size):
    """On simple edge sets coloured from their endpoint cliques, the class
    sweep takes what the one-at-a-time sweep takes and what the graph form
    takes on the line graph: a maximal matching of the given edges. It
    charges one unit per edge."""
    sizes = {"random": 2 + size % 25, "complete": 2 + size % 20, "path": 2 + 5 * size}
    e_u, e_v, n = edge_set(np.random.default_rng(seed), shape, sizes.get(shape, size + 2))
    cliques = EdgeCliques(e_u, e_v, n)
    col = color_delta_squared(cliques)
    work = WorkCounter()
    taken = greedy_classes(cliques, col.colors, col.num_colors, work)
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(zip(e_u.tolist(), e_v.tolist())):
        incident[u].append(i)
        incident[v].append(i)
    partners = [incident[u] + incident[v] for u, v in zip(e_u.tolist(), e_v.tolist())]
    assert taken.tolist() == greedy_reference(partners, col.colors)
    assert np.array_equal(taken, greedy_classes(line_graph(e_u, e_v, n), col.colors, col.num_colors))
    match_with = np.full(n, -1, dtype=np.int64)
    match_with[e_u[taken]] = e_v[taken]
    match_with[e_v[taken]] = e_u[taken]
    assert check_maximal_matching(sort_edges_to_csr(np.stack([e_u, e_v], axis=1), n), match_with)[0]
    assert work.snapshot() == {"class_union": len(e_u)}


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
