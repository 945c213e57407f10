"""Batched class sweeps against plain one-class-at-a-time references.

defective_coloring (phase 2), local_round and max_cut_half decide a whole
batch of color classes per step. The references below decide one class
at a time, one node at a time, summing weights in slot order, so the
batched code must match them exactly: colors, scores, sides and work.
Phase 2 takes the phase-1 classes in the strided order, the rounding
sweeps take the final colors in ascending order, and the batch counts
must match a plain walk over that order. The rounding reference merges
parallel cost terms with a plain dict.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpar.coloring import _defective_phase1, class_sweep, defective_coloring
from dpar.graph import Graph, sort_edges_to_csr
from dpar.rounding import RoundingInstance, local_round, max_cut_half
from dpar.workcount import WorkCounter, charge
from test_coloring import random_graph

EPS_CHOICES = [1.0, 0.5, 0.25, 0.1, 0.03]


def _slots_by_owner(g: Graph) -> list[range]:
    return [range(int(g.offsets[v]), int(g.offsets[v + 1])) for v in range(g.n)]


def strided_classes(k: int) -> list[int]:
    """The phase-1 classes in phase 2's order: step t takes class t * a mod
    k, for the a nearest k / golden ratio that is coprime to k."""
    a = max(round(k * (math.sqrt(5.0) - 1.0) / 2.0), 1)
    while math.gcd(a, k) != 1:
        a += 1
    return [t * a % k for t in range(k)]


def walk_cuts(k: int, slot_classes: list[tuple[int, int]]) -> list[int]:
    """The batch starts, then k, of a walk over the classes 0..k-1 in
    ascending order that opens a batch at each class with a lower-class
    head in the open batch; slot_classes holds (owner class, head class)
    per slot."""
    cuts, start = [0], 0
    for c in range(k):
        if any(o == c and start <= h < c for o, h in slot_classes):
            cuts.append(c)
            start = c
    return cuts + [k]


def batches_with_members(cuts: list[int], node_classes: list[int]) -> int:
    return sum(any(c0 <= c < c1 for c in node_classes) for c0, c1 in zip(cuts, cuts[1:]))


def reference_defective(g: Graph, eps: float) -> tuple[np.ndarray, float, int, int]:
    """(colors, mono_weight, work total, phase-2 batches) with phase 2 run
    class by class, in the strided order; a slot points out when its
    head's class comes earlier in that order."""
    work = WorkCounter()
    weights = g.weights if g.weights is not None else np.ones(len(g.nbrs))
    colors, k, alive, _rounds = _defective_phase1(g, eps, g.slot_owners(), weights, None, work)
    palette2 = 3 * math.ceil(1.0 / eps)
    order = strided_classes(k)
    assert sorted(order) == sorted(set(colors.tolist())) == list(range(k))
    step = {c: t for t, c in enumerate(order)}
    out_slots = [
        [s for s in slots if alive[s] and step[colors[v]] > step[colors[g.nbrs[s]]]]
        for v, slots in enumerate(_slots_by_owner(g))
    ]
    final = np.zeros(g.n, dtype=np.int64)
    for c in order:
        members = [v for v in range(g.n) if colors[v] == c]
        for v in members:
            out_w, hit = 0.0, {}
            for s in out_slots[v]:
                head_color = int(final[g.nbrs[s]])
                out_w += weights[s]
                hit[head_color] = hit.get(head_color, 0.0) + weights[s]
            budget = 0.5 * eps * out_w
            strict = len(out_slots[v]) < math.ceil(1.0 / eps)
            final[v] = next(
                x
                for x in range(palette2)
                if hit.get(x, 0.0) <= 0.0 or (not strict and hit[x] < budget)
            )
        charge(work, "defective_phase2", sum(len(out_slots[v]) for v in members) + len(members))
    same = final[g.slot_owners()] == final[g.nbrs]
    owners = g.slot_owners().tolist()
    live = [(step[colors[v]], step[colors[h]]) for v, h, a in zip(owners, g.nbrs.tolist(), alive) if a]
    steps = batches_with_members(walk_cuts(k, live), [step[c] for c in colors.tolist()])
    return final, float(np.sum(weights[same])) / 2.0, work.total, steps


def reference_local_round(inst: RoundingInstance) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(in_set, scores, work total, sweep steps) deciding one class at a
    time, on a cost graph with one slot pair per distinct node pair, its
    cost the sum of the pair's terms in input order."""
    n = inst.n
    work = WorkCounter()
    charge(work, "local_round", n + len(inst.cost_c))
    merged: dict[tuple[int, int], float] = {}
    for i, j, c in zip(inst.cost_i.tolist(), inst.cost_j.tolist(), inst.cost_c.tolist()):
        key = (min(i, j), max(i, j))
        merged[key] = merged.get(key, 0.0) + c
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), c in merged.items():
        adj[i].append((j, c))
        adj[j].append((i, c))
    for row in adj:
        row.sort()
    cost_graph = Graph(
        n=n,
        offsets=np.cumsum([0] + [len(row) for row in adj]).astype(np.int64),
        nbrs=np.array([j for row in adj for j, _ in row], dtype=np.int64),
        weights=np.array([c for row in adj for _, c in row], dtype=np.float64),
    )
    colors, _mono, color_units, color_steps = reference_defective(cost_graph, inst.eps)
    num_colors = 3 * math.ceil(1.0 / inst.eps)
    slots = _slots_by_owner(cost_graph)
    in_set = np.zeros(n, dtype=bool)
    scores = np.zeros(n)
    for c in range(num_colors):
        members = [v for v in range(n) if colors[v] == c]
        units = len(members)
        for v in members:
            acc = 0.0
            for s in slots[v]:
                head = cost_graph.nbrs[s]
                if colors[head] == c:
                    continue  # monochromatic: written off
                units += 1
                if colors[head] > c:
                    acc += 0.5 * cost_graph.weights[s]
                elif in_set[head]:
                    acc += cost_graph.weights[s]
            scores[v] = inst.utils[v] - acc
            in_set[v] = scores[v] >= 0.0
        if members:
            charge(work, "local_round", units)
    slot_colors = zip(colors[cost_graph.slot_owners()].tolist(), colors[cost_graph.nbrs].tolist())
    cuts = walk_cuts(num_colors, [(o, h) for o, h in slot_colors if o != h])
    steps = color_steps + batches_with_members(cuts, colors.tolist())
    return in_set, scores, work.total + color_units, steps


def reference_max_cut(g: Graph, eps: float) -> tuple[np.ndarray, int]:
    """(side, work total) deciding one class at a time."""
    work = WorkCounter()
    col = defective_coloring(g, eps, work=work)
    colors = col.colors
    slots = _slots_by_owner(g)
    side = np.zeros(g.n, dtype=bool)
    for c in range(col.num_colors):
        members = [v for v in range(g.n) if colors[v] == c]
        units = len(members)
        for v in members:
            to_s = to_t = 0.0
            for s in slots[v]:
                head = g.nbrs[s]
                if colors[head] == c:
                    continue
                units += 1
                if colors[head] < c:
                    if side[head]:
                        to_s += g.weights[s]
                    else:
                        to_t += g.weights[s]
            side[v] = to_s <= to_t
        if members:
            charge(work, "max_cut", units)
    return side, work.total


def weighted_graph(rng, n: int, m: int) -> Graph:
    u, v = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    keep = u != v
    w = rng.random(m) * (rng.random(m) >= 0.1)  # zero weights reach the "<= 0" branch
    return sort_edges_to_csr(np.stack([u, v], axis=1)[keep], n, weights=w[keep])


def rounding_instance(rng, n: int, eps: float) -> RoundingInstance:
    m = int(rng.integers(0, 4 * n))
    ci, cj = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    keep = ci != cj
    cc = rng.random(m) * 3.0
    cc[rng.random(m) < 0.1] = 0.0
    return RoundingInstance(
        utils=rng.normal(0.0, 2.0, size=n), cost_i=ci[keep], cost_j=cj[keep], cost_c=cc[keep], eps=eps
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    n=st.integers(2, 60),
    eps_idx=st.integers(0, len(EPS_CHOICES) - 1),
)
def test_batched_sweeps_match_class_by_class(seed, n, eps_idx):
    eps = EPS_CHOICES[eps_idx]
    rng = np.random.default_rng(seed)
    g = weighted_graph(rng, n, int(rng.integers(1, 4 * n)))

    colors, mono, units, steps = reference_defective(g, eps)
    work = WorkCounter()
    col = defective_coloring(g, eps, work=work)
    assert np.array_equal(col.colors, colors)
    assert col.mono_weight == mono
    assert work.total == units
    assert col.steps == steps

    side, units = reference_max_cut(g, eps)
    work = WorkCounter()
    assert np.array_equal(max_cut_half(g, eps, work=work).side, side)
    assert work.total == units

    inst = rounding_instance(rng, n, eps)
    in_set, scores, units, steps = reference_local_round(inst)
    work = WorkCounter()
    res = local_round(inst, work=work)
    assert np.array_equal(res.in_set, in_set)
    assert np.array_equal(res.scores, scores)
    assert work.total == units
    assert res.sweep_steps == steps


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 60), k=st.integers(1, 40))
def test_class_sweep_cuts_like_a_class_walk(seed, n, k):
    """class_sweep against a walk over the classes in ascending order that
    opens a batch at each class with a lower-class head in the open batch."""
    rng = np.random.default_rng(seed)
    g = weighted_graph(rng, n, int(rng.integers(0, 4 * n)))
    colors = rng.integers(0, k, size=n)
    owners = g.slot_owners()
    sweep = class_sweep(colors, k, owners, g.nbrs)
    slots = sorted(range(len(owners)), key=lambda s: (colors[owners[s]], owners[s]))
    nodes = sorted(range(n), key=lambda v: colors[v])
    assert sweep.slot_order.tolist() == slots
    assert sweep.node_order.tolist() == nodes
    assert sweep.lower.tolist() == [bool(colors[g.nbrs[s]] < colors[owners[s]]) for s in slots]
    cuts = walk_cuts(k, [(colors[owners[s]], colors[g.nbrs[s]]) for s in slots])
    rows = []
    for c0, c1 in zip(cuts, cuts[1:]):
        in_batch = [s for s, t in enumerate(slots) if c0 <= colors[owners[t]] < c1]
        members = [i for i, v in enumerate(nodes) if c0 <= colors[v] < c1]
        if members:
            lo = in_batch[0] if in_batch else sum(colors[owners[t]] < c0 for t in slots)
            rows.append([lo, lo + len(in_batch), members[0], members[-1] + 1])
    assert sweep.batches.tolist() == rows


def _phase2_rows(g: Graph, eps: float, final: np.ndarray) -> tuple[bool, bool]:
    """(some node's row is capped at the palette, some head's final color
    lies past its owner's row) for phase 2 of defective_coloring, whose row
    for node v covers the colors 0..min(outdeg(v), palette2 - 1)."""
    colors, k, alive, _rounds = _defective_phase1(g, eps, g.slot_owners(), g.weights, None, None)
    step = np.argsort(strided_classes(k))[colors]
    owners = g.slot_owners()
    out = alive & (step[owners] > step[g.nbrs])
    outdeg = np.bincount(owners[out], minlength=g.n)
    last = np.minimum(outdeg, 3 * math.ceil(1.0 / eps) - 1)
    capped = bool(np.any(outdeg > last))
    past = bool(np.any(final[g.nbrs[out]] > last[owners[out]]))
    return capped, past


@pytest.mark.parametrize(
    "edges, eps, capped, past, colors",
    [
        # These graphs are small enough for phase 1 to keep the node ids as
        # classes, so phase 2 sweeps the nodes in the strided order: 0, 3, 1,
        # 4, 2 on five nodes and 0, 3, 2, 1 on four.
        #
        # a star centred on node 2, swept last, whose leaves already hold
        # colors 0 and 1 (nodes 3 and 4 follow nodes 0 and 1 and point at
        # them) with weight at its budget: 4 out-heads, palette 3, color 2
        # is left
        ([(2, 0), (2, 1), (2, 3), (2, 4), (3, 0), (4, 1)], 1.0, True, False, [0, 0, 2, 1, 1]),
        # a triangle on nodes 0, 3, 2, colored 0, 1, 2 in sweep order, plus a
        # pendant node 1, swept last, with one out-head, of color 2, past the
        # pendant's row of colors 0..1
        ([(0, 3), (0, 2), (3, 2), (2, 1)], 1.0, False, True, [0, 0, 2, 1]),
        # at eps 0.25 a K4 on nodes 0, 3, 1, 4 colors 0..3 in sweep order (its
        # nodes have fewer than 4 out-edges, so only a color free of
        # out-heads will do) and the pendant node 2, swept last, has a head
        # of color 3, two past its row
        (
            [(0, 3), (0, 1), (0, 4), (3, 1), (3, 4), (1, 4), (4, 2)],
            0.25,
            False,
            True,
            [0, 2, 0, 1, 3],
        ),
    ],
)
def test_phase2_rows_capped_and_passed(edges, eps, capped, past, colors):
    n = max(max(e) for e in edges) + 1
    g = sort_edges_to_csr(np.array(edges, dtype=np.int64), n, weights=np.ones(len(edges)))
    expected, mono, units, steps = reference_defective(g, eps)
    assert expected.tolist() == colors
    assert _phase2_rows(g, eps, expected) == (capped, past)
    work = WorkCounter()
    col = defective_coloring(g, eps, work=work)
    assert np.array_equal(col.colors, expected)
    assert col.mono_weight == mono and work.total == units and col.steps == steps


@pytest.mark.parametrize("seed", [7, 130])
def test_phase2_recolors_classes_of_a_growing_phase1_round(seed):
    # seeds of test_coloring's property generator at eps 1.0 where the last
    # phase-1 round grows the palette from 32 to 33 colors. The node of
    # class 32 must still be recolored: at seed 7 its color comes out 0
    # either way and only the work shows the skip, at seed 130 it takes 1.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    g = random_graph(rng, n, int(rng.integers(1, 3 * n)), weighted=True)
    colors, _k, _alive, _rounds = _defective_phase1(g, 1.0, g.slot_owners(), g.weights, None, None)
    assert int(colors.max()) == 32
    expected, mono, units, steps = reference_defective(g, 1.0)
    work = WorkCounter()
    col = defective_coloring(g, 1.0, work=work)
    assert np.array_equal(col.colors, expected)
    assert col.mono_weight == mono and work.total == units and col.steps == steps


def test_strided_order_cuts_phase2_steps():
    # overlapping cliques of 45 on runs of consecutive ids, a clique every
    # 22 ids: phase 1 keeps the ids as classes (n is below its field), and
    # consecutive classes share edges. Swept in id order, nearly every class
    # is a batch of its own (2 993 batches); the strided order spreads
    # consecutive steps over the ids and measured 127 batches.
    n, size = 3000, 45
    iu, ju = np.triu_indices(size, k=1)
    starts = np.arange(0, n - size + 1, 22)
    edges = np.stack([(starts[:, None] + iu).ravel(), (starts[:, None] + ju).ravel()], axis=1)
    g = sort_edges_to_csr(edges, n)
    col = defective_coloring(g, 0.0057)
    assert col.phase1_rounds == 0
    assert 0 < col.steps <= 200
