"""Deterministic rounding of half-sampling by conditional expectations.

The object being rounded is a node subset S of an instance with per-node
utilities (any sign), explicit pairwise cost terms (nonnegative, parallel
terms allowed) and groups of bucket cliques:

    F(S) = sum_{v in S} util(v) - sum_{(i,j,c): i in S, j in S} c
           - sum_B coef_B * c_B * (c_B - 1),    c_B = |S cap B|.

A bucket clique B of b members costs the same as a term 2 coef_B on each
of its b(b - 1)/2 member pairs, but the rounding keeps it as a bucket: a
halving's quadratic potentials hand their buckets over as they are
(CliqueGroup: members, coefs, b), and only linear terms and max-cut's
edges come as explicit terms.

Including every node independently with probability 1/2 gives
E[F] = util_total/2 - cost_total/4, where a bucket adds coef_B b(b - 1) to
cost_total, so some S achieves that much. To find one deterministically,
the nodes are decided one class at a time of a coloring in which no cost
pair joins two nodes of one class. The classes come from the layout: with
w the bandwidth, the largest |i - j| over the explicit terms and the
largest max - min over the members of a bucket, the coloring id mod
(w + 1) is proper on min(n, w + 1) classes (coloring.layout_start). So
the rounding needs no graph, expands no clique, merges no parallel terms
and writes nothing off. A halving numbers its candidates so that each
bucket lies on nearby ids, which keeps w small; on spread ids the classes
are many and hold few nodes each, so the sweep takes more steps.

The classes are swept in phase 2's strided order, one batch of
dependency-free classes at a time (coloring.class_sweep); a clique cuts
the batches through each member's predecessor in step order, as its
b(b - 1) slots would. Each explicit term is one slot, from its endpoint
with the later step to the earlier one; parallel terms stay separate
slots, whose costs add. A node's conditional score is its utility minus
the cost of each slot it owns whose head, decided, joined, minus half the
cost of each slot it heads, whose owner is still undecided (one sum per
node, fixed before the sweep), minus, per bucket, 2 coef_B (joined_B +
(undecided_B - 1)/2), with joined_B its decided members in S and
undecided_B its undecided ones, the node itself among them. Each bucket
keeps that sum as one tally, a half-integer and so exact, which starts
at (b - 1)/2 and moves by +1/2 per member that joins and by -1/2 per
member that stays out. No two members of a batch share a bucket, so
each batch reads and then updates the tallies of its buckets with plain
gathers and adds. The sweep keeps every per-node array by position in
its node order, with slot heads and bucket members stored as positions
and each slot's owner and each member as an offset within its batch, so
a batch reads and writes one contiguous slice of them; the choices are
mapped back to node ids once, at the end. A node joins S when its score
is positive and stays out when it is negative, which never lowers the
tracked expectation. A zero score ties the two choices, and the node
joins only if none of its cost partners is decided after it, so that the
tie is one of F itself rather than of an expectation over undecided
partners. Bucket potentials make exact ties common: their utilities
balance a member's cost against its undecided co-members, so every member
decided before all of its co-members ties, and joining all of them would
tip a halving above half. The output is certified against

    F(S) >= util_total/2 - cost_total/4 - eps * cost_total,

with the clique part of F evaluated from per-bucket counts.

Max-cut is an instance of F: the weight of the edges leaving S is
sum_{v in S} deg_w(v) - sum_{uv: u, v in S} 2 w_uv, so max_cut_half rounds
the instance with util = weighted degree and a cost 2w per edge. At eps/2
the bound above is (1/2 - eps) times the total weight, and the cut is
certified against that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coloring import bandwidth, class_sweep, layout_start, strided_steps
from .coloring import defective_coloring  # noqa: F401  (importable here for tools that trace it)
from .graph import Graph, derived
from .graph import graph_from_directed_slots  # noqa: F401  (importable here for tools that trace it)
from .sorting import radix_order
from .workcount import WorkCounter, charge

@dataclass
class CliqueGroup:
    """Buckets of b distinct members each; bucket B costs a set holding c_B
    of its members coef_B * c_B * (c_B - 1), a term 2 coef_B per pair."""

    members: np.ndarray  # int64 node ids, bucket-major, each bucket exactly b
    coefs: np.ndarray  # float64 >= 0 per bucket
    b: int

    @property
    def n_buckets(self) -> int:
        return len(self.coefs)

    def counts(self, in_set: np.ndarray) -> np.ndarray:
        """Per bucket: |S cap B|.

        One integer row sum over the (buckets, b) membership flags, by
        einsum, whose loop handles short rows at a cost per element;
        np.add.reduceat over b-member segments pays a call per bucket."""
        if self.n_buckets == 0:
            return np.zeros(0, dtype=np.int64)
        rows = in_set[self.members].reshape(-1, self.b).astype(np.int64)
        return np.einsum("ij->i", rows)


@dataclass
class RoundingInstance:
    """Utilities per node, a multiset of pairwise cost terms and groups of
    bucket cliques."""

    utils: np.ndarray  # float64, signed
    cost_i: np.ndarray  # int64 endpoints, i != j
    cost_j: np.ndarray
    cost_c: np.ndarray  # float64 >= 0
    eps: float
    cliques: list[CliqueGroup] = field(default_factory=list)

    def __post_init__(self):
        self.utils = np.asarray(self.utils, dtype=np.float64)
        self.cost_i = np.asarray(self.cost_i, dtype=np.int64)
        self.cost_j = np.asarray(self.cost_j, dtype=np.int64)
        self.cost_c = np.asarray(self.cost_c, dtype=np.float64)
        n = len(self.utils)
        if not (len(self.cost_i) == len(self.cost_j) == len(self.cost_c)):
            raise ValueError("cost arrays must have equal length")
        if len(self.cost_i) and (
            self.cost_i.min() < 0
            or self.cost_j.min() < 0
            or self.cost_i.max() >= n
            or self.cost_j.max() >= n
        ):
            raise ValueError("cost endpoint out of range")
        if np.any(self.cost_i == self.cost_j):
            raise ValueError("cost term with equal endpoints")
        if len(self.cost_c) and self.cost_c.min() < 0:
            raise ValueError("negative cost")
        for group in self.cliques:
            if group.b < 1 or len(group.members) != group.b * group.n_buckets:
                raise ValueError("clique members must fill whole buckets of b >= 1")
            if len(group.members) and (group.members.min() < 0 or group.members.max() >= n):
                raise ValueError("clique member out of range")
            rows = np.sort(group.members.reshape(-1, group.b), axis=1)
            if np.any(rows[:, 1:] == rows[:, :-1]):
                raise ValueError("clique with a repeated member")
            if group.n_buckets and group.coefs.min() < 0:
                raise ValueError("negative clique coefficient")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError("eps must lie in (0, 1]")

    @property
    def n(self) -> int:
        return len(self.utils)


@dataclass
class RoundingResult:
    in_set: np.ndarray  # bool per node
    objective: float
    bound: float  # certified lower bound on the objective
    scores: np.ndarray  # conditional score each node was decided on
    num_classes: int = 0
    sweep_steps: int = 0  # batches of the class sweep


def evaluate_objective(inst: RoundingInstance, in_set: np.ndarray) -> float:
    util_part = float(np.sum(np.where(in_set, inst.utils, 0.0)))
    both = in_set[inst.cost_i] & in_set[inst.cost_j]
    parts = [np.where(both, inst.cost_c, 0.0)]
    for group in inst.cliques:
        c = group.counts(in_set).astype(np.float64)
        parts.append(group.coefs * c * (c - 1.0))
    return util_part - float(np.sum(np.concatenate(parts)))


def _clique_span(group: CliqueGroup) -> int:
    """The largest max - min over the members of a bucket, 0 without one.

    It reduces one member column at a time: a reduction along each row
    of b members costs a call per row."""
    if group.n_buckets == 0:
        return 0
    rows = group.members.reshape(-1, group.b)
    top = rows[:, 0].copy()
    bottom = top.copy()
    for col in range(1, group.b):
        np.maximum(top, rows[:, col], out=top)
        np.minimum(bottom, rows[:, col], out=bottom)
    top -= bottom
    return int(top.max())


def local_round(inst: RoundingInstance, work: WorkCounter | None = None) -> RoundingResult:
    """Pick S with F(S) >= util_total/2 - (1/4 + eps) * cost_total.

    The instance's arrays are read, never written or copied, so a caller
    may hand over arrays it shares with others (run_half hands over the
    linear aux potential's). The sweep runs in _sweep, so its state is
    released before the objective is evaluated; inside it, the per-term
    set-up arrays (the slots' owners and heads, the heads' positions and
    the sweep's slot order) are each released once their sweep-ordered
    copies exist, before the batch loop.
    """
    n = inst.n
    groups = inst.cliques
    util_total = float(np.sum(inst.utils))
    cost_total = float(
        np.sum(np.concatenate([inst.cost_c] + [g.coefs * float(g.b * (g.b - 1)) for g in groups]))
    )
    bound = 0.5 * util_total - (0.25 + inst.eps) * cost_total
    # the set-up and the sweep each touch every node, term and membership once
    charge(work, "local_round", 2 * (n + len(inst.cost_c) + sum(len(g.members) for g in groups)))

    in_set, scores, k, steps = _sweep(inst)
    objective = evaluate_objective(inst, in_set)
    if objective < bound:
        raise RuntimeError("rounding certificate violated")
    return RoundingResult(
        in_set=in_set,
        objective=objective,
        bound=bound,
        scores=scores,
        num_classes=k,
        sweep_steps=steps,
    )


def _sweep(inst: RoundingInstance) -> tuple[np.ndarray, np.ndarray, int, int]:
    """local_round's class sweep: (in_set, scores, classes, batches)."""
    n, groups = inst.n, inst.cliques
    ci, cj, costs = inst.cost_i, inst.cost_j, inst.cost_c
    w = max([bandwidth(ci, cj)] + [_clique_span(g) for g in groups])
    colors, k = layout_start(n, w)
    step = strided_steps(colors, k)
    # one slot per term, from its endpoint with the later step to the
    # earlier one; the layout classes are proper, so the steps differ.
    # Each array of one entry per term that only sets up the sweep (the
    # owners, the heads, their positions, the slot order) is released as
    # soon as the arrays it feeds exist
    from_i = step[ci] > step[cj]
    owners, heads = np.where(from_i, ci, cj), np.where(from_i, cj, ci)
    del from_i
    sweep = class_sweep(step, k, owners, heads, [g.members.reshape(-1, g.b) for g in groups])
    order, pos, batches = sweep.slot_order, sweep.positions, sweep.batches
    head_pos = pos[heads]
    del heads
    # all state is kept by position in the sweep's node order, so a batch
    # reads and writes one slice [m0:m1] of it. Per node position: half
    # the cost of its partners decided after it, which stay undecided
    # while it is decided, and their number
    half_later = np.bincount(head_pos, weights=0.5 * costs, minlength=n)
    later = np.bincount(head_pos, minlength=n)
    s_head = head_pos[order]
    del head_pos
    s_member = owners[order]
    del owners
    # each slot's owner, as an offset in its batch
    s_member = pos[s_member]
    s_member -= np.repeat(batches[:, 2], batches[:, 1] - batches[:, 0])
    s_cost = costs[order]
    node_order = sweep.node_order
    del sweep, order

    # one entry per bucket membership, in the sweep's node order and cut at
    # its batches; per bucket, 2 coef_B and the tally joined_B +
    # (undecided_B - 1)/2 of its members decided and joined and of those
    # still undecided, a half-integer and so held exactly
    none = [np.empty(0, dtype=np.int64)]
    b_size = np.concatenate(none + [np.full(g.n_buckets, g.b) for g in groups])
    b_coef = np.concatenate([np.empty(0)] + [2.0 * g.coefs for g in groups])
    m_pos = pos[np.concatenate(none + [g.members for g in groups])]
    m_bucket = np.repeat(np.arange(len(b_size)), b_size)
    m_order = radix_order(m_pos, n)
    m_pos, m_bucket = m_pos[m_order], m_bucket[m_order]
    del m_order
    m_coef = b_coef[m_bucket]
    m_cuts = np.searchsorted(m_pos, batches[:, 2:])
    tally = 0.5 * (b_size - 1.0)

    # per node position, its cost partners decided after it: the owners of
    # the slots it heads and the later members of its buckets. A node joins
    # when its score exceeds its floor: 0, or the largest float below 0
    # when no partner is decided after it, so that a zero score joins too
    last = np.full(len(b_size), -1, dtype=np.int64)
    np.maximum.at(last, m_bucket, m_pos)
    later += np.bincount(m_pos[m_pos < last[m_bucket]], minlength=n)
    floor = np.where(later == 0, -np.finfo(np.float64).smallest_subnormal, 0.0)
    # each membership's node, as an offset in its batch
    m_pos -= np.repeat(batches[:, 2], m_cuts[:, 1] - m_cuts[:, 0])

    # each batch turns its slice of the utilities into its scores
    score_pos = inst.utils[node_order]
    in_pos = np.zeros(n, dtype=bool)
    for (lo, hi, m0, m1), (a, z) in zip(batches.tolist(), m_cuts.tolist()):
        acc = half_later[m0:m1]
        if lo < hi:
            # every head lies in an earlier class: decided, its full cost
            # charged if it joined
            charged = s_cost[lo:hi] * in_pos[s_head[lo:hi]]
            acc = acc + np.bincount(s_member[lo:hi], weights=charged, minlength=m1 - m0)
        if a < z:
            bk, mp = m_bucket[a:z], m_pos[a:z]
            t = tally[bk]
            acc = acc + np.bincount(mp, weights=m_coef[a:z] * t, minlength=m1 - m0)
        sc = np.subtract(score_pos[m0:m1], acc, out=score_pos[m0:m1])
        join = np.greater(sc, floor[m0:m1], out=in_pos[m0:m1])
        if a < z:
            tally[bk] = t + (join[mp] - 0.5)
    return in_pos[pos], score_pos[pos], k, len(batches)


@dataclass
class CutResult:
    side: np.ndarray  # bool per node, True = side S
    cut_weight: float
    bound: float
    num_classes: int  # layout classes the rounding swept
    sweep_steps: int  # batches of its class sweep


def max_cut_half(
    g: Graph,
    eps: float,
    work: WorkCounter | None = None,
) -> CutResult:
    """Cut of weight >= (1/2 - eps) of the total, found deterministically.

    The cut weight of a side S is F(S) with util(v) the weighted degree of
    v and a cost 2w per edge of weight w, so local_round at eps/2 picks S:
    its bound, util_total/2 - (1/4 + eps/2) * cost_total, is exactly
    (1/2 - eps) times the total weight. The sweep takes the layout
    classes, about n of them on a generic graph; the result records
    their number and the sweep's batches.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    weights = g.weights if g.weights is not None else np.ones(len(g.nbrs), dtype=np.float64)
    owners = g.slot_owners()
    heads = g.nbrs
    total = float(np.sum(weights)) / 2.0
    bound = (0.5 - eps) * total
    fwd = owners < heads
    inst = derived(
        RoundingInstance,
        utils=np.bincount(owners, weights=weights, minlength=g.n),
        cost_i=owners[fwd],
        cost_j=heads[fwd],
        cost_c=2.0 * weights[fwd],
        eps=eps / 2.0,
        cliques=[],
    )
    res = local_round(inst, work=work)
    side = res.in_set
    cut = float(np.sum(np.where(side[owners] != side[heads], weights, 0.0))) / 2.0
    if cut < bound:
        raise RuntimeError("cut certificate violated")
    return CutResult(
        side=side, cut_weight=cut, bound=bound, num_classes=res.num_classes,
        sweep_steps=res.sweep_steps,
    )
