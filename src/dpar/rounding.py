"""Deterministic rounding of half-sampling by conditional expectations.

The object being rounded is a node subset S of an instance with per-node
utilities (any sign) and pairwise costs (nonnegative, parallel terms
allowed):

    F(S) = sum_{v in S} util(v) - sum_{(i,j,c): i in S, j in S} c

F depends on the cost terms only through the summed cost per node pair,
so local_round first merges the cost multiset into a simple weighted
graph, one slot pair per distinct node pair (bucket potentials emit the
same pair many times over). It builds that graph on the graph module's
one path, graph.merged_pairs then graph_from_directed_slots, without
sort_edges_to_csr's input checks, which RoundingInstance has already made.
merged_pairs sums the terms per pair in a dense table of all n * n pairs
when there are at least n * n terms, as in a dense halving, and by a
stable sort of the pair codes otherwise; the sums are the same either way.
The coloring and the sweep run on that graph; the certificate still
evaluates F on the input terms.

Including every node independently with probability 1/2 gives
E[F] = util_total/2 - cost_total/4, so some S achieves that much. To find
one deterministically, the cost pairs are defectively colored: pairs that
go monochromatic (at most an eps fraction of total cost) are written off,
and the remaining pairs never join two nodes of one class, so a whole
class can be decided in parallel. Processing classes in ascending order,
each node joins S exactly when its conditional score is nonnegative, which
never lowers the tracked expectation. The output is certified against

    F(S) >= util_total/2 - cost_total/4 - eps * cost_total.

max_cut_half applies the same schema to edge cuts: a node joins the side
opposite its heavier already-decided neighborhood, monochromatic edges
count as uncut, and the cut is certified >= (1/2 - eps) * total weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import ClassSweep, class_sweep, defective_coloring
from .graph import Graph, graph_from_directed_slots, merged_pairs
from .ntheory import NumberTheoryTables
from .workcount import WorkCounter, charge

SUM_TILE = 1 << 14  # tiled_sum's tile; it fixes the rounding of every sum below


def tiled_sum(values: np.ndarray) -> float:
    """Sum of float values in a fixed order: np.sum over each tile of
    SUM_TILE values, the partial sums added exactly by math.fsum."""
    arr = np.asarray(values, dtype=np.float64)
    return math.fsum(float(np.sum(arr[lo : lo + SUM_TILE])) for lo in range(0, len(arr), SUM_TILE))


@dataclass
class RoundingInstance:
    """Utilities per node plus a multiset of pairwise cost terms."""

    utils: np.ndarray  # float64, signed
    cost_i: np.ndarray  # int64 endpoints, i != j
    cost_j: np.ndarray
    cost_c: np.ndarray  # float64 >= 0
    eps: float

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
    lost_cost: float  # cost written off to monochromatic pairs
    scores: np.ndarray  # conditional score each node was decided on
    num_classes: int = 0
    cost_pairs: int = 0  # distinct node pairs among the cost terms
    sweep_steps: int = 0  # batches of the coloring's phase 2 and of the sweep


def _member_positions(sweep: ClassSweep, owners: np.ndarray) -> np.ndarray:
    """Per sorted slot of the sweep over owners, its owner's position in
    sweep.node_order. Both orders go by (class, node), so the slots come in
    runs, one per node in node order."""
    per_node = np.bincount(owners, minlength=len(sweep.node_order))
    return np.repeat(np.arange(len(sweep.node_order), dtype=np.int64), per_node[sweep.node_order])


def evaluate_objective(inst: RoundingInstance, in_set: np.ndarray) -> float:
    util_part = tiled_sum(np.where(in_set, inst.utils, 0.0))
    both = in_set[inst.cost_i] & in_set[inst.cost_j]
    cost_part = tiled_sum(np.where(both, inst.cost_c, 0.0))
    return util_part - cost_part


def local_round(
    inst: RoundingInstance,
    tables: NumberTheoryTables | None = None,
    work: WorkCounter | None = None,
) -> RoundingResult:
    """Pick S with F(S) >= util_total/2 - (1/4 + eps) * cost_total."""
    n = inst.n
    util_total = tiled_sum(inst.utils)
    cost_total = tiled_sum(inst.cost_c)
    bound = 0.5 * util_total - (0.25 + inst.eps) * cost_total
    charge(work, "local_round", n + len(inst.cost_c))

    lo, hi, pair_c = merged_pairs(inst.cost_i, inst.cost_j, n, inst.cost_c)
    cost_graph = graph_from_directed_slots(
        n, np.concatenate([lo, hi]), np.concatenate([hi, lo]), np.concatenate([pair_c, pair_c])
    )
    col = defective_coloring(cost_graph, inst.eps, tables=tables, work=work)
    colors = col.colors

    owners = cost_graph.slot_owners()
    heads = cost_graph.nbrs
    costs = cost_graph.weights
    alive = colors[owners] != colors[heads]

    in_set = np.zeros(n, dtype=bool)
    scores = np.zeros(n, dtype=np.float64)
    sweep = class_sweep(colors, col.num_colors, owners[alive], heads[alive])
    slots = np.flatnonzero(alive)[sweep.slot_order]
    s_head, s_cost = heads[slots], costs[slots]
    s_member = _member_positions(sweep, owners[alive])
    # a head in a lower class is decided and charges its full cost if it
    # joined; a head in a higher class is undecided and charges half
    undecided = 0.5 * s_cost
    undecided[sweep.lower] = 0.0
    for lo, hi, m0, m1 in sweep.batches:
        members = sweep.node_order[m0:m1]
        hd = s_head[lo:hi]
        burden = np.where(sweep.lower[lo:hi] & in_set[hd], s_cost[lo:hi], undecided[lo:hi])
        acc = np.bincount(s_member[lo:hi] - m0, weights=burden, minlength=m1 - m0)
        sc = inst.utils[members] - acc
        scores[members] = sc
        in_set[members] = sc >= 0.0
        charge(work, "local_round", (hi - lo) + (m1 - m0))

    lost = tiled_sum(np.where(~alive, costs, 0.0)) / 2.0
    objective = evaluate_objective(inst, in_set)
    if objective < bound:
        raise RuntimeError("rounding certificate violated")
    return RoundingResult(
        in_set=in_set,
        objective=objective,
        bound=bound,
        lost_cost=lost,
        scores=scores,
        num_classes=col.num_colors,
        cost_pairs=len(pair_c),
        sweep_steps=col.steps + len(sweep.batches),
    )


@dataclass
class CutResult:
    side: np.ndarray  # bool per node, True = side S
    cut_weight: float
    bound: float


def max_cut_half(
    g: Graph,
    eps: float,
    tables: NumberTheoryTables | None = None,
    work: WorkCounter | None = None,
) -> CutResult:
    """Cut of weight >= (1/2 - eps) of the total, found deterministically.

    Nodes are decided in ascending defective class order, a batch of
    dependency-free classes at a time; each joins the side opposite the
    heavier decided part of its neighborhood (ties go to S).
    Monochromatic edges are counted as uncut by the certificate.
    """
    n = g.n
    weights = g.weights if g.weights is not None else np.ones(len(g.nbrs), dtype=np.float64)
    total = tiled_sum(weights) / 2.0
    bound = (0.5 - eps) * total
    col = defective_coloring(g, eps, tables=tables, work=work)
    colors = col.colors

    owners = g.slot_owners()
    heads = g.nbrs
    alive = colors[owners] != colors[heads]
    sweep = class_sweep(colors, col.num_colors, owners[alive], heads[alive])
    slots = np.flatnonzero(alive)[sweep.slot_order]
    s_head, s_w = heads[slots], weights[slots]
    s_member = _member_positions(sweep, owners[alive])

    side = np.zeros(n, dtype=bool)
    for lo, hi, m0, m1 in sweep.batches:
        members = sweep.node_order[m0:m1]
        # heads in lower classes are decided
        hd, wv, dec = s_head[lo:hi], s_w[lo:hi], sweep.lower[lo:hi]
        loc = s_member[lo:hi] - m0
        to_s = np.bincount(loc, weights=np.where(dec & side[hd], wv, 0.0), minlength=m1 - m0)
        to_t = np.bincount(loc, weights=np.where(dec & ~side[hd], wv, 0.0), minlength=m1 - m0)
        side[members] = to_s <= to_t
        charge(work, "max_cut", (hi - lo) + (m1 - m0))
    cut = tiled_sum(np.where(side[owners] != side[heads], weights, 0.0)) / 2.0
    if cut < bound:
        raise RuntimeError("cut certificate violated")
    return CutResult(side=side, cut_weight=cut, bound=bound)
