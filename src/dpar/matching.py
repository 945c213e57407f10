"""Deterministic maximal matching via certified edge selection.

Each sweep targets the top degree stage: nodes whose live degree reaches
half the current power-of-two ceiling. Their live edges form the right
side of a bipartite instance (levels tied to the stage, so each active
node carries probability mass a few units wide), the hitting machinery
selects a sparse certified edge set, and the MIS's greedy class sweep
(coloring.greedy_classes) over a proper coloring of the selected edges'
conflicts turns that set into a matching. Matched nodes leave, dropping
the stage, and the sweeps keep only the live edges until none is left.

The conflicts are colored from the selected edges' endpoint cliques (each
node's incident edges form one clique), in point steps that touch the 2
memberships of each edge still undecided, at most 2k for k edges, rather
than the sum of deg^2 slots of their line graph; an edge that decided at
an earlier point cannot collide with one that decides later, so it drops
out. The colors equal those of the line graph's coloring (see
coloring.EdgeCliques). Each sweep's report gives the color classes its
extraction sweeps one after another (conflict_colors), the point steps of
its coloring (point_steps), and the coloring rounds it ran (rounds) and
threw away because they did not shrink the palette (discarded_rounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import Coloring, EdgeCliques, color_delta_squared, greedy_classes
from .graph import Graph, derived, sort_edges_to_csr  # noqa: F401  (importable here for tools that trace it)
from .hitting import BipartiteInstance, ParamSet, _renumber, hitting_set
from .verify import check_maximal_matching, require
from .workcount import WorkCounter, charge

MATCHING_FLOOR = 1  # the level the matching's hitting call halves down to


@dataclass
class MatchingResult:
    match_with: np.ndarray  # int64 per node: partner id, -1 when unmatched
    matched_edges: np.ndarray  # (k, 2) node pairs
    iterations: list[dict]
    work: WorkCounter


def _extract_matching(
    e_u: np.ndarray, e_v: np.ndarray, n: int, work: WorkCounter | None
) -> tuple[np.ndarray, Coloring]:
    """Maximal (greedy) sub-matching of the given edge set, as a bool mask,
    with the coloring whose classes it sweeps.

    Colors the conflicts (edges sharing an endpoint) from their endpoint
    cliques, with no line graph (see coloring.EdgeCliques), and sweeps the
    color classes with coloring.greedy_classes, one parallel step per
    class. Edges that share no endpoint are all taken in one step, as one
    class, with no coloring round."""
    k = len(e_u)
    if k == 0:
        return np.zeros(0, dtype=bool), Coloring(np.zeros(0, dtype=np.int64), 0)
    if (np.bincount(e_u, minlength=n) + np.bincount(e_v, minlength=n)).max() <= 1:
        return np.ones(k, dtype=bool), Coloring(np.zeros(k, dtype=np.int64), 1)
    charge(work, "match_conflicts", 2 * k)
    cliques = EdgeCliques(e_u, e_v, n)
    col = color_delta_squared(cliques, work=work)
    return greedy_classes(cliques, col.colors, col.num_colors, work), col


def maximal_matching(
    g: Graph,
    params: ParamSet | None = None,
    work: WorkCounter | None = None,
    threads: int = 1,  # accepted for benchmark/workloads.py, which passes threads=1
) -> MatchingResult:
    """Deterministic maximal matching of an undirected graph."""
    if threads != 1:
        raise ValueError("dpar runs sequentially; threads must be 1")
    params = params or ParamSet.desk()
    work = work if work is not None else WorkCounter()
    owners = g.slot_owners()
    uniq = owners < g.nbrs
    e_u, e_v = owners[uniq], g.nbrs[uniq]  # the live edges, in edge order

    match_with = np.full(g.n, -1, dtype=np.int64)
    iterations: list[dict] = []
    cap = 64 * max(math.ceil(math.log2(max(g.n, 4))), 1) + 64

    while len(e_u):
        if len(iterations) >= cap:
            raise RuntimeError("matching sweep cap exceeded; progress stalled")
        deg = np.bincount(e_u, minlength=g.n) + np.bincount(e_v, minlength=g.n)
        dmax = int(deg.max())
        stage = 1 << max(dmax - 1, 0).bit_length()  # 2^ceil(log2 dmax)
        level = max(int(math.log2(stage)) - 4, 0)
        active = deg >= max(stage // 2, 1)

        edge_ids = np.flatnonzero(active[e_u] | active[e_v])
        # the incident edges' active ends: all u-side ends, then all v-side ends
        ends = np.concatenate([e_u[edge_ids], e_v[edge_ids]])
        on = active[ends]
        u_list, u_rank = _renumber(active)
        inst = derived(
            BipartiteInstance,
            imp=deg[u_list].astype(np.float64),
            levels=np.full(len(edge_ids), level, dtype=np.int64),
            edge_u=u_rank[ends[on]],
            edge_v=np.flatnonzero(on) % len(edge_ids),
            size_param=max(g.n, 4),
        )
        sel = hitting_set(inst, params, floor=MATCHING_FLOOR, work=work)
        cand_edges = edge_ids[sel.selected]
        if len(cand_edges) == 0:
            # certified selection came back empty; advance by one edge
            cand_edges = edge_ids[:1]
        taken, col = _extract_matching(e_u[cand_edges], e_v[cand_edges], g.n, work)
        mu, mv = e_u[cand_edges[taken]], e_v[cand_edges[taken]]
        match_with[mu] = mv
        match_with[mv] = mu

        matched_now = match_with >= 0
        live = ~(matched_now[e_u] | matched_now[e_v])
        e_u, e_v = e_u[live], e_v[live]
        iterations.append(
            {
                "stage": stage,
                "level": level,
                "active": int(active.sum()),
                "incident_edges": int(len(edge_ids)),
                "selected_edges": int(len(cand_edges)),
                "matched": int(len(mu)),
                "conflict_colors": col.num_colors,
                "point_steps": col.point_steps,
                "rounds": col.rounds,
                "discarded_rounds": col.discarded_rounds,
                "live_edges": int(len(e_u)),
                "hit_constant": sel.hit_constant,
                "good_importance_fraction": sel.good_importance_fraction,
            }
        )
        charge(work, "match_sweep", len(edge_ids) + g.n)
        if len(mu) == 0:
            raise RuntimeError("matching sweep matched nothing")
        if len(e_u):
            charge(work, "match_compact", len(live) - len(e_u))  # the edges this sweep dropped

    matched_pairs = np.flatnonzero((match_with >= 0) & (np.arange(g.n) < match_with))
    matched_edges = np.stack([matched_pairs, match_with[matched_pairs]], axis=1)
    require(check_maximal_matching(g, match_with), "maximal matching")
    return MatchingResult(
        match_with=match_with,
        matched_edges=matched_edges,
        iterations=iterations,
        work=work,
    )
