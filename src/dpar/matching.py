"""Deterministic maximal matching via certified edge selection.

Each sweep targets the top degree stage: nodes whose live degree reaches
half the current power-of-two ceiling. Their live edges form the right
side of a bipartite instance (levels tied to the stage, so each active
node carries probability mass a few units wide), the hitting machinery
selects a sparse certified edge set, and a proper coloring of the
selected edges' conflicts turns that set into a matching. Matched nodes
leave, dropping the stage, and the sweeps continue until no edge is live.

The conflicts are colored from the selected edges' endpoint cliques (each
node's incident edges form one clique), in point steps that touch the 2k
memberships of the k edges rather than the sum of deg^2 slots of their
line graph; the colors equal those of the line graph's coloring (see
coloring.EdgeCliques). Each sweep's report gives the color classes its
extraction sweeps one after another (conflict_colors) and the point steps
of its coloring (point_steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import EdgeCliques, color_delta_squared
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
    e_u: np.ndarray,
    e_v: np.ndarray,
    n: int,
    work: WorkCounter | None,
) -> tuple[np.ndarray, int, int]:
    """Maximal (greedy) sub-matching of the given edge set, as a bool mask,
    with the color classes it sweeps and the point steps of its coloring.

    Colors the conflicts (edges sharing an endpoint) from their endpoint
    cliques, with no line graph (see coloring.EdgeCliques), and sweeps the
    color classes in order, taking every edge whose endpoints are still
    free. Within a class no two edges conflict, so the sweep is one
    parallel step per class. Edges that share no endpoint are all taken in
    one step."""
    k = len(e_u)
    if k == 0:
        return np.zeros(0, dtype=bool), 0, 0
    if (np.bincount(e_u, minlength=n) + np.bincount(e_v, minlength=n)).max() <= 1:
        return np.ones(k, dtype=bool), 1, 0
    charge(work, "match_conflicts", 2 * k)
    col = color_delta_squared(EdgeCliques(e_u, e_v, n), work=work)

    chosen = np.zeros(k, dtype=bool)
    used = np.zeros(n, dtype=bool)
    node_order = np.argsort(col.colors, kind="stable")
    bounds = np.searchsorted(col.colors[node_order], np.arange(col.num_colors + 1))
    for c in range(col.num_colors):
        members = node_order[bounds[c] : bounds[c + 1]]
        if len(members) == 0:
            continue
        take = members[~used[e_u[members]] & ~used[e_v[members]]]
        chosen[take] = True
        used[e_u[take]] = True
        used[e_v[take]] = True
        charge(work, "match_extract", len(members))
    return chosen, col.num_colors, col.point_steps


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
    e_u = owners[uniq].copy()
    e_v = g.nbrs[uniq].copy()
    alive = np.ones(len(e_u), dtype=bool)

    match_with = np.full(g.n, -1, dtype=np.int64)
    iterations: list[dict] = []
    cap = 64 * max(math.ceil(math.log2(max(g.n, 4))), 1) + 64

    while alive.any():
        if len(iterations) >= cap:
            raise RuntimeError("matching sweep cap exceeded; progress stalled")
        au, av = e_u[alive], e_v[alive]
        deg = np.bincount(au, minlength=g.n) + np.bincount(av, minlength=g.n)
        dmax = int(deg.max())
        stage = 1 << max(dmax - 1, 0).bit_length()  # 2^ceil(log2 dmax)
        level = max(int(math.log2(stage)) - 4, 0)
        active = deg >= max(stage // 2, 1)

        inc = active[au] | active[av]
        edge_ids = np.flatnonzero(alive)[inc]
        iu, iv = e_u[edge_ids], e_v[edge_ids]
        u_list, u_rank = _renumber(active)
        h_u = []
        h_v = []
        for side in (iu, iv):
            on = active[side]
            h_u.append(u_rank[side[on]])
            h_v.append(np.flatnonzero(on))
        inst = derived(
            BipartiteInstance,
            imp=deg[u_list].astype(np.float64),
            levels=np.full(len(edge_ids), level, dtype=np.int64),
            edge_u=np.concatenate(h_u),
            edge_v=np.concatenate(h_v),
            size_param=max(g.n, 4),
        )
        sel = hitting_set(inst, params, floor=MATCHING_FLOOR, work=work)
        cand_edges = edge_ids[sel.selected]
        if len(cand_edges) == 0:
            # certified selection came back empty; advance by one edge
            cand_edges = edge_ids[:1]
        taken, classes, steps = _extract_matching(e_u[cand_edges], e_v[cand_edges], g.n, work)
        mu, mv = e_u[cand_edges[taken]], e_v[cand_edges[taken]]
        match_with[mu] = mv
        match_with[mv] = mu

        matched_now = match_with >= 0
        dead = matched_now[e_u] | matched_now[e_v]
        alive &= ~dead
        iterations.append(
            {
                "stage": stage,
                "level": level,
                "active": int(active.sum()),
                "incident_edges": int(len(edge_ids)),
                "selected_edges": int(len(cand_edges)),
                "matched": int(len(mu)),
                "conflict_colors": classes,
                "point_steps": steps,
                "live_edges": int(alive.sum()),
                "hit_constant": sel.hit_constant,
                "good_importance_fraction": sel.good_importance_fraction,
            }
        )
        charge(work, "match_sweep", int(np.sum(inc)) + g.n)
        if len(mu) == 0:
            raise RuntimeError("matching sweep matched nothing")
        # compact the live edge list once most of it is dead
        if alive.any() and alive.mean() < 1.0 / 3.0:
            charge(work, "match_compact", int((~alive).sum()))
            e_u, e_v = e_u[alive], e_v[alive]
            alive = np.ones(len(e_u), dtype=bool)

    matched_pairs = np.flatnonzero((match_with >= 0) & (np.arange(g.n) < match_with))
    matched_edges = np.stack([matched_pairs, match_with[matched_pairs]], axis=1)
    require(check_maximal_matching(g, match_with), "maximal matching")
    return MatchingResult(
        match_with=match_with,
        matched_edges=matched_edges,
        iterations=iterations,
        work=work,
    )
