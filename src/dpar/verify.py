"""Recomputing oracles for algorithm outputs.

Everything here verifies by full scans over the raw graph and the raw
output arrays, independent of how the algorithms produced them. Each
check returns (ok, details) where details carries the measured
quantities the run reports embed.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .hitting import HIT_UPPER_C, ParamSet


def check_independent(g: Graph, in_set: np.ndarray) -> tuple[bool, dict]:
    owners = g.slot_owners()
    bad = int(np.sum(in_set[owners] & in_set[g.nbrs])) // 2
    return bad == 0, {"conflict_edges": bad, "set_size": int(np.sum(in_set))}


def check_maximal_independent(g: Graph, in_set: np.ndarray) -> tuple[bool, dict]:
    ok_ind, d = check_independent(g, in_set)
    owners = g.slot_owners()
    covered = in_set.copy()
    covered[owners[in_set[g.nbrs]]] = True
    uncovered = int(np.sum(~covered))
    d["uncovered_nodes"] = uncovered
    return ok_ind and uncovered == 0, d


def check_matching(g: Graph, match_with: np.ndarray) -> tuple[bool, dict]:
    mw = np.asarray(match_with, dtype=np.int64)
    matched = mw >= 0
    d = {"matched_pairs": int(np.sum(matched)) // 2}
    if matched.any():
        ids = np.flatnonzero(matched)
        if np.any(mw[ids] == ids) or np.any(mw[mw[ids]] != ids):
            return False, {**d, "symmetric": False}
    # every matched pair must be an actual edge
    owners = g.slot_owners()
    partner_slot = mw[owners] == g.nbrs
    realized = np.zeros(g.n, dtype=bool)
    realized[owners[partner_slot]] = True
    if not np.all(realized == matched):
        return False, {**d, "pairs_are_edges": False}
    return True, d


def check_maximal_matching(g: Graph, match_with: np.ndarray) -> tuple[bool, dict]:
    ok, d = check_matching(g, match_with)
    matched = np.asarray(match_with) >= 0
    owners = g.slot_owners()
    free = int(np.sum(~matched[owners] & ~matched[g.nbrs])) // 2
    d["free_edges"] = free
    return ok and free == 0, d


def check_proper_coloring(g: Graph, colors: np.ndarray) -> tuple[bool, dict]:
    owners = g.slot_owners()
    mono = int(np.sum(colors[owners] == colors[g.nbrs])) // 2
    palette = int(colors.max()) + 1 if g.n else 0
    return mono == 0, {"monochromatic_edges": mono, "palette": palette}


def weighted_mono(g: Graph, colors: np.ndarray) -> tuple[float, float]:
    """(monochromatic weight, total weight) over undirected edges."""
    owners = g.slot_owners()
    uniq = owners < g.nbrs
    w = g.weights[uniq] if g.weights is not None else np.ones(int(uniq.sum()))
    same = colors[owners[uniq]] == colors[g.nbrs[uniq]]
    return float(np.sum(w[same])), float(np.sum(w))


def check_defect_bound(
    g: Graph, colors: np.ndarray, eps: float, palette_cap: int | None = None
) -> tuple[bool, dict]:
    mono, total = weighted_mono(g, colors)
    palette = int(colors.max()) + 1 if g.n else 0
    ok = mono <= eps * total + 1e-9 * max(total, 1.0)
    if palette_cap is not None:
        ok = ok and palette <= palette_cap
    return ok, {
        "mono_weight": mono,
        "total_weight": total,
        "bound": eps * total,
        "palette": palette,
        "palette_cap": palette_cap,
    }


def cut_weight(g: Graph, side: np.ndarray) -> tuple[float, float]:
    """(weight across the cut, total weight)."""
    owners = g.slot_owners()
    uniq = owners < g.nbrs
    w = g.weights[uniq] if g.weights is not None else np.ones(int(uniq.sum()))
    crossing = side[owners[uniq]] != side[g.nbrs[uniq]]
    return float(np.sum(w[crossing])), float(np.sum(w))


def check_cut_bound(g: Graph, side: np.ndarray, eps: float) -> tuple[bool, dict]:
    cut, total = cut_weight(g, side)
    bound = (0.5 - eps) * total
    return cut >= bound - 1e-9 * max(total, 1.0), {
        "cut_weight": cut,
        "total_weight": total,
        "bound": bound,
    }


def check_hitting_window(
    imp: np.ndarray,
    levels: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    selected: np.ndarray,
    floor: int = ParamSet.desk().high_floor_hitting,
) -> tuple[bool, dict]:
    """Recompute hit counts and check the declared window
    [0.5 E - 0.5, HIT_UPPER_C 2^floor (E + 1)] for every left node.

    floor is the level below which the selection never sampled. The
    measured constant C = max hits / (E + 1) is reported next to its
    declared bound HIT_UPPER_C 2^floor.
    """
    n_u = len(imp)
    hits = np.zeros(n_u, dtype=np.int64)
    np.add.at(hits, edge_u, selected[edge_v].astype(np.int64))
    expected = np.zeros(n_u, dtype=np.float64)
    np.add.at(expected, edge_u, np.exp2(-levels[edge_v].astype(np.float64)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = hits / (expected + 1.0)
    c_meas = float(ratios.max()) if n_u else 0.0
    c_bound = HIT_UPPER_C * 2.0**floor
    lower_ok = hits >= 0.5 * expected - 0.5
    upper_ok = hits <= c_bound * (expected + 1.0)
    ok = lower_ok & upper_ok
    tot = float(np.sum(imp))
    frac = float(np.sum(imp[ok])) / tot if tot > 0 else 1.0
    return bool(np.all(ok)), {
        "hit_constant": c_meas,
        "hit_constant_bound": c_bound,
        "window_importance_fraction": frac,
        "in_window": int(np.sum(ok)),
        "left_nodes": int(n_u),
    }
