"""Output checks recomputed from the benchmark's own input arrays.

The checks use numpy only. They share no code with dpar.verify or with the
runtime assertions inside the algorithms, so a fault there cannot hide a
wrong output here. Each check returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import numpy as np

# Declared hit window for hitting_set (README.md, "Check constants"). The
# upper side scales by 2^floor because levels below the floor are never
# sampled, which inflates every hit count by about that factor.
HIT_UPPER_C = 4.0  # every watcher: hits <= HIT_UPPER_C * 2^floor * (E + 1)
HIT_LOWER_SHARE = 0.75  # importance share with hits >= E/2 - 1/2
# Declared window for core_mis_hitting. A candidate at level l kept with
# probability p = min(1, 2^(floor - l)) models a sample that stops halving
# at the floor; the core must hit watchers and avoid aux weight at least
# as well as such a sample does in expectation.
CORE_HIT_SHARE = 0.75  # importance share of watchers with >= 1 selected candidate
CORE_AUX_C = 1.0  # selected aux weight <= CORE_AUX_C * sum w_ij p_i p_j


def _edge_codes(n: int, edges: np.ndarray) -> np.ndarray:
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.sort(lo * np.int64(n) + hi)


def _shape_errors(name: str, arr: np.ndarray, length: int, kinds: str) -> list[str]:
    if arr.ndim != 1 or len(arr) != length or arr.dtype.kind not in kinds:
        return [f"{name}: expected {length} entries of kind {kinds!r}, got {arr.dtype} {arr.shape}"]
    return []


def check_mis(n: int, edges: np.ndarray, in_set) -> list[str]:
    """Independent (no edge inside the set) and maximal (every node outside
    the set has a neighbor inside it)."""
    s = np.asarray(in_set)
    errs = _shape_errors("mis", s, n, "b")
    if errs:
        return errs
    u, v = edges[:, 0], edges[:, 1]
    inside = int(np.sum(s[u] & s[v]))
    if inside:
        errs.append(f"mis: {inside} edges join two set nodes")
    dominated = s.copy()
    dominated[u[s[v]]] = True
    dominated[v[s[u]]] = True
    free = int(np.sum(~dominated))
    if free:
        errs.append(f"mis: {free} nodes are outside the set with no neighbor in it")
    return errs


def check_matching(n: int, edges: np.ndarray, mate) -> list[str]:
    """mate[v] is v's partner or -1: symmetric, every pair an input edge,
    and no edge with two free endpoints."""
    mate = np.asarray(mate)
    errs = _shape_errors("matching", mate, n, "iu")
    if errs:
        return errs
    mate = mate.astype(np.int64)
    if np.any((mate < -1) | (mate >= n)):
        return ["matching: partner id out of range"]
    ids = np.flatnonzero(mate >= 0)
    partner = mate[ids]
    if np.any(partner == ids):
        errs.append("matching: a node is matched to itself")
    asym = int(np.sum(mate[partner] != ids))
    if asym:
        errs.append(f"matching: {asym} nodes whose partner does not point back")
    codes = _edge_codes(n, edges)
    pair = np.minimum(ids, partner) * np.int64(n) + np.maximum(ids, partner)
    pos = np.minimum(np.searchsorted(codes, pair), max(len(codes) - 1, 0))
    not_edge = int(np.sum(codes[pos] != pair)) if len(codes) else len(pair)
    if not_edge:
        errs.append(f"matching: {not_edge} matched nodes whose pair is not an edge")
    free = int(np.sum((mate[edges[:, 0]] < 0) & (mate[edges[:, 1]] < 0)))
    if free:
        errs.append(f"matching: {free} edges with two free endpoints")
    return errs


def hit_counts(n_left: int, edge_u: np.ndarray, edge_v: np.ndarray, selected: np.ndarray) -> np.ndarray:
    return np.bincount(edge_u[selected[edge_v]], minlength=n_left)


def check_hitting(
    imp: np.ndarray,
    levels: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    floor: int,
    selected,
) -> list[str]:
    """Hit counts inside the declared window.

    E_u = sum of 2^-level over u's candidates. Every watcher must have at
    most HIT_UPPER_C * 2^floor * (E_u + 1) hits, and watchers holding at
    least HIT_LOWER_SHARE of the importance at least E_u/2 - 1/2 hits.
    """
    sel = np.asarray(selected)
    errs = _shape_errors("hitting", sel, len(levels), "b")
    if errs:
        return errs
    n_left = len(imp)
    hits = hit_counts(n_left, edge_u, edge_v, sel)
    expected = np.bincount(edge_u, weights=np.exp2(-levels[edge_v].astype(np.float64)), minlength=n_left)
    upper = HIT_UPPER_C * 2.0**floor * (expected + 1.0)
    over = int(np.sum(hits > upper))
    if over:
        worst = float(np.max(hits / (2.0**floor * (expected + 1.0))))
        errs.append(
            f"hitting: {over} watchers above the upper window "
            f"(worst hits/(2^floor (E+1)) = {worst:.3g} > {HIT_UPPER_C})"
        )
    low_ok = hits >= 0.5 * expected - 0.5
    total = float(np.sum(imp))
    share = float(np.sum(imp[low_ok])) / total if total > 0 else 1.0
    if share < HIT_LOWER_SHARE:
        errs.append(f"hitting: lower window holds on importance share {share:.3f} < {HIT_LOWER_SHARE}")
    return errs


def check_core(
    imp: np.ndarray,
    levels: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    aux_i: np.ndarray,
    aux_j: np.ndarray,
    aux_w: np.ndarray,
    floor: int,
    selected,
    u_good,
) -> list[str]:
    """Every watcher marked good has at least one selected watched
    candidate; watchers holding at least CORE_HIT_SHARE of the importance
    have one; and the selected aux weight is at most CORE_AUX_C times the
    expected aux weight of the floor sample."""
    sel = np.asarray(selected)
    good = np.asarray(u_good)
    n_left = len(imp)
    errs = _shape_errors("core selected", sel, len(levels), "b") + _shape_errors("core u_good", good, n_left, "b")
    if errs:
        return errs
    hits = hit_counts(n_left, edge_u, edge_v, sel)
    empty = int(np.sum(good & (hits == 0)))
    if empty:
        errs.append(f"core: {empty} good watchers without a selected watched candidate")
    total = float(np.sum(imp))
    share = float(np.sum(imp[hits > 0])) / total if total > 0 else 1.0
    if share < CORE_HIT_SHARE:
        errs.append(f"core: watchers with a selected candidate hold importance share {share:.3f} < {CORE_HIT_SHARE}")
    keep = np.minimum(1.0, np.exp2(floor - levels.astype(np.float64)))
    expected = float(np.sum(aux_w * keep[aux_i] * keep[aux_j]))
    chosen = float(np.sum(aux_w[sel[aux_i] & sel[aux_j]]))
    if chosen > CORE_AUX_C * expected:
        errs.append(f"core: selected aux weight {chosen:.4g} > {CORE_AUX_C} * expected {expected:.4g}")
    return errs
