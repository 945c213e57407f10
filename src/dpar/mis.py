"""Deterministic maximal independent set via certified half-sampling.

Every node derives a sampling level from its degree (marking probability
2^-level); the marking is derandomized level by level by the regime driver
of the hitting machinery (MisRegimeDriver subclasses hitting.RegimeDriver),
but against a richer potential stack:

  * the three low-regime bucket potentials shared with the hitting module,
  * a bucket potential over the "special" endpoints of an explicit edge
    bucketing of the candidate graph (controls how many candidate edges
    survive a halving), and
  * a linear potential over an auxiliary weighted graph whose realized
    value certifies that the selected set stays light: the mixed sum
    sum w(e) 2^-(k+k') grows by at most (1+gamma) per round.

Watcher nodes (high-degree nodes with a large in-neighborhood under the
(degree, id) orientation) audit the process: each keeps at least one and
at most a measured constant of marked in-neighbors. Marked nodes with few
marked out-neighbors are independent-ish - removing them and their
neighbors deletes a constant fraction of the degree mass - so iterating
yields a maximal independent set in a logarithmic number of sweeps.

All certified inequalities are asserted at runtime; violations raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coloring import color_delta_squared, greedy_classes
from .graph import Graph, compact_subgraph, derived, has_repeated_pairs
from .hitting import (
    BAD_NODE_EXP,
    EPS_DENOM_HIGH,
    EPS_DENOM_LOW,
    BipartiteInstance,
    ParamSet,
    QuadPotential,
    RegimeDriver,
    RoundPlan,
    _group_full_buckets,
    _renumber,
    build_low_potentials,
    low_drift_rule,
    node_share,
    run_half,  # noqa: F401  (still importable from here, for tools that trace halvings)
    sub_problem,
)
from .rounding import tiled_sum
from .sorting import first_of_runs, radix_lexorder, radix_order
from .verify import check_maximal_independent, require
from .workcount import WorkCounter, charge

AUX_FACTOR_LOW = 100.0  # linear aux potential scale in the low regime
AUX_FACTOR_HIGH = 10.0
LOW_BOUND_BASE = 5.0  # five potentials, each mean <= 1 after the aux rescale
HIGH_BOUND_BASE = 3.0
ENTRY_MASS_CAP = 40.0  # per-watcher probability mass allowed into the high regime
ROUND_MASS_CAP = 45.0  # per-watcher mass after any single high-regime round


# --- instances -----------------------------------------------------------------


@dataclass
class MisAuxInstance(BipartiteInstance):
    """Bipartite watcher/candidate structure plus a weighted candidate graph.

    Watchers (left) carry importances; candidates (right) carry sampling
    levels. edge_u/edge_v is the watch relation. aux_i/aux_j/aux_w is an
    undirected weighted graph over the candidates whose selected weight the
    pipeline keeps certified-light; vert_w are per-candidate weights folded
    into the same certificates. A hitting instance is the case without aux
    edges or vertex weights.
    """

    aux_i: np.ndarray
    aux_j: np.ndarray
    aux_w: np.ndarray
    vert_w: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.aux_i = np.asarray(self.aux_i, dtype=np.int64)
        self.aux_j = np.asarray(self.aux_j, dtype=np.int64)
        self.aux_w = np.asarray(self.aux_w, dtype=np.float64)
        self.vert_w = np.asarray(self.vert_w, dtype=np.float64)
        n_v = self.n_right
        if not (len(self.aux_i) == len(self.aux_j) == len(self.aux_w)):
            raise ValueError("aux edge arrays must have equal length")
        if len(self.vert_w) != n_v:
            raise ValueError("vert_w must have one entry per candidate")
        if len(self.aux_i):
            lo = min(self.aux_i.min(), self.aux_j.min())
            hi = max(self.aux_i.max(), self.aux_j.max())
            if lo < 0 or hi >= n_v:
                raise ValueError("aux edge endpoint out of range")
            if np.any(self.aux_i == self.aux_j):
                raise ValueError("aux self-loop")
            if has_repeated_pairs(self.aux_i, self.aux_j, n_v):
                raise ValueError("duplicate aux edge")
        if not np.all(np.isfinite(self.aux_w) & (self.aux_w >= 0)):
            raise ValueError("aux weights must be finite and nonnegative")
        if not np.all(np.isfinite(self.vert_w) & (self.vert_w >= 0)):
            raise ValueError("vertex weights must be finite and nonnegative")

    # per watcher: sum of 2^-level over the watched candidates
    watch_mass = BipartiteInstance.expected_hits


# --- edge bucketing -------------------------------------------------------------


@dataclass
class EdgeBucketing:
    """Partition of a simple graph's edges into buckets of exactly b edges.

    Within a bucket every edge carries a distinct "special" endpoint:
    buckets formed from one owner's edge block use the far endpoints,
    buckets formed across b distinct owners use the owners. At most b^3
    edges stay leftover (unbucketed).
    """

    specials: np.ndarray  # node ids, bucket-major, each bucket exactly b long
    b: int
    edge_bucket: np.ndarray  # per input edge: bucket id, -1 when leftover
    leftover: int

    @property
    def n_buckets(self) -> int:
        return len(self.specials) // self.b if self.b else 0

    def potential(self) -> QuadPotential:
        """Bucket potential over the special endpoints with mean exactly 1."""
        k = self.n_buckets
        coef = np.full(k, 4.0 / (self.b * k) if k else 0.0)
        return QuadPotential(members=self.specials, coefs=coef, b=self.b, name="phi_special")


def edge_buckets(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    b: int,
    work: WorkCounter | None = None,
) -> EdgeBucketing:
    """Bucket the edges of a simple graph given as unique undirected pairs.

    Each edge has one owner: its endpoint of degree >= b when only one
    endpoint has that degree, else the smaller endpoint. Two passes of the
    bucket builder (hitting._group_full_buckets) then cut the buckets.
    Pass 1 chunks each owner's edges, sorted by far endpoint, into full
    buckets (special = far endpoint). Pass 2 groups the edges left over,
    d < b per owner, by (d, rank of the edge among its owner's leftovers)
    and chunks each group, ordered by owner, into buckets of b owners
    (special = owner). Only incomplete groups stay leftover, fewer than
    b^3 edges in total.
    """
    if b < 2:
        raise ValueError("bucket size must be at least 2")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    m = len(src)
    if len(dst) != m:
        raise ValueError("edge arrays must have equal length")
    if m and (src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError("edge endpoint out of range")
    if np.any(src == dst):
        raise ValueError("self-loop")
    if has_repeated_pairs(src, dst, n):
        raise ValueError("duplicate edge")

    deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    high = deg >= b
    sh, dh = high[src], high[dst]
    owner = np.where(sh & ~dh, src, np.where(dh & ~sh, dst, np.minimum(src, dst)))
    other = src + dst - owner

    order = radix_lexorder((other, owner), (n, n))
    o_own = owner[order]
    full, _, _ = _group_full_buckets(o_own, None, order, b, first=first_of_runs(o_own))
    edge_bucket = np.full(m, -1, dtype=np.int64)
    edge_bucket[full] = np.arange(len(full)) // b

    rest = order[edge_bucket[order] < 0]  # still (owner, far end)-sorted
    r_first = first_of_runs(owner[rest])
    r_starts = np.flatnonzero(r_first)
    d = np.diff(np.r_[r_starts, len(rest)])
    rank = np.arange(len(rest)) - r_starts[np.cumsum(r_first) - 1]
    # a stable sort by (d, rank) keeps each group in owner order
    key = np.repeat(d, d) * b + rank
    by_key = radix_order(key, b * b)
    key = key[by_key]
    cross, _, _ = _group_full_buckets(key, None, rest[by_key], b, first=first_of_runs(key))
    edge_bucket[cross] = (len(full) + np.arange(len(cross))) // b

    leftover = m - len(full) - len(cross)
    if leftover >= b**3:
        raise RuntimeError("edge bucketing leftover exceeded b^3; construction broken")
    if m:  # an edgeless graph is bucketed for free
        charge(work, "edge_buckets", m + n)
    specials = np.concatenate([other[full], owner[cross]])
    return EdgeBucketing(specials=specials, b=b, edge_bucket=edge_bucket, leftover=leftover)


# --- linear aux potential --------------------------------------------------------


@dataclass
class LinearEdgePotential:
    """factor * (4 * selected edge weight + 2 * selected vertex weight) / W.

    W is the total edge plus vertex weight; under independent fair coins
    the mean is exactly factor. Utilities are negative (selecting a node
    costs vertex weight) and selected pairs cost edge weight, so the
    rounding drives the realized value toward the mean from above.
    """

    name: str
    factor: float
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_w: np.ndarray
    vert_w: np.ndarray
    norm: float

    @staticmethod
    def build(
        name: str,
        factor: float,
        edge_i: np.ndarray,
        edge_j: np.ndarray,
        edge_w: np.ndarray,
        vert_w: np.ndarray,
    ) -> "LinearEdgePotential | None":
        """None when there is no weight at all (the potential vanishes)."""
        norm = float(np.sum(edge_w)) + float(np.sum(vert_w))
        if norm <= 0.0:
            return None
        keep = edge_w > 0
        return LinearEdgePotential(
            name=name,
            factor=factor,
            edge_i=edge_i[keep],
            edge_j=edge_j[keep],
            edge_w=edge_w[keep],
            vert_w=vert_w,
            norm=norm,
        )

    def utils(self, n_cand: int) -> np.ndarray:
        return -(self.factor * 2.0 / self.norm) * self.vert_w

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.edge_i, self.edge_j, (self.factor * 4.0 / self.norm) * self.edge_w

    def value(self, in_set: np.ndarray) -> float:
        both = in_set[self.edge_i] & in_set[self.edge_j]
        e_part = float(np.sum(self.edge_w[both]))
        v_part = float(np.sum(self.vert_w[in_set]))
        return self.factor * (4.0 * e_part + 2.0 * v_part) / self.norm

    def expectation(self) -> float:
        return self.factor

    def total_cost(self) -> float:
        return self.factor * 4.0 * float(np.sum(self.edge_w)) / self.norm


def _mixed_sum(sub: MisAuxInstance, node_mask: np.ndarray, lev_eff: np.ndarray) -> float:
    """sum of aux edge weight at 2^-(k+k') plus vertex weight at 2^-k over
    the masked candidates (edges need both endpoints masked).

    Each candidate's factor 2^-k, 0 off the mask, is taken once; the
    product of two factors is the power of two exp2(-(k + k')) exactly, so
    the sum has the bits of the per-edge formula."""
    f = np.where(node_mask, np.exp2(-lev_eff.astype(np.float64)), 0.0)
    e_term = tiled_sum(sub.aux_w * (f[sub.aux_i] * f[sub.aux_j]))
    v_term = tiled_sum(sub.vert_w * f)
    return float(e_term + v_term)


def _fold_cross(out, local, inst, src, dst, exponent: Callable) -> None:
    """Add w 2^-exponent(s, t) to out[local[s]] for every aux edge {s, t}
    of inst with s in src and t in dst, in both orientations."""
    for s, t in ((inst.aux_i, inst.aux_j), (inst.aux_j, inst.aux_i)):
        cross = src[s] & dst[t]
        if cross.any():
            s_c, t_c = s[cross], t[cross]
            weight = inst.aux_w[cross] * np.exp2(-exponent(s_c, t_c).astype(np.float64))
            np.add.at(out, local[s_c], weight)


def _candidate_aux(sub, h) -> tuple[np.ndarray, np.ndarray, np.ndarray | slice]:
    """The aux edges of sub between candidates of the halving h, as
    candidate-id pairs, and their index into sub's aux arrays. When every
    node of sub is a candidate, candidate ids are sub's ids: the pairs are
    sub's own arrays and the index a full slice, so nothing is copied."""
    if len(h.cand) == len(h.local):
        return sub.aux_i, sub.aux_j, slice(None)
    is_cand = h.local >= 0
    keep_a = is_cand[sub.aux_i] & is_cand[sub.aux_j]
    return h.local[sub.aux_i[keep_a]], h.local[sub.aux_j[keep_a]], keep_a


def _add_aux_potential(pots, h, ai, aj, aw, vw, factor, denom) -> tuple[float, float]:
    """Append the linear aux potential (unless it vanishes); return the
    adaptive eps and the total pairwise cost c of the stack.

    eps is 1/(denom (b-1)), cut to 1/c when that is smaller: eps c <= 1
    keeps the assembled potential within 1 of its mean sum, which makes
    the certified bounds provable rather than empirical.
    """
    lin = LinearEdgePotential.build("phi_aux", factor / h.gamma, ai, aj, aw, vw)
    if lin is not None:
        pots.append(lin)
    c_tot = math.fsum(p.total_cost() for p in pots)
    eps = 1.0 / (denom * max(h.b - 1, 1))
    return (min(eps, 1.0 / c_tot) if c_tot > 0 else eps), c_tot


# --- the core selection lemma ---------------------------------------------------


class MisRegimeDriver(RegimeDriver):
    """The regime driver with core_mis_hitting's potential stack.

    Low rounds add two potentials to the three of the hitting low regime:
    a bucket potential over an edge bucketing of the candidates' aux graph
    and the linear aux potential, certified under 5 + 100/gamma. High
    rounds use one hit potential per watcher, normalized by its candidate
    neighbors, plus the linear aux potential, under 3 + 10/gamma. Both take
    the adaptive eps. Per round, the aux mixed sum may grow by at most a
    factor 1 + gamma within a total drift budget of 2; at the end the
    frozen aux weight is certified against twice the starting mixed sum
    and the selected aux weight against 2^(2 floor) times the drift times
    it. Watcher mass is capped at ENTRY_MASS_CAP into the high regime and
    at ROUND_MASS_CAP after each high round, whose report gives the largest
    good-watcher mass as max_watch_mass.
    """

    tags = {"low": "mis_low", "high": "mis_high"}
    labels = {"low": "mis_low_round", "high": "mis_high_round", "skip": "mis_high_skip"}

    def restrict(self, inst, regime, v_mask, u_mask, levels):
        """Aux edges inside v_mask stay; in the low regime, aux edges into
        the rest of the input fold into vertex weights at the far end's
        level. Entry into the high regime checks the watcher mass cap.

        A v_mask that keeps every right node keeps every aux edge under
        the same ids, so aux_i, aux_j and aux_w are the input's arrays,
        shared rather than copied (and the watch edges too, when u_mask
        keeps every left node that has one; see sub_problem). Only
        vert_w, which the low regime folds into, is always a copy."""
        if regime == "high" and np.any(inst.watch_mass(v_mask, levels) > ENTRY_MASS_CAP + 1e-9):
            raise RuntimeError(
                "watcher probability mass exceeds the entry cap after the low regime"
            )
        sub, ids, local = sub_problem(inst, v_mask, u_mask, levels)
        if len(ids) < inst.n_right:
            keep_a = v_mask[inst.aux_i] & v_mask[inst.aux_j]
            sub.aux_i = local[inst.aux_i[keep_a]]
            sub.aux_j = local[inst.aux_j[keep_a]]
            sub.aux_w = inst.aux_w[keep_a]
        sub.vert_w = inst.vert_w[ids]
        if regime == "low":
            _fold_cross(sub.vert_w, local, inst, v_mask, ~v_mask, lambda s, t: inst.levels[t])
        return sub, ids

    def start(self, sub, regime):
        k_cap = self.params.level_cap(sub.size_param)
        lev = np.maximum(sub.levels, k_cap) if regime == "low" else np.minimum(sub.levels, k_cap)
        self.mixed_start = self.mixed = _mixed_sum(sub, self.v_alive, lev)
        self.drift = 1.0  # product of (1 + gamma) over the rounds run

    def plan_low(self, sub, h):
        if self.drift * (1.0 + h.gamma) > 2.0:
            raise RuntimeError("aux drift budget exhausted; too many low rounds")
        b, lev, n_cand = h.b, h.levels, len(h.cand)
        # per candidate: own vertex weight plus edges into the frozen set
        vw = sub.vert_w[h.cand] * np.exp2(-lev.astype(np.float64))
        _fold_cross(
            vw, h.local, sub, self.v_alive, self.v_frozen, lambda s, t: lev[h.local[s]] + h.level
        )
        lp = build_low_potentials(sub.imp, lev, h.edge_u, h.edge_v, b, n_cand)
        pots = list(lp.pots)
        ai, aj, keep_a = _candidate_aux(sub, h)
        eb = edge_buckets(n_cand, ai, aj, b, work=self.work)
        if eb.n_buckets:
            pots.append(eb.potential())
        aw = sub.aux_w[keep_a] * np.exp2(-(lev[ai] + lev[aj]).astype(np.float64))
        eps, c_tot = _add_aux_potential(pots, h, ai, aj, aw, vw, AUX_FACTOR_LOW, EPS_DENOM_LOW)

        def judge(half):
            # per watcher: edges the bucket trim left out (count mod b per level)
            tracked = np.bincount(h.edge_u, minlength=sub.n_left)
            trim = tracked - b * np.bincount(lp.tag_u, minlength=sub.n_left)
            trim_max = int(trim.max()) if sub.n_left else 0
            # the bucket trim may hide at most gamma 2^K edges of any watcher
            if trim_max > h.gamma * 2.0**h.level:
                raise RuntimeError("bucket trim dropped too many edges of one watcher")
            phi_weighted = half.phi_values.get("phi_weighted", 0.0)
            return low_drift_rule(lp, half.selected, b), {
                "cost_total": c_tot,
                "aux_buckets": int(eb.n_buckets),
                "aux_leftover": int(eb.leftover),
                "tracked_importance": lp.tot_imp,
                "good_importance_bound": max(
                    0.0, 1.0 - phi_weighted / (4.0 * float(b) ** BAD_NODE_EXP)
                ),
                "trim_dropped_max": trim_max,
            }

        return RoundPlan(pots, eps, LOW_BOUND_BASE + AUX_FACTOR_LOW / h.gamma, judge, len(ai))

    def plan_high(self, sub, h):
        b, level = h.b, h.level
        is_cand = h.local >= 0
        # per candidate: own vertex weight plus edges into alive nodes that
        # wait below the level, at their own level
        vw = sub.vert_w[h.cand] * 2.0 ** (-float(level))
        lev_cur = np.minimum(sub.levels, level)
        _fold_cross(
            vw, h.local, sub, is_cand, self.v_alive & ~is_cand, lambda s, t: level + lev_cur[t]
        )
        members, tag_u, _ = _group_full_buckets(
            h.edge_u, None, h.edge_v, b, bounds=(sub.n_left, len(h.cand))
        )
        n_buckets = len(members) // b
        cand_deg = np.bincount(h.edge_u, minlength=sub.n_left).astype(np.float64)
        tot_imp = float(np.sum(sub.imp[cand_deg > 0]))
        pots: list = []
        if n_buckets and tot_imp > 0:
            with np.errstate(divide="ignore"):
                coef = np.where(
                    cand_deg[tag_u] > 0, 4.0 * sub.imp[tag_u] / (tot_imp * cand_deg[tag_u]), 0.0
                )
            pots.append(QuadPotential(members=members, coefs=coef, b=b, name="phi_hits"))
        hit_pot = pots[0] if pots else None
        ai, aj, keep_a = _candidate_aux(sub, h)
        aw = sub.aux_w[keep_a] * 2.0 ** (-2.0 * level)
        eps, c_tot = _add_aux_potential(pots, h, ai, aj, aw, vw, AUX_FACTOR_HIGH, EPS_DENOM_HIGH)

        def judge(half):
            q = np.zeros(sub.n_left, dtype=np.float64)
            if hit_pot is not None:
                q = node_share(tag_u, 4.0 * hit_pot.sq_dev(half.selected), cand_deg)
            markov_thr = float(b) ** BAD_NODE_EXP
            phi_hits = half.phi_values.get("phi_hits", 0.0)
            return q > markov_thr, {
                "cost_total": c_tot,
                "buckets": int(n_buckets),
                "tracked_importance": tot_imp,
                "good_importance_bound": max(0.0, 1.0 - phi_hits / markov_thr),
            }

        return RoundPlan(pots, eps, HIGH_BOUND_BASE + AUX_FACTOR_HIGH / h.gamma, judge, len(ai))

    def after(self, sub, h, report):
        if h.regime == "low":
            mask = self.v_alive | self.v_frozen
            lev = np.maximum(sub.levels - (h.round + 1), h.level)
        else:
            mask, lev = self.v_alive, np.minimum(sub.levels, h.level - 1)
            good_mass = sub.watch_mass(self.v_alive, lev)[self.u_good]
            report["max_watch_mass"] = float(good_mass.max()) if len(good_mass) else 0.0
            if report["max_watch_mass"] > ROUND_MASS_CAP + 1e-9:
                raise RuntimeError("watcher probability mass exceeded the per-round cap")
        mixed = _mixed_sum(sub, mask, lev)
        report["mixed_sum"] = mixed
        if mixed > (1.0 + h.gamma) * self.mixed + 1e-9 * max(self.mixed, 1.0):
            raise RuntimeError("aux mixed-sum drift certificate violated")
        self.mixed = mixed
        self.drift *= 1.0 + h.gamma

    def finish(self, sub, regime, survivors):
        start = self.mixed_start
        if regime == "low":
            lev_k = np.full(sub.n_right, self.params.level_cap(sub.size_param), dtype=np.int64)
            frozen_weight = _mixed_sum(sub, survivors, lev_k)
            if frozen_weight > 2.0 * start + 1e-9 * max(start, 1.0):
                raise RuntimeError("frozen aux weight exceeds twice the starting mixed sum")
            return
        both = survivors[sub.aux_i] & survivors[sub.aux_j]
        cap = 2.0 ** (2.0 * self.floor) * self.drift * start
        if float(np.sum(sub.aux_w[both])) > cap + 1e-9 * max(cap, 1.0):
            raise RuntimeError("selected aux weight exceeds its certified cap")


def _reject_unhalved_entry(inst: MisAuxInstance, params: ParamSet, k_cap: int) -> None:
    """Raise ValueError when a low round's bucket is below 2 (small N), so
    that candidates above K may reach level K unhalved, and an aux edge
    touches one (each skipped level weighs it up to 4 times more, against
    an allowance of 2) or a watcher's mass at level K tops ENTRY_MASS_CAP."""
    rounds, n = int(inst.levels.max(initial=0)) - k_cap, inst.size_param
    # gamma falls from round to round; the bucket min((1/gamma)^beta, ~gamma)
    # first grows and then shrinks, so its smallest value is at an end
    if rounds < 1 or min(params.bucket_low(params.gamma_low(i, n), n) for i in {0, rounds - 1}) > 1:
        return
    why = (
        f"size_param {n} is too small for candidates above K = {k_cap}: "
        "a low-regime bucket falls below 2, so they would reach level K unhalved"
    )
    above = inst.levels > k_cap
    if np.any(above[inst.aux_i] | above[inst.aux_j]):
        raise ValueError(f"{why}, and an aux edge touches one of them")
    if np.any(inst.watch_mass(None, np.minimum(inst.levels, k_cap)) > ENTRY_MASS_CAP + 1e-9):
        raise ValueError(f"{why}, and a watcher's mass could exceed {ENTRY_MASS_CAP} there")


@dataclass
class CoreMisResult:
    selected: np.ndarray  # bool per candidate
    u_good: np.ndarray  # bool per watcher: certified hit window
    hits: np.ndarray  # selected watched nodes per watcher
    good_importance_fraction: float
    aux_selected_weight: float
    rounds: list[dict]
    work: WorkCounter


def core_mis_hitting(
    inst: MisAuxInstance,
    params: ParamSet | None = None,
    work: WorkCounter | None = None,
    threads: int = 1,  # accepted for benchmark/workloads.py, which passes threads=1
) -> CoreMisResult:
    """Select candidates so every watcher keeps some selected watched node
    while the selected aux weight stays near its expectation.

    Requires per-watcher probability mass sum 2^-k in [5, 10] and no input
    vertex weights (the regimes derive their own). Candidates above level K
    go through the low regime first; survivors join the rest at level K and
    are halved down to the floor (MisRegimeDriver). Where size_param is too
    small for the low regime to halve them, candidates above K must carry
    no aux edge and must keep every watcher's mass under the entry cap at
    level K, or the call raises ValueError (_reject_unhalved_entry).
    """
    if threads != 1:
        raise ValueError("dpar runs sequentially; threads must be 1")
    params = params or ParamSet.desk()
    work = work if work is not None else WorkCounter()
    k_cap = params.level_cap(inst.size_param)
    if np.any(inst.vert_w != 0):
        raise ValueError("core instance must not carry vertex weights")
    if inst.n_left:
        mass = inst.watch_mass()
        if np.any((mass < 5.0 - 1e-9) | (mass > 10.0 + 1e-9)):
            raise ValueError("watcher probability mass outside [5, 10]")
    _reject_unhalved_entry(inst, params, k_cap)
    driver = MisRegimeDriver(params, params.high_floor_mis, work)
    selected, u_good, rounds = driver.run(inst)

    hits = np.zeros(inst.n_left, dtype=np.int64)
    np.add.at(hits, inst.edge_u, selected[inst.edge_v].astype(np.int64))
    u_good &= hits > 0
    tot_imp = float(np.sum(inst.imp))
    good_frac = float(np.sum(inst.imp[u_good])) / tot_imp if tot_imp > 0 else 1.0

    both = selected[inst.aux_i] & selected[inst.aux_j]
    aux_sel = float(np.sum(inst.aux_w[both]))
    charge(work, "core_mis_finalize", inst.n_left + len(inst.edge_u) + len(inst.aux_i))
    return CoreMisResult(
        selected=selected,
        u_good=u_good,
        hits=hits,
        good_importance_fraction=good_frac,
        aux_selected_weight=aux_sel,
        rounds=rounds,
        work=work,
    )


# --- independent-ish sets on graphs ----------------------------------------------


@dataclass
class IndependentishResult:
    s_star: np.ndarray  # bool: selected nodes with few selected out-neighbors
    s_raw: np.ndarray  # bool: all selected nodes
    keys: np.ndarray  # per node: (degree, id) orientation key
    watchers: np.ndarray  # bool: audited nodes
    dropped_watchers: int  # audited nodes whose in-neighborhood mass fell short
    removed_degree_fraction: float  # deg(s_star + neighbors) / |E|
    fallback: bool  # the defensive single-node selection fired
    core: CoreMisResult


def independentish_set(
    g: Graph,
    params: ParamSet | None = None,
    work: WorkCounter | None = None,
) -> IndependentishResult:
    """One derandomized marking sweep of the graph.

    Nodes mark with probability min(32/2^ceil(log2 deg), 1), derandomized
    by the core selection so that audited nodes (degree >= 33 with at least
    a third of their edges incoming under the (degree, id) orientation)
    keep marked in-neighbors, and the aux weights keep the marked set
    sparse. Marked nodes with at most outdeg_cap marked out-neighbors form
    the output set.
    """
    params = params or ParamSet.desk()
    work = work if work is not None else WorkCounter()
    n = g.n
    deg = g.degrees().astype(np.int64)
    owners = g.slot_owners()
    key = deg * np.int64(n) + np.arange(n, dtype=np.int64)

    levels = np.zeros(n, dtype=np.int64)
    big = deg > 32
    if big.any():
        levels[big] = np.ceil(np.log2(deg[big].astype(np.float64))).astype(np.int64) - 5

    # keys are distinct and no slot is a self-loop, so a slot that is not
    # incoming under the (degree, id) orientation is outgoing
    in_mask = key[g.nbrs] < np.repeat(key, deg)
    has_slots = deg > 0
    # the nonempty blocks' starts cut the slots into exactly those blocks
    starts = g.offsets[:-1][has_slots]

    def per_node(slot_mask):
        """Per node: how many slots of its block are set in slot_mask."""
        counts = np.zeros(n, dtype=np.int64)
        counts[has_slots] = np.add.reduceat(slot_mask, starts, dtype=np.int64)
        return counts

    watchers = (3 * per_node(in_mask) >= deg) & (deg >= 33)

    # greedy in-neighbor prefix until the probability mass reaches 5
    audited = in_mask & np.repeat(watchers, deg)
    contrib = np.exp2(-levels.astype(np.float64))[g.nbrs]
    contrib *= audited
    local_prev = np.cumsum(contrib)
    local_prev -= contrib
    block_base = np.zeros(n, dtype=np.float64)
    block_base[has_slots] = local_prev[starts]
    local_prev -= np.repeat(block_base, deg)
    take = np.flatnonzero(audited & (local_prev < 5.0))
    del audited, local_prev
    take_owner = owners[take]

    mass = np.bincount(take_owner, weights=contrib[take], minlength=n)
    del contrib
    # per-step mass is at most 2^0 = 1, so the first crossing of 5 lands in
    # [5, 6]; the certificate below holds the prefix rule to mass <= 7
    valid = mass >= 5.0
    dropped = int(np.sum(watchers & ~valid))
    watchers &= valid
    kept = valid[take_owner]
    take, take_owner = take[kept], take_owner[kept]
    if watchers.any() and not np.all(mass[watchers] <= 7.0):
        raise RuntimeError("audited in-neighborhood mass overshot; prefix rule broken")

    u_list, u_rank = _renumber(watchers)
    h_u = u_rank[take_owner]
    h_v = g.nbrs[take]
    # integer sums, exact in float64; bincount of no entries is int64
    weight = np.bincount(h_v, weights=deg[take_owner], minlength=n).astype(np.float64, copy=False)
    del take, take_owner

    uniq = owners < g.nbrs
    e_i, e_j = owners[uniq], g.nbrs[uniq]
    aux_w = weight[np.where(in_mask[uniq], e_j, e_i)]  # per edge: the weight of its tail
    del uniq, owners

    # the aux edges are the validated graph's own edges
    inst = derived(
        MisAuxInstance,
        imp=deg[u_list].astype(np.float64),
        levels=levels,
        edge_u=h_u,
        edge_v=h_v,
        aux_i=e_i,
        aux_j=e_j,
        aux_w=aux_w,
        vert_w=np.zeros(n, dtype=np.float64),
        size_param=max(n, 4),
    )
    core = core_mis_hitting(inst, params, work=work)
    s_raw = core.selected.copy()
    fallback = False
    if not s_raw.any() and n:
        # cannot happen when some candidate sits at or below the floor level;
        # keeps the outer loop progressing on adversarial inputs
        s_raw[int(np.argmax(key))] = True
        fallback = True

    out_in_s = per_node(np.repeat(s_raw, deg) & s_raw[g.nbrs] & ~in_mask)
    s_star = s_raw & (out_in_s <= params.outdeg_cap)

    touched = s_star.copy()
    touched[g.nbrs[np.repeat(s_star, deg)]] = True
    frac = float(np.sum(deg[touched])) / max(g.m, 1)
    charge(work, "independentish", n + len(g.nbrs))
    return IndependentishResult(
        s_star=s_star,
        s_raw=s_raw,
        keys=key,
        watchers=watchers,
        dropped_watchers=dropped,
        removed_degree_fraction=frac,
        fallback=fallback,
        core=core,
    )


# --- maximal independent set ------------------------------------------------------


@dataclass
class MisResult:
    in_set: np.ndarray  # bool per node
    iterations: list[dict]
    work: WorkCounter


def _peel(g: Graph, pick: Callable, work: WorkCounter) -> MisResult:
    """The sweep loop that maximal_independent_set and luby_mis_baseline
    share.

    Each sweep puts the isolated nodes into the set and drops them. Then
    pick(cur, deg) returns an independent set of the rest and a function
    from the removed mask (the set plus its neighbors) to the sweep's
    report fields. The set joins the output and is dropped with its
    neighbors, marked through the set's slots, np.repeat(chosen, deg), so
    the loop holds no slot owners of its own while pick runs; a pick that
    reads them (the Luby round) builds them itself. A sweep that picks
    nothing drops nothing. The result is asserted maximal independent.
    """
    in_set = np.zeros(g.n, dtype=bool)
    iterations: list[dict] = []
    cur = g
    to_orig = np.arange(g.n, dtype=np.int64)
    while cur.n:
        deg = cur.degrees()
        isolated = deg == 0
        if isolated.any():
            in_set[to_orig[isolated]] = True
            if isolated.all():
                break
            cur, _, sub_ids = compact_subgraph(cur, ~isolated, work)
            to_orig = to_orig[sub_ids]
            deg = cur.degrees()
        chosen, fields = pick(cur, deg)
        removed = chosen.copy()
        removed[cur.nbrs[np.repeat(chosen, deg)]] = True
        iterations.append({"nodes": int(cur.n), "edges": int(cur.m), **fields(removed)})
        if chosen.any():
            in_set[to_orig[chosen]] = True
            cur, _, sub_ids = compact_subgraph(cur, ~removed, work)
            to_orig = to_orig[sub_ids]
    require(check_maximal_independent(g, in_set), "maximal independent set")
    return MisResult(in_set=in_set, iterations=iterations, work=work)


def maximal_independent_set(
    g: Graph,
    params: ParamSet | None = None,
    work: WorkCounter | None = None,
    threads: int = 1,  # accepted for benchmark/workloads.py, which passes threads=1
) -> MisResult:
    """Deterministic maximal independent set.

    Per sweep: collect isolated nodes, run one independent-ish selection,
    properly color the selected subgraph along the (degree, id) orientation,
    sweep the classes into a maximal independent subset (the matching's
    sweep, coloring.greedy_classes), keep it, and drop it with its
    neighborhood. The result is asserted maximal independent.
    """
    if threads != 1:
        raise ValueError("dpar runs sequentially; threads must be 1")
    params = params or ParamSet.desk()
    work = work if work is not None else WorkCounter()

    def sweep(cur, deg):
        ind = independentish_set(cur, params, work=work)
        sub, _, sub_ids = compact_subgraph(cur, ind.s_star, work)
        sub_key = ind.keys[sub_ids]
        out_slots = sub_key[sub.nbrs] > sub_key[sub.slot_owners()]
        col = color_delta_squared(sub, orientation=out_slots, work=work)
        chosen = np.zeros(cur.n, dtype=bool)
        chosen[sub_ids[greedy_classes(sub, col.colors, col.num_colors, work)]] = True
        if not chosen.any():
            raise RuntimeError("sweep made no progress")
        return chosen, lambda removed: {
            "selected_raw": int(ind.s_raw.sum()),
            "selected_star": int(ind.s_star.sum()),
            "chosen": int(chosen.sum()),
            "removed": int(removed.sum()),
            "removed_degree_fraction": float(np.sum(deg[removed])) / max(cur.m, 1),
            "star_degree_fraction": ind.removed_degree_fraction,
            "palette": int(col.num_colors),
            "point_steps": col.point_steps,
            "fallback": ind.fallback,
            "dropped_watchers": ind.dropped_watchers,
        }

    return _peel(g, sweep, work)


def luby_mis_baseline(g: Graph, seed: int, work: WorkCounter | None = None) -> MisResult:
    """Randomized comparison baseline with the same work accounting.

    Per round every node marks with probability 1/(10 deg); marked nodes
    with no marked out-neighbor (under the (degree, id) orientation) join
    the set and are removed with their neighborhoods.
    """
    work = work if work is not None else WorkCounter()
    rng = np.random.default_rng(seed)

    def luby_round(cur, deg):
        owners = cur.slot_owners()
        marked = rng.random(cur.n) < 1.0 / (10.0 * deg)
        key = deg * np.int64(cur.n) + np.arange(cur.n, dtype=np.int64)
        out_marked = marked[owners] & marked[cur.nbrs] & (key[cur.nbrs] > key[owners])
        has_marked_out = np.zeros(cur.n, dtype=bool)
        has_marked_out[owners[out_marked]] = True
        winners = marked & ~has_marked_out
        charge(work, "luby_round", cur.n + len(cur.nbrs))
        return winners, lambda removed: {"chosen": int(winners.sum())}

    return _peel(g, luby_round, work)
