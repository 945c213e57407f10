"""Deterministic hitting sets via derandomized half-sampling.

Instance: a bipartite structure where each left node u (with importance
imp_u >= 0) wants neighbors selected, and each right node v carries a level
k_v, standing for an ideal sampling probability of 2^-k_v. The goal is a
selection S of right nodes giving every u close to its expected number of
hits sum_{v in N(u)} 2^-k_v, using work near-linear in the edge count.

Sampling at probability 2^-k is simulated by k rounds of halving: each
round keeps roughly half of the still-alive candidates. One halving is
rounded deterministically (rounding.local_round) against quadratic bucket
potentials of the form coef * (|S cap B| - b/2)^2: each potential has a
known expectation under a uniformly random half, so the rounding
certificate caps its realized value, which in turn caps how far any left
node's surviving neighborhood mass can drift.

Right nodes with very small probabilities (level > K) are halved down to
level K first (low regime, with extra potentials that also control the
instance size and a global shrinkage invariant), then everything at level
<= K is halved down to a floor level (high regime). Levels below the floor
are never sampled at all, so hit counts come out inflated by roughly
2^floor. The hit window is therefore declared as

    E/2 - 1/2 <= hits <= HIT_UPPER_C * 2^floor * (E + 1),

with E = sum 2^-k over a left node's neighbors; the measured constant
max hits/(E + 1) is reported next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ntheory import NumberTheoryTables, precompute_tables
from .parallel import tiled_sum
from .rounding import RoundingInstance, RoundingResult, local_round
from .workcount import WorkCounter, charge

EPS_DENOM_LOW = 128  # low-regime rounding eps = 1/(128(b-1)): three potentials fit under 3.1
EPS_DENOM_HIGH = 4  # high-regime rounding eps = 1/(4(b-1)): one potential fits under imp/2
LOW_POTENTIAL_BOUND = 3.1
HIT_UPPER_C = 4.0  # upper hit window: hits <= HIT_UPPER_C * 2^floor * (E + 1)


@dataclass(frozen=True)
class ParamSet:
    """Knobs of the sampling machinery.

    paper(): the values the guarantees are proved for; astronomically
    conservative, only usable on toy sizes. desk(): small values with the
    same shapes, sized so the certified inequalities still hold on
    instances that fit in memory.
    """

    mode: str
    k_factor: float  # K = ceil(k_factor * log2 log2 N)
    beta: float  # bucket size b ~ (1/gamma)^beta
    gamma0_low: float
    gamma_low_decay: float
    gamma_high: float | None  # None: round-dependent 1/(100 (K-i)^2)
    high_floor_hitting: int  # levels below this are never sampled
    high_floor_mis: int
    matching_floor: int
    degree_floor: int  # left nodes need this many low neighbors to join the low regime
    outdeg_cap: int
    additive_cap: int  # shrinkage slack = additive_cap * ceil(log2 N)^2
    drift_exp: float  # bucket counts as drifted beyond b^drift_exp
    bad_node_exp: float
    bad_node_exp_aux: float

    @staticmethod
    def paper() -> "ParamSet":
        return ParamSet(
            mode="paper",
            k_factor=100.0,
            beta=6.0,
            gamma0_low=1e-7,
            gamma_low_decay=0.99,
            gamma_high=None,
            high_floor_hitting=50,
            high_floor_mis=20,
            matching_floor=1,
            degree_floor=0,  # stands for ceil(10 log^25 N), resolved per instance
            outdeg_cap=10000,
            additive_cap=16,
            drift_exp=0.8,
            bad_node_exp=0.3,
            bad_node_exp_aux=0.2,
        )

    @staticmethod
    def desk() -> "ParamSet":
        return ParamSet(
            mode="desk",
            k_factor=3.0,
            beta=2.0,
            gamma0_low=0.0099,
            gamma_low_decay=0.99,
            gamma_high=0.15,
            high_floor_hitting=4,
            high_floor_mis=4,
            matching_floor=1,
            degree_floor=8,
            outdeg_cap=8,
            additive_cap=16,
            drift_exp=0.8,
            bad_node_exp=0.3,
            bad_node_exp_aux=0.2,
        )

    def level_cap(self, size_param: int) -> int:
        """K: levels above it go through the low regime first."""
        loglog = math.log2(max(math.log2(max(size_param, 4)), 2.0))
        return max(1, math.ceil(self.k_factor * loglog))

    def degree_floor_for(self, size_param: int) -> int:
        if self.mode == "paper":
            return math.ceil(10.0 * math.log2(max(size_param, 2)) ** 25)
        return self.degree_floor

    def gamma_low(self, round_idx: int, size_param: int) -> float:
        log_n = max(math.ceil(math.log2(max(size_param, 2))), 2)
        return max(self.gamma0_low * self.gamma_low_decay**round_idx, self.gamma0_low / log_n)

    def gamma_high_for(self, level: int) -> float:
        if self.gamma_high is not None:
            return self.gamma_high
        return 1.0 / (100.0 * max(level, 1) ** 2)

    def bucket_low(self, gamma: float, size_param: int) -> int:
        log_n = max(math.ceil(math.log2(max(size_param, 2))), 1)
        k_cap = self.level_cap(size_param)
        b = int(min((1.0 / gamma) ** self.beta, gamma * 2.0 ** (k_cap - 1) / log_n))
        if b < 2:
            raise ValueError("invalid parameters: low-regime bucket size below 2")
        return b

    def bucket_low_cap(self, size_param: int) -> int:
        """Upper bound on bucket_low over all rounds (gamma only decays)."""
        log_n = max(math.ceil(math.log2(max(size_param, 2))), 1)
        k_cap = self.level_cap(size_param)
        return max(2, int(self.gamma0_low * 2.0 ** (k_cap - 1) / log_n))

    def bucket_high(self, gamma: float) -> int:
        b = math.ceil((1.0 / gamma) ** self.beta)
        if b < 2:
            raise ValueError("invalid parameters: high-regime bucket size below 2")
        return b


@dataclass
class BipartiteInstance:
    """Left nodes with importances, right nodes with levels, edges between."""

    imp: np.ndarray  # float64 >= 0 per left node
    levels: np.ndarray  # int64 >= 0 per right node
    edge_u: np.ndarray  # int64 into imp
    edge_v: np.ndarray  # int64 into levels
    size_param: int  # the N that logarithms in the parameter rules refer to

    def __post_init__(self):
        self.imp = np.asarray(self.imp, dtype=np.float64)
        self.levels = np.asarray(self.levels, dtype=np.int64)
        self.edge_u = np.asarray(self.edge_u, dtype=np.int64)
        self.edge_v = np.asarray(self.edge_v, dtype=np.int64)
        if len(self.edge_u) != len(self.edge_v):
            raise ValueError("edge arrays must have equal length")
        if len(self.imp) and self.imp.min() < 0:
            raise ValueError("negative importance")
        if len(self.levels) and self.levels.min() < 0:
            raise ValueError("negative level")
        if len(self.edge_u):
            if self.edge_u.min() < 0 or self.edge_u.max() >= len(self.imp):
                raise ValueError("edge endpoint out of range on the left")
            if self.edge_v.min() < 0 or self.edge_v.max() >= len(self.levels):
                raise ValueError("edge endpoint out of range on the right")
        if self.size_param < 2:
            raise ValueError("size parameter must be at least 2")

    @property
    def n_left(self) -> int:
        return len(self.imp)

    @property
    def n_right(self) -> int:
        return len(self.levels)

    def expected_hits(self) -> np.ndarray:
        """Per left node: sum of 2^-k over its neighbors."""
        out = np.zeros(self.n_left, dtype=np.float64)
        np.add.at(out, self.edge_u, np.exp2(-self.levels[self.edge_v].astype(np.float64)))
        return out


HSET_MAGIC = "HSET1"


def write_hset(path, inst: BipartiteInstance) -> None:
    with open(path, "w") as f:
        f.write(f"{HSET_MAGIC}\n")
        f.write(f"{inst.n_left} {inst.n_right} {inst.size_param}\n")
        for u in range(inst.n_left):
            f.write(f"{u} {float(inst.imp[u])!r}\n")
        for v in range(inst.n_right):
            f.write(f"{v} {int(inst.levels[v])}\n")
        for u, v in zip(inst.edge_u, inst.edge_v):
            f.write(f"{int(u)} {int(v)}\n")


def read_hset(path) -> BipartiteInstance:
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines or lines[0] != HSET_MAGIC:
        raise ValueError("not an HSET1 file")
    n_u, n_v, size_param = (int(x) for x in lines[1].split())
    imp = np.zeros(n_u, dtype=np.float64)
    levels = np.zeros(n_v, dtype=np.int64)
    pos = 2
    for i in range(n_u):
        tok = lines[pos + i].split()
        u = int(tok[0])
        if u != i:
            raise ValueError("left ids must be 0..nU-1 in order")
        imp[u] = float(tok[1])
    pos += n_u
    for i in range(n_v):
        tok = lines[pos + i].split()
        v = int(tok[0])
        if v != i:
            raise ValueError("right ids must be 0..nV-1 in order")
        levels[v] = int(tok[1])
    pos += n_v
    rest = [ln.split() for ln in lines[pos:]]
    eu = np.array([int(t[0]) for t in rest], dtype=np.int64)
    ev = np.array([int(t[1]) for t in rest], dtype=np.int64)
    return BipartiteInstance(imp=imp, levels=levels, edge_u=eu, edge_v=ev, size_param=size_param)


# --- quadratic bucket potentials -------------------------------------------


@dataclass
class QuadPotential:
    """sum over buckets of coef_B * (|S cap B| - b/2)^2, buckets of size b."""

    members: np.ndarray  # int64 candidate ids, bucket-major, each bucket exactly b
    coefs: np.ndarray  # float64 per bucket
    b: int
    name: str
    bucket_tag: np.ndarray | None = None  # optional owner tag per bucket (left node id)

    @property
    def n_buckets(self) -> int:
        return len(self.coefs)

    def counts(self, in_set: np.ndarray) -> np.ndarray:
        if self.n_buckets == 0:
            return np.zeros(0, dtype=np.int64)
        picked = in_set[self.members].astype(np.int64)
        return np.add.reduceat(picked, np.arange(0, len(self.members), self.b))

    def value(self, in_set: np.ndarray) -> float:
        x = self.counts(in_set).astype(np.float64)
        return float(np.dot(self.coefs, (x - self.b / 2.0) ** 2))

    def expectation(self) -> float:
        """Exact mean under independent fair coin membership."""
        return float(np.sum(self.coefs)) * self.b / 4.0

    def total_cost(self) -> float:
        """Sum of the pairwise rounding costs this potential contributes."""
        return float(np.sum(self.coefs)) * self.b * (self.b - 1)

    def utils(self, n_cand: int) -> np.ndarray:
        out = np.zeros(n_cand, dtype=np.float64)
        if self.n_buckets:
            per_member = np.repeat(self.coefs * (self.b - 1), self.b)
            np.add.at(out, self.members, per_member)
        return out

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.n_buckets == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, np.empty(0, dtype=np.float64)
        b = self.b
        ia, ja = np.triu_indices(b, k=1)
        base = np.arange(self.n_buckets, dtype=np.int64) * b
        ci = self.members[(base[:, None] + ia[None, :]).ravel()]
        cj = self.members[(base[:, None] + ja[None, :]).ravel()]
        cc = np.repeat(2.0 * self.coefs, len(ia))
        return ci, cj, cc


def _group_full_buckets(
    primary: np.ndarray, secondary: np.ndarray, items: np.ndarray, b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort items by (primary, secondary, item) and chunk each (primary,
    secondary) run into floor(len/b) full buckets; leftovers are dropped.

    Returns (members, bucket_primary, bucket_secondary) with members
    bucket-major, each bucket exactly b long.
    """
    if len(items) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    order = np.lexsort((items, secondary, primary))
    p, s, it = primary[order], secondary[order], items[order]
    new_run = np.r_[True, (p[1:] != p[:-1]) | (s[1:] != s[:-1])]
    run_id = np.cumsum(new_run) - 1
    run_starts = np.flatnonzero(new_run)
    run_lens = np.diff(np.r_[run_starts, len(it)])
    pos = np.arange(len(it)) - run_starts[run_id]
    keep = pos < (run_lens[run_id] // b) * b
    members = it[keep]
    bucket_primary = p[keep][::b]
    bucket_secondary = s[keep][::b]
    return members, bucket_primary, bucket_secondary


def _interval_buckets(ids: np.ndarray, b: int, coef: float, name: str) -> QuadPotential:
    """Consecutive id-sorted chunks of size b; leftover ids unbucketed."""
    ids = np.sort(ids)
    n_buckets = len(ids) // b
    members = ids[: n_buckets * b]
    return QuadPotential(
        members=members, coefs=np.full(n_buckets, coef), b=b, name=name, bucket_tag=None
    )


@dataclass
class HalfResult:
    selected: np.ndarray  # bool per candidate-local id
    phi_values: dict[str, float]
    phi_total: float
    phi_bound: float
    rounding: RoundingResult = field(repr=False)
    per_left_drift: np.ndarray | None = None  # realized per-left potential share
    bad_left: np.ndarray | None = None


def run_half(
    n_cand: int,
    potentials: list,
    eps: float,
    phi_bound: float,
    extra_utils: np.ndarray | None = None,
    tables: NumberTheoryTables | None = None,
    work: WorkCounter | None = None,
    threads: int = 1,
) -> HalfResult:
    """One derandomized halving of n_cand candidates against the potentials.

    Each potential supplies utils(n)/pairs()/value(mask)/name; anything
    with that surface participates (quadratic buckets, linear edge terms).
    """
    utils = np.zeros(n_cand, dtype=np.float64)
    for pot in potentials:
        utils += pot.utils(n_cand)
    if extra_utils is not None:
        utils = utils + extra_utils
    pair_parts = [pot.pairs() for pot in potentials]
    ci = np.concatenate([p[0] for p in pair_parts]) if pair_parts else np.empty(0, dtype=np.int64)
    cj = np.concatenate([p[1] for p in pair_parts]) if pair_parts else np.empty(0, dtype=np.int64)
    cc = np.concatenate([p[2] for p in pair_parts]) if pair_parts else np.empty(0, dtype=np.float64)
    charge(work, "half_sample", n_cand + len(ci))
    inst = RoundingInstance(utils=utils, cost_i=ci, cost_j=cj, cost_c=cc, eps=eps)
    res = local_round(inst, tables=tables, work=work, threads=threads)
    values = {pot.name: pot.value(res.in_set) for pot in potentials}
    total = math.fsum(values.values())
    if total > phi_bound:
        raise RuntimeError(
            f"potential certificate violated: {total} > {phi_bound}"
        )
    return HalfResult(
        selected=res.in_set,
        phi_values=values,
        phi_total=total,
        phi_bound=phi_bound,
        rounding=res,
    )


# --- low-probability regime --------------------------------------------------


@dataclass
class LowPotentialSet:
    """The three low-regime potentials plus the per-left data the
    bad-node rule needs (hit-probability mass and bucket tags)."""

    pots: list[QuadPotential]
    den: np.ndarray  # per left node: sum of 2^-level over its tracked edges
    tot_imp: float
    tag_u: np.ndarray
    tag_lev: np.ndarray


def build_low_potentials(
    imp: np.ndarray,
    u_ids: np.ndarray,
    cand_levels: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    b: int,
    n_cand: int,
) -> LowPotentialSet:
    """Per-left-node bucket counts (uniform and importance-weighted) and a
    global interval potential over the candidate set; each has mean <= 1."""
    imp_u = imp[u_ids]
    lev_e = cand_levels[edge_v]

    members, tag_u, tag_lev = _group_full_buckets(edge_u, lev_e, edge_v, b)
    n_buckets = len(members) // b if b else 0

    d_total = len(edge_u)
    pots: list[QuadPotential] = []
    coef1 = np.full(n_buckets, 4.0 / d_total if d_total else 0.0)
    pots.append(QuadPotential(members=members, coefs=coef1, b=b, name="phi_pair", bucket_tag=tag_u))

    den = np.zeros(len(u_ids), dtype=np.float64)
    np.add.at(den, edge_u, np.exp2(-lev_e.astype(np.float64)))
    tot_imp = float(np.sum(imp_u[den > 0]))
    if tot_imp > 0:
        coef2 = 4.0 * imp_u[tag_u] * np.exp2(-tag_lev.astype(np.float64)) / (tot_imp * den[tag_u])
    else:
        coef2 = np.zeros(n_buckets)
    pots.append(
        QuadPotential(members=members, coefs=coef2, b=b, name="phi_weighted", bucket_tag=tag_u)
    )

    pots.append(
        _interval_buckets(np.arange(n_cand, dtype=np.int64), b, 4.0 / (b * (n_cand // b)), "phi_size")
        if n_cand // b
        else QuadPotential(np.empty(0, dtype=np.int64), np.empty(0), b, "phi_size")
    )
    return LowPotentialSet(pots=pots, den=den, tot_imp=tot_imp, tag_u=tag_u, tag_lev=tag_lev)


def low_drift_rule(
    lp: LowPotentialSet, selected: np.ndarray, b: int, params: ParamSet
) -> tuple[np.ndarray, np.ndarray]:
    """Realized per-left potential share q and the bad-node flag.

    q_u > 4 b^bad_exp can hold for at most a phi_weighted/(4 b^bad_exp)
    importance mass, by Markov over the realized weighted potential.
    """
    counts = lp.pots[0].counts(selected).astype(np.float64)
    sq = (counts - b / 2.0) ** 2
    q = np.zeros(len(lp.den), dtype=np.float64)
    if len(lp.tag_u):
        np.add.at(q, lp.tag_u, 4.0 * np.exp2(-lp.tag_lev.astype(np.float64)) * sq)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = np.where(lp.den > 0, q / lp.den, 0.0)
    bad = q > 4.0 * b**params.bad_node_exp
    return q, bad


def low_prob_half(
    imp: np.ndarray,
    u_ids: np.ndarray,
    cand_levels: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    b: int,
    params: ParamSet,
    tables: NumberTheoryTables | None = None,
    work: WorkCounter | None = None,
    threads: int = 1,
) -> tuple[HalfResult, dict]:
    """One low-regime halving.

    u_ids: tracked left nodes (indices into imp). cand_levels: current
    level per candidate (candidate-local ids 0..n-1). edge_u indexes u_ids,
    edge_v indexes candidates.
    """
    n_cand = len(cand_levels)
    imp_u = imp[u_ids]
    lp = build_low_potentials(imp, u_ids, cand_levels, edge_u, edge_v, b, n_cand)
    n_buckets = lp.pots[0].n_buckets

    eps = 1.0 / (EPS_DENOM_LOW * (b - 1))
    half = run_half(
        n_cand, lp.pots, eps, LOW_POTENTIAL_BOUND, tables=tables, work=work, threads=threads
    )

    q, bad = low_drift_rule(lp, half.selected, b, params)
    half.per_left_drift = q
    half.bad_left = bad

    counts = lp.pots[0].counts(half.selected).astype(np.float64)
    drift_thr = b**params.drift_exp
    report = {
        "b": b,
        "eps": eps,
        "candidates": int(n_cand),
        "selected": int(half.selected.sum()),
        "buckets": int(n_buckets),
        "phi": dict(half.phi_values),
        "phi_total": half.phi_total,
        "phi_bound": half.phi_bound,
        "bad_left": int(bad.sum()),
        "bad_importance": float(np.sum(imp_u[bad])),
        "tracked_importance": lp.tot_imp,
        "good_importance_bound": 1.0 - 1.0 / float(b) ** params.bad_node_exp,
        "drifted_buckets": int(np.sum(np.abs(counts - b / 2.0) >= drift_thr)),
    }
    return half, report


def low_prob_regime(
    inst: BipartiteInstance,
    params: ParamSet,
    k_cap: int | None = None,
    tables: NumberTheoryTables | None = None,
    work: WorkCounter | None = None,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """Halve every right node from its own level down to level K.

    All right nodes must start above K. Returns (frozen right-node mask,
    still-good left mask, round reports). Dead right nodes are neither
    frozen nor alive; left nodes that went bad stop being protected.
    """
    k_cap = params.level_cap(inst.size_param) if k_cap is None else k_cap
    if len(inst.levels) and inst.levels.min() <= k_cap:
        raise ValueError("low regime requires every right level above K")
    log_n = math.ceil(math.log2(max(inst.size_param, 2)))
    max_rounds = int(inst.levels.max() - k_cap) if len(inst.levels) else 0

    u_good = np.ones(inst.n_left, dtype=bool)
    v_alive = np.ones(inst.n_right, dtype=bool)
    v_frozen = np.zeros(inst.n_right, dtype=bool)
    reports: list[dict] = []
    table_cache: dict[int, NumberTheoryTables] = {}

    for i in range(max_rounds):
        cand = np.flatnonzero(v_alive)
        if len(cand) == 0:
            break
        gamma = params.gamma_low(i, inst.size_param)
        b = params.bucket_low(gamma, inst.size_param)
        if tables is None and b not in table_cache:
            table_cache[b] = precompute_tables(_tables_limit_for_eps(EPS_DENOM_LOW, b))
        round_tables = tables if tables is not None else table_cache[b]
        local = np.full(inst.n_right, -1, dtype=np.int64)
        local[cand] = np.arange(len(cand))
        keep_e = v_alive[inst.edge_v] & u_good[inst.edge_u]
        eu, ev = inst.edge_u[keep_e], local[inst.edge_v[keep_e]]
        cur_levels = inst.levels[cand] - i
        edges_before = len(eu)
        half, report = low_prob_half(
            inst.imp,
            np.arange(inst.n_left, dtype=np.int64),
            cur_levels,
            eu,
            ev,
            b,
            params,
            tables=round_tables,
            work=work,
            threads=threads,
        )
        report["round"] = i
        report["gamma"] = gamma
        dead = cand[~half.selected]
        v_alive[dead] = False
        new_levels = inst.levels[cand] - (i + 1)
        freeze = half.selected & (new_levels <= k_cap)
        v_frozen[cand[freeze]] = True
        v_alive[cand[freeze]] = False
        u_good &= ~half.bad_left

        keep_next = v_alive[inst.edge_v] & u_good[inst.edge_u]
        lhs = int(np.sum(keep_next)) + int(half.selected.sum())
        rhs = (2.0 / 3.0) * (edges_before + len(cand)) + params.additive_cap * log_n**2
        report["shrink_lhs"] = lhs
        report["shrink_rhs"] = rhs
        if lhs > rhs:
            raise RuntimeError("low-regime shrinkage invariant violated")
        reports.append(report)
        charge(work, "low_regime_round", len(cand) + edges_before)
    if v_alive.any():
        raise RuntimeError("low regime left candidates above K after all rounds")
    return v_frozen, u_good, reports


# --- high-probability regime --------------------------------------------------


def high_prob_half(
    imp: np.ndarray,
    u_ids: np.ndarray,
    n_cand: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    left_degree: np.ndarray,
    b: int,
    params: ParamSet,
    tables: NumberTheoryTables | None = None,
    work: WorkCounter | None = None,
    threads: int = 1,
) -> tuple[HalfResult, dict]:
    """One high-regime halving of n_cand candidates.

    left_degree: per tracked left node, the size of its whole alive
    neighborhood (candidates at this level plus nodes waiting at lower
    levels); it normalizes the potential so its mean is at most imp/4.
    """
    imp_u = imp[u_ids]
    members, tag_u, _ = _group_full_buckets(
        edge_u, np.zeros(len(edge_u), dtype=np.int64), edge_v, b
    )
    n_buckets = len(members) // b if b else 0
    with np.errstate(divide="ignore"):
        coef = np.where(left_degree[tag_u] > 0, imp_u[tag_u] / left_degree[tag_u], 0.0)
    pot = QuadPotential(members=members, coefs=coef, b=b, name="phi_high", bucket_tag=tag_u)
    sum_imp = float(np.sum(imp_u[left_degree > 0]))
    bound = sum_imp / 2.0 if n_buckets else 0.0
    eps = 1.0 / (EPS_DENOM_HIGH * (b - 1))
    half = run_half(n_cand, [pot], eps, bound, tables=tables, work=work, threads=threads)

    counts = pot.counts(half.selected).astype(np.float64)
    sq = (counts - b / 2.0) ** 2
    q = np.zeros(len(u_ids), dtype=np.float64)
    if n_buckets:
        np.add.at(q, tag_u, sq)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = np.where(left_degree > 0, q / left_degree, 0.0)
    bad = q > float(b) ** params.bad_node_exp
    half.per_left_drift = q
    half.bad_left = bad
    report = {
        "b": b,
        "eps": eps,
        "candidates": int(n_cand),
        "selected": int(half.selected.sum()),
        "buckets": int(n_buckets),
        "phi": dict(half.phi_values),
        "phi_total": half.phi_total,
        "phi_bound": half.phi_bound,
        "bad_left": int(bad.sum()),
        "bad_importance": float(np.sum(imp_u[bad])),
        "good_importance_bound": 1.0 - 0.5 / float(b) ** params.bad_node_exp,
    }
    return half, report


def high_prob_regime(
    inst: BipartiteInstance,
    params: ParamSet,
    floor: int | None = None,
    k_cap: int | None = None,
    tables: NumberTheoryTables | None = None,
    work: WorkCounter | None = None,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """Halve all right nodes from level K down to the floor level.

    Right levels must be <= K. A node at level k joins the candidate pool
    in round K-k and is halved until the pool closes at the floor; nodes
    below the floor are never candidates and survive outright. Returns
    (selected right mask, good left mask, round reports).
    """
    k_cap = params.level_cap(inst.size_param) if k_cap is None else k_cap
    floor = params.high_floor_hitting if floor is None else floor
    if len(inst.levels) and inst.levels.max() > k_cap:
        raise ValueError("high regime requires every right level at most K")
    v_alive = np.ones(inst.n_right, dtype=bool)
    u_good = np.ones(inst.n_left, dtype=bool)
    reports: list[dict] = []
    table_cache: dict[int, NumberTheoryTables] = {}
    for i in range(max(k_cap - floor, 0)):
        level = k_cap - i
        cand = np.flatnonzero(v_alive & (inst.levels >= level))
        if len(cand) == 0:
            charge(work, "high_regime_skip", 1)
            continue
        gamma = params.gamma_high_for(level)
        b = params.bucket_high(gamma)
        if tables is None and b not in table_cache:
            table_cache[b] = precompute_tables(_tables_limit_for_eps(EPS_DENOM_HIGH, b))
        round_tables = tables if tables is not None else table_cache[b]
        local = np.full(inst.n_right, -1, dtype=np.int64)
        local[cand] = np.arange(len(cand))
        keep_e = u_good[inst.edge_u] & v_alive[inst.edge_v] & (inst.levels[inst.edge_v] >= level)
        eu, ev = inst.edge_u[keep_e], local[inst.edge_v[keep_e]]
        alive_deg = np.zeros(inst.n_left, dtype=np.float64)
        keep_any = u_good[inst.edge_u] & v_alive[inst.edge_v]
        np.add.at(alive_deg, inst.edge_u[keep_any], 1.0)
        half, report = high_prob_half(
            inst.imp,
            np.arange(inst.n_left, dtype=np.int64),
            len(cand),
            eu,
            ev,
            alive_deg,
            b,
            params,
            tables=round_tables,
            work=work,
            threads=threads,
        )
        report["round"] = i
        report["level"] = level
        report["gamma"] = gamma
        v_alive[cand[~half.selected]] = False
        u_good &= ~half.bad_left
        reports.append(report)
        charge(work, "high_regime_round", len(cand) + len(eu))
    return v_alive, u_good, reports


# --- full pipeline -------------------------------------------------------------


@dataclass
class HittingResult:
    selected: np.ndarray  # bool per right node
    hits: np.ndarray  # int64 per left node
    expected: np.ndarray  # float per left node: sum 2^-k over neighbors
    hit_constant: float  # measured C: max hits/(expected+1)
    good_importance_fraction: float  # importance mass inside the hit window
    window_ok: np.ndarray  # per left node: inside the declared window
    rounds: list[dict]
    work: WorkCounter


def _tables_limit_for_eps(denom: int, b: int) -> int:
    inv_eps = denom * max(b - 1, 1)
    iters = 8  # phase-1 round count is logarithmic; 8 covers any feasible size
    return 8 * math.ceil(inv_eps * 2 * iters) + 64


def hitting_set(
    inst: BipartiteInstance,
    params: ParamSet | None = None,
    floor: int | None = None,
    work: WorkCounter | None = None,
    threads: int = 1,
) -> HittingResult:
    """Select right nodes so each left node's hit count tracks its
    expectation sum 2^-k (up to the measured constant and the floor).

    Right nodes above level K are first brought down to K by the low
    regime (only left nodes with at least degree_floor such neighbors are
    protected there), then everything is halved to the floor level.
    """
    params = params or ParamSet.desk()
    work = work if work is not None else WorkCounter()
    floor = params.high_floor_hitting if floor is None else floor
    k_cap = params.level_cap(inst.size_param)
    low_mask = inst.levels > k_cap

    u_good = np.ones(inst.n_left, dtype=bool)
    rounds: list[dict] = []
    v_selected_low = np.zeros(inst.n_right, dtype=np.int64)

    if low_mask.any():
        deg_low = np.zeros(inst.n_left, dtype=np.int64)
        np.add.at(deg_low, inst.edge_u[low_mask[inst.edge_v]], 1)
        u_low = deg_low >= max(params.degree_floor_for(inst.size_param), 1)
        v_low_ids = np.flatnonzero(low_mask)
        v_local = np.full(inst.n_right, -1, dtype=np.int64)
        v_local[v_low_ids] = np.arange(len(v_low_ids))
        keep_e = low_mask[inst.edge_v] & u_low[inst.edge_u]
        low_inst = BipartiteInstance(
            imp=inst.imp * u_low,
            levels=inst.levels[v_low_ids],
            edge_u=inst.edge_u[keep_e],
            edge_v=v_local[inst.edge_v[keep_e]],
            size_param=inst.size_param,
        )
        frozen, low_good, low_reports = low_prob_regime(
            low_inst, params, k_cap=k_cap, work=work, threads=threads
        )
        for r in low_reports:
            r["regime"] = "low"
        rounds.extend(low_reports)
        u_good &= low_good | ~u_low
        v_selected_low[v_low_ids[frozen]] = 1

    # high side: surviving low nodes enter at level K, everything else keeps its level
    v_high = ~low_mask | (v_selected_low > 0)
    v_high_ids = np.flatnonzero(v_high)
    v_local = np.full(inst.n_right, -1, dtype=np.int64)
    v_local[v_high_ids] = np.arange(len(v_high_ids))
    keep_e = v_high[inst.edge_v] & u_good[inst.edge_u]
    high_inst = BipartiteInstance(
        imp=inst.imp * u_good,
        levels=np.minimum(inst.levels[v_high_ids], k_cap),
        edge_u=inst.edge_u[keep_e],
        edge_v=v_local[inst.edge_v[keep_e]],
        size_param=inst.size_param,
    )
    sel_high, high_good, high_reports = high_prob_regime(
        high_inst,
        params,
        floor=floor,
        k_cap=k_cap,
        work=work,
        threads=threads,
    )
    for r in high_reports:
        r["regime"] = "high"
    rounds.extend(high_reports)
    u_good &= high_good

    selected = np.zeros(inst.n_right, dtype=bool)
    selected[v_high_ids[sel_high]] = True

    hits = np.zeros(inst.n_left, dtype=np.int64)
    np.add.at(hits, inst.edge_u, selected[inst.edge_v].astype(np.int64))
    expected = inst.expected_hits()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = hits / (expected + 1.0)
    hit_constant = float(ratios.max()) if inst.n_left else 0.0
    upper = HIT_UPPER_C * 2.0**floor * (expected + 1.0)
    window_ok = (hits >= 0.5 * expected - 0.5) & (hits <= upper)
    tot_imp = float(np.sum(inst.imp))
    good_frac = float(np.sum(inst.imp[window_ok])) / tot_imp if tot_imp > 0 else 1.0
    charge(work, "hitting_finalize", inst.n_left + len(inst.edge_u))
    return HittingResult(
        selected=selected,
        hits=hits,
        expected=expected,
        hit_constant=hit_constant,
        good_importance_fraction=good_frac,
        window_ok=window_ok,
        rounds=rounds,
        work=work,
    )
