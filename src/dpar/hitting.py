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

RegimeDriver runs this pipeline for hitting_set and, through its subclass
MisRegimeDriver in mis.py, for the MIS core. Its three pieces are shared:
the entry split, the low loop (halve to K, freeze the survivors, certify
the shrinkage) and the high loop (halve from K to the floor, charge a skip
for an empty round). Each round asks the caller's potential stack for its
potentials, eps, bound, bad-node rule, report fields and work label, and
lets it run its own certificates. An instance checks itself when built,
so the input is validated once; its sub-problems are built unchecked.

Bucket potentials are cut by one builder, _group_full_buckets: it chunks
each run of equal keys into full buckets of b and drops the rest. Unless
the caller has sorted already, it radix-sorts first, under the key
bounds that the caller knows. The per-left-node potentials here and in
mis.py, and both passes of mis.edge_buckets, use it; phi_size needs no
runs, its buckets are the candidate ids 0..(n // b) b - 1 in order.
QuadPotential.sq_dev gives the per-bucket (count - b/2)^2 from which
each potential's value and, through node_share, every bad-node rule are
computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import derived
from .ntheory import precompute_tables  # noqa: F401  (importable here for tools that trace it)
from .rounding import CliqueGroup, RoundingInstance, local_round
from .sorting import first_of_runs, radix_lexorder
from .workcount import WorkCounter, charge

EPS_DENOM_LOW = 128  # low-regime rounding eps = 1/(128(b-1)): three potentials fit under 3.1
EPS_DENOM_HIGH = 4  # high-regime rounding eps = 1/(4(b-1)): one potential fits under imp/2
LOW_POTENTIAL_BOUND = 3.1
HIT_UPPER_C = 4.0  # upper hit window: hits <= HIT_UPPER_C * 2^floor * (E + 1)
GAMMA_LOW_DECAY = 0.99  # low-regime gamma shrinks by this factor per round
ADDITIVE_CAP = 16  # shrinkage slack = ADDITIVE_CAP * ceil(log2 N)^2
DRIFT_EXP = 0.8  # a bucket counts as drifted beyond b^DRIFT_EXP
BAD_NODE_EXP = 0.3  # Markov threshold exponent of the bad-node rules
MAX_LEVEL_CAP = 1024  # K above this overflows 2^(K-1) in bucket_low


@dataclass(frozen=True)
class ParamSet:
    """Knobs of the sampling machinery; the presets differ only in values.

    paper(): the values the guarantees are proved for; astronomically
    conservative, only usable on toy sizes. desk(): small values with the
    same shapes, sized so the certified inequalities still hold on
    instances that fit in memory. None is the paper's per-instance rule:
    degree_floor=None is ceil(10 log2(N)^25). Values both sets share are
    module constants (GAMMA_LOW_DECAY, ADDITIVE_CAP, DRIFT_EXP,
    BAD_NODE_EXP here, MATCHING_FLOOR in matching.py).
    """

    k_factor: float  # K = ceil(k_factor * log2 log2 N)
    beta: float  # bucket size b ~ (1/gamma)^beta
    gamma0_low: float
    gamma_high: float | None  # None: round-dependent 1/(100 (K-i)^2)
    high_floor_hitting: int  # levels below this are never sampled
    high_floor_mis: int
    degree_floor: int | None  # left nodes need this many low neighbors to join the low regime
    outdeg_cap: int

    def __post_init__(self):
        for name in ("high_floor_hitting", "high_floor_mis", "degree_floor", "outdeg_cap"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"parameter {name} must be >= 0")
        for name in ("k_factor", "beta", "gamma0_low", "gamma_high"):
            value = getattr(self, name)
            if name == "gamma_high" and value is None:
                continue
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"parameter {name} must be finite and > 0")

    @staticmethod
    def paper() -> "ParamSet":
        return ParamSet(
            k_factor=100.0,
            beta=6.0,
            gamma0_low=1e-7,
            gamma_high=None,
            high_floor_hitting=50,
            high_floor_mis=20,
            degree_floor=None,
            outdeg_cap=10000,
        )

    @staticmethod
    def desk() -> "ParamSet":
        return ParamSet(
            k_factor=3.0,
            beta=2.0,
            gamma0_low=0.0099,
            gamma_high=0.15,
            high_floor_hitting=4,
            high_floor_mis=4,
            degree_floor=8,
            outdeg_cap=8,
        )

    def level_cap(self, size_param: int) -> int:
        """K: levels above it go through the low regime first."""
        loglog = math.log2(max(math.log2(max(size_param, 4)), 2.0))
        k = self.k_factor * loglog
        if not k <= MAX_LEVEL_CAP:
            raise ValueError(
                f"parameter k_factor={self.k_factor} puts the level cap K above {MAX_LEVEL_CAP}"
            )
        return max(1, math.ceil(k))

    def degree_floor_for(self, size_param: int) -> int:
        if self.degree_floor is None:
            return math.ceil(10.0 * math.log2(max(size_param, 2)) ** 25)
        return self.degree_floor

    def gamma_low(self, round_idx: int, size_param: int) -> float:
        log_n = max(math.ceil(math.log2(max(size_param, 2))), 2)
        return max(self.gamma0_low * GAMMA_LOW_DECAY**round_idx, self.gamma0_low / log_n)

    def gamma_high_for(self, level: int) -> float:
        if self.gamma_high is not None:
            return self.gamma_high
        return 1.0 / (100.0 * max(level, 1) ** 2)

    def bucket_low(self, gamma: float, size_param: int) -> int:
        """The low-regime bucket size; below 2 on small instances, where
        RegimeDriver.low sends the candidates left to the high regime."""
        log_n = max(math.ceil(math.log2(max(size_param, 2))), 1)
        k_cap = self.level_cap(size_param)
        return int(min((1.0 / gamma) ** self.beta, gamma * 2.0 ** (k_cap - 1) / log_n))

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
        if not np.all(np.isfinite(self.imp) & (self.imp >= 0)):
            raise ValueError("importances must be finite and nonnegative")
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

    def expected_hits(
        self, v_mask: np.ndarray | None = None, levels: np.ndarray | None = None
    ) -> np.ndarray:
        """Per left node: sum of 2^-k over its neighbors (only those in
        v_mask, and at the given levels, when these are passed)."""
        levels = self.levels if levels is None else levels
        eu, ev = self.edge_u, self.edge_v
        if v_mask is not None:
            keep = v_mask[ev]
            eu, ev = eu[keep], ev[keep]
        w = np.exp2(-levels[ev].astype(np.float64))
        out = np.bincount(eu, weights=w, minlength=self.n_left)
        return out.astype(np.float64, copy=False)  # ints when no edge is kept


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
    """Read write_hset's format. A file cut inside the header, the left
    section or the right section, a header count that is negative or
    exceeds the lines present, or a line with fewer fields than its
    section needs, raises ValueError naming the section. The format
    stores no edge count, so a file cut between two edge lines loads fewer
    edges."""
    with open(path) as f:
        lines = [ln for ln in f if ln.strip()]
    if not lines or lines[0].split() != [HSET_MAGIC]:
        raise ValueError("not an HSET1 file")

    def section(name: str, start: int, count: int, fields: list) -> np.ndarray:
        """The section's lines as one record per line, parsed by one numpy
        call; fields beyond the record's are ignored."""
        got = lines[start : start + count]
        dtype = np.dtype(fields)
        if count < 0:
            short = f"a negative line count ({count})"
        elif len(got) < count:
            short = f"{len(got)} of {count} lines"
        elif not got:  # np.loadtxt warns on no lines
            return np.zeros(0, dtype)
        else:
            try:
                return np.loadtxt(
                    got, dtype=dtype, comments=None, usecols=range(len(fields)), ndmin=1
                )
            except ValueError as exc:
                if all(len(ln.split()) >= len(fields) for ln in got):
                    raise ValueError(f"bad HSET file: {name} section: {exc}") from None
            short = f"a line of fewer than {len(fields)} fields"
        raise ValueError(f"truncated HSET file: {name} section has {short}")

    ints = np.int64
    n_u, n_v, size_param = section("header", 1, 1, [("u", ints), ("v", ints), ("n", ints)])[0]
    # both counts are checked against the lines present before any allocation
    left = section("left", 2, n_u, [("id", ints), ("imp", np.float64)])
    right = section("right", 2 + n_u, n_v, [("id", ints), ("level", ints)])
    if np.any(left["id"] != np.arange(n_u)):
        raise ValueError("left ids must be 0..nU-1 in order")
    if np.any(right["id"] != np.arange(n_v)):
        raise ValueError("right ids must be 0..nV-1 in order")
    pos = 2 + n_u + n_v
    edges = section("edge", pos, len(lines) - pos, [("u", ints), ("v", ints)])
    # copies: a field of a record array is a strided view
    return BipartiteInstance(
        imp=left["imp"].copy(),
        levels=right["level"].copy(),
        edge_u=edges["u"].copy(),
        edge_v=edges["v"].copy(),
        size_param=int(size_param),
    )


# --- quadratic bucket potentials -------------------------------------------


@dataclass
class QuadPotential(CliqueGroup):
    """sum over buckets of coef_B * (|S cap B| - b/2)^2, buckets of size b.

    Apart from a linear part (utils), its rounding cost is the clique group
    it is: coef_B * c_B * (c_B - 1) on a set holding c_B members of bucket
    B, so run_half hands it to the rounding as it is, folded with any other
    potential over the same members, and its b(b - 1)/2 pairs per bucket
    are never expanded.
    """

    name: str

    def sq_dev(self, in_set: np.ndarray) -> np.ndarray:
        """Per bucket: (|S cap B| - b/2)^2."""
        return (self.counts(in_set).astype(np.float64) - self.b / 2.0) ** 2

    def value(self, in_set: np.ndarray) -> float:
        return float(np.sum(self.coefs * self.sq_dev(in_set)))

    def expectation(self) -> float:
        """Exact mean under independent fair coin membership."""
        return float(np.sum(self.coefs)) * self.b / 4.0

    def total_cost(self) -> float:
        """Sum of the pairwise rounding costs this potential contributes."""
        return float(np.sum(self.coefs)) * self.b * (self.b - 1)

    def utils(self, n_cand: int) -> np.ndarray:
        per_member = np.repeat(self.coefs * (self.b - 1), self.b)
        out = np.bincount(self.members, weights=per_member, minlength=n_cand)
        return out.astype(np.float64, copy=False)  # ints when there is no bucket


def _group_full_buckets(
    primary: np.ndarray,
    secondary: np.ndarray | None,
    items: np.ndarray,
    b: int,
    bounds: tuple[int, ...] | None = None,
    first: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Chunk each run of equal (primary, secondary) keys into floor(len/b)
    full buckets of b items; the leftovers of each run are dropped.

    The items are sorted by (primary, secondary, item) first, by radix
    sorts (sorting.radix_lexorder) under bounds: the bounds of primary, of
    secondary and of the items, secondary's left out when it is None, for
    one key. The library's callers know them; without them each key's
    largest value sets its bound. A caller that has already sorted its
    items passes first, the mask of run starts (sorting.first_of_runs),
    and gets the chunking alone, with no sort.

    Returns (members, bucket_primary, bucket_secondary), members
    bucket-major, each bucket exactly b long; bucket_secondary is None
    without a secondary key.
    """
    if first is None:
        keys = (items, primary) if secondary is None else (items, secondary, primary)
        if bounds is None:
            bounds = tuple(int(key.max(initial=0)) + 1 for key in keys[::-1])
        order = radix_lexorder(keys, bounds[::-1])
        primary, items = primary[order], items[order]
        first = first_of_runs(primary)
        if secondary is not None:
            secondary = secondary[order]
            first |= first_of_runs(secondary)
    starts = np.flatnonzero(first)
    run_lens = np.diff(np.r_[starts, len(items)])
    run_id = np.cumsum(first) - 1
    keep = np.arange(len(items)) - starts[run_id] < (run_lens // b * b)[run_id]
    bucket_secondary = None if secondary is None else secondary[keep][::b]
    return items[keep], primary[keep][::b], bucket_secondary


@dataclass
class HalfResult:
    selected: np.ndarray  # bool per candidate-local id
    phi_values: dict[str, float]
    phi_total: float
    phi_bound: float
    cost_terms: int  # explicit pair terms the linear potentials emitted
    clique_members: int  # bucket memberships the rounding swept, shared buckets folded
    sweep_steps: int  # sequential class-sweep batches of the rounding


def run_half(
    n_cand: int, potentials: list, eps: float, phi_bound: float, work: WorkCounter | None = None
) -> HalfResult:
    """One derandomized halving of n_cand candidates against the potentials.

    Each potential supplies utils(n)/value(mask)/name. A quadratic bucket
    potential (a CliqueGroup) goes to the rounding as its buckets, and
    potentials over one members array with one b go as one group, their
    coefficients summed; any other potential (the linear edge terms)
    supplies pairs(), its explicit cost terms. A halving with no clique
    member, no explicit term and no non-zero utility keeps every
    candidate, as local_round would, and runs no rounding.

    The rounding instance shares its arrays with the potentials: the
    clique groups' members and coefficients (a folded group's are its
    summed coefficients) and, when one potential supplies pairs, as the
    linear aux potential does, its three arrays as they are; only several
    suppliers are concatenated. local_round writes into none of them.
    """
    utils = np.zeros(n_cand, dtype=np.float64)
    for pot in potentials:
        utils += pot.utils(n_cand)
    folded: dict[tuple[int, int], CliqueGroup] = {}
    for pot in potentials:
        if isinstance(pot, CliqueGroup):
            key = (id(pot.members), pot.b)
            prev = folded.get(key)
            if prev is not None:
                pot = CliqueGroup(pot.members, prev.coefs + pot.coefs, pot.b)
            folded[key] = pot
    cliques = list(folded.values())
    parts = [pot.pairs() for pot in potentials if not isinstance(pot, CliqueGroup)]
    if len(parts) != 1:  # none, or several joined into one
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
        parts = [tuple(np.concatenate(col) for col in zip(empty, *parts))]
    ci, cj, cc = parts[0]
    members = sum(len(g.members) for g in cliques)
    selected, steps = np.ones(n_cand, dtype=bool), 0
    if members or len(ci) or utils.any():
        charge(work, "half_sample", n_cand + len(ci) + members)
        fields = dict(utils=utils, cost_i=ci, cost_j=cj, cost_c=cc, eps=eps, cliques=cliques)
        res = local_round(derived(RoundingInstance, **fields), work=work)
        selected, steps = res.in_set, res.sweep_steps
    values = {pot.name: pot.value(selected) for pot in potentials}
    total = math.fsum(values.values())
    if total > phi_bound:
        raise RuntimeError(
            f"potential certificate violated: {total} > {phi_bound}"
        )
    return HalfResult(
        selected=selected,
        phi_values=values,
        phi_total=total,
        phi_bound=phi_bound,
        cost_terms=len(cc),
        clique_members=members,
        sweep_steps=steps,
    )


# --- low-regime potentials -----------------------------------------------------


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
    cand_levels: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    b: int,
    n_cand: int,
) -> LowPotentialSet:
    """Per-left-node bucket counts (uniform and importance-weighted) and a
    global interval potential over the candidate set; each has mean <= 1."""
    lev_e = cand_levels[edge_v]

    # levels bound from the candidates, a pass far shorter than the edges
    lev_bound = int(cand_levels.max(initial=0)) + 1
    members, tag_u, tag_lev = _group_full_buckets(
        edge_u, lev_e, edge_v, b, bounds=(len(imp), lev_bound, n_cand)
    )
    n_buckets = len(members) // b if b else 0

    d_total = len(edge_u)
    pots: list[QuadPotential] = []
    coef1 = np.full(n_buckets, 4.0 / d_total if d_total else 0.0)
    pots.append(QuadPotential(members=members, coefs=coef1, b=b, name="phi_pair"))

    den = np.bincount(edge_u, weights=np.exp2(-lev_e.astype(np.float64)), minlength=len(imp))
    den = den.astype(np.float64, copy=False)  # ints when there is no edge
    tot_imp = float(np.sum(imp[den > 0]))
    if tot_imp > 0:
        coef2 = 4.0 * imp[tag_u] * np.exp2(-tag_lev.astype(np.float64)) / (tot_imp * den[tag_u])
    else:
        coef2 = np.zeros(n_buckets)
    pots.append(QuadPotential(members=members, coefs=coef2, b=b, name="phi_weighted"))

    n_size = n_cand // b * b
    coef3 = np.full(n_cand // b, 4.0 / max(n_size, 1))
    pots.append(QuadPotential(np.arange(n_size, dtype=np.int64), coef3, b, "phi_size"))
    return LowPotentialSet(pots=pots, den=den, tot_imp=tot_imp, tag_u=tag_u, tag_lev=tag_lev)


def node_share(tags: np.ndarray, values: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Per left node: the values of the buckets tagged with it, summed in
    bucket order and divided by den (0 where den is 0)."""
    # bincount of no values is int64
    q = np.bincount(tags, weights=values, minlength=len(den)).astype(np.float64)
    return np.divide(q, den, out=np.zeros_like(q), where=den > 0)


def low_drift_rule(lp: LowPotentialSet, selected: np.ndarray, b: int) -> np.ndarray:
    """Bad-node flag from the realized per-left potential share q.

    q_u > 4 b^BAD_NODE_EXP can hold for at most a phi_weighted/(4 b^BAD_NODE_EXP)
    importance mass, by Markov over the realized weighted potential.
    """
    share = 4.0 * np.exp2(-lp.tag_lev.astype(np.float64)) * lp.pots[0].sq_dev(selected)
    return node_share(lp.tag_u, share, lp.den) > 4.0 * b**BAD_NODE_EXP


# --- the regime driver ---------------------------------------------------------


def _renumber(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions set in mask, and the map from position to rank there
    (-1 off the mask)."""
    ids = np.flatnonzero(mask)
    local = np.full(len(mask), -1, dtype=np.int64)
    local[ids] = np.arange(len(ids))
    return ids, local


def _cut_edges(edge_u, edge_v, keep: np.ndarray, local: np.ndarray, n_kept: int):
    """The watch edges where keep is set, their right ends renumbered by
    local, which keeps n_kept right nodes. When both keep everything, the
    edges and ids are unchanged, so the input arrays are returned, shared
    rather than copied."""
    if n_kept == len(local) and keep.all():
        return edge_u, edge_v
    return edge_u[keep], local[edge_v[keep]]


def sub_problem(
    inst: BipartiteInstance, v_mask: np.ndarray, u_mask: np.ndarray, levels: np.ndarray
) -> tuple[BipartiteInstance, np.ndarray, np.ndarray]:
    """The sub-problem on the right nodes in v_mask (at the given levels)
    and the watch edges of the left nodes in u_mask, with the input ids of
    its right nodes and the map from input id to sub-problem id (-1 off
    v_mask).

    An input is validated once, when built; a sub-problem is cut from it
    by index masks, so graph.derived builds it unchecked. Other fields keep
    the input's values (MisRegimeDriver.restrict cuts the aux arrays).
    When the masks keep every right node and every watch edge, the watch
    edges are the input's own arrays, shared rather than copied
    (_cut_edges; a halving over every candidate shares them in turn).
    """
    ids, local = _renumber(v_mask)
    keep_e = v_mask[inst.edge_v] & u_mask[inst.edge_u]
    edge_u, edge_v = _cut_edges(inst.edge_u, inst.edge_v, keep_e, local, len(ids))
    fields = dict(vars(inst), imp=inst.imp * u_mask, levels=levels[ids])
    fields.update(edge_u=edge_u, edge_v=edge_v)
    return derived(type(inst), **fields), ids, local


@dataclass
class Halving:
    """One round of a regime as the driver hands it to the potential stack.

    Right ids are those of the regime's sub-problem; edge_v and levels are
    indexed by candidate (0..len(cand)-1).
    """

    regime: str  # "low" or "high"
    round: int
    level: int  # high regime: the level being halved; low regime: K
    gamma: float
    b: int
    cand: np.ndarray  # sub-problem ids of the candidates
    local: np.ndarray  # sub-problem id -> candidate id, -1 off the candidates
    levels: np.ndarray  # current level per candidate
    edge_u: np.ndarray  # watch edges of good left nodes into the candidates
    edge_v: np.ndarray


@dataclass
class RoundPlan:
    """A potential stack's contribution to one halving."""

    pots: list
    eps: float
    bound: float  # certified cap on the realized potential total
    # selection -> (bad left nodes, report fields); raises when a
    # certificate of the caller's own fails
    judge: Callable[[HalfResult], tuple[np.ndarray, dict]]
    units: int = 0  # work of the round beyond its candidates and watch edges


class RegimeDriver:
    """The low/high regime pipeline around run_half, with hitting_set's
    potential stack.

    run() splits the input: right nodes above level K form the low regime,
    which protects only left nodes with at least degree_floor low
    neighbors. low() halves its candidates down to K, freezes the
    survivors and certifies the shrinkage; at a round whose bucket size
    falls below 2 (small N), it freezes the candidates left unhalved and
    reports "straight_to_high" with their number. The survivors rejoin
    the rest at level K, and high() halves from K down to the floor,
    charging a skip for each round without candidates.

    Every round asks the potential stack (the methods from restrict() on)
    for its potentials, eps, bound, bad-node rule and report fields.
    MisRegimeDriver in mis.py swaps in the MIS stack.
    """

    tags = {"low": "low", "high": "high"}  # the rounds' "regime" field
    labels = {"low": "low_regime_round", "high": "high_regime_round", "skip": "high_regime_skip"}

    def __init__(self, params: ParamSet, floor: int, work: WorkCounter | None = None):
        self.params = params
        self.floor = floor
        self.work = work

    def run(self, inst: BipartiteInstance) -> tuple[np.ndarray, np.ndarray, list[dict]]:
        """Both regimes on a validated instance: (selected right mask, good
        left mask, round reports)."""
        k_cap = self.params.level_cap(inst.size_param)
        low_mask = inst.levels > k_cap
        u_good = np.ones(inst.n_left, dtype=bool)
        frozen = np.zeros(inst.n_right, dtype=bool)
        rounds: list[dict] = []
        if low_mask.any():
            deg_low = np.bincount(inst.edge_u[low_mask[inst.edge_v]], minlength=inst.n_left)
            u_low = deg_low >= max(self.params.degree_floor_for(inst.size_param), 1)
            sub, ids = self.restrict(inst, "low", low_mask, u_low, inst.levels)
            # left nodes outside u_low track no edges there, so they stay good
            survivors, u_good, rounds = self.low(sub)
            frozen[ids[survivors]] = True
        levels = np.minimum(inst.levels, k_cap)
        sub, ids = self.restrict(inst, "high", ~low_mask | frozen, u_good, levels)
        survivors, high_good, high_rounds = self.high(sub)
        selected = np.zeros(inst.n_right, dtype=bool)
        selected[ids[survivors]] = True
        return selected, u_good & high_good, rounds + high_rounds

    def low(self, sub: BipartiteInstance) -> tuple[np.ndarray, np.ndarray, list[dict]]:
        """Halve every right node from its own level (all above K) down to
        K: (frozen right mask, good left mask, round reports). Dead right
        nodes are neither frozen nor alive."""
        k_cap = self.params.level_cap(sub.size_param)
        if len(sub.levels) and sub.levels.min() <= k_cap:
            raise ValueError("low regime requires every right level above K")
        log_n = math.ceil(math.log2(max(sub.size_param, 2)))
        self._begin("low", sub)
        reports: list[dict] = []
        for i in range(int(sub.levels.max() - k_cap) if len(sub.levels) else 0):
            if not self.v_alive.any():
                break
            gamma = self.params.gamma_low(i, sub.size_param)
            b = self.params.bucket_low(gamma, sub.size_param)
            if b < 2:
                # no bucket of two fits (small N): the candidates still
                # above K go straight to the high regime at level K
                reports.append({
                    "regime": self.tags["low"], "round": i, "gamma": gamma, "b": b,
                    "straight_to_high": int(self.v_alive.sum()),
                })
                self.v_frozen |= self.v_alive
                self.v_alive[:] = False
                break
            h = self._prepare(sub, "low", i, k_cap, gamma, b, self.v_alive)
            plan = self.plan_low(sub, h)
            selected, report = self._halve(sub, h, plan)
            self.v_alive[h.cand[~selected]] = False
            freeze = selected & (h.levels <= k_cap + 1)
            self.v_frozen[h.cand[freeze]] = True
            self.v_alive[h.cand[freeze]] = False
            kept = self.v_alive[sub.edge_v] & self.u_good[sub.edge_u]
            lhs = int(np.sum(kept)) + int(selected.sum())
            rhs = (2.0 / 3.0) * (len(h.edge_u) + len(h.cand)) + ADDITIVE_CAP * log_n**2
            report["shrink_lhs"] = lhs
            report["shrink_rhs"] = rhs
            if lhs > rhs:
                raise RuntimeError("low-regime shrinkage invariant violated")
            self._close(sub, h, plan, report, reports)
        if self.v_alive.any():
            raise RuntimeError("low regime left candidates above K after all rounds")
        self.finish(sub, "low", self.v_frozen)
        return self.v_frozen, self.u_good, reports

    def high(self, sub: BipartiteInstance) -> tuple[np.ndarray, np.ndarray, list[dict]]:
        """Halve from level K down to the floor: a right node at level k
        joins the candidates in round K-k; nodes below the floor are never
        candidates and survive outright. (surviving right mask, good left
        mask, round reports)."""
        k_cap = self.params.level_cap(sub.size_param)
        if len(sub.levels) and sub.levels.max() > k_cap:
            raise ValueError("high regime requires every right level at most K")
        self._begin("high", sub)
        reports: list[dict] = []
        for i in range(max(k_cap - self.floor, 0)):
            level = k_cap - i
            in_pool = self.v_alive & (sub.levels >= level)
            if not in_pool.any():
                charge(self.work, self.labels["skip"], 1)
                continue
            gamma = self.params.gamma_high_for(level)
            b = self.params.bucket_high(gamma)
            h = self._prepare(sub, "high", i, level, gamma, b, in_pool)
            plan = self.plan_high(sub, h)
            selected, report = self._halve(sub, h, plan)
            report["level"] = level
            self.v_alive[h.cand[~selected]] = False
            self._close(sub, h, plan, report, reports)
        self.finish(sub, "high", self.v_alive)
        return self.v_alive, self.u_good, reports

    def _begin(self, regime: str, sub: BipartiteInstance) -> None:
        self.v_alive = np.ones(sub.n_right, dtype=bool)
        self.v_frozen = np.zeros(sub.n_right, dtype=bool)
        self.u_good = np.ones(sub.n_left, dtype=bool)
        self.start(sub, regime)

    def _prepare(self, sub, regime, i, level, gamma, b, pool) -> Halving:
        cand, local = _renumber(pool)
        keep_e = self.u_good[sub.edge_u] & pool[sub.edge_v]
        edge_u, edge_v = _cut_edges(sub.edge_u, sub.edge_v, keep_e, local, len(cand))
        # a low-regime node has been halved i times; the high pool sits at level
        levels = sub.levels[cand] - i if regime == "low" else np.full(len(cand), level)
        return Halving(
            regime=regime,
            round=i,
            level=level,
            gamma=gamma,
            b=b,
            cand=cand,
            local=local,
            levels=levels,
            edge_u=edge_u,
            edge_v=edge_v,
        )

    def _halve(self, sub, h: Halving, plan: RoundPlan) -> tuple[np.ndarray, dict]:
        n_cand = len(h.cand)
        half = run_half(n_cand, plan.pots, plan.eps, plan.bound, work=self.work)
        bad, fields = plan.judge(half)
        self.u_good &= ~bad
        report = {
            "b": h.b,
            "gamma": h.gamma,
            "eps": plan.eps,
            "candidates": int(n_cand),
            "selected": int(half.selected.sum()),
            "phi": dict(half.phi_values),
            "phi_total": half.phi_total,
            "phi_bound": half.phi_bound,
            "cost_terms": half.cost_terms,
            "clique_members": half.clique_members,
            "sweep_steps": half.sweep_steps,
            "bad_left": int(bad.sum()),
            "bad_importance": float(np.sum(sub.imp[bad])),
            **fields,
            "round": h.round,
            "regime": self.tags[h.regime],
        }
        return half.selected, report

    def _close(self, sub, h: Halving, plan: RoundPlan, report: dict, reports: list[dict]) -> None:
        self.after(sub, h, report)
        reports.append(report)
        charge(self.work, self.labels[h.regime], len(h.cand) + len(h.edge_u) + plan.units)

    # --- the potential stack: hitting_set's; MisRegimeDriver overrides it

    def restrict(self, inst, regime: str, v_mask, u_mask, levels):
        """The regime's sub-problem of the input (see sub_problem())."""
        sub, ids, _ = sub_problem(inst, v_mask, u_mask, levels)
        return sub, ids

    def start(self, sub, regime: str) -> None:
        """Called before a regime's first round."""

    def after(self, sub, h: Halving, report: dict) -> None:
        """Certificates on the state after a round."""

    def finish(self, sub, regime: str, survivors: np.ndarray) -> None:
        """Certificates on a regime's outcome."""

    def plan_low(self, sub, h: Halving) -> RoundPlan:
        """The three low potentials, each with mean at most 1, under 3.1."""
        b = h.b
        lp = build_low_potentials(sub.imp, h.levels, h.edge_u, h.edge_v, b, len(h.cand))

        def judge(half: HalfResult) -> tuple[np.ndarray, dict]:
            counts = lp.pots[0].counts(half.selected).astype(np.float64)
            return low_drift_rule(lp, half.selected, b), {
                "buckets": int(lp.pots[0].n_buckets),
                "tracked_importance": lp.tot_imp,
                "good_importance_bound": 1.0 - 1.0 / float(b) ** BAD_NODE_EXP,
                "drifted_buckets": int(np.sum(np.abs(counts - b / 2.0) >= b**DRIFT_EXP)),
            }

        return RoundPlan(lp.pots, 1.0 / (EPS_DENOM_LOW * (b - 1)), LOW_POTENTIAL_BOUND, judge)

    def plan_high(self, sub, h: Halving) -> RoundPlan:
        """One bucket potential per left node, normalized by its whole alive
        neighborhood (candidates plus nodes waiting at lower levels) so its
        mean is at most imp/4; certified under half the importance."""
        b = h.b
        members, tag_u, _ = _group_full_buckets(
            h.edge_u, None, h.edge_v, b, bounds=(sub.n_left, len(h.cand))
        )
        alive = self.u_good[sub.edge_u] & self.v_alive[sub.edge_v]
        deg = np.bincount(sub.edge_u[alive], minlength=sub.n_left).astype(np.float64)
        with np.errstate(divide="ignore"):
            coef = np.where(deg[tag_u] > 0, sub.imp[tag_u] / deg[tag_u], 0.0)
        pot = QuadPotential(members=members, coefs=coef, b=b, name="phi_high")
        bound = float(np.sum(sub.imp[deg > 0])) / 2.0 if pot.n_buckets else 0.0

        def judge(half: HalfResult) -> tuple[np.ndarray, dict]:
            q = node_share(tag_u, pot.sq_dev(half.selected), deg)
            return q > float(b) ** BAD_NODE_EXP, {
                "buckets": int(pot.n_buckets),
                "good_importance_bound": 1.0 - 0.5 / float(b) ** BAD_NODE_EXP,
            }

        return RoundPlan([pot], 1.0 / (EPS_DENOM_HIGH * (b - 1)), bound, judge)


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


def hitting_set(
    inst: BipartiteInstance,
    params: ParamSet | None = None,
    floor: int | None = None,
    work: WorkCounter | None = None,
    threads: int = 1,  # accepted for benchmark/workloads.py, which passes threads=1
) -> HittingResult:
    """Select right nodes so each left node's hit count tracks its
    expectation sum 2^-k (up to the measured constant and the floor).

    Right nodes above level K are first brought down to K by the low
    regime (only left nodes with at least degree_floor such neighbors are
    protected there), then everything is halved to the floor level.
    """
    if threads != 1:
        raise ValueError("dpar runs sequentially; threads must be 1")
    params = params or ParamSet.desk()
    work = work if work is not None else WorkCounter()
    floor = params.high_floor_hitting if floor is None else floor
    selected, _, rounds = RegimeDriver(params, floor, work).run(inst)

    hits = np.bincount(inst.edge_u[selected[inst.edge_v]], minlength=inst.n_left)
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
