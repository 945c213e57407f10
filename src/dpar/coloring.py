"""Graph coloring by iterated polynomial recoloring.

Colors are identified with degree-2 polynomials over a prime field F_p: a
color q < p^3 has coefficients (a, b, c) = base-p digits of q and the node
evaluates f_q at a point x, adopting the pair (x, f_q(x)) as its new color.
Two conflicting nodes can only collide at roots of their polynomial
difference, so each neighbor rules out at most 2 of the >= 3*deg candidate
points and a free point always exists. Iterating shrinks any k-coloring to
a palette polynomial in the relevant degree bound.

Two modes share the kernel: proper recoloring (a point is admissible only
if no conflicting neighbor hits it) and weight-budgeted recoloring for
defective coloring (a point is admissible when the weight of neighbors
hitting it stays below a per-node budget; such edges may go monochromatic
and are "lost").

A round solves each conflict once. The slots u -> v and v -> u solve the
same quadratic up to sign, so they share its roots, with r1 and r2
swapped; where conflicts are symmetric, the kernel solves each pair from
its slot u < v and hits both ends, and with an orientation it solves
each out-slot for its owner. The hits reach the sort in the order that
solving every slot would give, so weighted scores are summed in that
order and the colors do not depend on which way a pair was solved. The
inverses in the root formula are gathers from a per-prime table (see
ntheory). color_delta_squared stops after the first shrinking round
whose field is set by the degree rather than by the palette, since a
further round could not improve its O(delta^2) bound.

No round runs on a palette that the field already holds (k <= p). Every
color is then a constant polynomial, so two nodes of different colors
have no common point, every node takes x = 0 and keeps its color: the
round would return its input. color_delta_squared returns before such a
round and defective phase 1 stops before it, with the colors, the alive
slots and the lost weight that running it would give.

Defective coloring ends with a greedy sweep over the classes of its
phase-1 coloring, where each node reads only the final colors of its heads
in classes swept earlier. The classes are swept in a strided order, class
t * a mod k at step t with a near k / golden ratio and coprime to k. Phase
1 classes follow node ids (with no round run, the class is the id; after
a round most nodes take x = 0 and the class follows id mod p), and cost
graphs put their bucket cliques on runs of consecutive ids, so
consecutive classes share edges; the strided order puts classes far
apart next to each other. The defect bound holds for any order of the
classes. class_sweep cuts a sweep into batches of consecutive steps none
of whose earlier heads lie in the same batch, so phase 2 runs one batch of
dependency-free classes at a time, in a fixed number of array operations
per batch, with the result of the class-by-class order. On the
benchmark's core-tall workload (seed 1) the strided order cuts the batches
of its 25 defective colorings and 25 rounding sweeps from 26 720 to
1 683. The rounding sweeps in rounding.py use the same batches over the
final colors, in ascending order.

Phase 2 needs no sort per batch. A node with d out-heads sees at most d
head colors, so one of the colors 0..d is free and its answer lies there.
Each node gets a row of cells for the colors 0..min(d, palette - 1) plus a
spill cell for heads of a color past the row, laid out once per call in
the sweep's node order; a batch's rows are then one contiguous range, and
the batch is a bincount of head weights into its cells and a
minimum.reduceat over the admissible ones. The polynomial rounds keep
sorting their (node, point) pairs: their rows would span a node's whole
point domain, which costs more memory and time than the sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .ntheory import NumberTheoryTables, precompute_tables, prime_in_range
from .sorting import first_of_runs, stable_order_u64
from .workcount import WorkCounter, charge

MAX_FIELD = 1 << 23  # int64 stays exact for all modular products below this
TILE = 1 << 14  # conflict slots per slice of a recoloring round's root search


@dataclass
class Coloring:
    colors: np.ndarray  # int64 per node, values in [0, num_colors)
    num_colors: int
    mono_weight: float = 0.0
    phase1_rounds: int = 0  # defective_coloring: polynomial rounds phase 1 ran
    steps: int = 0  # defective_coloring: phase-2 batches, run one after another


def _poly_coeffs(q: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base-p digits of each color: q = a p^2 + b p + c."""
    c = q % p
    rest = q // p
    b = rest % p
    a = (rest // p) % p
    return a, b, c


def _eval_poly(a, b, c, x, p: int) -> np.ndarray:
    return ((a * x % p) * x + b * x + c) % p


def _conflict_roots(
    dq_a: np.ndarray,
    dq_b: np.ndarray,
    dq_c: np.ndarray,
    p: int,
    sqrt_tab: np.ndarray,
    inv_tab: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roots of a x^2 + b x + c over F_p (p odd). Returns (r1, ok1, r2, ok2).

    Negating the polynomial keeps its roots and swaps r1 and r2 (a double
    or linear root stays r1, with ok2 False).
    """
    a, b, c = dq_a % p, dq_b % p, dq_c % p
    n = len(a)
    r1 = np.zeros(n, dtype=np.int64)
    r2 = np.zeros(n, dtype=np.int64)
    ok1 = np.zeros(n, dtype=bool)
    ok2 = np.zeros(n, dtype=bool)
    lin = (a == 0) & (b != 0)
    if lin.any():
        inv_b = inv_tab[b[lin]]
        r1[lin] = (p - c[lin]) * inv_b % p
        ok1[lin] = True
    quad = a != 0
    if quad.any():
        disc = (b[quad] * b[quad] - 4 * a[quad] * c[quad]) % p
        s = sqrt_tab[disc]
        has = s >= 0
        inv_2a = inv_tab[2 * a[quad] % p]
        root_a = (p - b[quad] + s) % p * inv_2a % p
        root_b = (p - b[quad] + (p - s) % p) % p * inv_2a % p
        idx = np.flatnonzero(quad)
        r1[idx] = np.where(has, root_a, 0)
        ok1[idx] = has
        r2[idx] = np.where(has, root_b, 0)
        ok2[idx] = has & (root_b != root_a)
    # a == 0 and b == 0: constant nonzero difference, no roots
    return r1, ok1, r2, ok2


def _smallest_admissible(
    groups: np.ndarray,
    items: np.ndarray,
    admissible: np.ndarray,
    domain: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per group, the smallest item in [0, domain[g]) that is absent from the
    given (group, item) pairs or present with admissible=True.

    Pairs must be unique, sorted by (group, item), with every item below its
    group's domain. Returns (group ids, answers) for the groups that have
    pairs; any other group's answer is 0, since its whole domain is free.
    Raises if some group has no valid item (cannot happen for in-contract
    callers).
    """
    m = len(groups)
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    big = np.int64(1) << 60
    first = first_of_runs(groups)
    starts = first.nonzero()[0]
    idx = np.arange(m, dtype=np.int64)
    ranks = idx - np.maximum.accumulate(idx * first)
    # items are sorted and distinct, so item >= rank; the first rank with
    # item > rank is the smallest absent item, and it lies below that item
    # and hence inside the domain. Admissible items past that rank are
    # larger than it, so one minimum covers both candidates.
    cand = np.where(items > ranks, ranks, np.where(admissible, items, big))
    best = np.minimum.reduceat(cand, starts)
    # a group without a gap holds items 0..count-1; count is free if in domain
    gids = groups[starts]
    counts = np.empty_like(starts)
    counts[:-1] = starts[1:]
    counts[-1] = m
    counts -= starts
    best = np.minimum(best, np.where(counts < domain[gids], counts, big))
    if np.maximum.reduce(best) >= big:
        raise RuntimeError("no admissible point for some node; invariant broken")
    return gids, best


def _compact_colors(colors: np.ndarray) -> tuple[np.ndarray, int]:
    used, dense = np.unique(colors, return_inverse=True)
    return dense.astype(np.int64), len(used)


def _kernel_round(
    n: int,
    colors: np.ndarray,
    k: int,
    kprime: int,
    tables: NumberTheoryTables,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None,
    domain: np.ndarray,
    budget: np.ndarray | None,
    zero_budget_nodes: np.ndarray | None,
    symmetric: bool,
    work: WorkCounter | None,
) -> np.ndarray:
    """One recoloring round over conflict slots (src -> dst).

    weights/budget None: proper mode, every hit point is inadmissible.
    Otherwise a point is admissible while its hit weight stays below
    budget[v]; nodes flagged in zero_budget_nodes require hit weight 0.
    symmetric: the slots hold both directions of every conflict, with
    symmetric weights; each pair is solved once, from its slot src < dst,
    and hits both ends. Otherwise every slot is solved and hits its owner.
    Returns the new colors (compacted later by the caller).
    """
    p = prime_in_range(tables, kprime)
    if p >= MAX_FIELD:
        raise ValueError("instance too large: prime field exceeds exact-arithmetic range")
    if k > p**3:
        raise RuntimeError("palette does not fit the field; k' selection broken")
    sqrt_tab = tables.sqrt_table(p, work)
    inv_tab = tables.inv_table(p)
    a_all, b_all, c_all = _poly_coeffs(colors, p)
    charge(work, "recolor_slots", len(src) + n)
    if symmetric:
        fwd = src < dst
        src, dst = src[fwd], dst[fwd]
        if weights is not None:
            weights = weights[fwd]

    # Hits go out in two blocks, the r1 hits of every pair and then the r2
    # hits, with the two ends of a pair side by side. On slots sorted by
    # neighbour, each node's hits then reach the stable sort in its slot
    # order, as if each slot had been solved on its own, so the weighted
    # scores are summed in that order. One slice of TILE pairs at a time
    # keeps the temporaries small.
    blocks: tuple[list, list] = ([], [])
    wblocks: tuple[list, list] = ([], [])
    for lo in range(0, len(src), TILE):
        s, d = src[lo : lo + TILE], dst[lo : lo + TILE]
        r1, ok1, r2, ok2 = _conflict_roots(
            a_all[d] - a_all[s], b_all[d] - b_all[s], c_all[d] - c_all[s], p, sqrt_tab, inv_tab
        )
        dom_s = domain[s]
        sides = [[(s, r1, ok1 & (r1 < dom_s))], [(s, r2, ok2 & (r2 < dom_s))]]
        if symmetric:
            # the slot d -> s solves the negated polynomial: r1 and r2 swap
            rev1 = np.where(ok2, r2, r1)
            dom_d = domain[d]
            sides[0].append((d, rev1, ok1 & (rev1 < dom_d)))
            sides[1].append((d, r1, ok2 & (r1 < dom_d)))
        for block, wblock, side in zip(blocks, wblocks, sides):
            hit = np.stack([m for _, _, m in side], axis=1)
            block.append(np.stack([v * p + r for v, r, _ in side], axis=1)[hit])
            if weights is not None:
                wblock.append(np.broadcast_to(weights[lo : lo + TILE, None], hit.shape)[hit])
    key = np.concatenate(blocks[0] + blocks[1]) if blocks[0] else np.empty(0, dtype=np.int64)
    order = stable_order_u64(key, work)
    key_s = key[order]
    uniq_mask = first_of_runs(key_s)
    ukey = key_s[uniq_mask]
    uv, ur = ukey // p, ukey % p
    if weights is None:
        adm = np.zeros(len(ukey), dtype=bool)
    else:
        ws = np.concatenate(wblocks[0] + wblocks[1]) if wblocks[0] else np.empty(0)
        groups = np.cumsum(uniq_mask) - 1
        score = np.bincount(groups, weights=ws[order], minlength=len(ukey))
        # zero hit weight is always harmless, whatever the budget
        adm = (score < budget[uv]) | (score <= 0.0)
        if zero_budget_nodes is not None:
            strict = zero_budget_nodes[uv]
            adm[strict] = score[strict] <= 0.0
    x_star = np.zeros(n, dtype=np.int64)
    gids, best = _smallest_admissible(uv, ur, adm, domain)
    x_star[gids] = best
    new_colors = x_star * p + _eval_poly(a_all, b_all, c_all, x_star, p)
    return new_colors


def _round_prime(tables: NumberTheoryTables, k: int, spread: int) -> tuple[int, int]:
    """(kprime, p) of a recoloring round on k colors whose point domains
    reach up to spread."""
    kprime = max(math.ceil(k ** (1.0 / 3.0)), spread, 3)
    return kprime, prime_in_range(tables, kprime)


def _conflict_slots(g: Graph, orientation: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    owners = g.slot_owners()
    if orientation is None:
        return owners, g.nbrs
    keep = np.asarray(orientation, dtype=bool)
    return owners[keep], g.nbrs[keep]


def reduce_colors_once(
    g: Graph,
    current: Coloring,
    tables: NumberTheoryTables,
    delta: int | None = None,
    orientation: np.ndarray | None = None,
    work: WorkCounter | None = None,
) -> Coloring:
    """One proper polynomial recoloring round; palette stays proper.

    delta bounds the conflict degree (full degree, or outdegree when an
    orientation restricts conflicts); computed from the graph if omitted.
    """
    src, dst = _conflict_slots(g, orientation)
    cdeg = np.bincount(src, minlength=g.n).astype(np.int64)
    d_eff = int(cdeg.max()) if g.n and len(src) else 0
    if delta is None:
        delta = d_eff
    elif d_eff > delta:
        raise ValueError("delta smaller than actual conflict degree")
    k = current.num_colors
    kprime, p = _round_prime(tables, k, 3 * delta)
    domain = np.minimum(np.maximum(3 * cdeg, 1), p)
    new_colors = _kernel_round(
        g.n, current.colors, k, kprime, tables, src, dst, None, domain, None, None,
        orientation is None, work,
    )
    if len(src) and np.any(new_colors[src] == new_colors[dst]):
        raise RuntimeError("recoloring produced a monochromatic conflict edge")
    dense, used = _compact_colors(new_colors)
    return Coloring(colors=dense, num_colors=used)


def tables_limit_for(n: int, delta: int, inv_eps: int = 1) -> int:
    kprime = max(math.ceil(max(n, 1) ** (1.0 / 3.0)), 3 * delta, 3 * inv_eps, 3)
    return 2 * kprime + 2


def color_delta_squared(
    g: Graph,
    orientation: np.ndarray | None = None,
    work: WorkCounter | None = None,
) -> Coloring:
    """Proper coloring with a palette polynomial in the max conflict degree.

    Starts from node ids and runs recoloring rounds, keeping a round only
    if it shrinks the palette and returning at the first round that does
    not. It returns before a round whose field holds the whole palette
    (k <= p): every color is then a constant polynomial, so no conflict
    has a root, every node takes x = 0 and the round would return its
    input. A shrinking round whose field is set by the degree,
    ceil(k^(1/3)) <= 3*delta on a palette of k colors, is the last one:
    it leaves at most p * max(domain) colors, O(delta^2), and a later
    round would use the same field and domains, so it could not improve
    that bound. With an orientation, conflicts are out-edges only; the
    result still has no monochromatic edge in either mode.
    """
    src, _dst = _conflict_slots(g, orientation)
    delta = int(np.bincount(src, minlength=g.n).max()) if g.n and len(src) else 0
    tables = precompute_tables(tables_limit_for(g.n, delta))
    cur = Coloring(colors=np.arange(g.n, dtype=np.int64), num_colors=g.n)
    while True:
        if cur.num_colors <= _round_prime(tables, cur.num_colors, 3 * delta)[1]:
            return cur
        degree_bound = math.ceil(cur.num_colors ** (1.0 / 3.0)) <= 3 * delta
        nxt = reduce_colors_once(g, cur, tables, delta=delta, orientation=orientation, work=work)
        if nxt.num_colors >= cur.num_colors:
            return cur
        if degree_bound:
            return nxt
        cur = nxt


@dataclass
class ClassSweep:
    """A sweep over the classes 0..k-1 of a node coloring, cut into batches.

    The classes are swept in ascending order; a caller with another order
    passes each node's step in it as its class.

    slot_order sorts the swept slots by (owner class, owner) and node_order
    sorts the nodes by class, both stably; lower marks the sorted slots whose
    head lies in a lower class than their owner. A batch is a maximal run of
    consecutive classes in which no slot's head lies in a lower class of the
    same run. A sweep whose decisions read only lower-class heads can
    therefore decide a whole batch at once and reach the same result as
    deciding one class at a time. batches has one row (slot_lo, slot_hi,
    node_lo, node_hi) per batch with members, as slices of the two sorted
    orders.
    """

    slot_order: np.ndarray
    node_order: np.ndarray
    lower: np.ndarray
    batches: np.ndarray  # int64, shape (number of batches, 4)


def class_sweep(
    colors: np.ndarray, num_classes: int, owners: np.ndarray, heads: np.ndarray
) -> ClassSweep:
    """Batches of dependency-free classes for sweeping the slots owners -> heads.

    owners must be in ascending order, as the slot owners of a CSR graph
    are, so that a stable sort by class alone orders the slots by (class,
    owner). Classes below 2^16 sort as 16-bit keys, which numpy
    radix-sorts.
    """
    head_class = colors[heads]
    key = colors[owners]
    lower = head_class < key
    head_class[~lower] = -1  # now the class of each lower-class head, else -1
    slot_bounds = np.zeros(num_classes + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=num_classes), out=slot_bounds[1:])
    kind = np.uint16 if num_classes <= 1 << 16 else np.int64
    slot_order = stable_order_u64(key.astype(kind))
    node_order = stable_order_u64(colors.astype(kind))
    node_bounds = np.zeros(num_classes + 1, dtype=np.int64)
    np.cumsum(np.bincount(colors, minlength=num_classes), out=node_bounds[1:])
    # per class, the highest class among its lower-class heads (-1 if none)
    top = np.full(num_classes, -1, dtype=np.int64)
    filled = np.flatnonzero(slot_bounds[:-1] < slot_bounds[1:])
    if len(filled):
        top[filled] = np.maximum.reduceat(head_class[slot_order], slot_bounds[filled])
    # cut greedily: a class opens a new batch when one of its lower-class
    # heads lies in the current batch. The batch that starts at class s
    # ends before the first class with a lower-class head at s or later,
    # next_cut[s], a suffix minimum over the head classes, so the loop
    # visits the cuts only. The cuts stay in a numpy array, since a Python
    # object per class or batch, all live at once, fragments the
    # interpreter's small-object arenas and raises peak memory.
    first_above = np.full(num_classes + 1, num_classes, dtype=np.int64)
    has_top = top >= 0
    np.minimum.at(first_above, top[has_top], np.flatnonzero(has_top))
    next_cut = np.minimum.accumulate(first_above[::-1])[::-1]
    cuts = np.empty(num_classes + 1, dtype=np.int64)
    cuts[0] = start = 0
    n_cuts = 1
    while start < num_classes:
        start = cuts[n_cuts] = next_cut[start]
        n_cuts += 1
    slot_cuts = slot_bounds[cuts[:n_cuts]]
    node_cuts = node_bounds[cuts[:n_cuts]]
    has_members = node_cuts[:-1] < node_cuts[1:]
    batches = np.stack(
        [slot_cuts[:-1], slot_cuts[1:], node_cuts[:-1], node_cuts[1:]], axis=1
    )[has_members]
    return ClassSweep(
        slot_order=slot_order, node_order=node_order, lower=lower[slot_order], batches=batches
    )


def _phase1_iterations(n: int) -> int:
    return max(1, math.ceil(math.log(max(math.log2(max(n, 2)), 2.0), 1.5)))


def defective_tables_limit(n: int, eps: float) -> int:
    """Sieve limit that defective_coloring needs on n nodes at this eps."""
    eps1 = eps / (2.0 * _phase1_iterations(n))
    return tables_limit_for(n, 0, max(math.ceil(1.0 / eps1), 1))


def _defective_phase1(
    g: Graph,
    eps: float,
    owners: np.ndarray,
    weights: np.ndarray,
    tables: NumberTheoryTables | None,
    work: WorkCounter | None,
) -> tuple[np.ndarray, int, np.ndarray, int]:
    """Budgeted polynomial rounds of defective_coloring (owners: the slot
    owners of g).

    Returns (colors in [0, k), k, alive slot mask, rounds run): slots
    turned monochromatic by some round are dead and their weight is lost.
    It stops before a round whose field holds the whole palette (k <= p):
    every color is then a constant polynomial and the alive slots join
    nodes of different colors, so no conflict has a root, every node takes
    x = 0 and the round would return its input colors.
    """
    n = g.n
    iters = _phase1_iterations(n)
    eps1 = eps / (2.0 * iters)
    inv_eps1 = math.floor(1.0 / eps1)
    if tables is None:
        tables = precompute_tables(defective_tables_limit(n, eps))
    alive = np.ones(len(g.nbrs), dtype=bool)
    colors = np.arange(n, dtype=np.int64)
    k = max(n, 1)
    rounds = 0
    while rounds < iters:
        kprime, p = _round_prime(tables, k, 3 * math.ceil(1.0 / eps1))
        if k <= p:
            break
        src, dst, w = owners[alive], g.nbrs[alive], weights[alive]
        deg = np.bincount(src, minlength=n).astype(np.int64)
        incident = np.bincount(src, weights=w, minlength=n)
        low = deg <= inv_eps1
        domain = np.where(low, np.minimum(3 * deg + 1, p), min(3 * math.ceil(1.0 / eps1), p))
        domain = np.maximum(domain, 1).astype(np.int64)
        budget = eps1 * incident
        new_colors = _kernel_round(
            n, colors, k, kprime, tables, src, dst, w, domain, budget, low, True, work
        )
        rounds += 1
        lost = new_colors[src] == new_colors[dst]
        if np.any(lost & low[src] & (w > 0)):
            raise RuntimeError("low-degree node lost edge weight in phase 1")
        alive_idx = np.flatnonzero(alive)
        alive[alive_idx[lost]] = False
        colors, k_new = _compact_colors(new_colors)
        charge(work, "defective_phase1", len(src))
        shrank = k_new < k
        k = k_new  # even a round that did not shrink has recolored every node
        if not shrank:
            break
    return colors, k, alive, rounds


def _sweep_stride(k: int) -> int:
    """The step a of phase 2's class order: step t sweeps class t * a mod k.

    a is the integer nearest k / golden ratio that is coprime to k, so the
    order visits every class once, and any run of consecutive steps visits
    classes spread evenly over 0..k-1 (three-distance theorem).
    """
    a = max(round(k * (math.sqrt(5.0) - 1.0) / 2.0), 1)
    while math.gcd(a, k) != 1:
        a += 1
    return a


def defective_coloring(
    g: Graph,
    eps: float,
    tables: NumberTheoryTables | None = None,
    work: WorkCounter | None = None,
) -> Coloring:
    """Color with at most 3*ceil(1/eps) colors, monochromatic weight <= eps
    times the total edge weight.

    Phase 1 runs budgeted polynomial rounds, each losing at most an
    eps/(2I) fraction of edge weight to monochromatic edges, and stops
    before a round that could not change a color. Phase 2 sweeps the
    phase-1 classes in the strided order, class t * a mod k at step t
    (see the module docstring), orients every edge from its later to its
    earlier class and greedily recolors the classes into the final
    palette, one batch of dependency-free classes at a time (see
    class_sweep), losing at most eps/2: the bound needs only an acyclic
    orientation. The result records the phase-1 rounds run and the
    phase-2 batches (steps).

    Phase 2 lays out a row table once: per node, in the sweep's node order,
    one cell per color 0..min(outdeg, palette2 - 1) plus a spill cell, so a
    batch's rows are one contiguous range of cells. A batch gathers its
    heads' final colors, sums the head weights into the cells with one
    bincount (in slot order), compares every cell with its owner's budget
    and takes each row's first admissible cell with one minimum.reduceat.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    n = g.n
    weights = g.weights if g.weights is not None else np.ones(len(g.nbrs), dtype=np.float64)
    total_w = float(np.sum(weights)) / 2.0
    palette2 = 3 * math.ceil(1.0 / eps)
    owners = g.slot_owners()
    colors, k, alive, rounds = _defective_phase1(g, eps, owners, weights, tables, work)

    # phase 2 sweeps class t * a mod k at step t: each node's class becomes
    # its step, c * a^-1 mod k, and edges point from later to earlier steps;
    # a node picks the smallest final color whose weight among its
    # out-heads stays under its budget
    step = colors * pow(_sweep_stride(k), -1, k) % k
    out_mask = alive & (step[owners] > step[g.nbrs])
    osrc, odst, ow = owners[out_mask], g.nbrs[out_mask], weights[out_mask]
    # a node may take a color whose out-head weight is 0 or below its budget;
    # strict nodes (few out-edges) have budget 0, so only weight 0 will do
    outdeg = np.bincount(osrc, minlength=n)
    strict = outdeg < math.ceil(1.0 / eps)
    budget = np.where(strict, 0.0, 0.5 * eps * np.bincount(osrc, weights=ow, minlength=n))
    sweep = class_sweep(step, k, osrc, odst)
    batches = sweep.batches
    odst, ow = odst[sweep.slot_order], ow[sweep.slot_order]
    # the row table: per node, in node order, cells for the colors
    # 0..min(outdeg, palette2 - 1) and one spill cell. At most outdeg colors
    # carry head weight, so the row holds the answer; heads of a color past
    # the row go to the spill cell, which is never admissible
    row_deg = outdeg[sweep.node_order]
    row_len = np.minimum(row_deg, palette2 - 1) + 2
    row_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_len, out=row_start[1:])
    col = np.arange(row_start[-1], dtype=np.int64) - np.repeat(row_start[:-1], row_len)
    # a cell's weight w is admissible when w <= 0 or w < budget, which is
    # w < fmax(budget, smallest positive float); never in a spill cell
    limit = np.repeat(np.fmax(budget, np.nextafter(0.0, 1.0))[sweep.node_order], row_len)
    limit[row_start[1:] - 1] = -np.inf
    # rows and slots relative to the first cell of their batch
    batch_cells = row_start[batches[:, 2:]]
    row_rel = row_start[:-1] - np.repeat(batch_cells[:, 0], batches[:, 3] - batches[:, 2])
    slot_row = np.repeat(np.arange(n, dtype=np.int64), row_deg)
    slot_rel, slot_spill = row_rel[slot_row], row_len[slot_row] - 1
    if len(batches):
        charge(work, "defective_phase2", len(odst) + n)
    big = np.int64(1) << 60
    final = np.zeros(n, dtype=np.int64)
    # one row at a time: Python ints for every batch, all live at once,
    # would fragment the interpreter's small-object arenas (see class_sweep)
    for batch in np.hstack([batches, batch_cells]):
        lo, hi, m0, m1, c0, c1 = batch.tolist()
        if lo == hi:
            continue  # members without out-edges keep color 0
        # heads lie in classes before the batch, so their final colors are set
        cell = np.minimum(final[odst[lo:hi]], slot_spill[lo:hi])
        cell += slot_rel[lo:hi]
        wsum = np.bincount(cell, weights=ow[lo:hi], minlength=c1 - c0)
        cand = np.where(wsum < limit[c0:c1], col[c0:c1], big)
        final[sweep.node_order[m0:m1]] = np.minimum.reduceat(cand, row_rel[m0:m1])
    if n and final.max() >= big:
        raise RuntimeError("no admissible point for some node; invariant broken")
    mono = float(np.sum(weights[final[owners] == final[g.nbrs]])) / 2.0
    if mono > eps * total_w + 1e-9 * max(total_w, 1.0):
        raise RuntimeError("defective coloring exceeded its monochromatic budget")
    return Coloring(
        colors=final, num_colors=palette2, mono_weight=mono, phase1_rounds=rounds,
        steps=len(batches),
    )
