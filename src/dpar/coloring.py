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

Defective coloring ends with a greedy sweep over the classes of its
phase-1 coloring, in ascending order, where each node reads only the final
colors of its heads in lower classes. class_sweep cuts such sweeps into
batches of consecutive classes none of whose lower-class heads lie in the
same batch, so phase 2 runs one batch of dependency-free classes at a
time, in a fixed number of array operations per batch, with the result of
the class-by-class order. The rounding sweeps in rounding.py use the same
batches.

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
from .sorting import stable_order_u64
from .workcount import WorkCounter, charge

MAX_FIELD = 1 << 23  # int64 stays exact for all modular products below this
TILE = 1 << 14  # conflict slots per slice of a recoloring round's root search


@dataclass
class Coloring:
    colors: np.ndarray  # int64 per node, values in [0, num_colors)
    num_colors: int
    mono_weight: float = 0.0


def _mod_pow(base: np.ndarray, exp: int, p: int) -> np.ndarray:
    result = np.ones_like(base)
    b = base % p
    e = exp
    while e > 0:
        if e & 1:
            result = (result * b) % p
        b = (b * b) % p
        e >>= 1
    return result


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
    dq_a: np.ndarray, dq_b: np.ndarray, dq_c: np.ndarray, p: int, sqrt_tab: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roots of a x^2 + b x + c over F_p (p odd). Returns (r1, ok1, r2, ok2)."""
    a, b, c = dq_a % p, dq_b % p, dq_c % p
    n = len(a)
    r1 = np.zeros(n, dtype=np.int64)
    r2 = np.zeros(n, dtype=np.int64)
    ok1 = np.zeros(n, dtype=bool)
    ok2 = np.zeros(n, dtype=bool)
    lin = (a == 0) & (b != 0)
    if lin.any():
        inv_b = _mod_pow(b[lin], p - 2, p)
        r1[lin] = (p - c[lin]) * inv_b % p
        ok1[lin] = True
    quad = a != 0
    if quad.any():
        disc = (b[quad] * b[quad] - 4 * a[quad] * c[quad]) % p
        s = sqrt_tab[disc]
        has = s >= 0
        inv_2a = _mod_pow(2 * a[quad] % p, p - 2, p)
        root_a = (p - b[quad] + s) % p * inv_2a % p
        root_b = (p - b[quad] + (p - s) % p) % p * inv_2a % p
        idx = np.flatnonzero(quad)
        r1[idx] = np.where(has, root_a, 0)
        ok1[idx] = has
        r2[idx] = np.where(has, root_b, 0)
        ok2[idx] = has & (root_b != root_a)
    # a == 0 and b == 0: constant nonzero difference, no roots
    return r1, ok1, r2, ok2


def _first_of_runs(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


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
    first = _first_of_runs(groups)
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
    work: WorkCounter | None,
) -> np.ndarray:
    """One recoloring round over conflict slots (src -> dst).

    weights/budget None: proper mode, every hit point is inadmissible.
    Otherwise a point is admissible while its hit weight stays below
    budget[v]; nodes flagged in zero_budget_nodes require hit weight 0.
    Returns the new colors (compacted later by the caller).
    """
    p = prime_in_range(tables, kprime)
    if p >= MAX_FIELD:
        raise ValueError("instance too large: prime field exceeds exact-arithmetic range")
    if k > p**3:
        raise RuntimeError("palette does not fit the field; k' selection broken")
    sqrt_tab = tables.sqrt_table(p, work)
    a_all, b_all, c_all = _poly_coeffs(colors, p)
    charge(work, "recolor_slots", len(src) + n)

    # one slice of TILE slots at a time keeps the root search's temporaries small
    parts = []
    for lo in range(0, len(src), TILE):
        s, d = src[lo : lo + TILE], dst[lo : lo + TILE]
        da = a_all[d] - a_all[s]
        db = b_all[d] - b_all[s]
        dc = c_all[d] - c_all[s]
        parts.append(_conflict_roots(da, db, dc, p, sqrt_tab))
    if parts:
        r1, ok1, r2, ok2 = (np.concatenate(cols) for cols in zip(*parts))
    else:
        r1 = r2 = np.empty(0, dtype=np.int64)
        ok1 = ok2 = np.empty(0, dtype=bool)

    vv = np.concatenate([src, src])
    rr = np.concatenate([r1, r2])
    hit = np.concatenate([ok1, ok2]) & (rr < domain[vv])
    vv, rr = vv[hit], rr[hit]
    if weights is not None:
        ws = np.concatenate([weights, weights])[hit]
    key = vv * p + rr
    order = stable_order_u64(key, work)
    key_s = key[order]
    uniq_mask = _first_of_runs(key_s)
    ukey = key_s[uniq_mask]
    uv, ur = ukey // p, ukey % p
    if weights is None:
        adm = np.zeros(len(ukey), dtype=bool)
    else:
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
    kprime = max(math.ceil(k ** (1.0 / 3.0)), 3 * delta, 3)
    p = prime_in_range(tables, kprime)
    domain = np.minimum(np.maximum(3 * cdeg, 1), p)
    new_colors = _kernel_round(
        g.n, current.colors, k, kprime, tables, src, dst, None, domain, None, None, work
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

    Starts from node ids and runs recoloring rounds until the palette stops
    shrinking. With an orientation, conflicts are out-edges only; the
    result still has no monochromatic edge in either mode.
    """
    src, _dst = _conflict_slots(g, orientation)
    delta = int(np.bincount(src, minlength=g.n).max()) if g.n and len(src) else 0
    tables = precompute_tables(tables_limit_for(g.n, delta))
    cur = Coloring(colors=np.arange(g.n, dtype=np.int64), num_colors=max(g.n, 1))
    while True:
        nxt = reduce_colors_once(g, cur, tables, delta=delta, orientation=orientation, work=work)
        if nxt.num_colors >= cur.num_colors:
            return cur
        cur = nxt


@dataclass
class ClassSweep:
    """A sweep over the classes 0..k-1 of a node coloring, cut into batches.

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
    """Batches of dependency-free classes for sweeping the slots owners -> heads."""
    n = len(colors)
    head_class = colors[heads]
    key = colors[owners]
    lower = head_class < key
    head_class[~lower] = -1  # now the class of each lower-class head, else -1
    slot_bounds = np.zeros(num_classes + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=num_classes), out=slot_bounds[1:])
    key *= n
    key += owners  # (owner class, owner)
    slot_order = stable_order_u64(key)
    node_order = stable_order_u64(colors)
    node_bounds = np.zeros(num_classes + 1, dtype=np.int64)
    np.cumsum(np.bincount(colors, minlength=num_classes), out=node_bounds[1:])
    # per class, the highest class among its lower-class heads (-1 if none)
    top = np.full(num_classes, -1, dtype=np.int64)
    filled = np.flatnonzero(slot_bounds[:-1] < slot_bounds[1:])
    if len(filled):
        top[filled] = np.maximum.reduceat(head_class[slot_order], slot_bounds[filled])
    # cut greedily: a class opens a new batch when one of its lower-class
    # heads lies in the current batch. The cuts stay in numpy arrays, since
    # a Python object per class or batch, all live at once, fragments the
    # interpreter's small-object arenas and raises peak memory.
    cuts = np.empty(num_classes + 1, dtype=np.int64)
    cuts[0] = start = 0
    n_cuts = 1
    for c in range(num_classes):
        if top[c] >= start:
            cuts[n_cuts] = start = c
            n_cuts += 1
    cuts[n_cuts] = num_classes
    slot_cuts = slot_bounds[cuts[: n_cuts + 1]]
    node_cuts = node_bounds[cuts[: n_cuts + 1]]
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
) -> tuple[np.ndarray, int, np.ndarray]:
    """Budgeted polynomial rounds of defective_coloring (owners: the slot
    owners of g).

    Returns (colors in [0, k), k, alive slot mask): slots turned
    monochromatic by some round are dead and their weight is lost.
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
    for _ in range(iters):
        src, dst, w = owners[alive], g.nbrs[alive], weights[alive]
        deg = np.bincount(src, minlength=n).astype(np.int64)
        incident = np.bincount(src, weights=w, minlength=n)
        kprime = max(math.ceil(k ** (1.0 / 3.0)), 3 * math.ceil(1.0 / eps1), 3)
        p = prime_in_range(tables, kprime)
        low = deg <= inv_eps1
        domain = np.where(low, np.minimum(3 * deg + 1, p), min(3 * math.ceil(1.0 / eps1), p))
        domain = np.maximum(domain, 1).astype(np.int64)
        budget = eps1 * incident
        new_colors = _kernel_round(
            n, colors, k, kprime, tables, src, dst, w, domain, budget, low, work
        )
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
    return colors, k, alive


def defective_coloring(
    g: Graph,
    eps: float,
    tables: NumberTheoryTables | None = None,
    work: WorkCounter | None = None,
) -> Coloring:
    """Color with at most 3*ceil(1/eps) colors, monochromatic weight <= eps
    times the total edge weight.

    Phase 1 runs budgeted polynomial rounds, each losing at most an
    eps/(2I) fraction of edge weight to monochromatic edges; phase 2
    orients edges from high to low phase-1 color and greedily recolors the
    phase-1 classes into the final palette in ascending order, one batch of
    dependency-free classes at a time (see class_sweep), losing at most
    eps/2.

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
    colors, k, alive = _defective_phase1(g, eps, owners, weights, tables, work)

    # phase 2: orient high -> low phase-1 color; a node picks the smallest
    # final color whose weight among its out-heads stays under its budget
    src, dst, w = owners[alive], g.nbrs[alive], weights[alive]
    out_mask = colors[src] > colors[dst]
    osrc, odst, ow = src[out_mask], dst[out_mask], w[out_mask]
    # a node may take a color whose out-head weight is 0 or below its budget;
    # strict nodes (few out-edges) have budget 0, so only weight 0 will do
    outdeg = np.bincount(osrc, minlength=n)
    strict = outdeg < math.ceil(1.0 / eps)
    budget = np.where(strict, 0.0, 0.5 * eps * np.bincount(osrc, weights=ow, minlength=n))
    sweep = class_sweep(colors, k, osrc, odst)
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
    return Coloring(colors=final, num_colors=palette2, mono_weight=mono)
