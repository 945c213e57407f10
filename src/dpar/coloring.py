"""Graph coloring by iterated polynomial recoloring.

Colors are identified with degree-2 polynomials over a prime field F_p: a
color q < p^3 has coefficients (a, b, c) = base-p digits of q and the node
evaluates f_q at a point x, adopting the pair (x, f_q(x)) as its new color.
Two conflicting nodes, of distinct colors, collide at x exactly when
their values there agree, at a root of their polynomial difference, so
each neighbor rules out at most 2 of the >= 3*deg candidate points and a
free point always exists.
Iterating shrinks any k-coloring to a palette polynomial in the relevant
degree bound.

A round (_point_round) walks the points x = 0, 1, ... in steps. At each
step every undecided node compares its value at x with those of its
undecided conflicts, and takes x when its clash rule admits it and x lies
below its point domain: the smallest admissible point. A conflict that
decided at an earlier step x' holds the color (x', f(x')), whose first
coordinate differs, so it can never collide with a node that takes x;
only pairs undecided at x can. Each undecided conflict still rules out at
most 2 points, so the domains of 3*deg points keep a free one. A step
reads only the undecided nodes and the live entries of the conflicts,
those between undecided nodes; most nodes take one of the first few
points, and the steps stop at the largest domain. Each conflict form
supplies its clash rule and drops the entries that no longer count:

- the slots of a graph (_SlotRule), both directions of every conflict or
  the out-slots of an orientation. A node clashes at x when the weight of
  its slots whose head agrees with it there, summed in slot order, is not
  admissible: (score < budget) | (score <= 0) fails. Proper recoloring has
  no weights and budget 0, so any agreement clashes; the budgeted rounds
  of defective coloring admit a point while the agreeing weight stays
  below a per-node budget, and those edges go monochromatic and are
  "lost". A slot is live while its owner and its head are both
  undecided. The budget still bounds the loss: a slot goes monochromatic
  only when both its ends take the same x, so it was live at that step
  and counted in its owner's score.
- the endpoint cliques of k edges (EdgeCliques: edge i lies in the cliques
  of its two endpoints), which is how the matching colours its selected
  edges, with no line graph (_CliqueRule). A step tallies f(x) per
  (clique, value) over the undecided edges, and an edge clashes when its
  value is shared in either of its cliques. A membership is live while its
  own edge is undecided, so a step touches the 2 memberships of each
  undecided edge, not the line graph's sum of deg^2 slots, and the colors
  are those of a round on the line graph.

color_delta_squared is the one proper-mode loop: its conflicts and
degrees are fixed for the call, so it finds them once, and only the field
and the point domains change from round to round. It stops after the
first shrinking round whose field is set by the degree rather than by the
palette, since a further round could not improve its O(delta^2) bound,
and records the rounds it ran, the round it threw away when one did not
shrink the palette, and the point steps its rounds took.

No round runs on a palette that the field already holds (k <= p): every
color is then a constant polynomial, so two nodes of different colors
have no common point, every node takes x = 0 and keeps its color.
color_delta_squared returns before such a round and defective phase 1
stops before it. Defective phase 1 starts from the layout: with w the
largest id distance over the slots (the bandwidth), id mod (w + 1) is
proper on min(n, w + 1) colors (layout_start). On nearby ids no round
runs; on spread ids (w near n - 1, as on a generic graph) rounds run, and
only then does phase 1 sieve primes, in O(p), below the O(n + m) of a
round on over p nodes.

Defective coloring ends with a greedy sweep over the classes of its
phase-1 coloring, where each node reads only the final colors of its heads
in classes swept earlier. The classes are swept in a strided order, class
t * a mod k at step t with a near k / golden ratio and coprime to k;
strided_steps gives each node its step. Phase 1 classes follow node ids
(id mod (w + 1), and mod p after a round, where most nodes take x = 0),
and a graph whose cliques lie on runs of consecutive ids has edges
between consecutive classes; the strided order puts classes far apart
next to each other. The defect bound holds for any order of the classes.
class_sweep cuts a sweep into batches of consecutive steps none of whose
earlier heads lie in the same batch, so phase 2 runs one batch of
dependency-free classes at a time, with the result of the class-by-class
order: it sorts the batch's (node, head color) pairs and takes each
node's smallest admissible color, the search the polynomial rounds make
over their points. The rounding sweep in rounding.py needs classes with
no cost pair inside, not a small palette, so it runs no phase-1 round and
no phase 2: it takes the same batches over the strided layout classes,
and its bucket cliques cut those batches through class_sweep's clique
rows, one link per member to its predecessor in step order.

greedy_classes, the sweep that ends the MIS and the matching, takes the
classes of a proper coloring in ascending order, each in one step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph, slot_ranges
from .ntheory import NumberTheoryTables, precompute_tables, prime_in_range
from .sorting import first_of_runs, radix_order
from .workcount import WorkCounter, charge

MAX_FIELD = 1 << 23  # int64 stays exact for all modular products below this


@dataclass
class Coloring:
    colors: np.ndarray  # int64 per node, values in [0, num_colors)
    num_colors: int
    mono_weight: float = 0.0
    phase1_rounds: int = 0  # defective_coloring: polynomial rounds phase 1 ran
    steps: int = 0  # defective_coloring: phase-2 batches, run one after another
    point_steps: int = 0  # color_delta_squared, defective phase 1: their rounds' point steps
    rounds: int = 0  # color_delta_squared: recoloring rounds run, kept or not
    discarded_rounds: int = 0  # color_delta_squared: rounds run whose palette did not shrink


def _poly_coeffs(q: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base-p digits of each color: q = a p^2 + b p + c."""
    c = q % p
    rest = q // p
    b = rest % p
    a = (rest // p) % p
    return a, b, c


def _eval_poly(a, b, c, x, p: int) -> np.ndarray:
    """a x^2 + b x + c mod p, for a, b, c and x below p: the sum stays below
    3 p^2, exact in int64, so one reduction does. A round evaluates this
    on every live entry of every step."""
    v = a * (x * x % p)
    v += b * x
    v += c
    v %= p
    return v


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


def _check_field(k: int, p: int) -> None:
    """Check that a round on k colors over the prime field p keeps its
    products exact and holds the palette as polynomials (k <= p^3)."""
    if p >= MAX_FIELD:
        raise ValueError("instance too large: prime field exceeds exact-arithmetic range")
    if k > p**3:
        raise RuntimeError("palette does not fit the field; k' selection broken")


def _values(coeffs: tuple[np.ndarray, np.ndarray, np.ndarray], nodes, x: int, p: int) -> np.ndarray:
    """The values at x of the given nodes' polynomials."""
    a, b, c = coeffs
    return _eval_poly(a[nodes], b[nodes], c[nodes], x, p)


def _point_round(
    rule, colors: np.ndarray, k: int, p: int, domain: np.ndarray, work: WorkCounter | None
) -> tuple[np.ndarray, int]:
    """One recoloring round of the nodes of rule (a _SlotRule or a
    _CliqueRule) on k colors, in the prime field p, in point steps.

    Step x = 0, 1, ... asks the rule which undecided nodes clash at x
    with another undecided node, and each other undecided node with x
    below its domain takes x; then the rule drops the entries of the nodes
    that took x, since a node that decided earlier cannot collide at a
    later point. Returns (new colors, steps taken); raises if a node is
    still undecided at the largest domain.
    """
    _check_field(k, p)
    n = len(colors)
    coeffs = _poly_coeffs(colors, p)
    x_star = np.zeros(n, dtype=np.int64)
    pending = np.arange(n, dtype=np.int64)
    live = rule.entries
    steps = 0
    for x in range(int(domain.max()) if n else 0):
        steps += 1
        free = ~rule.clash(live, pending, coeffs, x, p, work) & (x < domain[pending])
        x_star[pending[free]] = x
        pending = pending[~free]
        if len(pending) == 0:
            break
        live = rule.drop(live, pending)
    if len(pending):
        raise RuntimeError("no admissible point for some node; invariant broken")
    return x_star * p + _eval_poly(*coeffs, x_star, p), steps


def _round_prime(tables: NumberTheoryTables, k: int, spread: int) -> int:
    """The prime p >= max(ceil(k^(1/3)), spread, 3) of a recoloring
    round on k colors whose point domains reach up to spread."""
    return prime_in_range(tables, max(math.ceil(k ** (1.0 / 3.0)), spread, 3))


def _conflict_slots(g: Graph, orientation: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    owners = g.slot_owners()
    if orientation is None:
        return owners, g.nbrs
    keep = np.asarray(orientation, dtype=bool)
    if keep.shape != g.nbrs.shape:
        raise ValueError(
            f"orientation has shape {keep.shape}; it needs one entry per slot, {len(g.nbrs)}"
        )
    return owners[keep], g.nbrs[keep]


def tables_limit_for(n: int, delta: int, inv_eps: int = 1) -> int:
    kprime = max(math.ceil(max(n, 1) ** (1.0 / 3.0)), 3 * delta, 3 * inv_eps, 3)
    return 2 * kprime + 2


@dataclass(frozen=True)
class EdgeCliques:
    """The conflicts of k distinct edges (e_u[i], e_v[i]) of a simple graph
    on nodes 0..n-1, as one clique per node: edge i conflicts with every
    other edge at e_u[i] or at e_v[i]. Two distinct edges share at most one
    endpoint, so this is the line graph on the k edges, with conflict
    degrees deg(u) + deg(v) - 2, held as 2k memberships instead of its
    sum of deg^2 slots."""

    e_u: np.ndarray
    e_v: np.ndarray
    n: int


class _SlotRule:
    """The clash rule of the conflict slots src -> dst of a graph on n
    nodes: a node clashes at x when the weight of its live slots whose
    head's value at x equals its own, summed in slot order, is not
    admissible, (score < budget) | (score <= 0); zero weight is always
    harmless. weights None counts each slot as 1, and budget None is 0,
    so in proper mode any agreement clashes. A slot is live while its
    owner and its head are both undecided."""

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray, weights=None, budget=None) -> None:
        self.n = n
        self.entries = (src, dst, weights)
        self.budget = budget
        # scratch: each undecided node's position, rewritten at each step,
        # and a mark on the undecided nodes, reset after each use
        self._at = np.zeros(n, dtype=np.int64)
        self._open = np.zeros(n, dtype=bool)

    @cached_property
    def cdeg(self) -> np.ndarray:
        return np.bincount(self.entries[0], minlength=self.n).astype(np.int64)

    def clash(self, live, pending, coeffs, x, p, work) -> np.ndarray:
        src, dst, w = live
        charge(work, "recolor_slots", len(src) + len(pending))
        self._at[pending] = np.arange(len(pending))
        owner = self._at[src]
        values = _values(coeffs, pending, x, p)  # live heads are undecided too
        hit = values[owner] == values[self._at[dst]]
        score = np.bincount(owner[hit], None if w is None else w[hit], minlength=len(pending))
        budget = 0.0 if self.budget is None else self.budget[pending]
        return ~((score < budget) | (score <= 0))

    def drop(self, live, pending):
        src, dst, w = live
        self._open[pending] = True
        keep = self._open[src] & self._open[dst]
        self._open[pending] = False
        return src[keep], dst[keep], None if w is None else w[keep]

    def monochromatic(self, colors: np.ndarray, k: int) -> bool:
        src, dst, _ = self.entries
        return bool(np.any(colors[src] == colors[dst]))


class _CliqueRule:
    """The clash rule of the endpoint cliques of an EdgeCliques: node i (of
    m edges) lies in the cliques of ends[i] and ends[m + i], and clashes
    at x when its value there is shared in either clique, by a tally of
    (clique, value) over the live memberships, radix-sorted. A membership
    is live while its own node is undecided, so the live entries are the
    cliques of the undecided nodes' memberships, those of their ends[i]
    and then those of their ends[m + i]."""

    def __init__(self, cl: EdgeCliques) -> None:
        self.n = len(cl.e_u)
        self.n_ends = cl.n
        self.ends = np.concatenate([cl.e_u, cl.e_v]).astype(np.int64)
        deg = np.bincount(self.ends, minlength=cl.n)
        self.cdeg = (deg[cl.e_u] + deg[cl.e_v] - 2).astype(np.int64)
        self.entries = self.ends

    def clash(self, live, pending, coeffs, x, p, work) -> np.ndarray:
        key = np.tile(_values(coeffs, pending, x, p), 2)
        key += live * p
        charge(work, "recolor_slots", len(key))
        order = radix_order(key, self.n_ends * p, work)
        first = first_of_runs(key[order])
        alone = first.copy()
        alone[:-1] &= first[1:]  # a run of one membership
        clash = np.zeros(len(pending), dtype=bool)
        clash[order[~alone] % len(pending)] = True  # membership j is pending[j mod count]'s
        return clash

    def drop(self, live, pending):
        return self.ends[np.concatenate([pending, self.n + pending])]

    def monochromatic(self, colors: np.ndarray, k: int) -> bool:
        """Whether some clique holds one of the k colors twice."""
        if self.n_ends * k >= 1 << 63:
            raise ValueError("instance too large: clique color keys exceed int64")
        key = np.sort(self.ends * k + np.concatenate([colors, colors]))
        return bool(np.any(key[1:] == key[:-1]))


def color_delta_squared(
    g: Graph | EdgeCliques,
    orientation: np.ndarray | None = None,
    work: WorkCounter | None = None,
) -> Coloring:
    """Proper coloring with a palette polynomial in the max conflict degree.

    g is a conflict graph, or the endpoint cliques of a set of edges (see
    EdgeCliques), which reach the colors of the same rounds on their line
    graph with no line graph. The result records the rounds run, the
    rounds thrown away and the point steps of its rounds (see
    _point_round).

    Starts from node ids and runs proper recoloring rounds, keeping a round
    only if it shrinks the palette and returning at the first round that
    does not. A node's point domain is 3 * (its conflict degree), capped
    by the round's field. It returns before a round whose field holds the
    whole palette (k <= p), which would return its input (see the module
    docstring). A shrinking round whose field is set by the degree,
    ceil(k^(1/3)) <= 3*delta on a palette of k colors, is the last one:
    it leaves at most p * max(domain) colors, O(delta^2), and a later
    round would use the same field and domains, so it could not improve
    that bound. With an orientation (graphs only), conflicts are out-edges
    only; the result still has no monochromatic edge in either mode.
    """
    if isinstance(g, EdgeCliques):
        if orientation is not None:
            raise ValueError("endpoint cliques take no orientation")
        rule: _SlotRule | _CliqueRule = _CliqueRule(g)
    else:
        rule = _SlotRule(g.n, *_conflict_slots(g, orientation))
    n, cdeg = rule.n, rule.cdeg
    delta = int(cdeg.max()) if n else 0
    tables = precompute_tables(tables_limit_for(n, delta))
    colors, k = np.arange(n, dtype=np.int64), n
    point_steps = rounds = discarded = 0
    while True:
        p = _round_prime(tables, k, 3 * delta)
        if k <= p:
            break
        degree_bound = math.ceil(k ** (1.0 / 3.0)) <= 3 * delta
        domain = np.minimum(np.maximum(3 * cdeg, 1), p)
        new_colors, steps = _point_round(rule, colors, k, p, domain, work)
        rounds += 1
        point_steps += steps
        new_colors, used = _compact_colors(new_colors)
        if rule.monochromatic(new_colors, used):
            raise RuntimeError("recoloring produced a monochromatic conflict edge")
        if used >= k:
            discarded += 1
            break
        colors, k = new_colors, used
        if degree_bound:
            break
    return Coloring(
        colors=colors, num_colors=k, point_steps=point_steps, rounds=rounds,
        discarded_rounds=discarded,
    )


def class_order(colors: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes sorted by class, stably, by an uncharged radix sort, and
    the class bounds: class c's members are order[bounds[c]:bounds[c + 1]]."""
    bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(colors, minlength=k), out=bounds[1:])
    return radix_order(colors, k), bounds


def greedy_classes(
    g: Graph | EdgeCliques, colors: np.ndarray, num_colors: int, work: WorkCounter | None = None
) -> np.ndarray:
    """The greedy maximal independent subset of the items of g (the nodes
    of a graph, the edges of an EdgeCliques) under a proper coloring of
    their conflicts, as a bool mask: the classes in ascending order, each
    in one parallel step. A taken item marks its claim entries, and an
    item is free while none of its check entries is marked: a node checks
    its own mark and claims its neighbours; an edge checks and claims its
    two endpoints. Charges class_union one unit per item and per graph
    slot; an EdgeCliques' caller charges its endpoint memberships.
    """
    order, bounds = class_order(colors, num_colors)
    if isinstance(g, EdgeCliques):
        checks = (g.e_u[order], g.e_v[order])
        claims, count = np.stack(checks, axis=1).ravel(), np.full(len(order), 2)
        charge(work, "class_union", len(order))
    else:
        checks = (order,)
        slots, _, count = slot_ranges(g, order)  # the claims in class order, by one gather
        claims = g.nbrs[slots]
        charge(work, "class_union", len(claims) + len(order))
    claim_item = np.repeat(np.arange(len(order)), count)  # positions in class order
    b, cb = bounds.tolist(), np.concatenate([[0], np.cumsum(count)])[bounds].tolist()
    marked = np.zeros(g.n, dtype=bool)
    took = np.zeros(len(order), dtype=bool)  # per item, in class order
    # few numpy calls per class: on hundreds of small classes their
    # overhead, not their length, sets the time
    for lo, hi, clo, chi in zip(b, b[1:], cb, cb[1:]):
        hit = marked[checks[0][lo:hi]]
        for check in checks[1:]:
            hit |= marked[check[lo:hi]]
        np.logical_not(hit, out=took[lo:hi])
        marked[claims[clo:chi][took[claim_item[clo:chi]]]] = True
    taken = np.empty_like(took)
    taken[order] = took
    return taken


@dataclass
class ClassSweep:
    """A sweep over the classes 0..k-1 of a node coloring, cut into batches.

    The classes are swept in ascending order; a caller with another order
    passes each node's step in it as its class.

    node_order sorts the nodes by class, stably, and positions is its
    inverse, each node's position in it; slot_order sorts the swept slots
    by their owner's position, stably. A batch is a maximal run of
    consecutive classes in which no slot's head lies in a lower class of
    the same run. A sweep whose decisions read only lower-class heads can
    therefore decide a whole batch at once and reach the same result as
    deciding one class at a time. batches has one row (slot_lo, slot_hi,
    node_lo, node_hi) per batch with members, as slices of the two sorted
    orders.
    """

    slot_order: np.ndarray
    node_order: np.ndarray
    positions: np.ndarray
    batches: np.ndarray  # int64, shape (number of batches, 4)


def class_sweep(
    colors: np.ndarray,
    num_classes: int,
    owners: np.ndarray,
    heads: np.ndarray,
    cliques: Sequence[np.ndarray] = (),
) -> ClassSweep:
    """Batches of dependency-free classes for sweeping the slots owners -> heads.

    The slots may come in any order: they are sorted by their owner's
    position in node_order, that is by (class, owner). Both sorts are
    radix sorts (sorting.radix_order), one pass per 16 bits of the
    classes and of the positions. Slots whose head does not lie in a
    lower class than their owner are swept but cut no batch.

    Each array in cliques holds one clique of nodes per row. Their edges
    cut the batches as slots would, but are not swept: the highest lower
    class among a member's co-members is its predecessor in the row
    sorted by class, so each row stands for its b(b - 1) slots with b - 1
    links. The members of a row must lie in distinct classes.
    """
    n = len(colors)
    head_class = colors[heads]
    key = colors[owners]
    head_class[head_class >= key] = -1  # now the class of each lower-class head, else -1
    slot_bounds = np.zeros(num_classes + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=num_classes), out=slot_bounds[1:])
    del key  # one array per slot fewer through the sort below
    node_order, node_bounds = class_order(colors, num_classes)
    positions = np.empty(n, dtype=np.int64)
    positions[node_order] = np.arange(n, dtype=np.int64)
    slot_order = radix_order(positions[owners], n)
    # per class, the highest class among its lower-class heads (-1 if none)
    top = np.full(num_classes, -1, dtype=np.int64)
    filled = np.flatnonzero(slot_bounds[:-1] < slot_bounds[1:])
    if len(filled):
        top[filled] = np.maximum.reduceat(head_class[slot_order], slot_bounds[filled])
    del head_class
    for rows in cliques:
        chain = np.sort(colors[rows], axis=1)
        if np.any(chain[:, 1:] == chain[:, :-1]):
            raise RuntimeError("two members of a clique share a class")
        np.maximum.at(top, chain[:, 1:].ravel(), chain[:, :-1].ravel())
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
        slot_order=slot_order, node_order=node_order, positions=positions, batches=batches
    )


def _phase1_iterations(n: int) -> int:
    return max(1, math.ceil(math.log(max(math.log2(max(n, 2)), 2.0), 1.5)))


def bandwidth(owners: np.ndarray, heads: np.ndarray) -> int:
    """The largest id distance |owner - head| over the slots, 0 without slots."""
    return int(np.abs(owners - heads).max()) if len(heads) else 0


def layout_start(n: int, w: int) -> tuple[np.ndarray, int]:
    """(id mod (w + 1), its min(n, w + 1) colors, at least 1) for a graph
    of bandwidth w: the ends of a slot differ by 1..w, never by a multiple
    of w + 1, so the coloring is proper."""
    return np.arange(n, dtype=np.int64) % (w + 1), max(min(n, w + 1), 1)


def _defective_phase1(
    g: Graph, eps: float, owners: np.ndarray, weights: np.ndarray, work: WorkCounter | None
) -> tuple[np.ndarray, int, np.ndarray, int, int]:
    """Budgeted polynomial rounds of defective_coloring (owners: the slot
    owners of g), started from layout_start.

    Returns (colors in [0, k), k, alive slot mask, rounds run, point steps
    they took): slots turned monochromatic by some round are dead and
    their weight is lost.
    It stops before a round whose field holds the whole palette (k <= p),
    which would return its input (see the module docstring), and sieves no
    primes when the start has at most as many colors as the first round's
    point spread.
    """
    n = g.n
    # I rounds, each losing at most eps/(2I), with points spread over
    # 3 ceil(2I/eps)
    iters = _phase1_iterations(n)
    eps1 = eps / (2.0 * iters)
    spread = 3 * math.ceil(1.0 / eps1)
    inv_eps1 = math.floor(1.0 / eps1)
    alive = np.ones(len(g.nbrs), dtype=bool)
    colors, k = layout_start(n, bandwidth(owners, g.nbrs))
    rounds = point_steps = 0
    if k <= spread:  # the first round's field p >= spread holds the palette
        return colors, k, alive, rounds, point_steps
    tables = precompute_tables(tables_limit_for(k, 0, math.ceil(1.0 / eps1)))
    while rounds < iters:
        p = _round_prime(tables, k, spread)
        if k <= p:
            break
        src, dst, w = owners[alive], g.nbrs[alive], weights[alive]
        deg = np.bincount(src, minlength=n).astype(np.int64)
        incident = np.bincount(src, weights=w, minlength=n)
        low = deg <= inv_eps1
        domain = np.where(low, np.minimum(3 * deg + 1, p), min(spread, p))
        domain = np.maximum(domain, 1).astype(np.int64)
        # low nodes may lose no weight: budget 0 admits hit weight 0 only
        budget = np.where(low, 0.0, eps1 * incident)
        new_colors, steps = _point_round(_SlotRule(n, src, dst, w, budget), colors, k, p, domain, work)
        rounds += 1
        point_steps += steps
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
    return colors, k, alive, rounds, point_steps


def _sweep_stride(k: int) -> int:
    """The step a of the strided class order: step t sweeps class t * a mod k.

    a is the integer nearest k / golden ratio that is coprime to k, so the
    order visits every class once, and any run of consecutive steps visits
    classes spread evenly over 0..k-1 (three-distance theorem).
    """
    a = max(round(k * (math.sqrt(5.0) - 1.0) / 2.0), 1)
    while math.gcd(a, k) != 1:
        a += 1
    return a


def strided_steps(colors: np.ndarray, k: int) -> np.ndarray:
    """Each node's step t in the sweep that takes class t * a mod k at step
    t: its class times a^-1 mod k."""
    return colors * pow(_sweep_stride(k), -1, k) % k


def defective_coloring(g: Graph, eps: float, work: WorkCounter | None = None) -> Coloring:
    """Color with at most 3*ceil(1/eps) colors, monochromatic weight <= eps
    times the total edge weight.

    Phase 1 starts from the layout coloring id mod (w + 1) (see
    layout_start) and runs budgeted polynomial rounds, each losing at
    most an eps/(2I) fraction of edge weight to monochromatic edges; it
    stops before a round that could not change a color. Phase 2 sweeps the
    phase-1 classes in the strided order (see strided_steps), orients
    every edge from its later to its earlier class and greedily recolors
    the classes into the final palette, one batch of dependency-free
    classes at a time (see class_sweep), losing at most eps/2: the bound
    needs only an acyclic orientation. The result records the phase-1
    rounds run, the point steps they took and the phase-2 batches
    (steps).
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    n = g.n
    weights = g.weights if g.weights is not None else np.ones(len(g.nbrs), dtype=np.float64)
    total_w = float(np.sum(weights)) / 2.0
    palette2 = 3 * math.ceil(1.0 / eps)
    owners = g.slot_owners()
    colors, k, alive, rounds, point_steps = _defective_phase1(g, eps, owners, weights, work)
    step = strided_steps(colors, k)

    # edges point from later to earlier steps; a node picks the smallest
    # final color whose weight among its out-heads stays under its budget
    out_mask = alive & (step[owners] > step[g.nbrs])
    osrc, odst, ow = owners[out_mask], g.nbrs[out_mask], weights[out_mask]
    # a node may take a color whose out-head weight is 0 or below its budget;
    # strict nodes (few out-edges) have budget 0, so only weight 0 will do
    strict = np.bincount(osrc, minlength=n) < math.ceil(1.0 / eps)
    budget = np.where(strict, 0.0, 0.5 * eps * np.bincount(osrc, weights=ow, minlength=n))
    sweep = class_sweep(step, k, osrc, odst)
    okey = osrc[sweep.slot_order] * palette2
    odst, ow = odst[sweep.slot_order], ow[sweep.slot_order]
    dom2 = np.full(n, palette2, dtype=np.int64)
    if len(sweep.batches):
        charge(work, "defective_phase2", len(odst) + n)
    final = np.zeros(n, dtype=np.int64)
    for lo, hi in sweep.batches[:, :2]:
        if lo == hi:
            continue  # members without out-edges keep color 0
        # heads lie in classes before the batch, so their final colors are
        # set; a stable sort by (node, color) sums each color's weight in
        # slot order
        key = okey[lo:hi] + final[odst[lo:hi]]
        korder = radix_order(key, n * palette2, work)
        key_s = key[korder]
        first = first_of_runs(key_s)
        wsum = np.bincount(first.cumsum() - 1, weights=ow[lo:hi][korder])
        uv, uc = np.divmod(key_s[first], palette2)
        adm = (wsum <= 0.0) | (wsum < budget[uv])
        gids, best = _smallest_admissible(uv, uc, adm, dom2)
        final[gids] = best
    mono = float(np.sum(weights[final[owners] == final[g.nbrs]])) / 2.0
    if mono > eps * total_w + 1e-9 * max(total_w, 1.0):
        raise RuntimeError("defective coloring exceeded its monochromatic budget")
    return Coloring(
        colors=final, num_colors=palette2, mono_weight=mono, phase1_rounds=rounds,
        steps=len(sweep.batches), point_steps=point_steps,
    )
