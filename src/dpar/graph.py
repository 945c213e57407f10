"""Undirected graphs in CSR form, subgraph compaction, and file formats.

A graph stores both directed copies of every undirected edge: node u's
block is nbrs[offsets[u]:offsets[u+1]]. Optional per-slot weights are
symmetric.

Graphs are built from pair lists on one path: the directed slot codes
src * n + dst are sorted into CSR, and each run of repeated slots merges
into one. Unweighted codes are sorted in place (ndarray.sort): equal
codes are the same slot, so no order among them needs keeping. Weighted
codes keep the stable radix order (sorting.radix_order), so that each
run sums its weights in input order. sort_edges_to_csr validates an
input edge list. Unweighted, it writes each pair's two codes straight
into one array; weighted, it passes graph_from_directed_slots all its
lo -> hi copies, then all its hi -> lo copies, so both slots of a
repeated pair sum its weights in the same order. compact_subgraph
restricts a graph to a node set; it reads only the kept nodes' slot
ranges and charges their volume plus the kept node count, so a
compaction that keeps little costs little.
has_repeated_pairs checks pair lists that must hold no pair twice.
Every input is validated once, where it is built: a Graph checks itself,
as the instances do. What the library derives from validated data, the
graphs built here included, is built unchecked, through derived().
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .sorting import first_of_runs, radix_order
from .workcount import WorkCounter, charge

CSR_MAGIC = b"DPAR1"


def _check_weights(w: np.ndarray) -> None:
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("edge weights must be finite and nonnegative")


def derived(cls, **fields):
    """cls holding the given fields, its __post_init__ check skipped: for derived data."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass
class Graph:
    n: int
    offsets: np.ndarray  # int64, length n+1
    nbrs: np.ndarray  # int64, length 2m
    weights: np.ndarray | None = None  # float64 aligned with nbrs

    def __post_init__(self):
        self.validate()

    @property
    def m(self) -> int:
        return len(self.nbrs) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def slot_owners(self) -> np.ndarray:
        """Owner node id for every directed slot."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.offsets))

    def edge_weight_total(self) -> float:
        if self.weights is None:
            return float(self.m)
        return float(np.sum(self.weights)) / 2.0

    def validate(self) -> None:
        if self.offsets.shape != (self.n + 1,) or self.offsets[0] != 0:
            raise ValueError("bad offsets")
        if np.any(np.diff(self.offsets) < 0) or int(self.offsets[-1]) != len(self.nbrs):
            raise ValueError("offsets not monotone or inconsistent with nbrs")
        if len(self.nbrs):
            if self.nbrs.min() < 0 or self.nbrs.max() >= self.n:
                raise ValueError("neighbor id out of range")
        owners = self.slot_owners()
        if np.any(owners == self.nbrs):
            raise ValueError("self-loop present")
        fwd = owners * self.n + self.nbrs
        rev = self.nbrs * self.n + owners
        if not np.array_equal(np.sort(fwd), np.sort(rev)):
            raise ValueError("adjacency not symmetric")
        if self.weights is not None:
            if len(self.weights) != len(self.nbrs):
                raise ValueError("aligned array length mismatch")
            _check_weights(self.weights)


def has_repeated_pairs(i: np.ndarray, j: np.ndarray, n: int) -> bool:
    """Whether some undirected pair {i[k], j[k]}, endpoints in [0, n),
    appears twice. Sorting the codes min * n + max and comparing
    neighbours is far cheaper than the hash-based np.unique on large int64
    arrays."""
    code = np.minimum(i, j) * np.int64(n)
    code += np.maximum(i, j)
    code.sort()
    return bool(np.any(code[1:] == code[:-1]))


def graph_from_directed_slots(
    n: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> Graph:
    """CSR from already-symmetric directed slot lists, sorted by (owner,
    neighbor). Repeated slots merge into one, whose weight is the sum of
    theirs taken in input order. Without weights the codes src * n + dst
    are sorted in place; with them they keep the stable radix order
    (_graph_from_slot_codes)."""
    code = src * n
    code += dst
    # sort_edges_to_csr passes temporaries, which this frees before the sort
    del src, dst
    return _graph_from_slot_codes(n, code, weights)


def _graph_from_slot_codes(n: int, code: np.ndarray, weights: np.ndarray | None) -> Graph:
    """CSR from the directed slot codes owner * n + neighbor, which it
    takes over. Without weights the codes are sorted in place; with them
    they are stably radix-sorted, and each run of equal codes sums its
    weights in input order. The sort is not charged to a WorkCounter.
    Temporaries are dropped early, since this build sets peak memory on
    dense inputs."""
    w = None
    if weights is None:
        code.sort()
        code = code[first_of_runs(code)]
    else:
        order = radix_order(code, n * n)
        code = code[order]
        first = first_of_runs(code)
        groups = np.cumsum(first)
        groups -= 1
        # astype: bincount of no entries comes back int64
        w = np.bincount(groups, weights=weights[order]).astype(np.float64, copy=False)
        del groups, order
        code = code[first]
        del first
    # node u's slots are the codes in [u * n, (u + 1) * n)
    offsets = np.searchsorted(code, np.arange(n + 1, dtype=np.int64) * n)
    code %= n
    return derived(Graph, n=n, offsets=offsets, nbrs=code, weights=w)


def sort_edges_to_csr(edges, n: int, weights=None) -> Graph:
    """Build a CSR graph from an undirected edge list.

    Self-loops, out-of-range endpoints and weights that are negative, NaN
    or infinite raise; duplicate edges are merged (weights of duplicates
    are summed in input order).
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if n < 1:
        raise ValueError("n must be >= 1")
    if e.size:
        if e.min() < 0 or e.max() >= n:
            raise ValueError("edge endpoint out of range")
        if np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self-loop in edge list")
    if weights is None:
        # the codes u * n + v, then the codes v * n + u
        code = np.empty((2, len(e)), dtype=np.int64)
        np.multiply(e.T, n, out=code)
        code += e.T[::-1]
        return _graph_from_slot_codes(n, code.reshape(-1), None)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(e),):
        raise ValueError("weights length mismatch")
    _check_weights(w)
    # all lo -> hi copies, then all hi -> lo copies, each in input order:
    # every run of repeated slots holds one orientation's copies, so both
    # slots of a pair sum its weights in the same order
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    ww = np.concatenate([w, w])
    return graph_from_directed_slots(n, np.concatenate([lo, hi]), np.concatenate([hi, lo]), ww)


def slot_ranges(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The given nodes' slot ranges, back to back in their order; each
    range's end in that concatenation; each node's degree."""
    starts = g.offsets[nodes]
    vol = g.offsets[nodes + 1] - starts
    ends = np.cumsum(vol)
    slots = np.repeat(starts - (ends - vol), vol)
    slots += np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    return slots, ends, vol


def compact_subgraph(
    g: Graph, keep_node, work: WorkCounter | None = None
) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Restrict to the kept nodes and the edges between them, renumbered
    densely. keep_node is a length-n mask. Returns (graph, old_to_new,
    new_to_old).

    Only the kept nodes' slot ranges offsets[v]:offsets[v+1] are gathered,
    back to back in slot order, and filtered by whether their head is
    kept. compact is charged their volume plus the kept node count,
    whatever the input's size."""
    kn = np.asarray(keep_node, dtype=bool)
    if kn.shape != (g.n,):
        raise ValueError("mask length mismatch")
    new_to_old = np.flatnonzero(kn).astype(np.int64)
    n2 = len(new_to_old)
    old_to_new = np.full(g.n, -1, dtype=np.int64)
    old_to_new[new_to_old] = np.arange(n2, dtype=np.int64)
    # the kept owners' slot ranges, back to back in slot order
    slots, ends, vol = slot_ranges(g, new_to_old)
    charge(work, "compact", len(slots) + n2)
    heads = g.nbrs[slots]
    ke = kn[heads]
    kept = np.flatnonzero(ke)
    counts = np.searchsorted(kept, ends) - np.searchsorted(kept, ends - vol)
    del kept
    # each slot array is cut to the kept slots before the next one is made:
    # keeping a whole graph holds three at once, as a full scan does
    heads = heads[ke]
    slots = slots[ke] if g.weights is not None else None
    nbrs = old_to_new[heads]
    del heads
    weights = g.weights[slots] if slots is not None else None
    del slots
    offsets = np.zeros(n2 + 1, dtype=np.int64)
    if n2:
        np.cumsum(counts, out=offsets[1:])
        charge(work, "prefix_sum", n2)
    return derived(Graph, n=n2, offsets=offsets, nbrs=nbrs, weights=weights), old_to_new, new_to_old


def read_edgelist(path: str) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Parse 'u v [w]' lines (0-based ids). Returns (edges, weights, n)."""
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    saw_w = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) not in (2, 3):
                raise ValueError(f"bad edge line: {line!r}")
            us.append(int(parts[0]))
            vs.append(int(parts[1]))
            if len(parts) == 3:
                saw_w = True
                ws.append(float(parts[2]))
            else:
                ws.append(1.0)
    edges = np.array([us, vs], dtype=np.int64).T.reshape(-1, 2)
    n = int(edges.max()) + 1 if edges.size else 0
    weights = np.asarray(ws, dtype=np.float64) if saw_w else None
    return edges, weights, max(n, 1)


def write_csr(path: str, g: Graph) -> None:
    """Binary CSR: magic, little-endian u64 n and m, offsets, nbrs, weights?"""
    with open(path, "wb") as fh:
        fh.write(CSR_MAGIC)
        fh.write(struct.pack("<QQ", g.n, g.m))
        fh.write(g.offsets.astype("<u8").tobytes())
        fh.write(g.nbrs.astype("<u8").tobytes())
        if g.weights is not None:
            fh.write(g.weights.astype("<f8").tobytes())


def read_csr(path: str) -> Graph:
    """Read write_csr's format. A file cut short raises ValueError naming
    the section it ends in (header, offsets, nbrs or weights); so does a
    graph that fails Graph's check, bad weights included."""
    with open(path, "rb") as fh:
        if fh.read(5) != CSR_MAGIC:
            raise ValueError("bad magic; not a CSR graph file")
        size = os.fstat(fh.fileno()).st_size

        def section(name: str, nbytes: int) -> bytes:
            left = size - fh.tell()
            if left < nbytes:
                raise ValueError(f"truncated CSR file: {name} section has {left} of {nbytes} bytes")
            return fh.read(nbytes)

        n, m = struct.unpack("<QQ", section("header", 16))
        offsets = np.frombuffer(section("offsets", 8 * (n + 1)), dtype="<u8").astype(np.int64)
        nbrs = np.frombuffer(section("nbrs", 8 * 2 * m), dtype="<u8").astype(np.int64)
        weights = None
        if size > fh.tell():
            if size - fh.tell() > 8 * 2 * m:
                raise ValueError("trailing bytes are not a weights block")
            weights = np.frombuffer(section("weights", 8 * 2 * m), dtype="<f8").astype(np.float64)
    return Graph(n=int(n), offsets=offsets, nbrs=nbrs, weights=weights)

