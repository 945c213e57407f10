"""Undirected graphs in CSR form, subgraph compaction, and file formats.

A graph stores both directed copies of every undirected edge: node u's
block is nbrs[offsets[u]:offsets[u+1]]. Optional per-slot weights are
symmetric.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .sorting import prefix_sum, stable_order_u64
from .workcount import WorkCounter, charge

CSR_MAGIC = b"DPAR1"


def _check_weights(w: np.ndarray) -> None:
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("edge weights must be finite and nonnegative")


@dataclass
class Graph:
    n: int
    offsets: np.ndarray  # int64, length n+1
    nbrs: np.ndarray  # int64, length 2m
    weights: np.ndarray | None = None  # float64 aligned with nbrs

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


def sort_edges_to_csr(
    edges, n: int, weights=None, work: WorkCounter | None = None
) -> Graph:
    """Build a CSR graph from an undirected edge list.

    Self-loops, out-of-range endpoints and weights that are negative, NaN
    or infinite raise; duplicate edges are merged (weights of duplicates
    are summed).
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if n < 1:
        raise ValueError("n must be >= 1")
    if e.size:
        if e.min() < 0 or e.max() >= n:
            raise ValueError("edge endpoint out of range")
        if np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self-loop in edge list")
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(e),):
            raise ValueError("weights length mismatch")
        _check_weights(w)
    # canonicalize, dedupe undirected pairs
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    code = lo * n + hi
    order = stable_order_u64(code, work)
    code = code[order]
    keep = np.ones(len(code), dtype=bool)
    keep[1:] = code[1:] != code[:-1]
    uniq = code[keep]
    if w is not None:
        w_sorted = w[order]
        group = np.cumsum(keep) - 1
        wu = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(wu, group, w_sorted)
    lo_u, hi_u = uniq // n, uniq % n
    # duplicate into both directed copies and sort by (owner, neighbor)
    src = np.concatenate([lo_u, hi_u])
    dst = np.concatenate([hi_u, lo_u])
    ww = np.concatenate([wu, wu]) if w is not None else None
    order2 = stable_order_u64(src * n + dst, work)
    src, dst = src[order2], dst[order2]
    if ww is not None:
        ww = ww[order2]
    counts = np.bincount(src, minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    if counts.size:
        offsets[1:] = prefix_sum(counts, work)
    charge(work, "csr_build", 2 * len(uniq))
    return Graph(n=n, offsets=offsets, nbrs=dst, weights=ww)


def compact_subgraph(
    g: Graph, keep_node, keep_edge, work: WorkCounter | None = None
) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Restrict to kept nodes/edge-slots and renumber densely.

    keep_node is length n; keep_edge aligns with nbrs (both directed copies
    of an edge must agree). Returns (graph, old_to_new, new_to_old). A kept
    edge with a dropped endpoint signals inconsistent masks.
    """
    kn = np.asarray(keep_node, dtype=bool)
    ke = np.asarray(keep_edge, dtype=bool)
    if kn.shape != (g.n,) or ke.shape != (len(g.nbrs),):
        raise ValueError("mask length mismatch")
    owners = g.slot_owners()
    if np.any(ke & (~kn[owners] | ~kn[g.nbrs])):
        raise ValueError("inconsistent masks: kept edge with dropped endpoint")
    # symmetry check via sorted directed codes of kept slots
    fwd = owners[ke] * g.n + g.nbrs[ke]
    rev = g.nbrs[ke] * g.n + owners[ke]
    if not np.array_equal(np.sort(fwd), np.sort(rev)):
        raise ValueError("inconsistent masks: keep_edge not symmetric")
    old_to_new = np.full(g.n, -1, dtype=np.int64)
    new_to_old = np.flatnonzero(kn).astype(np.int64)
    old_to_new[new_to_old] = np.arange(len(new_to_old), dtype=np.int64)
    n2 = len(new_to_old)
    counts = np.bincount(owners[ke], minlength=g.n).astype(np.int64)[new_to_old]
    offsets = np.zeros(n2 + 1, dtype=np.int64)
    if n2:
        offsets[1:] = prefix_sum(counts, work)
    nbrs = old_to_new[g.nbrs[ke]]
    weights = g.weights[ke] if g.weights is not None else None
    charge(work, "compact", len(g.nbrs))
    out = Graph(n=n2, offsets=offsets, nbrs=nbrs, weights=weights)
    return out, old_to_new, new_to_old


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
    graph that fails Graph.validate, bad weights included."""
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
    g = Graph(n=int(n), offsets=offsets, nbrs=nbrs, weights=weights)
    g.validate()
    return g


def graph_from_directed_slots(
    n: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> Graph:
    """CSR from already-symmetric directed slot lists, sorted by (owner,
    neighbor). Parallel slots are kept; rounding.local_round merges its
    cost multiset first, so the cost graphs it builds here are simple."""
    order = stable_order_u64(src * n + dst)
    src, dst = src[order], dst[order]
    w = weights[order] if weights is not None else None
    counts = np.bincount(src, minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(counts)
    return Graph(n=n, offsets=offsets, nbrs=dst, weights=w)
