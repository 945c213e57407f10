"""Seeded graph generators for the scaling series and the tests.

All generators are deterministic for a fixed seed and return simple
graphs in the shared CSR form. Callers call the generator they want by
name: bench.scaling_series calls gnm_graph.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, sort_edges_to_csr


def _dedupe_first_seen(codes: np.ndarray) -> np.ndarray:
    """Unique values in first-appearance order."""
    _, first = np.unique(codes, return_index=True)
    return codes[np.sort(first)]


def gnm_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Uniform-ish random graph with exactly m distinct edges."""
    if n < 0 or m < 0:
        raise ValueError("negative size")
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} infeasible for n={n}")
    rng = np.random.default_rng(seed)
    if m == 0:
        return sort_edges_to_csr(np.empty((0, 2), dtype=np.int64), n)
    if m > max_m // 2:
        # dense: permute the full edge set
        i, j = np.triu_indices(n, k=1)
        codes = i.astype(np.int64) * n + j.astype(np.int64)
        codes = rng.permutation(codes)[:m]
    else:
        codes = np.empty(0, dtype=np.int64)
        while len(codes) < m:
            need = m - len(codes)
            batch = rng.integers(0, n, size=(2 * need + 16, 2), dtype=np.int64)
            batch = batch[batch[:, 0] != batch[:, 1]]
            lo = np.minimum(batch[:, 0], batch[:, 1])
            hi = np.maximum(batch[:, 0], batch[:, 1])
            codes = _dedupe_first_seen(np.concatenate([codes, lo * n + hi]))
        codes = codes[:m]
    edges = np.stack([codes // n, codes % n], axis=1)
    return sort_edges_to_csr(edges, n)


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice."""
    n = rows * cols
    ids = np.arange(n, dtype=np.int64).reshape(rows, cols)
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    down = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    return sort_edges_to_csr(np.concatenate([right, down]), n)


def star_graph(n: int) -> Graph:
    """Node 0 joined to all others."""
    if n < 1:
        raise ValueError("star needs at least one node")
    leaves = np.arange(1, n, dtype=np.int64)
    edges = np.stack([np.zeros(n - 1, dtype=np.int64), leaves], axis=1)
    return sort_edges_to_csr(edges, n)


def complete_graph(n: int) -> Graph:
    i, j = np.triu_indices(n, k=1)
    return sort_edges_to_csr(np.stack([i, j], axis=1).astype(np.int64), n)


def powerlaw_graph(n: int, m: int, seed: int = 0, exponent: float = 2.5) -> Graph:
    """Heavy-tailed random graph: endpoints drawn with P(v) ~ rank^(-1/(a-1))."""
    if n < 2:
        raise ValueError("powerlaw needs at least two nodes")
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} infeasible for n={n}")
    rng = np.random.default_rng(seed)
    w = (np.arange(1, n + 1, dtype=np.float64)) ** (-1.0 / (exponent - 1.0))
    p = w / w.sum()
    codes = np.empty(0, dtype=np.int64)
    attempts = 0
    while len(codes) < m:
        attempts += 1
        if attempts > 200:
            raise ValueError("powerlaw parameters cannot realize m distinct edges")
        need = m - len(codes)
        a = rng.choice(n, size=4 * need + 16, p=p).astype(np.int64)
        b = rng.choice(n, size=4 * need + 16, p=p).astype(np.int64)
        keep = a != b
        lo, hi = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
        codes = _dedupe_first_seen(np.concatenate([codes, lo * n + hi]))
    codes = codes[:m]
    edges = np.stack([codes // n, codes % n], axis=1)
    return sort_edges_to_csr(edges, n)


def attach_random_weights(g: Graph, seed: int = 0, lo: float = 0.5, hi: float = 2.0) -> Graph:
    """Same graph with seeded uniform edge weights in [lo, hi)."""
    owners = g.slot_owners()
    uniq = owners < g.nbrs
    edges = np.stack([owners[uniq], g.nbrs[uniq]], axis=1)
    rng = np.random.default_rng(seed)
    w = rng.uniform(lo, hi, size=len(edges))
    return sort_edges_to_csr(edges, g.n, weights=w)

