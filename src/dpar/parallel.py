"""Deterministic data-parallel helpers.

Parallel loops act on disjoint fixed-size tiles of an index range and the
per-tile results are combined in tile order. Tile boundaries depend only on
the range length, never on the worker count, so results are bit-identical
for any number of threads. threads=1 is the sequential reference mode.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

TILE = 1 << 14

T = TypeVar("T")


def map_tiles(fn: Callable[[int, int], T], n: int, threads: int = 1) -> list[T]:
    """Apply fn(lo, hi) to each tile of range(n); results in tile order."""
    ranges = [(lo, min(lo + TILE, n)) for lo in range(0, n, TILE)]
    if threads <= 1 or len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda r: fn(r[0], r[1]), ranges))


def tiled_sum(values: Sequence[float] | np.ndarray, threads: int = 1) -> float:
    """Sum of float values with a thread-invariant reduction order."""
    arr = np.asarray(values, dtype=np.float64)
    partials = map_tiles(lambda lo, hi: float(np.sum(arr[lo:hi])), len(arr), threads)
    return math.fsum(partials)
