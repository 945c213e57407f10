"""Prefix sums, small-key radix sort and a stable word-key sort.

The small-key sort handles keys in [1, ceil(log2 N)] with O(log log N)
stable binary-digit passes, each pass built from prefix sums. General
machine-word keys go through numpy's stable argsort, used as
infrastructure by the CSR builder. numpy radix-sorts only keys of 16 bits
or less; on int64 keys it runs timsort, which is fast on partly ordered
input such as the merge codes of bucket pairs. Its work charge, one unit
per key per 16-bit digit, is a declared cost model of an LSD radix sort,
not a count of what timsort does. coloring.class_sweep passes its class
keys as 16-bit integers when there are at most 2^16 classes, so they get
the radix sort, which does not slow down on unsorted keys such as the
strided classes of defective coloring. first_of_runs marks where the runs
of equal keys in a sorted array begin.
"""

from __future__ import annotations

import math

import numpy as np

from .workcount import WorkCounter, charge


def prefix_sum(values, work: WorkCounter | None = None) -> np.ndarray:
    """Inclusive prefix sum of an integer array, int64 accumulator.

    Raises OverflowError if the true total does not fit the accumulator.
    """
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError("prefix_sum expects integers")
    arr = arr.astype(np.int64, copy=False)
    charge(work, "prefix_sum", arr.size)
    out = np.cumsum(arr, dtype=np.int64)
    if arr.size:
        # int64 cumsum wraps silently; rebuild the total with Python ints
        true_total = 0
        for lo in range(0, arr.size, 1 << 20):
            true_total += int(np.sum(arr[lo : lo + (1 << 20)], dtype=object))
        if true_total != int(out[-1]):
            raise OverflowError("prefix_sum accumulator overflow; instance too large")
    return out


def max_small_key(n_bound: int) -> int:
    """Largest key the small-key sort accepts for instances of size bound N."""
    if n_bound < 2:
        raise ValueError("n_bound must be >= 2")
    return max(1, math.ceil(math.log2(n_bound)))


def radix_sort_small_keys(
    keys, payload, n_bound: int, work: WorkCounter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of (key, payload) pairs, keys in [1, ceil(log2 N)].

    Runs ceil(log2 log2 N)-ish binary-digit passes (one per bit of the key
    bound), each a stable two-way partition positioned by prefix sums.
    """
    k = np.asarray(keys, dtype=np.int64).copy()
    p = np.asarray(payload, dtype=np.int64).copy()
    if k.shape != p.shape or k.ndim != 1:
        raise ValueError("keys and payload must be 1-d arrays of equal length")
    hi = max_small_key(n_bound)
    if k.size and (k.min() < 1 or k.max() > hi):
        raise ValueError(f"keys must lie in [1, {hi}] for n_bound={n_bound}")
    bits = max(1, math.ceil(math.log2(hi + 1)))
    for bit in range(bits):
        digit = (k >> bit) & 1
        zeros = digit == 0
        # stable positions: zeros first in order, then ones, via prefix sums
        pos_zero = np.cumsum(zeros) - 1
        n_zero = int(pos_zero[-1]) + 1 if k.size else 0
        pos_one = np.cumsum(~zeros) - 1 + n_zero
        charge(work, "radix_sort", 3 * k.size)
        dest = np.where(zeros, pos_zero, pos_one)
        nk = np.empty_like(k)
        np_ = np.empty_like(p)
        nk[dest] = k
        np_[dest] = p
        k, p = nk, np_
    return k, p


def stable_order_u64(keys, work: WorkCounter | None = None) -> np.ndarray:
    """Stable ordering permutation for machine-word integer keys.

    np.argsort(kind="stable") runs a radix sort on keys of 16 bits or less
    and timsort on wider ones, so int64 keys are timsorted. The charge,
    word_sort units of (bits / 16) passes times the key count, models an
    LSD radix sort with 16-bit digits; it is a declared cost, not a count.
    """
    arr = np.asarray(keys)
    passes = max(1, (int(arr.dtype.itemsize) * 8) // 16)
    charge(work, "word_sort", passes * arr.size)
    return np.argsort(arr, kind="stable")


def first_of_runs(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first
