"""Prefix sums and stable integer-key sorts.

Machine-word keys go through numpy's stable argsort, used as
infrastructure by the CSR builder. numpy radix-sorts only keys of 16 bits
or less; on int64 keys it runs timsort, which is fast on partly ordered
input such as the merge codes of bucket pairs. Its work charge, one unit
per key per 16-bit digit, is a declared cost model of an LSD radix sort,
not a count of what timsort does. radix_order sorts keys below a known
bound by 16-bit digits, one radix-sorted pass per digit, so it does not
slow down on unsorted keys: coloring.class_sweep sorts its nodes by class
(the strided classes of defective coloring) and its slots by their
owner's position in that node order, and the rounding sorts its bucket
memberships by the same positions. first_of_runs marks where the runs of
equal keys in a sorted array begin.
"""

from __future__ import annotations

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


def radix_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable ordering permutation of integer keys in [0, bound).

    Least significant digit first, one stable argsort of 16-bit digits
    per pass, which numpy radix-sorts: one pass when bound <= 2^16.
    """
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    for shift in range(16, max(bound - 1, 1).bit_length(), 16):
        digit = ((keys[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def first_of_runs(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first
