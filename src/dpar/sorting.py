"""Stable integer-key sorts.

radix_order sorts integer keys below a bound that the caller knows by
16-bit digits, least significant first, one stable numpy argsort per
digit, which numpy radix-sorts. It costs radix_passes(bound) linear
passes, however the keys are ordered. radix_lexorder chains one
radix_order per key, least significant key first, and so returns
np.lexsort's order. These are the sorts of the CSR builder (graph.py),
one per graph, whose runs of equal slot codes merge repeated edges, of
the endpoint-clique recolouring rounds, the class sweeps and defective
phase 2 (coloring.py), of the rounding's bucket memberships
(rounding.py) and of the bucket builders (hitting.py, mis.py). A caller
whose sort is charged passes a WorkCounter, and the sort charges
word_sort units of the passes it runs times the keys.
first_of_runs marks where the runs of equal keys in a sorted array begin.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .workcount import WorkCounter, charge


def radix_passes(bound: int) -> int:
    """The 16-bit digit passes radix_order makes on keys in [0, bound)."""
    return max(1, -(-max(int(bound) - 1, 1).bit_length() // 16))


def radix_order(keys: np.ndarray, bound: int, work: WorkCounter | None = None) -> np.ndarray:
    """Stable ordering permutation of integer keys in [0, bound).

    Least significant digit first, one stable argsort of 16-bit digits
    per pass, which numpy radix-sorts: one pass when bound <= 2^16.
    Charges word_sort units of passes times keys to work.
    """
    passes = radix_passes(bound)
    charge(work, "word_sort", passes * len(keys))
    # the casts keep the low 16 bits of each nonnegative key
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    for shift in range(16, 16 * passes, 16):
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def radix_lexorder(keys: Sequence[np.ndarray], bounds: Sequence[int]) -> np.ndarray:
    """np.lexsort's order of equal-length integer keys, the last key
    primary, with keys[i] in [0, bounds[i]): one stable radix_order per
    key, least significant first."""
    order = radix_order(keys[0], bounds[0])
    for key, bound in zip(keys[1:], bounds[1:]):
        order = order[radix_order(key[order], bound)]
    return order


def first_of_runs(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first
