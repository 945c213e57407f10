"""Primes and square-root tables over small prime fields.

The sieve is computed once up front; the per-prime tables (a length-p
array mapping each quadratic residue r to its smallest square root mod p,
-1 marking non-residues) are built on first use and cached, since only a
handful of primes are ever touched while the sieve limit can be large.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .workcount import WorkCounter, charge


@dataclass
class NumberTheoryTables:
    limit: int
    is_prime: np.ndarray
    primes: np.ndarray
    sqrt_tables: dict[int, np.ndarray] = field(default_factory=dict)

    def sqrt_table(self, p: int, work: WorkCounter | None = None) -> np.ndarray:
        t = self.sqrt_tables.get(p)
        if t is None:
            if p > self.limit or p < 2 or not self.is_prime[p]:
                raise KeyError(f"{p} is not a prime within limit {self.limit}")
            z = np.arange(p, dtype=np.int64)
            r = (z * z) % p
            t = np.full(p, p, dtype=np.int64)
            # minimum keeps the smallest root per residue
            np.minimum.at(t, r, z)
            t[t == p] = -1
            self.sqrt_tables[p] = t
            charge(work, "sqrt_tables", p)
        return t


def precompute_tables(limit: int, work: WorkCounter | None = None) -> NumberTheoryTables:
    """Sieve primes up to limit (inclusive); sqrt tables fill in lazily."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for q in range(2, int(limit**0.5) + 1):
        if is_prime[q]:
            is_prime[q * q :: q] = False
    primes = np.flatnonzero(is_prime).astype(np.int64)
    charge(work, "sieve", limit + 1)
    return NumberTheoryTables(limit=limit, is_prime=is_prime, primes=primes)


def prime_in_range(tables: NumberTheoryTables, x: int) -> int:
    """Smallest prime p with x <= p <= 2x."""
    if x < 1:
        raise ValueError("x must be >= 1")
    if 2 * x > tables.limit:
        raise ValueError(f"tables limit {tables.limit} too small for range [{x}, {2*x}]")
    lo = max(2, x)
    idx = np.searchsorted(tables.primes, lo, side="left")
    if idx < len(tables.primes) and int(tables.primes[idx]) <= 2 * x:
        return int(tables.primes[idx])
    raise ValueError(f"no prime in [{x}, {2*x}]")
