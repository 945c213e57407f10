"""Primes, and square-root tables over small prime fields.

The sieve is computed once up front; the per-prime square-root tables
are built on first use and cached, since only a handful of primes are
ever touched while the sieve limit can be large. A prime's table comes
from one power table of a primitive root g, pw[i] = g^i mod p, built by
doubling in O(log p) array operations: it maps each quadratic residue r
to its smallest square root mod p and marks non-residues -1, since the
roots of pw[2j] are pw[j] and p - pw[j]. So a field costs p units of
work once.

The recoloring rounds (coloring.py) take only primes from here: they walk
the points of the field and compare values, and solve no roots. Only the
benchmark's tracer (benchmark/tracing.py) and the table's own tests reach
sqrt_table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .workcount import WorkCounter, charge


def _primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod prime p."""
    m, factors, q = p - 1, [], 2
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        factors.append(m)
    g = 1
    while any(pow(g, (p - 1) // f, p) == 1 for f in factors):
        g += 1
    return g


def _powers(g: int, p: int) -> np.ndarray:
    """pw[i] = g^i mod p for i in [0, p - 1), by doubling; the products
    stay below p^2, exact in int64 for any table that fits in memory."""
    pw = np.empty(p - 1, dtype=np.int64)
    pw[0] = 1
    m, gm = 1, g % p
    while m < p - 1:
        hi = min(2 * m, p - 1)
        np.multiply(pw[: hi - m], gm, out=pw[m:hi])
        pw[m:hi] %= p
        m, gm = hi, gm * gm % p
    return pw


@dataclass
class NumberTheoryTables:
    limit: int
    is_prime: np.ndarray
    primes: np.ndarray
    sqrt_tables: dict[int, np.ndarray] = field(default_factory=dict)

    def sqrt_table(self, p: int, work: WorkCounter | None = None) -> np.ndarray:
        """Smallest square root mod p per residue, -1 for non-residues,
        built on the first call for p."""
        t = self.sqrt_tables.get(p)
        if t is None:
            if p > self.limit or p < 2 or not self.is_prime[p]:
                raise KeyError(f"{p} is not a prime within limit {self.limit}")
            pw = _powers(_primitive_root(p), p)
            half = pw[: p // 2]  # a root of each nonzero residue pw[2j]
            t = np.full(p, -1, dtype=np.int64)
            t[0] = 0
            t[pw[::2]] = np.minimum(half, p - half)
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
