"""Work accounting for the algorithm stack.

Counts are integers derived only from input sizes, so totals are invariant
under thread count. Unit charging convention: one unit per neighbor entry
touched, one unit per element per sort pass, one unit per element of each
prefix sum.
"""

from __future__ import annotations


class WorkCounter:
    """Accumulates unit-cost operations, grouped by phase label."""

    __slots__ = ("per_phase",)

    def __init__(self) -> None:
        self.per_phase: dict[str, int] = {}

    def add(self, phase: str, units: int) -> None:
        if units < 0:
            raise ValueError("work units must be nonnegative")
        self.per_phase[phase] = self.per_phase.get(phase, 0) + int(units)

    @property
    def total(self) -> int:
        return sum(self.per_phase.values())

    def snapshot(self) -> dict[str, int]:
        return dict(sorted(self.per_phase.items()))

    def __repr__(self) -> str:
        return f"WorkCounter(total={self.total}, phases={self.snapshot()})"


def charge(work: "WorkCounter | None", phase: str, units: int) -> None:
    """Charge units if a counter is attached; no-op otherwise."""
    if work is not None:
        work.add(phase, units)
