"""Per-processor execution-time breakdown (paper figure 2's categories).

Every cycle of a computation processor's execution is charged to exactly
one category:

* ``BUSY`` -- useful application work.
* ``DATA`` -- data-fetch latency: page faults, diff fetch/apply waits
  (coherence processing + network latency on the fault path).
* ``SYNC`` -- lock acquire/release and barrier waits, including interval
  and write-notice processing.
* ``IPC`` -- servicing requests from remote processors.
* ``OTHERS`` -- TLB miss latency, write-buffer stalls, interrupt entry
  cost, and cache-miss latency (the paper calls cache misses "the most
  significant of these overheads").

On top of the exclusive categories, ``diff_cycles`` separately tracks
time spent on twinning and diff creation/application *by this
processor* (the percentage printed above each bar in figure 2); it
overlaps the exclusive categories rather than adding to them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["Category", "TimeBreakdown"]


class Category(enum.Enum):
    BUSY = "busy"
    DATA = "data"
    SYNC = "synch"
    IPC = "ipc"
    OTHERS = "others"

    # Members are singletons compared by identity, so hash them by
    # identity too: ``Enum.__hash__`` is a Python-level call, two per
    # ``TimeBreakdown.charge``.
    __hash__ = object.__hash__


class TimeBreakdown:
    """Accumulator for one processor's time, by category."""

    def __init__(self):
        self._cycles: Dict[Category, float] = {c: 0.0 for c in Category}
        self.diff_cycles: float = 0.0

    def charge(self, category: Category, cycles: float) -> None:
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles}")
        self._cycles[category] += cycles

    def charge_diff(self, cycles: float) -> None:
        """Track diff-related time (overlaps the exclusive categories)."""
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles}")
        self.diff_cycles += cycles

    def get(self, category: Category) -> float:
        return self._cycles[category]

    @property
    def total(self) -> float:
        return sum(self._cycles.values())

    def fraction(self, category: Category) -> float:
        total = self.total
        return self._cycles[category] / total if total else 0.0

    def diff_fraction(self) -> float:
        total = self.total
        return self.diff_cycles / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        out = {c.value: self._cycles[c] for c in Category}
        out["diff"] = self.diff_cycles
        return out

    def copy(self) -> "TimeBreakdown":
        dup = TimeBreakdown()
        dup._cycles = dict(self._cycles)
        dup.diff_cycles = self.diff_cycles
        return dup

    def merged_with(self, other: "TimeBreakdown") -> "TimeBreakdown":
        merged = TimeBreakdown()
        for c in Category:
            merged._cycles[c] = self._cycles[c] + other._cycles[c]
        merged.diff_cycles = self.diff_cycles + other.diff_cycles
        return merged

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{c.value}={self._cycles[c]:.0f}" for c in Category)
        return f"TimeBreakdown({parts}, diff={self.diff_cycles:.0f})"
