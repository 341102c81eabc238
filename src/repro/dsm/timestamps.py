"""Vector timestamps and interval records (paper section 2).

TreadMarks divides each processor's execution into **intervals**
delimited by synchronization operations.  A :class:`VectorClock` counts,
per processor, the highest interval this node knows about; an
:class:`IntervalRecord` names one completed interval and the pages it
wrote.  Write notices -- "page X was modified in interval (w, i)" -- are
derived from interval records, so the same objects travel in lock-grant
and barrier messages.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

__all__ = ["VectorClock", "IntervalRecord", "IntervalLog"]


class VectorClock:
    """A per-processor interval counter vector with merge/compare ops."""

    __slots__ = ("_clock",)

    def __init__(self, n: int = 0, values: Iterable[int] | None = None):
        if values is not None:
            self._clock = list(values)
        else:
            self._clock = [0] * n

    def __len__(self) -> int:
        return len(self._clock)

    def __getitem__(self, proc: int) -> int:
        return self._clock[proc]

    def __setitem__(self, proc: int, value: int) -> None:
        if value < self._clock[proc]:
            raise ValueError("vector clock entries never decrease")
        self._clock[proc] = value

    def advance(self, proc: int) -> int:
        """Start ``proc``'s next interval; returns the new interval id."""
        self._clock[proc] += 1
        return self._clock[proc]

    def merge(self, other: "VectorClock") -> None:
        """Element-wise maximum, in place."""
        self._clock = list(map(max, self._clock, other._clock))

    def dominates(self, other: "VectorClock") -> bool:
        """True if self >= other element-wise (other's intervals all seen)."""
        return all(s >= o for s, o in zip(self._clock, other._clock))

    def copy(self) -> "VectorClock":
        return VectorClock(values=self._clock)

    def as_tuple(self) -> Tuple[int, ...]:
        return tuple(self._clock)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, VectorClock)
                and self._clock == other._clock)

    def __repr__(self) -> str:
        return f"VectorClock({self._clock})"


@dataclass(frozen=True, slots=True)
class IntervalRecord:
    """One completed interval: who, which interval, which pages written.

    ``vc`` is the writer's vector clock at the moment the interval
    closed; it stamps the interval's position in the happens-before
    partial order and is what orders diff application across writers.
    Slotted: large machines hold hundreds of thousands of these.
    """

    writer: int
    interval_id: int
    pages: Tuple[int, ...]
    vc: Tuple[int, ...] = ()

    @property
    def notice_count(self) -> int:
        return len(self.pages)


class IntervalLog:
    """A node's knowledge of completed intervals, indexed by writer.

    Each writer's records are an id-sorted ``(ids, records)`` list pair,
    created on its first :meth:`add` (most of a large machine's n x n
    writer slots stay ``None``), so the queries are a ``bisect`` and a
    slice and nothing is ever re-sorted:

    * :meth:`add` -- merge a record learned from a peer (idempotent).
    * :meth:`records_after` -- the interval records of ``writer`` with id
      greater than some bound (what a lock grantor must ship to a
      requester whose vector clock lags); :meth:`records_behind` is the
      same over every writer against a vector clock.
    """

    def __init__(self, n_procs: int):
        self._by_writer: List[Optional[tuple]] = [None] * n_procs
        self._count = 0

    def add(self, record: IntervalRecord) -> bool:
        """Insert a record; returns True if it was new."""
        slot = self._by_writer[record.writer]
        if slot is None:
            slot = self._by_writer[record.writer] = ([], [])
        ids, records = slot
        # Records nearly always arrive in id order: ``at`` is the end.
        at = bisect_left(ids, record.interval_id)
        if at < len(ids) and ids[at] == record.interval_id:
            return False
        ids.insert(at, record.interval_id)
        records.insert(at, record)
        self._count += 1
        return True

    def records_after(self, writer: int,
                      after_id: int) -> List[IntervalRecord]:
        """All known records of ``writer`` with interval id > ``after_id``."""
        slot = self._by_writer[writer]
        if slot is None:
            return []
        ids, records = slot
        return records[bisect_right(ids, after_id):]

    def records_behind(self, clock: VectorClock) -> List[IntervalRecord]:
        """Every known record not covered by ``clock`` (grant payload)."""
        out: List[IntervalRecord] = []
        for writer, slot in enumerate(self._by_writer):
            if slot is not None:
                ids, records = slot
                after_id = clock[writer]
                if ids[-1] > after_id:  # else: fully covered
                    out.extend(records[bisect_right(ids, after_id):])
        return out

    def count(self) -> int:
        return self._count
