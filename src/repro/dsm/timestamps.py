"""Vector timestamps and interval records (paper section 2).

TreadMarks divides each processor's execution into **intervals**
delimited by synchronization operations.  A :class:`VectorClock` counts,
per processor, the highest interval this node knows about; an
:class:`IntervalRecord` names one completed interval and the pages it
wrote.  Write notices -- "page X was modified in interval (w, i)" -- are
derived from interval records, so the same objects travel in lock-grant
and barrier messages.

Records are immutable, so a run keeps each one once: the
:class:`IntervalStore` holds every writer's records in id order, filled
by the writer as it closes each interval.  A node's
:class:`IntervalLog` is only a view of it -- ``known[w]``, the newest
interval of writer ``w`` the node has learned.  The view is exact
because LRC ships records only as :meth:`IntervalLog.records_behind`
suffixes of a prefix the sender holds: what a node knows of a writer is
always a contiguous prefix of that writer's records, so learning a
record is a max, and every query is a ``(bound, known[w]]`` slice of
the store.  ``known`` is not the node's vector clock: a barrier manager
learns the arrivals' records before its clock merges them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

__all__ = ["VectorClock", "IntervalRecord", "IntervalStore", "IntervalLog"]


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

    def merge(self, other: "VectorClock | Sequence[int]") -> None:
        """Element-wise maximum, in place; ``other`` may be a clock or
        the tuple a message carries (``as_tuple()``)."""
        # A comparison, not ``map(max, ...)``: a third of the cost at
        # 256 entries.
        self._clock = [mine if mine > theirs else theirs
                       for mine, theirs in zip(self._clock, other)]

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


class IntervalStore:
    """Every interval record of a run, once, indexed by writer.

    Per writer an id-sorted ``(ids, records)`` list pair that only
    grows: the writer appends each record as it closes the interval
    (:meth:`add`), so nothing is inserted, copied or re-sorted.  Nodes
    read it through their :class:`IntervalLog` views, and AURC looks up
    the record a notice came from (:meth:`record`) for its flush stamps.
    """

    __slots__ = ("ids", "records")

    def __init__(self, n_procs: int):
        self.ids: List[List[int]] = [[] for _ in range(n_procs)]
        self.records: List[List[IntervalRecord]] = [
            [] for _ in range(n_procs)]

    def add(self, record: IntervalRecord) -> None:
        """Append the writer's just-closed interval (ids only grow)."""
        ids = self.ids[record.writer]
        if ids and record.interval_id <= ids[-1]:
            raise ValueError(
                f"interval {record.interval_id} of writer {record.writer} "
                f"closes after interval {ids[-1]}")
        ids.append(record.interval_id)
        self.records[record.writer].append(record)

    def record(self, writer: int, interval_id: int) -> IntervalRecord:
        """The stored record of ``writer``'s interval ``interval_id``."""
        ids = self.ids[writer]
        at = bisect_left(ids, interval_id)
        if at == len(ids) or ids[at] != interval_id:
            raise KeyError((writer, interval_id))
        return self.records[writer][at]


class IntervalLog:
    """A node's knowledge of completed intervals: a prefix of the store.

    ``known[w]`` is the newest interval of writer ``w`` the node has
    learned; the records it knows are ``w``'s stored records with ids up
    to it (see the module docstring for why that prefix is exact).

    * :meth:`publish` -- the node closes its own interval: append the
      record to the store and know it.
    * :meth:`add` -- learn a record from a peer (idempotent: a max).
    * :meth:`records_after` -- the known records of ``writer`` with id
      greater than some bound (what a lock grantor must ship to a
      requester whose vector clock lags); :meth:`records_behind` is the
      same over every writer against a vector clock.
    """

    __slots__ = ("store", "known")

    def __init__(self, store: IntervalStore):
        self.store = store
        self.known: List[int] = [0] * len(store.ids)

    def publish(self, record: IntervalRecord) -> None:
        """Append this node's just-closed interval to the store."""
        self.store.add(record)
        self.known[record.writer] = record.interval_id

    def add(self, record: IntervalRecord) -> bool:
        """Learn a record; returns True if it was new."""
        if record.interval_id <= self.known[record.writer]:
            return False
        self.known[record.writer] = record.interval_id
        return True

    def records_after(self, writer: int,
                      after_id: int) -> List[IntervalRecord]:
        """Known records of ``writer`` with interval id > ``after_id``."""
        known = self.known[writer]
        if known <= after_id:
            return []
        ids = self.store.ids[writer]
        return self.store.records[writer][
            bisect_right(ids, after_id):bisect_right(ids, known)]

    def records_behind(self, clock: Sequence[int]) -> List[IntervalRecord]:
        """Every known record not covered by ``clock`` (a vector clock
        or its tuple): the grant and barrier payload."""
        out: List[IntervalRecord] = []
        store_ids = self.store.ids
        store_records = self.store.records
        for writer, (known, after_id) in enumerate(zip(self.known, clock)):
            if known > after_id:  # else: fully covered
                ids = store_ids[writer]
                out.extend(store_records[writer][
                    bisect_right(ids, after_id):bisect_right(ids, known)])
        return out

    def count(self) -> int:
        """Number of records this node knows."""
        return sum(bisect_right(ids, known)
                   for ids, known in zip(self.store.ids, self.known))
