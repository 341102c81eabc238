"""Per-node page state: the shared watermark view and the TreadMarks page.

Each node tracks, for every shared page it has touched:

* its local **frame** (the actual words, a numpy array);
* per-writer **applied**/**notified** interval watermarks.  A write
  notice (w, i) is *pending* while ``notified[w] > applied[w]``; a page
  is valid only when it has a frame and no pending notices;
* prefetch bookkeeping (referenced flag, in-flight event);
* (TreadMarks) write collection -- the armed flag and the **dirty mask**
  of words written since the last interval close -- and the **diff
  store** of already-created diffs (reused across requesters).

The first three are :class:`PageView`, the base of :class:`TmPage` and
``aurc.AurcPage``.  Validity is queried far more often than it changes,
so the view maintains ``pending`` -- an int bitset, bit ``w`` set iff
``notified[w] > applied[w]`` -- where those maps are written
(``record_notice``, one pass over ``notified`` and at most one
``applied.get``; ``mark_applied``) instead of rescanning them per
query.  The mask has no order, so ``pending_writers()`` filters
``notified``'s insertion-ordered ids by it: arrival order is the
diff-request issue order the goldens pin.

Both protocols merge notices through the one ``record_notice``; an
AURC notice's flush stamp stays in its interval record, where
``aurc.AurcPage.begin_fetch`` reads it.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

import numpy as np

from repro.dsm.compact import NodeIntMap
from repro.dsm.diffs import DiffRecord, apply_diff, diff_from_mask

__all__ = ["PageView", "TmPage"]


class PageView:
    """One node's view of one page: what TreadMarks and AURC share."""

    __slots__ = (
        "page", "words", "frame", "applied", "notified", "pending",
        "referenced", "prefetch_event", "prefetch_issued_at",
        "prefetch_ready", "audit",
    )

    def __init__(self, page: int, words: int, audit=None):
        self.page = page
        self.words = words
        # Coherence-audit adapter (repro.dsm.audit.NodeAudit) or None.
        # Emissions below guard on it, so an unaudited run pays one
        # attribute check per transition -- the sim.tracer idiom.
        self.audit = audit
        self.frame: Optional[np.ndarray] = None
        # Per-writer interval watermarks: insertion-ordered compact maps
        # (pending_writers() order = notice arrival order = diff-request
        # issue order, which the golden cycle fixtures pin).
        self.applied = NodeIntMap()
        self.notified = NodeIntMap()
        self.pending = 0  # bit w set iff notified[w] > applied[w]
        # -- prefetch bookkeeping -----------------------------------------
        self.referenced = False
        self.prefetch_event = None
        self.prefetch_issued_at: Optional[float] = None
        self.prefetch_ready = False

    # -- validity ------------------------------------------------------------

    @property
    def has_frame(self) -> bool:
        return self.frame is not None

    def pending_writers(self) -> List[int]:
        """Writers with notices no applied diff covers, in arrival order."""
        pending = self.pending
        if not pending:
            return []
        return [w for w in self.notified if (pending >> w) & 1]

    def is_valid(self) -> bool:
        return self.frame is not None and not self.pending

    def ensure_frame(self) -> np.ndarray:
        if self.frame is None:
            self.frame = np.zeros(self.words, dtype=np.float64)
        return self.frame

    # -- notices --------------------------------------------------------------

    def record_notice(self, writer: int, interval_id: int) -> bool:
        """Merge a write notice; returns True if it newly invalidated."""
        newly_invalid = False
        if (self.notified.raise_to(writer, interval_id)
                and interval_id > self.applied.get(writer, 0)):
            newly_invalid = not self.pending and self.frame is not None
            self.pending |= 1 << writer
        if self.audit is not None:
            self.audit.notice(self.page, writer, interval_id,
                              newly_invalid)
        return newly_invalid

    def mark_applied(self, writer: int, through_id: int) -> None:
        if self.applied.raise_to(writer, through_id):
            if through_id >= self.notified.get(writer, 0):
                self.pending &= ~(1 << writer)
            if self.audit is not None:
                self.audit.applied_through(self.page, writer, through_id)

    def applied_snapshot(self) -> Dict[int, int]:
        """Watermarks describing this frame's contents (for page copies)."""
        return self.applied.as_dict()

    def adopt_snapshot(self, snapshot: Dict[int, int]) -> None:
        if self.audit is not None:
            self.audit.installed(self.page, snapshot)
        for writer, through_id in snapshot.items():
            self.mark_applied(writer, through_id)

    # -- memory accounting ----------------------------------------------------

    def state_nbytes(self) -> int:
        """Bytes of per-node coherence metadata on this page (not the
        frame or diff payloads: those scale with the app, not the machine)."""
        return (self.applied.nbytes() + self.notified.nbytes()
                + sys.getsizeof(self.pending))


class TmPage(PageView):
    """One node's view of one shared page (TreadMarks)."""

    __slots__ = (
        "write_active", "dirty_mask", "last_closed_id", "diff_store",
        "unmaterialized", "pf_useless_streak", "copyset",
    )

    def __init__(self, page: int, words: int, audit=None):
        super().__init__(page, words, audit)
        # -- write collection (this node as writer) -----------------------
        self.write_active = False      # twin made / bit vector armed
        self.dirty_mask: Optional[np.ndarray] = None
        self.last_closed_id = 0
        self.diff_store: List[DiffRecord] = []
        # Diffs whose *data* is pinned (snapshotted at interval close, so
        # values are exact) but whose creation *cost* has not been charged
        # yet -- TreadMarks materializes lazily at the first diff request.
        self.unmaterialized: List[DiffRecord] = []
        # Consecutive useless prefetches of this page (the adaptive
        # strategy stops prefetching a page after repeated misfires).
        self.pf_useless_streak = 0
        # Nodes that fetched this page or its diffs from us, mapped to
        # the newest of our intervals they were served: the approximate
        # copyset (and per-reader watermark) the Lazy Hybrid variant
        # consults before piggybacking updates on lock grants.  The
        # bitset-backed map keeps membership O(1) at 1024 nodes.
        self.copyset = NodeIntMap()

    # -- write collection -----------------------------------------------------

    def arm_write_collection(self) -> None:
        """First write of an epoch: start twin/bit-vector tracking."""
        self.ensure_frame()
        self.write_active = True
        if self.dirty_mask is None:
            self.dirty_mask = np.zeros(self.words, dtype=bool)
        if self.audit is not None:
            self.audit.twin_armed(self.page)

    def record_write(self, offset: int, nwords: int,
                     values: np.ndarray) -> None:
        frame = self.ensure_frame()
        frame[offset:offset + nwords] = values
        if self.dirty_mask is not None:
            self.dirty_mask[offset:offset + nwords] = True
        if self.audit is not None:
            self.audit.write(self.page, offset, values)

    def close_interval(self, interval_id: int, writer: int,
                       vc: tuple = ()) -> bool:
        """End an interval: pin this interval's modifications as a diff.

        The diff's *data* is snapshotted now (so its values are exactly
        the interval's output -- a consolidated twin diff could otherwise
        clobber another writer's causally-later words); its creation
        *cost* is charged lazily when a request first materializes it.
        Returns True when the page was dirty this interval.  Write
        collection is disarmed so the next write re-arms it.
        """
        if not self.write_active:
            return False
        self.write_active = False
        assert self.dirty_mask is not None and self.frame is not None
        diff = diff_from_mask(writer, self.page, self.last_closed_id,
                              interval_id, self.dirty_mask, self.frame,
                              to_vc=vc)
        self.dirty_mask[:] = False
        self.last_closed_id = interval_id
        self.diff_store.append(diff)
        self.unmaterialized.append(diff)
        if self.audit is not None:
            self.audit.interval_closed(self.page, writer, interval_id)
            self.audit.diff_created(self.page, writer, diff.from_id,
                                    diff.to_id)
        self.mark_applied(writer, interval_id)
        return True

    # -- diff lookup and materialization ----------------------------------

    def materialize(self, diffs: List[DiffRecord]) -> List[DiffRecord]:
        """Return (and clear) the subset of ``diffs`` not yet charged."""
        fresh = [d for d in diffs if d in self.unmaterialized]
        if fresh:
            self.unmaterialized = [d for d in self.unmaterialized
                                   if d not in fresh]
            if self.audit is not None:
                self.audit.materialized(self.page, len(fresh))
        return fresh

    def diffs_after(self, after_id: int) -> List[DiffRecord]:
        """Stored diffs whose range ends beyond ``after_id``, in order."""
        return [d for d in self.diff_store if d.to_id > after_id]

    def apply_incoming(self, diff: DiffRecord) -> None:
        """Apply a remote diff to the local frame and advance watermarks.

        Locally dirty words (written since our last interval close) are
        protected: for a data-race-free program a remote diff can only
        overlap them through intervals we already applied and then
        overwrote, so the local value is the causally newest.
        """
        frame = self.ensure_frame()
        if self.audit is not None:
            self.audit.diff_applied(self.page, diff.writer,
                                    diff.from_id, diff.to_id)
        if (diff.dirty_words and self.dirty_mask is not None
                and self.write_active and self.dirty_mask.any()):
            local_dirty = self.dirty_mask[diff.indices]
            keep = ~local_dirty
            if keep.any():
                frame[diff.indices[keep]] = diff.values[keep]
        else:
            apply_diff(frame, diff)
        self.mark_applied(diff.writer, diff.to_id)

    # -- memory accounting ----------------------------------------------------

    def state_nbytes(self) -> int:
        return super().state_nbytes() + self.copyset.nbytes()
