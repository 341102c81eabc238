"""Coherence-state introspection: typed audit stream + value check.

The protocols in this reproduction (TreadMarks LRC and AURC, per the
paper's sections 2-3) manipulate hidden per-page state -- write notices,
twins, diffs, vector-timestamped intervals -- that the time-domain
observability stack (metrics, traces, causal spans) never sees.  This
module defines :class:`CoherenceAuditor`, a strictly passive subscriber
to a typed event stream emitted from ``protocol.py``, ``page.py``,
``treadmarks.py``, ``aurc.py``, ``locks.py``, ``barriers.py`` and
``prefetch.py``.  Write notices of both protocols arrive through one
intake, :meth:`NodeAudit.notice` (from ``PageView.record_notice``), and
count a page's ``invalidations``; AURC's flush stamps stay in their
interval records and are not part of the stream.

Passivity contract (the zero-cost guarantee):

* every emission site guards with ``if audit is not None`` -- when no
  auditor is attached the cost is one attribute load and a branch,
  exactly the ``sim.tracer`` idiom.  The audit stream is separate from
  the tracer's events: its page-level transitions have no trace
  counterpart, and ``golden_state.json`` pins it;
* the auditor never consumes simulator RNG, never schedules events,
  never mutates protocol or page state -- it may only read ``sim.now``
  and the nodes' vector clocks.  A run with auditing enabled is
  therefore bit-identical in cycles to the same run without (enforced
  by tests/harness/test_golden_audit.py against the 18-config golden
  fixture).

On top of the stream sits one online check, the **value check**.  A
data-race-free program must read, under LRC and AURC, the value its
last happens-before write left.  The auditor keeps a shadow per shared
word, ``(value, writer, interval)`` of the last write, which each
protocol's write path stores right after the frame store; ``interval``
is the writer's open interval.  At every read, ``proc_read`` hands the
words it captured to :meth:`NodeAudit.read`, which compares each word
whose last write happens-before the read -- the writer is the reader,
or the reader's vector clock covers the writer's interval.  A word
whose last write is concurrent with the read (TSP's unlocked bound
read) is skipped, so no exemption list is needed.  A word nobody wrote
reads as written with 0.0 in everybody's interval 0.

The value check replaced six invariants over notice, diff and stamp
bookkeeping: scored against a table of protocol mutants
(tests/dsm/test_mutants.py, DESIGN.md section 10), none of them caught
a mutant the value check missed.

A violation carries the node, page and word, the value read and the
value expected (with its writer and interval), and the last
``ring_depth`` transitions of that (node, page), pulled from a bounded
ring buffer.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from collections import deque
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

__all__ = ["CoherenceAuditor", "NodeAudit", "Violation", "RING_DEPTH",
           "TIMELINE_BITS", "timeline_char"]

#: Depth of the per-(node, page) transition ring attached to violations.
RING_DEPTH = 16

#: Cap on fully-materialized violation records (the count keeps going).
MAX_VIOLATIONS = 64

# Timeline bits: one per event family, OR-ed into the (node, page,
# barrier-interval) cell; rendered by priority in timeline_char().
B_VIOLATION = 1
B_DIFF_APPLIED = 2
B_INSTALL = 4
B_NOTICE = 8
B_TWIN = 16
B_PF_USELESS = 32
B_PF_HIT = 64
B_FAULT = 128

TIMELINE_BITS = (
    (B_VIOLATION, "!"),
    (B_DIFF_APPLIED, "D"),
    (B_INSTALL, "I"),
    (B_NOTICE, "n"),
    (B_TWIN, "w"),
    (B_PF_USELESS, "u"),
    (B_PF_HIT, "h"),
    (B_FAULT, "f"),
)


def timeline_char(bits: int) -> str:
    """Highest-priority glyph for one timeline cell (``.`` when empty)."""
    for bit, glyph in TIMELINE_BITS:
        if bits & bit:
            return glyph
    return "."


class Violation:
    """One stale read, with attribution and recent history."""

    __slots__ = ("node", "page", "word", "value", "expected", "writer",
                 "interval_id", "at", "recent")

    def __init__(self, node: int, page: int, word: int, value: float,
                 expected: float, writer: int, interval_id: int, at: int,
                 recent: Tuple[str, ...]):
        self.node = node
        self.page = page
        self.word = word
        self.value = value
        self.expected = expected
        self.writer = writer
        self.interval_id = interval_id
        self.at = at
        self.recent = recent

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Violation(node={self.node} word={self.word} "
                f"read={self.value} expected={self.expected} @{self.at})")

    def format(self) -> str:
        lines = [
            f"VIOLATION stale read of word {self.word} (page {self.page}) "
            f"on node {self.node} at cycle {self.at}",
            f"  read {self.value!r}, expected {self.expected!r} written "
            f"by node {self.writer} in interval {self.interval_id}",
        ]
        if self.recent:
            lines.append(f"  last {len(self.recent)} transitions:")
            lines.extend(f"    {entry}" for entry in self.recent)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "node": self.node,
            "page": self.page,
            "word": self.word,
            "value": self.value,
            "expected": self.expected,
            "writer": self.writer,
            "interval_id": self.interval_id,
            "at": self.at,
            "recent": list(self.recent),
        }


class NodeAudit:
    """Per-node adapter handed to page objects and sync services.

    Pages emit through this so every event carries node identity
    without widening page-method signatures.  All state lives here or
    on the parent auditor; nothing is written back into the protocol.
    """

    __slots__ = ("auditor", "node", "vc", "epoch", "applied", "rings",
                 "counts", "timeline")

    def __init__(self, auditor: "CoherenceAuditor", node: int):
        # The auditor keeps its node views: refer back weakly.
        self.auditor = weakref.proxy(auditor)
        self.node = node
        #: The node's live vector clock, read-only here (set by the
        #: protocol's ``attach_audit``).
        self.vc = None
        #: Barrier episodes this node has completed (timeline x-axis).
        self.epoch = 0
        #: page -> {writer: applied-through interval id} mirror.
        self.applied: Dict[int, Dict[int, int]] = {}
        #: page -> ring of recent transition strings.
        self.rings: Dict[int, deque] = {}
        #: page -> {event kind: count}.
        self.counts: Dict[int, Dict[str, int]] = {}
        #: page -> {barrier interval: timeline bits}.
        self.timeline: Dict[int, Dict[int, int]] = {}

    # -- internals ---------------------------------------------------

    def _count(self, page: int, kind: str) -> None:
        counts = self.counts.get(page)
        if counts is None:
            counts = self.counts[page] = {}
        counts[kind] = counts.get(kind, 0) + 1
        self.auditor.events += 1

    def _ring(self, page: int, entry: str) -> None:
        ring = self.rings.get(page)
        if ring is None:
            ring = self.rings[page] = deque(maxlen=self.auditor.ring_depth)
        ring.append(f"@{self.auditor.now()} {entry}")

    def _mark(self, page: int, bit: int) -> None:
        cells = self.timeline.get(page)
        if cells is None:
            cells = self.timeline[page] = {}
        cells[self.epoch] = cells.get(self.epoch, 0) | bit

    # -- the value check --------------------------------------------

    def store(self, page: int, offset: int, values: np.ndarray) -> None:
        """This node stored ``values`` at ``offset`` of ``page``."""
        auditor = self.auditor
        lo = page * auditor.words_per_page + offset
        hi = lo + len(values)
        auditor.value[lo:hi] = values
        auditor.writer[lo:hi] = self.node
        auditor.interval[lo:hi] = self.vc[self.node] + 1

    def read(self, page: int, offset: int, chunk: np.ndarray) -> None:
        """This node read ``chunk`` at ``offset`` of ``page``: compare
        every word whose last write happens-before the read."""
        auditor = self.auditor
        lo = page * auditor.words_per_page + offset
        hi = lo + len(chunk)
        writer = auditor.writer[lo:hi]
        interval = auditor.interval[lo:hi]
        clock = np.array(self.vc.as_tuple())
        ordered = (writer == self.node) | (clock[writer] >= interval)
        auditor.compared += int(np.count_nonzero(ordered))
        expected = auditor.value[lo:hi]
        stale = np.flatnonzero(ordered & (chunk != expected))
        for i in stale.tolist():
            auditor._violate(self.node, page, lo + i, float(chunk[i]),
                             float(expected[i]), int(writer[i]),
                             int(interval[i]))

    # -- page-level event intake ------------------------------------

    def notice(self, page: int, writer: int, interval_id: int,
               newly_invalid: bool) -> None:
        self._count(page, "notice")
        self._ring(page, f"notice w{writer} i{interval_id}"
                         f"{' ->invalid' if newly_invalid else ''}")
        self._mark(page, B_NOTICE)
        if newly_invalid:
            self.auditor.page_stats(page)["invalidations"] = \
                self.auditor.page_stats(page).get("invalidations", 0) + 1

    def applied_through(self, page: int, writer: int,
                        through_id: int) -> None:
        state = self.applied.get(page)
        if state is None:
            state = self.applied[page] = {}
        if through_id > state.get(writer, 0):
            state[writer] = through_id
        self._count(page, "applied")

    def installed(self, page: int, snapshot: Dict[int, int]) -> None:
        state = self.applied.get(page)
        if state is None:
            state = self.applied[page] = {}
        for writer, through in snapshot.items():
            if through > state.get(writer, 0):
                state[writer] = through
        self._count(page, "install")
        self._ring(page, f"install snapshot={dict(sorted(snapshot.items()))}")
        self._mark(page, B_INSTALL)

    def twin_armed(self, page: int) -> None:
        self._count(page, "twin")
        self._ring(page, "twin armed (write collection)")
        self._mark(page, B_TWIN)

    def write(self, page: int, offset: int, values: np.ndarray) -> None:
        """A TreadMarks write: counted, then stored in the shadow."""
        self._count(page, "write")
        self.store(page, offset, values)

    def interval_closed(self, page: int, writer: int,
                        interval_id: int) -> None:
        self._count(page, "interval_close")
        self._ring(page, f"interval close w{writer} i{interval_id}")

    def diff_created(self, page: int, writer: int, from_id: int,
                     to_id: int) -> None:
        self._count(page, "diff_created")
        self._ring(page, f"diff created w{writer} ({from_id},{to_id}]")

    def diff_applied(self, page: int, writer: int, from_id: int,
                     to_id: int) -> None:
        self._count(page, "diff_applied")
        self._ring(page, f"diff applied w{writer} ({from_id},{to_id}]")
        self._mark(page, B_DIFF_APPLIED)

    def materialized(self, page: int, count: int) -> None:
        if count:
            counts = self.counts.get(page)
            if counts is None:
                counts = self.counts[page] = {}
            counts["materialized"] = counts.get("materialized", 0) + count
            self.auditor.events += 1

    def fault(self, page: int, kind: str) -> None:
        self._count(page, f"fault_{kind}")
        self._ring(page, f"{kind} fault")
        self._mark(page, B_FAULT)


class CoherenceAuditor:
    """Passive subscriber + online value check.

    Attach with :meth:`repro.harness.runner.run_app`'s ``audit=True``
    (which sets ``sim.audit`` and calls the protocol's
    ``attach_audit``).  May be constructed standalone for unit tests:
    size the shadow with :meth:`track_words` and feed events through
    :meth:`node_view`.
    """

    def __init__(self, sim: Optional[Any] = None,
                 ring_depth: int = RING_DEPTH,
                 max_violations: int = MAX_VIOLATIONS):
        self.sim = sim
        self.ring_depth = ring_depth
        self.max_violations = max_violations
        self.family: Optional[str] = None
        self.events = 0
        self.nodes: Dict[int, NodeAudit] = {}
        self.violations: List[Violation] = []
        self.violation_count = 0
        #: The shadow: per shared word, the last write's value, writer
        #: and interval (sized by track_words).
        self.words_per_page = 0
        self.value = np.zeros(0)
        self.writer = np.zeros(0, dtype=np.int64)
        self.interval = np.zeros(0, dtype=np.int64)
        #: Words the value check compared (vacuity guard).
        self.compared = 0
        #: page -> cross-node aggregate stats (top-pages ranking).
        self._page_stats: Dict[int, Dict[str, int]] = {}
        #: (node, page) -> outstanding prefetch request tokens.
        self._pf_tokens: Dict[Tuple[int, int], Set[int]] = {}
        #: Request ids of prefetches classified useless (satellite:
        #: stats/causal.py labels the matching spans from this set).
        self.useless_prefetch_tokens: Set[int] = set()
        self.useful_prefetch_tokens: Set[int] = set()
        self.late_prefetch_tokens: Set[int] = set()
        self.prefetch_issued = 0
        self.prefetch_useful = 0
        self.prefetch_useless = 0
        self.prefetch_late = 0
        self.lock_acquires = 0
        #: [(epoch, release cycle), ...] -- timeline column boundaries.
        self.barrier_releases: List[Tuple[int, int]] = []
        #: Digests frozen by the harness at the end of the timed region
        #: (verify/snapshot epilogues keep emitting events afterwards).
        self.frozen: Optional[Dict[str, str]] = None

    # -- plumbing ----------------------------------------------------

    def now(self) -> int:
        sim = self.sim
        return sim.now if sim is not None else 0

    def track_words(self, total_words: int, words_per_page: int) -> None:
        """Size the shadow to the shared segment: every word starts as
        0.0, written by node 0 in interval 0 (which every clock covers)."""
        self.words_per_page = words_per_page
        self.value = np.zeros(total_words)
        self.writer = np.zeros(total_words, dtype=np.int64)
        self.interval = np.zeros(total_words, dtype=np.int64)

    def node_view(self, node: int) -> NodeAudit:
        view = self.nodes.get(node)
        if view is None:
            view = self.nodes[node] = NodeAudit(self, node)
        return view

    def page_stats(self, page: int) -> Dict[str, int]:
        stats = self._page_stats.get(page)
        if stats is None:
            stats = self._page_stats[page] = {}
        return stats

    def _violate(self, node: int, page: int, word: int, value: float,
                 expected: float, writer: int, interval_id: int) -> None:
        self.violation_count += 1
        na = self.nodes.get(node)
        recent: Tuple[str, ...] = ()
        if na is not None:
            ring = na.rings.get(page)
            if ring:
                recent = tuple(ring)
            na._mark(page, B_VIOLATION)
        if len(self.violations) < self.max_violations:
            self.violations.append(Violation(
                node, page, word, value, expected, writer, interval_id,
                self.now(), recent))

    # -- protocol-level event intake --------------------------------

    def lock_acquire(self, node: int, lock: int, cached: bool) -> None:
        self.events += 1
        self.lock_acquires += 1

    def barrier_done(self, node: int) -> None:
        """Node completed a barrier episode; later events land in the
        next timeline interval (column) for that node."""
        self.events += 1
        na = self.node_view(node)
        na.epoch += 1

    def barrier_release(self, epoch: int, at: int) -> None:
        self.events += 1
        if not self.barrier_releases \
                or self.barrier_releases[-1][0] < epoch:
            self.barrier_releases.append((epoch, at))

    def prefetch(self, node: int, action: str, page: int,
                 tokens: Optional[List[int]] = None) -> None:
        self.events += 1
        na = self.node_view(node)
        key = (node, page)
        if action == "issue":
            self.prefetch_issued += 1
            if tokens:
                self._pf_tokens.setdefault(key, set()).update(tokens)
            na._count(page, "pf_issue")
            na._ring(page, f"prefetch issue tokens={sorted(tokens or ())}")
        elif action == "hit":
            self.prefetch_useful += 1
            self.useful_prefetch_tokens |= self._pf_tokens.pop(key, set())
            na._count(page, "pf_hit")
            na._ring(page, "prefetch hit (useful)")
            na._mark(page, B_PF_HIT)
        elif action == "useless":
            self.prefetch_useless += 1
            self.useless_prefetch_tokens |= self._pf_tokens.pop(key, set())
            na._count(page, "pf_useless")
            na._ring(page, "prefetch useless (invalidated before use)")
            na._mark(page, B_PF_USELESS)
            stats = self.page_stats(page)
            stats["useless_prefetches"] = \
                stats.get("useless_prefetches", 0) + 1
        elif action == "late":
            self.prefetch_late += 1
            self.late_prefetch_tokens |= self._pf_tokens.pop(key, set())
            na._count(page, "pf_late")
            na._ring(page, "prefetch late (fault waited on it)")

    # -- reporting ---------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def page_table(self) -> List[dict]:
        """Cross-node per-page rows, one dict per page, for ranking."""
        pages: Dict[int, Dict[str, int]] = {}
        for na in self.nodes.values():
            for page, counts in na.counts.items():
                row = pages.setdefault(page, {})
                for kind, n in counts.items():
                    row[kind] = row.get(kind, 0) + n
        for page, stats in self._page_stats.items():
            row = pages.setdefault(page, {})
            for kind, n in stats.items():
                row[kind] = row.get(kind, 0) + n
        table = []
        for page in sorted(pages):
            row = pages[page]
            table.append({
                "page": page,
                "faults": row.get("fault_read", 0)
                + row.get("fault_write", 0)
                + row.get("fault_access", 0),
                "notices": row.get("notice", 0),
                "diffs_created": row.get("diff_created", 0),
                "diffs_applied": row.get("diff_applied", 0),
                "twins": row.get("twin", 0),
                "installs": row.get("install", 0),
                "useless_prefetches": row.get("pf_useless", 0),
                "transitions": dict(sorted(row.items())),
            })
        return table

    def applied_state(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Final per-node per-page applied snapshots (string keys for
        canonical JSON)."""
        out: Dict[str, Dict[str, Dict[str, int]]] = {}
        for node in sorted(self.nodes):
            na = self.nodes[node]
            pages = {}
            for page in sorted(na.applied):
                snap = {str(w): t for w, t
                        in sorted(na.applied[page].items()) if t}
                if snap:
                    pages[str(page)] = snap
            if pages:
                out[str(node)] = pages
        return out

    def transition_counts(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        out: Dict[str, Dict[str, Dict[str, int]]] = {}
        for node in sorted(self.nodes):
            na = self.nodes[node]
            pages = {}
            for page in sorted(na.counts):
                pages[str(page)] = dict(sorted(na.counts[page].items()))
            if pages:
                out[str(node)] = pages
        return out

    def state_digest(self, include_counts: bool = True) -> str:
        """SHA-256 over the canonical final protocol state.

        With ``include_counts`` the digest covers applied snapshots
        *and* transition counts (the golden-fixture form; any semantic
        divergence in a refactor trips it).  Without, only the applied
        snapshots -- the form fault-injected runs are compared with,
        since virtual-time shifts legitimately change event counts.
        """
        doc: Dict[str, Any] = {"applied": self.applied_state()}
        if include_counts:
            doc["transitions"] = self.transition_counts()
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def applied_digest(self) -> str:
        return self.state_digest(include_counts=False)

    def freeze(self) -> None:
        """Pin the end-of-run digests (harness calls this right after
        ``protocol.finalize()``, before verify/snapshot epilogues)."""
        self.frozen = {"digest": self.state_digest(),
                       "applied_digest": self.applied_digest()}

    def final_digest(self) -> str:
        return self.frozen["digest"] if self.frozen \
            else self.state_digest()

    def final_applied_digest(self) -> str:
        return self.frozen["applied_digest"] if self.frozen \
            else self.applied_digest()

    def timeline_data(self) -> Dict[int, Dict[int, Dict[int, int]]]:
        """node -> page -> barrier interval -> bits."""
        return {node: {page: dict(cells)
                       for page, cells in na.timeline.items()}
                for node, na in self.nodes.items()}

    def summary(self) -> dict:
        return {
            "family": self.family,
            "events": self.events,
            "violations": self.violation_count,
            "violations_detail": [v.to_json() for v in self.violations],
            "compared_words": self.compared,
            "lock_acquires": self.lock_acquires,
            "barrier_episodes": len(self.barrier_releases),
            "prefetch": {
                "issued": self.prefetch_issued,
                "useful": self.prefetch_useful,
                "useless": self.prefetch_useless,
                "late": self.prefetch_late,
                "useless_tokens": sorted(self.useless_prefetch_tokens),
            },
        }

    def format_summary(self) -> str:
        lines = [
            f"coherence audit: {self.events} events, "
            f"{self.violation_count} violations "
            f"({'OK' if self.ok else 'FAILED'})",
            f"  value check    : {self.compared} words compared",
            f"  sync           : {self.lock_acquires} lock acquires, "
            f"{len(self.barrier_releases)} barrier episodes",
        ]
        if self.prefetch_issued:
            lines.append(
                f"  prefetch audit : {self.prefetch_issued} issued, "
                f"{self.prefetch_useful} useful, "
                f"{self.prefetch_useless} useless, "
                f"{self.prefetch_late} late")
        for violation in self.violations:
            lines.append(violation.format())
        if self.violation_count > len(self.violations):
            lines.append(f"  ... and "
                         f"{self.violation_count - len(self.violations)}"
                         f" more violations (capped)")
        return "\n".join(lines)
