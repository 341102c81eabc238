"""Coherence-state introspection: typed audit stream + online sanitizer.

The protocols in this reproduction (TreadMarks LRC and AURC, per the
paper's sections 2-3) manipulate hidden per-page state -- write notices,
twins, diffs, vector-timestamped intervals -- that the time-domain
observability stack (metrics, traces, causal spans) never sees.  This
module defines :class:`CoherenceAuditor`, a strictly passive subscriber
to a typed event stream emitted from ``page.py``, ``treadmarks.py``,
``aurc.py``, ``locks.py``, ``barriers.py`` and ``prefetch.py``.

Passivity contract (the zero-cost guarantee):

* every emission site guards with ``if audit is not None`` -- when no
  auditor is attached the cost is one attribute load and a branch,
  exactly the ``sim.tracer`` idiom.  The audit stream is separate from
  the tracer's events: its page-level transitions have no trace
  counterpart, and ``golden_state.json`` pins it;
* the auditor never consumes simulator RNG, never schedules events,
  never mutates protocol or page state -- it may only read ``sim.now``.
  A run with auditing enabled is therefore bit-identical in cycles to
  the same run without (enforced by tests/harness/test_golden_audit.py
  against the 18-config golden fixture).

On top of the stream sits an **online invariant sanitizer** -- a
race-detector analogue for LRC/AURC.  Checks, as events arrive:

``hb-notice-coverage``
    After a sync merge advances node *p*'s vector clock to cover writer
    *w*'s interval *i*, *p* must hold a write notice for every page of
    *i* (LRC's correctness core: notices travel before-or-at the
    covering acquire, paper section 2.1).
``diff-order``
    Diffs apply in per-writer interval order: an incoming diff whose
    ``from_id`` exceeds the page's applied watermark for that writer
    would skip an interval's writes (overlap is legal, gaps are not).
``twin-write``
    No write lands on a page whose write collection is not armed
    (i.e. on an uncollected twin) -- writes would escape the next diff.
``aurc-stamp-order``
    AURC flush stamps are monotone per (writer, page, destination):
    SHRIMP's automatic-update channel is FIFO, so a regressing sequence
    number means updates were reordered or replayed (paper section 3).
``aurc-directory``
    The home directory's sharing mode agrees with its sharer count
    (SOLO = 1, PAIRWISE = 2).
``dual-protocol``
    A page never holds conflicting protocol state on one node (both
    TreadMarks twin/diff state and AURC stamp state).

Violations carry the offending page / interval / node and the last
``ring_depth`` transitions of that (node, page), pulled from a bounded
ring buffer.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Any, Dict, List, Optional, Set, Tuple

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
    """One sanitizer finding, with attribution and recent history."""

    __slots__ = ("check", "node", "page", "writer", "interval_id", "at",
                 "detail", "recent")

    def __init__(self, check: str, node: int, page: int, writer: int,
                 interval_id: int, at: int, detail: str,
                 recent: Tuple[str, ...]):
        self.check = check
        self.node = node
        self.page = page
        self.writer = writer
        self.interval_id = interval_id
        self.at = at
        self.detail = detail
        self.recent = recent

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Violation({self.check} node={self.node} "
                f"page={self.page} writer={self.writer} "
                f"interval={self.interval_id} @{self.at})")

    def format(self) -> str:
        lines = [
            f"VIOLATION [{self.check}] page {self.page} on node "
            f"{self.node} (writer {self.writer}, interval "
            f"{self.interval_id}) at cycle {self.at}",
            f"  {self.detail}",
        ]
        if self.recent:
            lines.append(f"  last {len(self.recent)} transitions:")
            lines.extend(f"    {entry}" for entry in self.recent)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "node": self.node,
            "page": self.page,
            "writer": self.writer,
            "interval_id": self.interval_id,
            "at": self.at,
            "detail": self.detail,
            "recent": list(self.recent),
        }


class NodeAudit:
    """Per-node adapter handed to page objects and sync services.

    Pages emit through this so every event carries node identity
    without widening page-method signatures.  All state lives here or
    on the parent auditor; nothing is written back into the protocol.
    """

    __slots__ = ("auditor", "node", "epoch", "kind", "notified",
                 "applied", "rings", "counts", "timeline", "hb_verified")

    def __init__(self, auditor: "CoherenceAuditor", node: int):
        self.auditor = auditor
        self.node = node
        #: Barrier episodes this node has completed (timeline x-axis).
        self.epoch = 0
        #: page -> "tm" | "aurc" (dual-protocol conflict detection).
        self.kind: Dict[int, str] = {}
        #: (page, writer) -> highest interval id noticed here.
        self.notified: Dict[Tuple[int, int], int] = {}
        #: page -> {writer: applied-through interval id} mirror.
        self.applied: Dict[int, Dict[int, int]] = {}
        #: page -> ring of recent transition strings.
        self.rings: Dict[int, deque] = {}
        #: page -> {event kind: count}.
        self.counts: Dict[int, Dict[str, int]] = {}
        #: page -> {barrier interval: timeline bits}.
        self.timeline: Dict[int, Dict[int, int]] = {}
        #: writer -> vc component already hb-verified (check cursor).
        self.hb_verified: Dict[int, int] = {}

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

    def _tag(self, page: int, kind: str) -> None:
        have = self.kind.get(page)
        if have is None:
            self.kind[page] = kind
        elif have != kind:
            self.auditor._violate(
                "dual-protocol", self.node, page, -1, -1,
                f"page carries {have} state but received a {kind} event")

    # -- page-level event intake ------------------------------------

    def notice(self, page: int, writer: int, interval_id: int,
               newly_invalid: bool) -> None:
        self._tag(page, "tm")
        key = (page, writer)
        if interval_id > self.notified.get(key, 0):
            self.notified[key] = interval_id
        self._count(page, "notice")
        self._ring(page, f"notice w{writer} i{interval_id}"
                         f"{' ->invalid' if newly_invalid else ''}")
        self._mark(page, B_NOTICE)
        if newly_invalid:
            self.auditor.page_stats(page)["invalidations"] = \
                self.auditor.page_stats(page).get("invalidations", 0) + 1

    def aurc_notice(self, page: int, writer: int, interval_id: int,
                    dst: int, seq: int, newly_invalid: bool) -> None:
        self._tag(page, "aurc")
        key = (page, writer)
        if interval_id > self.notified.get(key, 0):
            self.notified[key] = interval_id
        self._count(page, "notice")
        self._ring(page, f"aurc-notice w{writer} i{interval_id} "
                         f"stamp=({dst},{seq})")
        self._mark(page, B_NOTICE)

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
        self._tag(page, "tm")
        self._count(page, "twin")
        self._ring(page, "twin armed (write collection)")
        self._mark(page, B_TWIN)

    def write(self, page: int, armed: bool) -> None:
        self._count(page, "write")
        if not armed:
            self.auditor._violate(
                "twin-write", self.node, page, self.node, -1,
                "write landed while write collection was not armed "
                "(uncollected twin): the update would escape the next "
                "diff")

    def interval_closed(self, page: int, writer: int,
                        interval_id: int) -> None:
        self._count(page, "interval_close")
        self._ring(page, f"interval close w{writer} i{interval_id}")

    def diff_created(self, page: int, writer: int, from_id: int,
                     to_id: int) -> None:
        self._tag(page, "tm")
        self._count(page, "diff_created")
        self._ring(page, f"diff created w{writer} ({from_id},{to_id}]")

    def diff_applied(self, page: int, writer: int, from_id: int,
                     to_id: int, applied_before: int) -> None:
        self._count(page, "diff_applied")
        self._ring(page, f"diff applied w{writer} ({from_id},{to_id}] "
                         f"(had {applied_before})")
        self._mark(page, B_DIFF_APPLIED)
        if from_id > applied_before:
            self.auditor._violate(
                "diff-order", self.node, page, writer, to_id,
                f"diff ({from_id},{to_id}] applied over watermark "
                f"{applied_before}: intervals "
                f"{applied_before + 1}..{from_id} skipped")

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
    """Passive subscriber + online invariant sanitizer.

    Attach with :meth:`repro.harness.runner.run_app`'s ``audit=True``
    (which sets ``sim.audit`` and calls the protocol's
    ``attach_audit``).  May be constructed standalone for unit tests
    and fed synthetic events through :meth:`node_view`.
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
        #: How many times each sanitizer check ran (vacuity guard).
        self.checks: Dict[str, int] = {}
        #: writer -> [(pages, vc), ...] indexed by interval_id - 1.
        self.intervals: Dict[int, List[Tuple[Tuple[int, ...],
                                             Tuple[int, ...]]]] = {}
        #: (writer, page, dst) -> highest AURC flush seq seen.
        self.stamp_high: Dict[Tuple[int, int, int], int] = {}
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
        self.sync_merges = 0
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

    def _check(self, name: str) -> None:
        self.checks[name] = self.checks.get(name, 0) + 1

    def _violate(self, check: str, node: int, page: int, writer: int,
                 interval_id: int, detail: str) -> None:
        self.violation_count += 1
        na = self.nodes.get(node)
        recent: Tuple[str, ...] = ()
        if na is not None:
            ring = na.rings.get(page)
            if ring:
                recent = tuple(ring)
            cells = na.timeline.get(page)
            if cells is None:
                cells = na.timeline[page] = {}
            cells[na.epoch] = cells.get(na.epoch, 0) | B_VIOLATION
        if len(self.violations) < self.max_violations:
            self.violations.append(Violation(
                check, node, page, writer, interval_id, self.now(),
                detail, recent))

    # -- protocol-level event intake --------------------------------

    def vc_advance(self, node: int, writer: int, interval_id: int,
                   pages: Tuple[int, ...], vc: Tuple[int, ...],
                   stamps: Optional[Dict[int, Tuple[int, int]]] = None
                   ) -> None:
        """Writer closed interval ``interval_id`` covering ``pages``.

        Registers the interval globally (the hb-notice-coverage check
        consults this registry at later merges) and, for AURC, checks
        flush-stamp monotonicity.
        """
        self.events += 1
        log = self.intervals.get(writer)
        if log is None:
            log = self.intervals[writer] = []
        # Interval ids are assigned sequentially per writer
        # (new_id = vc[writer] + 1), so list index == interval_id - 1.
        while len(log) < interval_id:
            log.append(((), ()))
        log[interval_id - 1] = (tuple(pages), tuple(vc))
        if stamps:
            self._check("aurc-stamp-order")
            for page, (dst, seq) in stamps.items():
                key = (writer, page, dst)
                last = self.stamp_high.get(key, -1)
                if seq < last:
                    self._violate(
                        "aurc-stamp-order", writer, page, writer,
                        interval_id,
                        f"flush stamp ({dst},{seq}) regresses below "
                        f"previously recorded seq {last}")
                else:
                    self.stamp_high[key] = seq

    def sync_merge(self, node: int, vc: Tuple[int, ...]) -> None:
        """Node merged coherence info up to ``vc`` at an acquire.

        Runs the hb-notice-coverage check: every interval the merged
        clock now covers must have deposited a write notice for each
        of its pages on this node (incrementally, via per-writer
        cursors, so the cost is O(newly covered intervals)).
        """
        self.events += 1
        self.sync_merges += 1
        self._check("hb-notice-coverage")
        na = self.node_view(node)
        notified = na.notified
        for writer, through in enumerate(vc):
            if writer == node or through <= 0:
                continue
            seen = na.hb_verified.get(writer, 0)
            if through <= seen:
                continue
            log = self.intervals.get(writer, ())
            upto = min(through, len(log))
            for iid in range(seen + 1, upto + 1):
                for page in log[iid - 1][0]:
                    if notified.get((page, writer), 0) < iid:
                        self._violate(
                            "hb-notice-coverage", node, page, writer,
                            iid,
                            f"vector clock covers writer {writer} "
                            f"interval {iid} but no write notice for "
                            f"page {page} reached this node")
            na.hb_verified[writer] = through

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

    def aurc_directory(self, node: int, page: int, mode: str,
                       sharers: int) -> None:
        self.events += 1
        self._check("aurc-directory")
        expected = {"solo": 1, "pairwise": 2}.get(mode)
        if expected is not None and sharers != expected:
            self._violate(
                "aurc-directory", node, page, -1, -1,
                f"directory mode {mode!r} with {sharers} sharers "
                f"(expected {expected})")

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
            "checks": dict(sorted(self.checks.items())),
            "sync_merges": self.sync_merges,
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
            f"  checks run     : "
            + ", ".join(f"{k}={v}" for k, v
                        in sorted(self.checks.items())),
            f"  sync merges    : {self.sync_merges}, "
            f"lock acquires {self.lock_acquires}, "
            f"barrier episodes {len(self.barrier_releases)}",
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
