"""AURC: automatic-update release consistency (paper section 3.3).

AURC exploits a SHRIMP-style NIC (:mod:`repro.hardware.nic`): write
accesses to mapped pages are snooped off the bus and propagated to a
remote copy of the page while both processors keep computing.  There are
no twins and no diffs; modifications merge at a **home** copy (or flow
directly between a **pair** of sharers), and coherence reduces to
invalidating at acquires and waiting for in-flight updates using
**flush/lock timestamps** -- per-destination sequence numbers stamped at
releases.

Sharing-mode state machine per page (directory at the home, simulated
centrally; transitions are rare, one-time events):

* ``SOLO``   -- one sharer; no update traffic.
* ``PAIRWISE`` -- exactly two sharers with a bidirectional mapping;
  writes auto-update the partner; no faults, no fetches.  A third
  sharer *replaces the first* in the pair (the replaced node drops its
  copy).
* ``HOME`` -- four or more sharers (or a replaced node returning):
  everyone writes through to the home; readers fetch page copies from
  the home, which first drains in-flight updates past the requester's
  stamps.

Like TreadMarks -- both run on the LRC core of
:class:`~repro.dsm.protocol.DsmProtocol` -- interval records propagate
through lock grants and barriers, and both merge write notices through
the one :meth:`~repro.dsm.page.PageView.record_notice`.  AURC's records
additionally carry per-page flush stamps ``(dst, seq)``; a stamp lives
only in its record, which a fetch looks up in the run's interval store
to name exactly the updates the authority must have seen.  A notice
whose updates flow to the merging node itself (its pair partner's
writes, or any writer's when it is the home) is waited for at the merge
and applied before it is recorded, so it never invalidates.

AURC has no protocol controller: every remote service (page fetch,
lock/barrier handling) interrupts the serving node's computation
processor, and prefetch requests have no priority support -- the two
structural reasons prefetching hurts AURC in the paper.

Documented simplifications (DESIGN.md section 2): update data lands in
the destination frame at the write; directory metadata, pair formation
and the home's frame at a revert-to-home transition change instantly.
A fetched copy therefore fills only the words not written since its
request.  All timing-bearing traffic (updates, fetches, sync messages)
is simulated mechanistically.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dsm.page import PageView
from repro.dsm.prefetch import PrefetchStats, note_prefetch, should_prefetch
from repro.dsm.protocol import (
    AurcPageReply,
    AurcPageRequest,
    DsmProtocol,
    Message,
    NodeState,
)
from repro.dsm.shmem import SharedSegment
from repro.dsm.timestamps import IntervalStore
from repro.hardware.node import Cluster, Node
from repro.hardware.params import MachineParams
from repro.sim import Simulator
from repro.stats.breakdown import Category

__all__ = ["Aurc", "AurcStats", "AurcIntervalRecord"]

SOLO = "solo"
PAIRWISE = "pairwise"
HOME = "home"


@dataclass(frozen=True, slots=True)
class AurcIntervalRecord:
    """An interval record carrying AURC flush stamps.

    ``stamps`` maps page -> (dst, seq): the destination of that page's
    automatic updates during the interval and the last update sequence
    number, i.e. the flush timestamp a reader must wait for.  Slotted:
    large machines hold hundreds of thousands of these.
    """

    writer: int
    interval_id: int
    pages: Tuple[int, ...]
    vc: Tuple[int, ...] = ()
    stamps: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def notice_count(self) -> int:
        return len(self.pages)


@dataclass
class AurcStats:
    """Cluster-wide AURC event counters."""

    faults: int = 0
    fetches: int = 0
    local_waits: int = 0          # merge waits for in-flight updates
    pairwise_formations: int = 0
    pair_replacements: int = 0
    reverts_to_home: int = 0
    prefetch: PrefetchStats = field(default_factory=PrefetchStats)


class AurcPage(PageView):
    """One node's view of one page under AURC."""

    __slots__ = ("partner", "landed")

    def __init__(self, page: int, words: int, audit=None):
        super().__init__(page, words, audit)
        self.partner: Optional[int] = None
        # Words written into this frame since a page fetch was issued
        # (None when no fetch is in flight): the fetched copy must not
        # overwrite them.
        self.landed: Optional[np.ndarray] = None

    def write(self, offset: int, values: np.ndarray) -> None:
        """Store ``values`` at ``offset``, marking them for an in-flight
        fetch."""
        self.ensure_frame()[offset:offset + len(values)] = values
        if self.landed is not None:
            self.landed[offset:offset + len(values)] = True

    def begin_fetch(self, authority: int, store: IntervalStore):
        """Arm ``landed`` for a fetch from ``authority``; return the
        update sequences it must drain first, and the pending notices
        the copy covers.

        Each pending writer's flush stamp is read from the record of
        its newest notice, ``store.record(writer, notified[writer])``.
        """
        self.landed = np.zeros(self.words, dtype=bool)
        waits: Dict[int, int] = {}
        covered: Dict[int, int] = {}
        pending = self.pending
        for writer, interval in self.notified.items():
            if (pending >> writer) & 1:
                covered[writer] = interval
                dst, seq = store.record(writer, interval).stamps[self.page]
                if dst == authority and seq:
                    waits[writer] = seq
        return waits, covered


class _PageDirectory:
    """Global sharing metadata for one page (conceptually at the home).

    Membership lives in ``mask``, an int bitset (one word per 64 nodes).
    ``sharers`` keeps the insertion-ordered member list the SOLO /
    PAIRWISE transitions need (first-toucher authority, ``a, b = pair``,
    replace-once ``pop(0)``); once a page reverts to HOME the list is
    frozen and later joiners set only their mask bit -- in HOME mode
    every ordered query routes to the home, so only membership and the
    sharer count (``mask.bit_count()``) are ever consulted.
    """

    __slots__ = ("mode", "mask", "sharers", "replaced_once")

    def __init__(self):
        self.mode = SOLO
        self.mask = 0
        self.sharers: List[int] = []
        self.replaced_once = False  # the pair may be reshuffled only once

    def __contains__(self, pid: int) -> bool:
        return (self.mask >> pid) & 1 == 1

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    def add(self, pid: int) -> None:
        if (self.mask >> pid) & 1:
            return
        self.mask |= 1 << pid
        if self.mode != HOME:
            self.sharers.append(pid)

    def discard(self, pid: int) -> None:
        self.mask &= ~(1 << pid)
        self.sharers.remove(pid)

    def nbytes(self) -> int:
        return (object.__sizeof__(self) + sys.getsizeof(self.mask)
                + sys.getsizeof(self.sharers))


class NodeAurcState(NodeState):
    """One node's AURC protocol state."""

    page_class = AurcPage

    def __init__(self, pid: int, n: int, intervals: IntervalStore):
        super().__init__(pid, n, intervals)
        # page -> (dst, seq): last update stamp of the open interval.
        self.current_writes: Dict[int, Tuple[int, int]] = {}


class Aurc(DsmProtocol):
    """The AURC protocol engine (optionally with page prefetching)."""

    family = "aurc"
    state_class = NodeAurcState

    def __init__(self, sim: Simulator, cluster: Cluster,
                 params: MachineParams, segment: SharedSegment,
                 prefetch: bool = False, pairwise_enabled: bool = True):
        """``pairwise_enabled=False`` is an ablation knob: every shared
        page goes straight to write-through-to-home, quantifying what
        the optimized pair-wise sharing buys AURC."""
        super().__init__(sim, cluster, params, segment)
        self.prefetch = prefetch
        self.pairwise_enabled = pairwise_enabled
        self.stats = AurcStats()
        self.directory: Dict[int, _PageDirectory] = {}

    @property
    def name(self) -> str:
        return "AURC+P" if self.prefetch else "AURC"

    # ------------------------------------------------------------------
    # directory (instantaneous metadata; see module docstring)
    # ------------------------------------------------------------------

    def _dir(self, page: int) -> _PageDirectory:
        entry = self.directory.get(page)
        if entry is None:
            entry = _PageDirectory()
            self.directory[page] = entry
        return entry

    def page_home(self, page: int) -> int:
        return self.page_manager(page)

    def _join_sharing(self, pid: int, page: int) -> int:
        """Register ``pid`` as a sharer; returns the fetch authority.

        Drives the SOLO -> PAIRWISE -> (replace) -> HOME transitions.
        """
        entry = self._dir(page)
        if pid in entry:
            return self._authority(pid, page)
        previous = list(entry.sharers)
        entry.add(pid)
        count = entry.count
        if count == 1:
            entry.mode = SOLO
            return pid  # first toucher: local zero page
        if count >= 2 and not self.pairwise_enabled:
            authority = (previous[0] if entry.mode == SOLO
                         else self.page_home(page))
            if entry.mode != HOME:
                self._revert_to_home(entry, page)
            return authority
        if count == 2:
            entry.mode = PAIRWISE
            self.stats.pairwise_formations += 1
            a, b = entry.sharers
            self._pair(a, b, page)
            return previous[0]
        if (count == 3 and entry.mode == PAIRWISE
                and not entry.replaced_once):
            # The third sharer replaces the first in the pair (once).
            self.stats.pair_replacements += 1
            entry.replaced_once = True
            replaced = entry.sharers[0]
            entry.discard(replaced)
            self._unpair(replaced, page)
            a, b = entry.sharers
            self._pair(a, b, page)
            return a if a != pid else b
        # Fourth (or returning) sharer: revert to write-through-to-home.
        if entry.mode != HOME:
            self._revert_to_home(entry, page)
        return self.page_home(page)

    def _pair(self, a: int, b: int, page: int) -> None:
        """Create the bidirectional mapping; sync the newcomer's data.

        Once paired, each member's frame is kept current by the instant
        data plane, so the newcomer's frame must start as a copy of the
        established member's (the timing of the initial transfer is the
        newcomer's fetch, simulated by the caller).
        """
        words = self.params.words_per_page
        pa = self.states[a].page(page, words)
        pb = self.states[b].page(page, words)
        pa.partner, pb.partner = b, a
        if pa.has_frame and not pb.has_frame:
            pb.ensure_frame()[:] = pa.frame
            for writer, through in pa.applied.items():
                pb.mark_applied(writer, through)
        elif pb.has_frame and not pa.has_frame:
            pa.ensure_frame()[:] = pb.frame
            for writer, through in pb.applied.items():
                pa.mark_applied(writer, through)
        pa.ensure_frame()
        pb.ensure_frame()

    def _unpair(self, pid: int, page: int) -> None:
        ap = self.states[pid].page(page, self.params.words_per_page)
        ap.partner = None
        ap.frame = None  # replaced node drops its copy

    def _revert_to_home(self, entry: _PageDirectory, page: int) -> None:
        self.stats.reverts_to_home += 1
        entry.mode = HOME
        home = self.page_home(page)
        words = self.params.words_per_page
        # Bring the home frame current from a pair member (instant data
        # plane; the transition is a one-time event per page).
        home_page = self.states[home].page(page, words)
        source = None
        fallback = None
        for sharer in entry.sharers:
            ap = self.states[sharer].page(page, words)
            if ap.partner is not None and ap.has_frame:
                source = ap
            elif ap.has_frame:
                fallback = ap
            ap.partner = None
        if source is None:
            source = fallback
        if source is not None and source is not home_page:
            home_page.ensure_frame()[:] = source.frame
            for writer, through in source.applied.items():
                home_page.mark_applied(writer, through)
        else:
            home_page.ensure_frame()
        if home not in entry:
            entry.add(home)

    def _authority(self, pid: int, page: int) -> int:
        """Who serves page copies to ``pid`` right now."""
        entry = self._dir(page)
        if entry.mode == HOME:
            return self.page_home(page)
        others = [s for s in entry.sharers if s != pid]
        return others[0] if others else pid

    def _update_destination(self, pid: int, page: int) -> Optional[int]:
        """Where ``pid``'s writes to ``page`` are automatically sent."""
        entry = self._dir(page)
        if entry.mode == PAIRWISE:
            ap = self.states[pid].page(page, self.params.words_per_page)
            return ap.partner
        if entry.mode == HOME:
            home = self.page_home(page)
            return home if home != pid else None
        return None

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def _handle_data_message(self, node: Node, msg: Message) -> None:
        if isinstance(msg, AurcPageRequest):
            node.cpu.post_service(
                "page-fetch", lambda: self._serve_fetch(node, msg),
                req=msg.token)
        elif isinstance(msg, AurcPageReply):
            self._handle_reply(node, msg)
        else:
            raise TypeError(f"unhandled message {msg!r}")

    # ------------------------------------------------------------------
    # shared-memory writes
    # ------------------------------------------------------------------

    def proc_write(self, pid: int, addr: int, values):
        node = self.cluster[pid]
        st = self.states[pid]
        values = np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel()
        cursor = 0
        for page, offset, count in self.split_by_page(addr, len(values)):
            ap = st.page(page, self.params.words_per_page)
            if not ap.is_valid():
                yield from self._fault(node, st, ap, True)
            self._note_use(node, ap)
            chunk = values[cursor:cursor + count]
            ap.write(offset, chunk)
            if ap.audit is not None:
                ap.audit.store(page, offset, chunk)  # the value check
            # Automatic update: data lands at the destination's frame
            # instantly (data plane); timing flows through the AU engine.
            dst = self._update_destination(pid, page)
            if dst is not None:
                self.states[dst].page(page, self.params.words_per_page
                                      ).write(offset, chunk)
                seq = node.nic.au_engine.post_write(dst, page, count)
                st.current_writes[page] = (dst, seq)
            else:
                st.current_writes[page] = (pid, 0)
            busy, others = node.access_cost_cycles(
                page, page * self.params.words_per_page + offset, count,
                write=True)
            yield from node.cpu.hold_split(busy, others)
            cursor += count

    # ------------------------------------------------------------------
    # intervals and coherence propagation
    # ------------------------------------------------------------------

    def _end_interval(self, node: Node):
        """Raw generator: close the interval, recording flush stamps."""
        st = self.states[node.node_id]
        pid = node.node_id
        new_id = st.vc[pid] + 1
        st.vc.advance(pid)
        if st.current_writes:
            pages = tuple(sorted(st.current_writes))
            stamps = dict(st.current_writes)
            st.current_writes = {}
            for page in pages:
                st.page(page, self.params.words_per_page).mark_applied(
                    pid, new_id)
            record = AurcIntervalRecord(writer=pid, interval_id=new_id,
                                        pages=pages, vc=st.vc.as_tuple(),
                                        stamps=stamps)
            st.log.publish(record)
            yield self.sim.pooled_timeout(
                len(pages) * self.params.list_processing_cycles_per_element)

    def _merge_coherence_info(self, node: Node, vc_tuple, records):
        """Raw generator: merge notices; invalidate or wait per page."""
        pid = node.node_id
        st = self.states[pid]
        views = st.pages
        words = self.params.words_per_page
        notices = 0
        invalidated: List[AurcPage] = []
        waits: List[Tuple[int, int]] = []   # (writer, seq) to drain locally
        for record in records:
            writer = record.writer
            if writer == pid:
                continue
            st.log.add(record)
            interval_id = record.interval_id
            pages = record.pages
            stamps = record.stamps
            notices += len(pages)
            for page in pages:
                ap = views.get(page)
                if ap is None:
                    ap = st.page(page, words)
                # Every written page has a stamp: ``_end_interval`` takes
                # ``pages`` and ``stamps`` from the same writes.
                dst, seq = stamps[page]
                if dst == pid:
                    # Updates flow to us automatically (pairwise partner
                    # or we are the home): wait below, and apply first
                    # so the notice never goes pending.
                    waits.append((writer, seq))
                    ap.mark_applied(writer, interval_id)
                if ap.record_notice(writer, interval_id):
                    invalidated.append(ap)
                if ap.prefetch_ready:
                    self._prefetch_wasted(pid, ap)
        yield from self._merge_clock(node, st, vc_tuple, notices,
                                     len(invalidated))
        wait_start = self.sim.now
        for writer, seq in waits:
            if seq:
                self.stats.local_waits += 1
                yield from node.nic.au_engine.wait_for(writer, seq)
        tracer = self.sim.tracer
        if tracer is not None and self.sim.now > wait_start:
            tracer.emit("au-wait", node=pid, dur=self.sim.now - wait_start)
        for ap in invalidated:
            self._invalidate_cached(node, ap)
        if self.prefetch:
            yield from self._issue_prefetches(node, st)

    # ------------------------------------------------------------------
    # faults and fetches
    # ------------------------------------------------------------------

    def _count_fault(self, write: bool) -> str:
        # Reads and writes fault alike: no write collection to arm.
        self.stats.faults += 1
        return "access"

    def _make_valid(self, node: Node, st: NodeAurcState, ap: AurcPage):
        """Processor-context generator: join the page's sharers; take
        our own frame as current or fetch from the authority."""
        pid = node.node_id
        while not ap.is_valid():
            authority = self._join_sharing(pid, ap.page)
            if authority == pid:
                # We are the home (or the solo first toucher): our frame
                # is the page.  Notices whose updates flow here were
                # waited for at the merge and never went pending.
                ap.ensure_frame()
                for writer in ap.pending_writers():
                    ap.mark_applied(writer, ap.notified[writer])
                yield from node.cpu.hold(
                    self.params.page_state_change_cycles, Category.DATA)
                continue
            yield from self._fetch_page(node, st, ap, authority,
                                        prefetch=False)

    def _fetch_page(self, node: Node, st: NodeAurcState, ap: AurcPage,
                    authority: int, prefetch: bool):
        """Processor-context generator: fetch a page copy from authority."""
        self.stats.fetches += 1
        pid = node.node_id
        wait_stamps, covered = ap.begin_fetch(authority, self.intervals)
        token = self.new_token()
        done = self.register_pending(token, (ap, covered))
        request = AurcPageRequest(
            requester=pid, page=ap.page, token=token,
            stamps=wait_stamps, prefetch=prefetch)
        self.note_issue(node, authority, request)
        yield from node.cpu.run_generator(
            self.send(node, authority, request), Category.DATA)
        reply: AurcPageReply = yield from node.cpu.wait(done, Category.DATA)
        yield from node.cpu.wait(
            node.memory.access(self.params.words_per_page), Category.DATA,
            interruptible=False)
        self._install(node, ap, reply, covered)

    def _install(self, node: Node, ap: AurcPage, reply: AurcPageReply,
                 covered: Dict[int, int]) -> None:
        """Install a fetched copy into every word not written since the
        request was issued (``ap.landed``); those hold newer values, put
        there by this node or by the instant data plane.

        ``covered`` is the set of (writer -> interval) notices that were
        pending when the request was issued; the copy satisfies exactly
        those (plus whatever the authority's versions say).  Notices that
        arrived *after* the request stay pending -- the snapshot may
        predate them -- and trigger a refetch on the next access.
        """
        if ap.has_frame and ap.landed is not None:
            np.copyto(ap.frame, reply.frame, where=~ap.landed)
        else:
            # (A disarmed mask: after finalize() a fault no longer waits
            # for a prefetch in flight, whose install came first.)
            ap.frame = reply.frame.copy()
        ap.landed = None
        ap.adopt_snapshot(reply.versions, covered.items())
        self._invalidate_cached(node, ap)

    def _serve_fetch(self, node: Node, msg: AurcPageRequest):
        """Raw generator (authority service): drain updates, send the page."""
        st = self.states[node.node_id]
        ap = st.page(msg.page, self.params.words_per_page)
        yield self.sim.pooled_timeout(self.params.message_handler_cycles)
        for writer, seq in msg.stamps.items():
            if seq:
                yield from node.nic.au_engine.wait_for(writer, seq)
        yield node.memory.access(self.params.words_per_page)
        if ap.has_frame:
            frame, versions = ap.frame, ap.applied_snapshot()
        else:
            # We were replaced out of the pair while this request was in
            # flight: answer from the current authoritative copy (data
            # plane) without resurrecting our own dropped frame.
            frame, versions = self._donor_copy(msg.page, node.node_id,
                                               msg.requester)
        reply = AurcPageReply(page=msg.page, token=msg.token,
                              versions=versions,
                              prefetch=msg.prefetch,
                              frame=frame.copy())
        yield from self.send(node, msg.requester, reply,
                             traffic_class="page")

    def _donor_copy(self, page: int, server: int, requester: int):
        """Current authoritative (frame, versions) for a stale fetch.

        Prefers the home, then any sharer with a frame; a page nobody
        holds is legitimately all zeros.
        """
        words = self.params.words_per_page
        entry = self._dir(page)
        candidates = [self.page_home(page)] + list(entry.sharers)
        for pid in candidates:
            if pid in (server, requester):
                continue
            donor = self.states[pid].pages.get(page)
            if donor is not None and donor.has_frame:
                return donor.frame, donor.applied_snapshot()
        return np.zeros(words, dtype=np.float64), {}

    def _handle_reply(self, node: Node, msg: AurcPageReply) -> None:
        context = self.pending_context(msg.token)
        if context is None:
            return
        ap, covered = context
        if msg.prefetch:
            def apply_work():
                yield node.memory.access(self.params.words_per_page)
                self._install(node, ap, msg, covered)
                self.complete_pending(msg.token, msg)
            node.cpu.post_service("pf-install", apply_work,
                                  category=Category.DATA, req=msg.token)
        else:
            self.complete_pending(msg.token, msg)

    # ------------------------------------------------------------------
    # prefetching (AURC+P)
    # ------------------------------------------------------------------

    def _issue_prefetches(self, node: Node, st: NodeAurcState):
        """Raw generator: fetch a fresh copy of every page the paper's
        heuristic picks (:func:`~repro.dsm.prefetch.should_prefetch`),
        each from its current authority.

        One page request per page, sent by the processor itself: AURC
        has no protocol controller, so prefetches run at no lower
        priority than demand traffic.  Pages this node is itself the
        authority for are skipped (their updates arrive on their own).
        """
        pid = node.node_id
        candidates = [ap for ap in st.pages.values() if should_prefetch(ap)]
        for ap in candidates:
            authority = self._authority(pid, ap.page)
            if authority == pid:
                continue
            self.stats.prefetch.issued += 1
            self.stats.prefetch.diff_requests += 1
            token = self.new_token()
            note_prefetch(self.sim, pid, "issue", ap.page,
                          authority=authority, tokens=[token])
            stamps, covered = ap.begin_fetch(authority, self.intervals)
            done = self.register_pending(token, (ap, covered))
            request = AurcPageRequest(requester=pid, page=ap.page,
                                      token=token, stamps=stamps,
                                      prefetch=True)
            self.note_issue(node, authority, request)
            yield from self.send(node, authority, request)
            self._track_prefetch(pid, ap, done)

    # ------------------------------------------------------------------
    # end-of-run accounting
    # ------------------------------------------------------------------

    def total_update_traffic_bytes(self) -> int:
        return sum(node.nic.au_engine.update_bytes
                   for node in self.cluster.nodes)

    def coherence_state_report(self) -> Dict[str, int]:
        """The per-page views plus the home directories."""
        report = super().coherence_state_report()
        report["coherence_state_bytes"] += sum(
            e.nbytes() for e in self.directory.values())
        return report
