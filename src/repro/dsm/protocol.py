"""Protocol message types and the lazy-release-consistency core.

Messages are plain dataclasses; each knows its wire size so the network
charges realistic serialization time.

:class:`DsmProtocol` is what TreadMarks and AURC share -- AURC is
TreadMarks' LRC with automatic updates in place of twins and diffs
(paper sections 2 and 3.3): per-node clocks, interval-log views of the
run's one :class:`~repro.dsm.timestamps.IntervalStore`, and page views
(:class:`NodeState`); message plumbing and request-lifecycle
spans; the lock/barrier hooks; the processor operations invoked through
:class:`~repro.dsm.shmem.DsmApi`; and the prefetch ledger.  A subclass
keeps only what makes it that protocol (see :class:`DsmProtocol`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.dsm.diffs import DiffRecord
from repro.dsm.page import PageView
from repro.dsm.prefetch import note_prefetch
from repro.dsm.shmem import SharedSegment
from repro.dsm.timestamps import IntervalLog, IntervalStore, VectorClock
from repro.hardware.node import Cluster, Node
from repro.hardware.params import MachineParams
from repro.sim import Event, Simulator
from repro.stats.breakdown import Category

__all__ = [
    "Message",
    "PageRequest", "PageReply",
    "DiffRequest", "DiffReply",
    "LockRequest", "LockForward", "LockGrant", "LockRelease",
    "BarrierArrive", "BarrierRelease",
    "AurcPageRequest", "AurcPageReply",
    "payload_bytes",
    "NodeState",
    "DsmProtocol",
]


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------

@dataclass
class Message:
    """Base protocol message; ``sender`` is filled in by the send helper."""

    sender: int = field(init=False, default=-1)

    def size_bytes(self, params: MachineParams) -> int:
        return params.control_message_bytes


@dataclass
class PageRequest(Message):
    """Fetch a full page copy (cold miss) from its manager."""

    requester: int
    page: int
    token: int


@dataclass
class PageReply(Message):
    """A page copy plus the watermark snapshot describing its contents."""

    page: int
    token: int
    snapshot: Dict[int, int]
    frame: Any = field(default=None, repr=False)  # the actual words

    def size_bytes(self, params: MachineParams) -> int:
        return (params.control_message_bytes + params.page_size_bytes
                + len(self.snapshot) * 8)


@dataclass
class DiffRequest(Message):
    """Ask a writer for ``page``'s diffs covering (after_id, through_id].

    ``through_id`` is the newest interval the requester holds a write
    notice for.  Bounding the reply keeps the requester's applied set
    happens-before-closed: shipping fresher intervals than the notices
    would let a later fault apply an hb-older diff *after* them and roll
    the page backwards.
    """

    requester: int
    page: int
    after_id: int
    through_id: int
    token: int
    prefetch: bool = False


@dataclass
class DiffReply(Message):
    """Diffs answering one :class:`DiffRequest`."""

    page: int
    token: int
    diffs: List[DiffRecord]
    prefetch: bool = False

    def size_bytes(self, params: MachineParams) -> int:
        total = params.control_message_bytes
        for diff in self.diffs:
            total += params.diff_header_bytes + diff.size_bytes(
                params.word_bytes, params.words_per_page)
        return total


@dataclass
class LockRequest(Message):
    """Acquire request sent to the lock's manager."""

    lock: int
    requester: int
    payload: Any = None
    req: int = 0  # request id of the acquirer's stall span (tracing only)


@dataclass
class LockForward(Message):
    """Manager forwarding an acquire to the current queue tail."""

    lock: int
    requester: int
    payload: Any = None
    req: int = 0


@dataclass
class LockGrant(Message):
    """Ownership transfer carrying the protocol's coherence payload.

    For TreadMarks the payload is the grantor's missing interval records
    (write notices); for AURC it is page timestamps.
    """

    lock: int
    payload: Any = None
    req: int = 0

    def size_bytes(self, params: MachineParams) -> int:
        return params.control_message_bytes + payload_bytes(self.payload,
                                                            params)


@dataclass
class LockRelease(Message):
    """Internal marker message (used only by tests/debug tooling)."""

    lock: int


@dataclass
class BarrierArrive(Message):
    """Barrier arrival carrying the node's new coherence information."""

    barrier: int
    node: int
    epoch: int
    payload: Any = None
    req: int = 0  # request id of the arriver's wait span (tracing only)

    def size_bytes(self, params: MachineParams) -> int:
        return params.control_message_bytes + payload_bytes(self.payload,
                                                            params)


@dataclass
class BarrierRelease(Message):
    """Barrier release with the merged coherence information."""

    barrier: int
    epoch: int
    payload: Any = None
    req: int = 0
    # ``payload_bytes(payload, params)``, taken once by the manager: it
    # ships the same merged payload to every node.
    payload_size: int = field(kw_only=True)

    def size_bytes(self, params: MachineParams) -> int:
        return params.control_message_bytes + self.payload_size


@dataclass
class AurcPageRequest(Message):
    """AURC page fetch: home must first drain updates up to the stamps."""

    requester: int
    page: int
    token: int
    stamps: Dict[int, int]  # writer -> sequence the home must have seen
    prefetch: bool = False


@dataclass
class AurcPageReply(Message):
    """Full page copy from the home node."""

    page: int
    token: int
    versions: Dict[int, int]
    prefetch: bool = False
    frame: Any = field(default=None, repr=False)  # the actual words

    def size_bytes(self, params: MachineParams) -> int:
        return (params.control_message_bytes + params.page_size_bytes
                + len(self.versions) * 8)


def payload_bytes(payload: Any, params: MachineParams) -> int:
    """Wire size of a grant/barrier payload.

    Payloads are nested structures of interval records (write notices),
    vector-clock tuples, stamp dicts, and -- for the Lazy Hybrid
    variant -- piggybacked diffs; size them recursively.
    """
    if payload is None:
        return 0
    if isinstance(payload, dict):
        return 16 * len(payload)
    if hasattr(payload, "notice_count"):  # IntervalRecord-like
        return (params.interval_header_bytes
                + payload.notice_count * params.write_notice_bytes)
    if isinstance(payload, DiffRecord):
        return (params.diff_header_bytes
                + payload.size_bytes(params.word_bytes,
                                     params.words_per_page))
    if isinstance(payload, (list, tuple)):
        if payload and isinstance(payload[0], (int, float)):
            # A vector clock.  Every sequence the protocols ship is all
            # numbers (``VectorClock.as_tuple()``) or holds none, so the
            # first entry decides -- no pass over n entries per message.
            return 4 * len(payload)
        return sum(payload_bytes(item, params) for item in payload)
    return 16


# ---------------------------------------------------------------------------
# the LRC core
# ---------------------------------------------------------------------------

class NodeState:
    """One node's protocol state: clock, interval log, page views."""

    page_class = PageView

    def __init__(self, pid: int, n: int, intervals: IntervalStore):
        self.pid = pid
        self.vc = VectorClock(n)
        # The clock as of the last barrier release, as a message tuple.
        self.last_barrier_vc: Tuple[int, ...] = (0,) * n
        # This node's view of the run's one interval store.
        self.log = IntervalLog(intervals)
        self.pages: Dict[int, PageView] = {}
        # Coherence-audit adapter (repro.dsm.audit.NodeAudit) handed to
        # every page this node creates; None when unaudited.
        self.audit = None

    def page(self, page: int, words: int) -> PageView:
        state = self.pages.get(page)
        if state is None:
            state = self.page_class(page, words, audit=self.audit)
            self.pages[page] = state
        return state


class DsmProtocol:
    """The lazy-release-consistency core of both protocol engines.

    A subclass supplies ``stats`` (with a ``prefetch`` ledger) and:

    * ``proc_write(pid, addr, values)`` -- processor generator;
    * ``_count_fault(write)`` -- count a fault, return its kind;
    * ``_make_valid(node, st, view)`` -- processor generator, the
      fetch path inside :meth:`_fault`;
    * ``_end_interval(node)`` -- raw generator, the release point;
    * ``_merge_coherence_info(node, vc_tuple, records)`` -- raw
      generator applying a grant's or release's write notices;
    * ``_handle_data_message(node, msg)`` -- routes the rest (never
      blocks).
    """

    name = "dsm"
    # Protocol family recorded on an attached auditor.
    family = "dsm"
    state_class = NodeState

    def __init__(self, sim: Simulator, cluster: Cluster,
                 params: MachineParams, segment: SharedSegment):
        # Function-level import: locks/barriers import this module's
        # message types.
        from repro.dsm.barriers import BarrierService
        from repro.dsm.locks import LockService

        self.sim = sim
        self.cluster = cluster
        self.params = params
        self.segment = segment
        self.n = params.n_processors
        self._tokens = itertools.count(1)
        # token -> (event, context) for replies to outstanding requests.
        self._pending: Dict[int, Tuple[Event, Any]] = {}
        # Per-processor id of the stall span currently on the timeline
        # (0 = none); request issue legs reference it as their cause.
        # Only maintained while request-lifecycle tracing is enabled.
        self._stall_req: List[int] = [0] * self.n
        # Every interval record of the run, once; each node's ``log`` is
        # a view of it.
        self.intervals = IntervalStore(self.n)
        self.states = [self.state_class(i, self.n, self.intervals)
                       for i in range(self.n)]
        self.locks = LockService(self)
        self.barriers = BarrierService(self)
        # Coherence auditor (set by attach_audit); None when unaudited.
        self.audit = None
        for node in cluster.nodes:
            node.nic.handler = self._make_handler(node)

    def attach_audit(self, auditor) -> None:
        """Attach a :class:`~repro.dsm.audit.CoherenceAuditor`.

        Hands every node state a per-node adapter, retrofits pages that
        already exist, and records the protocol family.  Purely
        observational: no simulator state is touched.
        """
        auditor.family = self.family
        self.audit = auditor
        for st in self.states:
            st.audit = auditor.node_view(st.pid)
            for view in st.pages.values():
                view.audit = st.audit

    # -- message routing (NIC handler context: never blocks) -----------------

    def handle_message(self, node: Node, msg: Message) -> None:
        """Route one delivered message: the five sync messages here,
        everything else to the protocol's data plane."""
        if isinstance(msg, LockRequest):
            node.cpu.post_service(
                "lock-req", lambda: self.locks.handle_request(node, msg),
                req=msg.req)
        elif isinstance(msg, LockForward):
            node.cpu.post_service(
                "lock-fwd", lambda: self.locks.handle_forward(node, msg),
                req=msg.req)
        elif isinstance(msg, LockGrant):
            self.locks.handle_grant(node, msg)
        elif isinstance(msg, BarrierArrive):
            node.cpu.post_service(
                "bar-arrive", lambda: self.barriers.handle_arrive(node, msg),
                req=msg.req)
        elif isinstance(msg, BarrierRelease):
            self.barriers.handle_release(node, msg)
        else:
            self._handle_data_message(node, msg)

    # -- shared-memory operations (processor context) -------------------------

    def proc_compute(self, pid: int, cycles: float):
        yield from self.cluster[pid].cpu.hold(cycles, Category.BUSY)

    def proc_read(self, pid: int, addr: int, nwords: int):
        node = self.cluster[pid]
        st = self.states[pid]
        words = self.params.words_per_page
        chunks = []
        for page, offset, count in self.split_by_page(addr, nwords):
            view = st.page(page, words)
            if not view.is_valid():
                yield from self._fault(node, st, view, False)
            self._note_use(node, view)
            # Capture the data at the access point: the interruptible
            # timing hold below may run services that change the frame
            # (an AURC pair replacement drops it outright).
            chunk = view.frame[offset:offset + count].copy()
            busy, others = node.access_cost_cycles(
                page, page * words + offset, count, write=False)
            yield from node.cpu.hold_split(busy, others)
            chunks.append(chunk)
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def proc_acquire(self, pid: int, lock: int):
        yield from self.locks.acquire(self.cluster[pid], lock)

    def proc_release(self, pid: int, lock: int):
        node = self.cluster[pid]
        start = self.sim.now
        yield from node.cpu.run_generator(
            self._end_interval(node), Category.SYNC)
        yield from self.locks.release(node, lock)
        self.note_sync_span(node, "lock", "release", start, lock=lock)

    def proc_barrier(self, pid: int, barrier: int):
        node = self.cluster[pid]
        start = self.sim.now
        yield from node.cpu.run_generator(
            self._end_interval(node), Category.SYNC)
        self.note_sync_span(node, "barrier", "interval", start,
                            barrier=barrier)
        yield from self.barriers.wait(node, barrier)

    def _fault(self, node: Node, st: NodeState, view: PageView,
               write: bool):
        """Processor-context generator: make ``view`` valid (charges
        DATA), as one fault stall span."""
        start = self.sim.now
        sid = self.new_span_id()
        prev_stall = self.set_stall(node.node_id, sid) if sid else 0
        kind = self._count_fault(write)
        if view.audit is not None:
            view.audit.fault(view.page, kind)
        if view.prefetch_event is not None:
            # A prefetch is in flight: wait for it instead of re-requesting.
            self.stats.prefetch.late += 1
            note_prefetch(self.sim, node.node_id, "late", view.page)
            yield from node.cpu.wait(view.prefetch_event, Category.DATA)
        yield from self._make_valid(node, st, view)
        if sid:
            self.set_stall(node.node_id, prev_stall)
        elapsed = self.sim.now - start
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("fault", node=node.node_id, action=kind,
                        page=view.page, begin=start, dur=elapsed,
                        **({"req": sid} if sid else {}))

    # -- lock / barrier hooks (see locks.py / barriers.py) --------------------

    def lock_request_payload(self, node: Node):
        return self.states[node.node_id].vc.as_tuple()

    def lock_grant_payload(self, node: Node, requester: int, req_payload):
        """Raw generator: the interval records the requester lacks."""
        st = self.states[node.node_id]
        records = st.log.records_behind(req_payload)
        notices = sum(r.notice_count for r in records)
        yield self.sim.pooled_timeout(
            (notices + 1) * self.params.list_processing_cycles_per_element)
        return (st.vc.as_tuple(), records)

    def lock_process_grant(self, node: Node, payload):
        """Raw generator: merge the grant's records on the acquirer."""
        yield from self._merge_coherence_info(node, payload[0], payload[1])

    def barrier_arrive_payload(self, node: Node):
        st = self.states[node.node_id]
        return (st.vc.as_tuple(), st.log.records_behind(st.last_barrier_vc))

    def barrier_merge(self, node: Node, payloads):
        """Raw generator (manager): union all arrival records."""
        st = self.states[node.node_id]
        total_notices = 0
        merged_vc = st.vc.copy()
        for vc_tuple, records in payloads:
            merged_vc.merge(vc_tuple)
            for record in records:
                st.log.add(record)
                total_notices += record.notice_count
        yield self.sim.pooled_timeout(
            (total_notices + 1)
            * self.params.list_processing_cycles_per_element)
        return (merged_vc.as_tuple(),
                st.log.records_behind(st.last_barrier_vc))

    def barrier_process_release(self, node: Node, payload):
        """Raw generator: merge, invalidate, advance the barrier VC."""
        vc_tuple, records = payload
        yield from self._merge_coherence_info(node, vc_tuple, records)
        st = self.states[node.node_id]
        st.last_barrier_vc = st.vc.as_tuple()

    def _merge_clock(self, node: Node, st: NodeState, vc_tuple,
                     notices: int, invalidated: int):
        """Raw generator: the tail every notice merge shares -- merge the
        clock, charge list processing and page-state changes, emit."""
        pid = node.node_id
        st.vc.merge(vc_tuple)
        if self.audit is not None:
            # Covering-acquire point: all notices are recorded, so the
            # hb-notice-coverage check must pass for every interval the
            # merged clock now covers.
            self.audit.sync_merge(pid, st.vc.as_tuple())
        cost = (notices * self.params.list_processing_cycles_per_element
                + invalidated * self.params.page_state_change_cycles)
        if cost:
            yield self.sim.pooled_timeout(cost)
        if notices:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit("notice", node=pid, action="process",
                            notices=notices, invalidated=invalidated)

    def _invalidate_cached(self, node: Node, view: PageView) -> None:
        base = view.page * self.params.words_per_page
        node.cache.invalidate_range(base, self.params.words_per_page)
        node.tlb.invalidate(view.page)

    # -- prefetch classification (paper section 3.2) --------------------------

    def _note_use(self, node: Node, view: PageView) -> None:
        """An access to ``view``: a completed prefetch was useful."""
        view.referenced = True
        if view.prefetch_ready:
            view.prefetch_ready = False
            self.stats.prefetch.useful += 1
            note_prefetch(self.sim, node.node_id, "hit", view.page)
            if view.prefetch_issued_at is not None:
                self.stats.prefetch.lead_cycles_total += (
                    self.sim.now - view.prefetch_issued_at)

    def _prefetch_wasted(self, pid: int, view: PageView) -> None:
        """Classify ``view``'s prefetch useless: re-invalidated before
        any reference, or never referenced again."""
        view.prefetch_ready = False
        self.stats.prefetch.useless += 1
        note_prefetch(self.sim, pid, "useless", view.page)

    def _track_prefetch(self, pid: int, view: PageView,
                        event: Event) -> None:
        """Open the ledger entry of a prefetch of ``view`` that lands
        when ``event`` fires."""
        view.prefetch_event = event
        view.prefetch_issued_at = self.sim.now
        view.referenced = False
        self.sim.process(self._finalize_prefetch(pid, view))

    def _finalize_prefetch(self, pid: int, view: PageView):
        """Process: classify a prefetch once its replies are in."""
        event = view.prefetch_event
        yield event
        settled = view.prefetch_event is None  # finalize() counted it
        view.prefetch_event = None
        if view.is_valid():
            view.prefetch_ready = True
        elif not settled:
            # Re-invalidated in flight; the next fault fetches the
            # remainder.
            self._prefetch_wasted(pid, view)

    def finalize(self) -> None:
        """Settle prefetch accounting at the end of a run: completed but
        never-used prefetches, and still-in-flight ones, were useless."""
        for st in self.states:
            for view in st.pages.values():
                if view.prefetch_ready or view.prefetch_event is not None:
                    view.prefetch_event = None
                    self._prefetch_wasted(st.pid, view)

    def coherence_state_report(self) -> Dict[str, int]:
        """Bytes of live coherence metadata in ``states[*].pages`` vs the
        pre-compaction dict representation (scale-sweep memory accounting)."""
        compact = dict_equiv = pages = 0
        for st in self.states:
            pages += len(st.pages)
            for view in st.pages.values():
                compact += view.state_nbytes()
                dict_equiv += view.state_dict_equiv_nbytes()
        return {"coherence_state_bytes": compact,
                "coherence_state_dict_bytes": dict_equiv,
                "coherence_pages": pages}

    # -- plumbing -------------------------------------------------------------

    def _make_handler(self, node: Node):
        def handler(msg: Message) -> None:
            self.handle_message(node, msg)
        return handler

    def new_token(self) -> int:
        return next(self._tokens)

    def register_pending(self, token: int, context: Any = None) -> Event:
        event = Event(self.sim)
        self._pending[token] = (event, context)
        return event

    @property
    def pending_requests(self) -> int:
        """Outstanding page/diff requests awaiting replies (for sampling)."""
        return len(self._pending)

    def pending_context(self, token: int) -> Any:
        entry = self._pending.get(token)
        return entry[1] if entry else None

    def complete_pending(self, token: int, value: Any = None) -> None:
        entry = self._pending.pop(token, None)
        if entry is None:
            return
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("req", leg="done", req=token)
        event, _context = entry
        if not event.triggered:
            event.succeed(value)

    def send(self, src_node: Node, dst: int, msg: Message,
             traffic_class: str = "protocol"):
        """Send ``msg`` from ``src_node``; charges the caller.

        Returns the NIC's injection generator directly (drive with
        ``yield from``): no wrapper frame on the hottest path.
        """
        msg.sender = src_node.node_id
        return src_node.nic.send(dst, msg, msg.size_bytes(self.params),
                                 traffic_class,
                                 req=self.request_id_of(msg))

    # -- request-lifecycle spans (guarded: free when tracing is off) --

    @staticmethod
    def request_id_of(msg: Message) -> int:
        """The request id a message travels under (0 when untracked)."""
        return getattr(msg, "token", 0) or getattr(msg, "req", 0)

    def new_span_id(self) -> int:
        """Fresh id for a stall/sync span; 0 when no tracer is attached.

        Draws from the same counter as message tokens, so request ids
        and span ids share one namespace and causal analysis can link
        them without disambiguation.  Pure bookkeeping: drawing an id
        never advances simulated time.
        """
        if self.sim.tracer is not None:
            return self.new_token()
        return 0

    def set_stall(self, pid: int, sid: int) -> int:
        """Mark ``sid`` as processor ``pid``'s current stall span;
        returns the previous value so callers can restore it."""
        previous = self._stall_req[pid]
        self._stall_req[pid] = sid
        return previous

    def note_issue(self, node: Node, dst: int, msg: Message,
                   **extra: Any) -> None:
        """Emit the "issue" leg of a request: which stall caused it,
        what it targets, and where it is going."""
        tracer = self.sim.tracer
        if tracer is None:
            return
        payload: Dict[str, Any] = dict(extra)
        cause = self._stall_req[node.node_id]
        if cause:
            payload["cause"] = cause
        for key in ("page", "lock", "barrier"):
            value = getattr(msg, key, None)
            if value is not None:
                payload[key] = value
        if getattr(msg, "prefetch", False):
            payload["prefetch"] = True
        tracer.emit("req", leg="issue", req=self.request_id_of(msg),
                    node=node.node_id, dst=dst,
                    kind=type(msg).__name__, **payload)

    def note_sync_span(self, node: Node, category: str, action: str,
                       start: float, **extra: Any) -> None:
        """Emit a zero-or-more-cycle sync span ending now (skips empties)."""
        tracer = self.sim.tracer
        if tracer is None:
            return
        dur = self.sim.now - start
        if dur <= 0:
            return
        tracer.emit(category, node=node.node_id, action=action,
                    begin=start, dur=dur, **extra)

    # -- page geometry helpers -----------------------------------------------

    def page_manager(self, page: int) -> int:
        """Static home/manager assignment (round-robin by page number)."""
        return page % self.n

    def lock_manager(self, lock: int) -> int:
        return lock % self.n

    def split_by_page(self, addr: int, nwords: int):
        """Yield (page, offset, count) chunks of a possibly-spanning access."""
        words_per_page = self.params.words_per_page
        remaining = nwords
        cursor = addr
        while remaining > 0:
            page = cursor // words_per_page
            offset = cursor % words_per_page
            count = min(remaining, words_per_page - offset)
            yield page, offset, count
            cursor += count
            remaining -= count
