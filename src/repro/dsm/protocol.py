"""Protocol message types and the DSM protocol base class.

Messages are plain dataclasses; each knows its wire size so the network
charges realistic serialization time.  The :class:`DsmProtocol` base
class owns the pieces common to TreadMarks and AURC:

* the shared segment (page-indexed address space);
* per-node NIC handler installation and message dispatch;
* the pending-request table (token -> completion event) that matches
  replies to the waits that issued them;
* worker start/finish plumbing used by the harness.

Subclasses implement ``handle_message`` routing and the shared-memory
operations (``proc_read`` / ``proc_write`` / ``proc_acquire`` /
``proc_release`` / ``proc_barrier``) invoked through
:class:`~repro.dsm.shmem.DsmApi`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dsm.diffs import DiffRecord
from repro.dsm.timestamps import IntervalRecord
from repro.hardware.node import Cluster, Node
from repro.hardware.params import MachineParams
from repro.sim import Event, Simulator

__all__ = [
    "Message",
    "PageRequest", "PageReply",
    "DiffRequest", "DiffReply",
    "LockRequest", "LockForward", "LockGrant", "LockRelease",
    "BarrierArrive", "BarrierRelease",
    "AurcPageRequest", "AurcPageReply",
    "payload_bytes",
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
# protocol base
# ---------------------------------------------------------------------------

class DsmProtocol:
    """Common machinery for the DSM protocol engines."""

    name = "dsm"

    def __init__(self, sim: Simulator, cluster: Cluster,
                 params: MachineParams):
        self.sim = sim
        self.cluster = cluster
        self.params = params
        self.n = params.n_processors
        self._tokens = itertools.count(1)
        # token -> (event, context) for replies to outstanding requests.
        self._pending: Dict[int, Tuple[Event, Any]] = {}
        # Per-processor id of the stall span currently on the timeline
        # (0 = none); request issue legs reference it as their cause.
        # Only maintained while request-lifecycle tracing is enabled.
        self._stall_req: List[int] = [0] * self.n
        for node in cluster.nodes:
            node.nic.handler = self._make_handler(node)

    # -- subclass interface -------------------------------------------------

    def handle_message(self, node: Node, msg: Message) -> None:
        """Route one delivered message (must not block)."""
        raise NotImplementedError

    def proc_read(self, pid: int, addr: int, nwords: int):
        raise NotImplementedError

    def proc_write(self, pid: int, addr: int, values):
        raise NotImplementedError

    def proc_acquire(self, pid: int, lock: int):
        raise NotImplementedError

    def proc_release(self, pid: int, lock: int):
        raise NotImplementedError

    def proc_barrier(self, pid: int, barrier: int):
        raise NotImplementedError

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
        if tracer is not None and tracer.wants("req"):
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
        """Fresh id for a stall/sync span; 0 when "req" tracing is off.

        Draws from the same counter as message tokens, so request ids
        and span ids share one namespace and causal analysis can link
        them without disambiguation.  Pure bookkeeping: drawing an id
        never advances simulated time.
        """
        tracer = self.sim.tracer
        if tracer is not None and tracer.wants("req"):
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
        if tracer is None or not tracer.wants("req"):
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
        if tracer is None or not tracer.wants(category):
            return
        dur = self.sim.now - start
        if dur <= 0:
            return
        tracer.emit(category, node=node.node_id, action=action,
                    begin=start, dur=dur, **extra)

    # -- page geometry helpers -----------------------------------------------

    def page_of(self, addr: int) -> int:
        return addr // self.params.words_per_page

    def page_offset(self, addr: int) -> int:
        return addr % self.params.words_per_page

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
