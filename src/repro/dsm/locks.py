"""Distributed lock management (TreadMarks-style, shared with AURC).

Each lock has a static **manager** (``lock % n``).  The manager tracks
the tail of the request chain and forwards each new acquire to the
previous requester; ownership (and the protocol's coherence payload --
write notices for TreadMarks, page timestamps for AURC) travels directly
from the last owner to the next.  A node that releases a lock keeps
*cached ownership*: re-acquiring before anyone else asks costs no
messages, which matters for work-queue locks like TSP's.

Charging convention (shared by every protocol module): generators that
run as *services* on a remote processor are **raw** -- they advance time
with plain timeouts/sub-generators and the processor's service loop
charges the whole elapsed span to IPC.  Generators that run in the
acquiring processor's own context are wrapped by the caller with
``cpu.run_generator(..., Category.SYNC)`` / ``cpu.wait(..., SYNC)``.

Protocol-specific behaviour enters through three hooks on the protocol
object:

* ``lock_request_payload(node)`` -> payload sent with the acquire
  (e.g. the requester's vector clock);
* ``lock_grant_payload(node, requester, request_payload)`` -- raw
  generator run on the granting node, producing the grant payload
  (write-notice assembly time);
* ``lock_process_grant(node, payload)`` -- raw generator run on the
  requesting node while it completes the acquire (invalidations).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.dsm.protocol import LockForward, LockGrant, LockRequest
from repro.hardware.node import Node
from repro.sim import Event
from repro.stats.breakdown import Category

__all__ = ["LockService", "LockStats"]


@dataclass
class LockStats:
    acquires: int = 0
    local_reacquires: int = 0
    grants_sent: int = 0
    forwards: int = 0


@dataclass
class _NodeLockState:
    """One node's view of one lock."""

    held: bool = False
    owner_here: bool = False
    waiting: Optional[Event] = None
    grant_payload: Any = None
    # A forwarded successor waiting for our release:
    # (requester, payload, request id).
    successor: Optional[Tuple[int, Any, int]] = None


@dataclass
class _ManagerLockState:
    """The manager's view: the tail of the request chain."""

    tail: Optional[int] = None


class LockService:
    """Lock protocol engine; one instance serves the whole cluster."""

    def __init__(self, protocol):
        # The protocol owns this service: refer back weakly.
        self.protocol = weakref.proxy(protocol)
        self.sim = protocol.sim
        self.params = protocol.params
        self.stats = LockStats()
        n = protocol.n
        self._node_state: list[Dict[int, _NodeLockState]] = [
            {} for _ in range(n)]
        self._manager_state: list[Dict[int, _ManagerLockState]] = [
            {} for _ in range(n)]

    # -- state accessors ------------------------------------------------------

    def _nstate(self, node_id: int, lock: int) -> _NodeLockState:
        return self._node_state[node_id].setdefault(lock, _NodeLockState())

    def _mstate(self, node_id: int, lock: int) -> _ManagerLockState:
        return self._manager_state[node_id].setdefault(
            lock, _ManagerLockState())

    def holder_count(self, lock: int) -> int:
        """Number of nodes currently holding ``lock`` (invariant: <= 1)."""
        return sum(1 for per_node in self._node_state
                   if lock in per_node and per_node[lock].held)

    def holds(self, node_id: int, lock: int) -> bool:
        state = self._node_state[node_id].get(lock)
        return bool(state and state.held)

    # -- acquire / release (run on the acquiring processor) -------------------

    def acquire(self, node: Node, lock: int):
        """Generator: block until this node holds ``lock`` (charges SYNC)."""
        pid = node.node_id
        state = self._nstate(pid, lock)
        if state.held:
            raise RuntimeError(f"node {pid} re-acquiring held lock {lock}")
        self.stats.acquires += 1
        start = self.sim.now
        rid = self.protocol.new_span_id()
        prev_stall = self.protocol.set_stall(pid, rid) if rid else 0
        if state.owner_here:
            # Cached ownership: no messages, no consistency actions needed
            # (we were the last releaser, our knowledge is current).
            state.held = True
            self.stats.local_reacquires += 1
            yield from node.cpu.hold(self.params.page_state_change_cycles,
                                     Category.SYNC)
            if rid:
                self.protocol.set_stall(pid, prev_stall)
            self._record_acquire(node, lock, start, cached=True, rid=rid)
            return
        manager = self.protocol.lock_manager(lock)
        state.waiting = Event(self.sim)
        payload = self.protocol.lock_request_payload(node)
        request = LockRequest(lock=lock, requester=pid, payload=payload,
                              req=rid)
        self.protocol.note_issue(node, manager, request)
        yield from node.cpu.run_generator(
            self.protocol.send(node, manager, request), Category.SYNC)
        yield from node.cpu.wait(state.waiting, Category.SYNC)
        grant_payload = state.grant_payload
        state.waiting = None
        state.grant_payload = None
        state.owner_here = True
        state.held = True
        yield from node.cpu.run_generator(
            self.protocol.lock_process_grant(node, grant_payload),
            Category.SYNC)
        if rid:
            self.protocol.set_stall(pid, prev_stall)
        self._record_acquire(node, lock, start, cached=False, rid=rid)

    def _record_acquire(self, node: Node, lock: int, start: float,
                        cached: bool, rid: int = 0) -> None:
        elapsed = self.sim.now - start
        audit = self.sim.audit
        if audit is not None:
            audit.lock_acquire(node.node_id, lock, cached)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("lock", node=node.node_id, action="acquire",
                        lock=lock, cached=cached, begin=start, dur=elapsed,
                        **({"req": rid} if rid else {}))

    def release(self, node: Node, lock: int):
        """Generator: release ``lock``, granting to a waiting successor."""
        pid = node.node_id
        state = self._nstate(pid, lock)
        if not state.held:
            raise RuntimeError(f"node {pid} releasing unheld lock {lock}")
        state.held = False
        if state.successor is not None:
            requester, req_payload, rid = state.successor
            state.successor = None
            state.owner_here = False
            yield from node.cpu.run_generator(
                self._grant(node, lock, requester, req_payload, rid),
                Category.SYNC)

    # -- message handling -----------------------------------------------------
    # handle_request / handle_forward are raw generators run as services
    # on the receiving processor; handle_grant is synchronous (it only
    # wakes the blocked acquirer, which does its own processing).

    def handle_request(self, node: Node, msg: LockRequest):
        """Raw generator (manager): grant or forward an acquire request."""
        yield self.sim.pooled_timeout(self.params.message_handler_cycles)
        mstate = self._mstate(node.node_id, msg.lock)
        previous = mstate.tail
        mstate.tail = msg.requester
        if previous is None:
            # Manager is the initial owner: grant from here.
            yield from self._grant(node, msg.lock, msg.requester,
                                   msg.payload, msg.req)
        else:
            self.stats.forwards += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit("lock", node=node.node_id, action="forward",
                            lock=msg.lock, requester=msg.requester,
                            to=previous,
                            **({"req": msg.req} if msg.req else {}))
            forward = LockForward(lock=msg.lock, requester=msg.requester,
                                  payload=msg.payload, req=msg.req)
            yield from self.protocol.send(node, previous, forward)

    def handle_forward(self, node: Node, msg: LockForward):
        """Raw generator (previous owner): grant now or stash successor."""
        yield self.sim.pooled_timeout(self.params.message_handler_cycles)
        state = self._nstate(node.node_id, msg.lock)
        if state.owner_here and not state.held:
            state.owner_here = False
            yield from self._grant(node, msg.lock, msg.requester,
                                   msg.payload, msg.req)
        else:
            # Still holding, or our own grant has not arrived yet.
            if state.successor is not None:
                raise RuntimeError("lock chain gave one node two successors")
            state.successor = (msg.requester, msg.payload, msg.req)

    def handle_grant(self, node: Node, msg: LockGrant) -> None:
        """Synchronous (requester): record payload, wake the acquirer."""
        state = self._nstate(node.node_id, msg.lock)
        state.grant_payload = msg.payload
        if state.waiting is None:
            raise RuntimeError(
                f"node {node.node_id} got grant for lock {msg.lock} "
                "without waiting")
        if not state.waiting.triggered:
            state.waiting.succeed()

    # -- internals ------------------------------------------------------------

    def _grant(self, node: Node, lock: int, requester: int,
               req_payload: Any, rid: int = 0):
        """Raw generator: build the grant payload and send ownership."""
        self.stats.grants_sent += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("lock", node=node.node_id, action="grant",
                        lock=lock, requester=requester,
                        **({"req": rid} if rid else {}))
        payload = yield from self.protocol.lock_grant_payload(
            node, requester, req_payload)
        grant = LockGrant(lock=lock, payload=payload, req=rid)
        yield from self.protocol.send(node, requester, grant)
