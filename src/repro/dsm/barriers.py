"""Centralized barriers with coherence piggybacking.

Each barrier id has a static manager (``barrier % n``).  Arriving nodes
send their new coherence information (TreadMarks: interval records the
manager lacks; AURC: page timestamps) with the arrival message; the last
arrival triggers a release broadcast carrying the merged information.
This matches TreadMarks' barrier implementation, where interval and
write-notice exchange ride the barrier messages.

Charging follows the convention in :mod:`repro.dsm.locks`: arrival
handling on the manager is a raw generator run as a service (IPC unless
the manager is itself blocked in the barrier -- its own wait is SYNC);
the waiting node's sends/waits/release processing charge SYNC.

Protocol hooks:

* ``barrier_arrive_payload(node)`` -> payload for the arrival message;
* ``barrier_merge(node, payloads)`` -- raw generator on the manager,
  merging all arrival payloads (returns the merged state, which is
  the payload of every node's release message);
* ``barrier_process_release(node, payload)`` -- raw generator on each
  node completing the barrier (invalidations, clock merge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.dsm.protocol import (
    BarrierArrive,
    BarrierRelease,
    payload_bytes,
)
from repro.hardware.node import Node
from repro.sim import Event
from repro.stats.breakdown import Category

__all__ = ["BarrierService", "BarrierStats"]


@dataclass
class BarrierStats:
    episodes: int = 0
    arrivals: int = 0


@dataclass
class _ManagerBarrierState:
    epoch: int = 0
    arrived: int = 0
    payloads: List[Any] = field(default_factory=list)
    # node -> request id of its arrival (tracing only); each node's
    # release message carries its own wait span's id back.
    reqs: Dict[int, int] = field(default_factory=dict)


@dataclass
class _NodeBarrierState:
    epoch: int = 0
    waiting: Optional[Event] = None
    release_payload: Any = None


class BarrierService:
    """Barrier protocol engine; one instance serves the whole cluster."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.sim = protocol.sim
        self.params = protocol.params
        self.stats = BarrierStats()
        n = protocol.n
        self._manager_state: list[Dict[int, _ManagerBarrierState]] = [
            {} for _ in range(n)]
        self._node_state: list[Dict[int, _NodeBarrierState]] = [
            {} for _ in range(n)]

    def _mstate(self, node_id: int, barrier: int) -> _ManagerBarrierState:
        return self._manager_state[node_id].setdefault(
            barrier, _ManagerBarrierState())

    def _nstate(self, node_id: int, barrier: int) -> _NodeBarrierState:
        return self._node_state[node_id].setdefault(
            barrier, _NodeBarrierState())

    # -- the waiting side -----------------------------------------------------

    def wait(self, node: Node, barrier: int):
        """Generator: arrive at ``barrier`` and block until released."""
        pid = node.node_id
        state = self._nstate(pid, barrier)
        state.epoch += 1
        start = self.sim.now
        rid = self.protocol.new_span_id()
        prev_stall = self.protocol.set_stall(pid, rid) if rid else 0
        state.waiting = Event(self.sim)
        manager = self.protocol.lock_manager(barrier)
        payload = self.protocol.barrier_arrive_payload(node)
        arrive = BarrierArrive(barrier=barrier, node=pid, epoch=state.epoch,
                               payload=payload, req=rid)
        self.stats.arrivals += 1
        self.protocol.note_issue(node, manager, arrive)
        yield from node.cpu.run_generator(
            self.protocol.send(node, manager, arrive), Category.SYNC)
        yield from node.cpu.wait(state.waiting, Category.SYNC)
        release_payload = state.release_payload
        state.waiting = None
        state.release_payload = None
        yield from node.cpu.run_generator(
            self.protocol.barrier_process_release(node, release_payload),
            Category.SYNC)
        if rid:
            self.protocol.set_stall(pid, prev_stall)
        elapsed = self.sim.now - start
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.observe("barrier_wait_cycles", elapsed,
                            node=node.node_id)
        audit = self.sim.audit
        if audit is not None:
            # Advance this node's timeline interval: coherence events
            # after this land in the next barrier-delimited column.
            audit.barrier_done(node.node_id)
        tracer = self.sim.tracer
        if tracer is not None and tracer.wants("barrier"):
            tracer.emit("barrier", node=node.node_id, action="wait",
                        barrier=barrier, epoch=state.epoch,
                        begin=start, dur=elapsed,
                        **({"req": rid} if rid else {}))

    # -- the manager side -----------------------------------------------------

    def handle_arrive(self, node: Node, msg: BarrierArrive):
        """Raw generator (manager service): count arrivals; maybe release."""
        yield self.sim.pooled_timeout(self.params.message_handler_cycles)
        mstate = self._mstate(node.node_id, msg.barrier)
        if mstate.arrived == 0:
            mstate.epoch += 1
        if msg.epoch != mstate.epoch:
            raise RuntimeError(
                f"barrier {msg.barrier} epoch mismatch: node {msg.node} "
                f"arrived for epoch {msg.epoch}, manager at {mstate.epoch}")
        mstate.arrived += 1
        mstate.payloads.append(msg.payload)
        if msg.req:
            mstate.reqs[msg.node] = msg.req
        if mstate.arrived < self.protocol.n:
            return
        # Last arrival: merge coherence info and broadcast releases.
        self.stats.episodes += 1
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.inc("barrier_episodes", barrier=msg.barrier)
        audit = self.sim.audit
        if audit is not None:
            audit.barrier_release(self.stats.episodes, self.sim.now)
        tracer = self.sim.tracer
        if tracer is not None and tracer.wants("barrier"):
            tracer.emit("barrier", node=node.node_id, action="release",
                        barrier=msg.barrier, epoch=mstate.epoch)
        payloads = mstate.payloads
        reqs = mstate.reqs
        mstate.arrived = 0
        mstate.payloads = []
        mstate.reqs = {}
        merged = yield from self.protocol.barrier_merge(node, payloads)
        # Every node is released with ``merged`` itself: walk its
        # records for the wire size once, not once per destination.
        merged_size = payload_bytes(merged, self.params)
        for dst in range(self.protocol.n):
            release = BarrierRelease(
                barrier=msg.barrier, epoch=mstate.epoch, payload=merged,
                req=reqs.get(dst, 0), payload_size=merged_size)
            if dst == node.node_id:
                self._deliver_release(node, release)
            else:
                yield from self.protocol.send(node, dst, release)

    def _deliver_release(self, node: Node, msg: BarrierRelease) -> None:
        state = self._nstate(node.node_id, msg.barrier)
        state.release_payload = msg.payload
        if state.waiting is None:
            raise RuntimeError(
                f"node {node.node_id} released from barrier {msg.barrier} "
                "it is not waiting on")
        if not state.waiting.triggered:
            state.waiting.succeed()

    def handle_release(self, node: Node, msg: BarrierRelease) -> None:
        """Synchronous (waiter): record payload and wake the waiter."""
        self._deliver_release(node, msg)
