"""Network interface card, including SHRIMP-style automatic updates.

Each node's NIC sits on the PCI bus (paper figure 3).  It provides:

* **Explicit messaging** (:meth:`NetworkInterface.send`): the sender pays
  the per-message overhead (Table 1: 200 cycles of NIC setup) plus PCI
  injection, then the message flies through the mesh asynchronously and
  is ejected over the destination's PCI bus before the destination's
  registered handler is invoked.
* **Automatic updates** (:class:`AutomaticUpdateEngine`): for AURC, write
  accesses to mapped pages are snooped and propagated to the destination
  node's memory while both processors keep computing (paper section 3.3).
  Consecutive updates to the same page combine in a small write cache
  before injection.  Per-destination sequence numbers support AURC's
  flush/lock timestamp protocol: a receiver can wait until it has seen
  everything a writer sent before a given stamp.

When a :class:`~repro.faults.FaultPlan` arms message faults, explicit
messaging switches to a **reliable delivery layer**: every message to a
remote node carries a per-(src, dst) sequence number; the receiver
suppresses duplicates, buffers out-of-order arrivals, delivers to the
protocol handler strictly in send order, and returns cumulative
hardware acknowledgements; the sender retransmits unacknowledged
messages on a timeout with capped exponential backoff.  The protocol
layers above see exactly the lossless in-order channel they were built
on, so TreadMarks/AURC code needs no changes to survive drop,
duplication, and reorder faults.  Without an armed plan the layer does
not exist -- sends take the legacy path untouched.  Automatic updates
are modeled as hardware-reliable (as in SHRIMP) and are not subject to
message faults; mesh latency spikes still delay them, but wormhole
routing keeps each src->dst update stream FIFO, so their sequence
numbers never arrive out of order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.hardware.bus import PciBus
from repro.hardware.network import MeshNetwork
from repro.hardware.params import MachineParams
from repro.sim import Event, Simulator

__all__ = ["NetworkInterface", "AutomaticUpdateEngine", "UpdateBatch"]


@dataclass
class _Envelope:
    """One sequence-numbered message on a reliable (src, dst) channel."""

    src: int
    dst: int
    seq: int
    payload: Any
    nbytes: int
    traffic_class: str
    req: int


class _Pending:
    """Sender-side bookkeeping for one unacknowledged envelope."""

    __slots__ = ("env", "deadline", "attempts", "last_sent")

    def __init__(self, env: _Envelope, deadline: float, sent_at: float):
        self.env = env
        self.deadline = deadline
        self.attempts = 0
        self.last_sent = sent_at


class _RecvChannel:
    """Receiver-side state for one (src -> this node) channel."""

    __slots__ = ("next_seq", "buffer")

    def __init__(self):
        self.next_seq = 0
        self.buffer: Dict[int, _Envelope] = {}


class _SendChannel:
    """Sender-side state for one (this node -> dst) channel.

    A per-channel retransmit daemon (``NetworkInterface._retx_loop``)
    sleeps until the earliest pending deadline; on expiry it backs off
    exponentially (capped) and injects a fresh copy of the envelope.
    Acknowledgements clear pending entries; spurious wakes after an ack
    simply re-evaluate.
    """

    def __init__(self, dst: int):
        self.dst = dst
        self.next_seq = 0
        self.unacked: Dict[int, _Pending] = {}
        self._wake: Optional[Event] = None

    def note_send(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def ack_through(self, seq: int) -> None:
        """Cumulative acknowledgement: clear every entry up to ``seq``."""
        unacked = self.unacked
        for pending in [s for s in unacked if s <= seq]:
            del unacked[pending]


@dataclass
class UpdateBatch:
    """One combined automatic-update transfer queued for injection."""

    dst: int
    page: int
    nbytes: int
    seq: int
    enqueued_at: float = 0.0


class _MessageFlight:
    """State struct for one in-flight explicit message (continuation form).

    Replaces the per-message daemon process that used to drive
    ``NetworkInterface._fly``: mesh transfer, destination ejection DMA,
    then handler delivery, each leg chained by a bound-method
    continuation.  Launched via ``sim.call_soon`` so the bootstrap lands
    on the same (time, seq) slot the daemon process would have used.
    """

    __slots__ = ("nic", "dst", "payload", "nbytes", "traffic_class",
                 "req", "dst_nic")

    def __init__(self, nic: "NetworkInterface", dst: int, payload: Any,
                 nbytes: int, traffic_class: str, req: int):
        self.nic = nic
        self.dst = dst
        self.payload = payload
        self.nbytes = nbytes
        self.traffic_class = traffic_class
        self.req = req
        self.dst_nic = None

    def start(self) -> None:
        nic = self.nic
        self.dst_nic = nic.network.endpoint(self.dst)
        nic.network.transfer(nic.node_id, self.dst, self.nbytes,
                             self.traffic_class, req=self.req,
                             k=self._after_net)

    def _after_net(self) -> None:
        # Ejection DMA at the destination.
        self.dst_nic.pci.transfer(self.nbytes).callbacks.append(
            self._deliver)

    def _deliver(self, _hop) -> None:
        dst_nic = self.dst_nic
        if dst_nic.handler is None:
            raise RuntimeError(f"node {self.dst} has no message handler")
        dst_nic.handler(self.payload)


class _UpdateFlight:
    """State struct for one in-flight automatic-update batch.

    Replaces the per-batch daemon process that used to drive
    ``AutomaticUpdateEngine._fly``: mesh transfer, PCI ejection then
    DRAM at the destination, then sequence publication and handler
    delivery.
    """

    __slots__ = ("engine", "batch", "dst_nic", "mem", "nwords")

    def __init__(self, engine: "AutomaticUpdateEngine", batch: UpdateBatch):
        self.engine = engine
        self.batch = batch
        self.dst_nic = None
        self.mem = None
        self.nwords = 0

    def start(self) -> None:
        engine = self.engine
        batch = self.batch
        network = engine.network
        dst_nic = self.dst_nic = network.endpoint(batch.dst)
        self.mem = dst_nic.memory
        self.nwords = max(1, batch.nbytes // engine.params.word_bytes)
        network.transfer(engine.node_id, batch.dst, batch.nbytes,
                         traffic_class="update", k=self._after_net)

    def _after_net(self) -> None:
        # Destination-side DMA into memory: PCI then DRAM.
        self.dst_nic.pci.transfer(self.batch.nbytes).callbacks.append(
            self._after_pci)

    def _after_pci(self, _hop) -> None:
        self.mem.access(self.nwords).callbacks.append(self._deliver)

    def _deliver(self, _hop) -> None:
        engine = self.engine
        batch = self.batch
        dst_nic = self.dst_nic
        engine.update_bytes += batch.nbytes
        tracer = engine.sim.tracer
        if tracer is not None:
            tracer.emit("au", node=batch.dst, track="nic",
                        action="deliver", src=engine.node_id,
                        page=batch.page, bytes=batch.nbytes,
                        seq=batch.seq)
        peer_engine = dst_nic.au_engine
        src = engine.node_id
        if batch.seq > peer_engine.received_seq.get(src, 0):
            peer_engine.received_seq[src] = batch.seq
            peer_engine._release_seq_waiters(src)
        if dst_nic.au_handler is not None:
            dst_nic.au_handler(src, batch.page, batch.nbytes, batch.seq)


class AutomaticUpdateEngine:
    """The SHRIMP automatic-update pipeline of one node's NIC.

    Writes enter a small combining buffer (the "write cache", Table 1:
    4 entries); batches drain through the mesh in FIFO order.  The engine
    keeps, per destination, the sequence number of the last update
    *injected* (``sent_seq``) and exposes, per source, the last update
    *delivered* (``received_seq``) so the AURC protocol can implement
    flush and fetch waits.

    The engine takes its NIC's PCI bus, network and node id but keeps
    no reference to the NIC itself, which owns it.
    """

    def __init__(self, nic: "NetworkInterface"):
        self.sim = nic.sim
        self.params = nic.params
        self.pci = nic.pci
        self.network = nic.network
        self.node_id = nic.node_id
        self._queue: deque[UpdateBatch] = deque()
        self.sent_seq: Dict[int, int] = {}
        self.received_seq: Dict[int, int] = {}
        self._seq_waiters: Dict[int, List] = {}
        # Statistics
        self.updates_issued = 0
        self.updates_combined = 0
        self.update_bytes = 0
        # The drain pipeline is a continuation-driven state machine
        # (one batch at a time through injection, then an asynchronous
        # _UpdateFlight per batch); bootstrap lands on the same
        # (time, seq) slot the old drain-loop process used.  ``_idle``
        # is True while it is parked with an empty queue: the next
        # post_write restarts it in the next (now, seq) slot.
        self._inject_batch: Optional[UpdateBatch] = None
        self._idle = False
        self.sim.call_soon(self._drain_step)

    # -- producer side ------------------------------------------------------

    @property
    def combining_capacity_bytes(self) -> int:
        """How much one write-cache flush can carry: the write cache is
        ``write_cache_entries`` cache lines that combine consecutive
        updates (section 3.3), so a long sequential write still leaves
        the NIC as a stream of small messages -- the "excessive update
        traffic" that shapes the paper's AURC results."""
        return (self.params.write_cache_entries
                * self.params.cache_line_bytes)

    def post_write(self, dst: int, page: int, nwords: int) -> int:
        """Snooped write of ``nwords`` to a mapped page; returns the seq
        of its last update message.

        Non-blocking: the computation processor continues immediately
        (that is the whole point of automatic updates).  Consecutive
        words combine up to one write-cache capacity per message; a
        large write burst therefore emits many messages.
        """
        capacity = self.combining_capacity_bytes
        nbytes = nwords * self.params.word_bytes
        # Top up the most recent still-queued batch for the same page.
        if self._queue:
            tail = self._queue[-1]
            if tail.dst == dst and tail.page == page \
                    and tail.nbytes < capacity:
                take = min(capacity - tail.nbytes, nbytes)
                tail.nbytes += take
                nbytes -= take
                self.updates_combined += 1
        seq = self.sent_seq.get(dst, 0)
        while nbytes > 0:
            take = min(capacity, nbytes)
            nbytes -= take
            seq += 1
            batch = UpdateBatch(dst=dst, page=page, nbytes=take, seq=seq,
                                enqueued_at=self.sim.now)
            self._queue.append(batch)
            self.updates_issued += 1
        self.sent_seq[dst] = seq
        if self._idle:
            self._idle = False
            self.sim.call_soon(self._drain_step)
        return max(seq, self.sent_seq.get(dst, 0))

    # -- consumer side --------------------------------------------------------

    def wait_for(self, src: int, seq: int):
        """Generator: block until updates from ``src`` through
        ``seq`` arrived."""
        while self.received_seq.get(src, 0) < seq:
            gate = Event(self.sim)
            self._seq_waiters.setdefault(src, []).append((seq, gate))
            yield gate

    # -- internals ------------------------------------------------------------

    def _drain_step(self) -> None:
        """Drain-pipeline state machine: park when idle, else inject.

        Each schedule lands on the same (time, seq) slot the old
        generator drain loop used, so cycles are bit-identical.
        """
        if not self._queue:
            self._idle = True
            return
        self._inject_batch = self._queue.popleft()
        # Per-update injection overhead (1 cycle by default; the
        # figure 13 variant charges full messaging overhead), then the
        # PCI injection.
        timeout = self.sim.pooled_timeout(
            self.params.aurc_update_overhead_cycles)
        timeout.callbacks.append(self._overhead_done)

    def _overhead_done(self, _evt) -> None:
        self.pci.transfer(self._inject_batch.nbytes).callbacks.append(
            self._injected)

    def _injected(self, _hop) -> None:
        batch = self._inject_batch
        self._inject_batch = None
        self.sim.call_soon(_UpdateFlight(self, batch).start)
        self._drain_step()

    def _release_seq_waiters(self, src: int) -> None:
        waiters = self._seq_waiters.get(src)
        if not waiters:
            return
        current = self.received_seq.get(src, 0)
        still = []
        for seq, gate in waiters:
            if current >= seq:
                gate.succeed()
            else:
                still.append((seq, gate))
        self._seq_waiters[src] = still


class NetworkInterface:
    """One node's NIC: explicit messaging plus the automatic-update engine."""

    def __init__(self, sim: Simulator, params: MachineParams,
                 network: MeshNetwork, pci: PciBus, memory, node_id: int):
        self.sim = sim
        self.params = params
        self.network = network
        self.pci = pci
        self.memory = memory
        self.node_id = node_id
        network.attach(self)
        # The protocol sets `handler(payload)`; it must not block (it
        # enqueues or spawns a process).
        self.handler: Optional[Callable[[Any], None]] = None
        # AURC hook: called on each delivered automatic-update batch.
        self.au_handler: Optional[Callable[[int, int, int, int], None]] = None
        self.au_engine = AutomaticUpdateEngine(self)
        self.messages_sent = 0
        self.bytes_sent = 0
        # Reliable delivery layer, armed by FaultPlan.install when the
        # plan injects message faults; None means legacy direct flight.
        self.faults = None
        self._send_channels: Dict[int, _SendChannel] = {}
        self._recv_channels: Dict[int, _RecvChannel] = {}
        self.retransmits = 0
        self.retx_timeouts = 0
        self.dups_dropped = 0
        self.acks_sent = 0

    def enable_reliability(self, plan) -> None:
        """Arm sequence-numbered ack/retransmit delivery under ``plan``."""
        self.faults = plan

    def send(self, dst: int, payload: Any, nbytes: int,
             traffic_class: str = "protocol", overhead: bool = True,
             req: int = 0):
        """Generator: inject a message; returns once injection completes.

        The caller (processor or protocol controller) is occupied for the
        messaging overhead plus the PCI injection; the flight through the
        mesh and the remote delivery proceed asynchronously.  ``req``
        tags trace events with the request id this message carries.
        """
        if overhead:
            yield self.sim.pooled_timeout(
                self.params.messaging_overhead_cycles)
        yield self.pci.transfer(nbytes)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("msg", node=self.node_id, track="nic",
                        action=type(payload).__name__, dst=dst,
                        bytes=nbytes, traffic_class=traffic_class,
                        **({"req": req} if req else {}))
        if self.faults is not None and dst != self.node_id:
            self._launch_reliable(dst, payload, nbytes, traffic_class, req)
        else:
            self.sim.call_soon(
                _MessageFlight(self, dst, payload, nbytes, traffic_class,
                               req).start)

    # -- reliable delivery (fault plans only) -------------------------------

    def _launch_reliable(self, dst: int, payload: Any, nbytes: int,
                         traffic_class: str, req: int) -> None:
        """Stamp a sequence number, register for retransmit, and fly."""
        chan = self._send_channels.get(dst)
        if chan is None:
            chan = self._send_channels[dst] = _SendChannel(dst)
            self.sim.process(self._retx_loop(chan), daemon=True)
        env = _Envelope(src=self.node_id, dst=dst, seq=chan.next_seq,
                        payload=payload, nbytes=nbytes,
                        traffic_class=traffic_class, req=req)
        chan.next_seq += 1
        now = self.sim.now
        deadline = now + self.faults.spec.retx_timeout_cycles
        chan.unacked[env.seq] = _Pending(env, deadline, now)
        chan.note_send()
        self.sim.process(self._fly_reliable(env, inject=False), daemon=True)

    def _retx_loop(self, chan: _SendChannel):
        """Daemon: retransmit ``chan``'s envelopes past their deadline."""
        sim = self.sim
        spec = self.faults.spec
        while True:
            if not chan.unacked:
                chan._wake = Event(sim)
                yield chan._wake
                continue
            seq, pend = min(chan.unacked.items(),
                            key=lambda kv: (kv[1].deadline, kv[0]))
            if sim.now < pend.deadline:
                yield sim.pooled_timeout(pend.deadline - sim.now)
                continue
            pend.attempts += 1
            backoff = min(
                spec.retx_timeout_cycles * (2.0 ** pend.attempts),
                spec.retx_backoff_cap_cycles)
            pend.deadline = sim.now + backoff
            self._note_retransmit(pend, backoff)
            pend.last_sent = sim.now
            sim.process(self._fly_reliable(pend.env, inject=True),
                        daemon=True)

    def _fly_reliable(self, env: _Envelope, inject: bool):
        """One transmission attempt of ``env``, faults applied.

        Retransmitted copies (``inject=True``) re-pay the PCI injection:
        the NIC's DMA re-reads the message from host memory.  The fault
        verdict may lose the copy at ejection (the wire time is still
        paid), duplicate it, or delay it past its successors.
        """
        if inject:
            yield self.pci.transfer(env.nbytes)
        verdict = self.faults.message_verdict(self.node_id, env.dst)
        if verdict.duplicate:
            self.sim.process(self._fly_copy(env), daemon=True)
        if verdict.delay > 0.0:
            yield self.sim.pooled_timeout(verdict.delay)
        yield from self._wire(env.dst, env.nbytes, env.traffic_class,
                              env.req)
        if verdict.drop:
            return  # lost at ejection; the retransmit timer recovers it
        self.network.endpoint(env.dst)._deliver_reliable(env)

    def _fly_copy(self, env: _Envelope):
        """A duplicated copy: flies clean and is suppressed on arrival."""
        yield from self._wire(env.dst, env.nbytes, env.traffic_class,
                              env.req)
        self.network.endpoint(env.dst)._deliver_reliable(env)

    def _wire(self, dst: int, nbytes: int, traffic_class: str, req: int):
        """Mesh flight plus destination ejection DMA (no delivery)."""
        yield from self.sim.await_k(self.network.transfer, self.node_id,
                                    dst, nbytes, traffic_class, req)
        yield self.network.endpoint(dst).pci.transfer(nbytes)

    def _deliver_reliable(self, env: _Envelope) -> None:
        """Receiver side: suppress duplicates, deliver in order, ack."""
        chan = self._recv_channels.get(env.src)
        if chan is None:
            chan = self._recv_channels[env.src] = _RecvChannel()
        if env.seq < chan.next_seq or env.seq in chan.buffer:
            self.dups_dropped += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit("dup", node=self.node_id, src=env.src)
            # Re-ack so a sender whose ack was lost stops retransmitting.
            self._post_ack(env.src)
            return
        chan.buffer[env.seq] = env
        while chan.next_seq in chan.buffer:
            ready = chan.buffer.pop(chan.next_seq)
            chan.next_seq += 1
            if self.handler is None:
                raise RuntimeError(
                    f"node {self.node_id} has no message handler")
            self.handler(ready.payload)
        self._post_ack(env.src)

    def _post_ack(self, src: int) -> None:
        self.sim.process(self._ack_flight(src), daemon=True)

    def _ack_flight(self, src: int):
        """Cumulative hardware ack back to ``src`` (itself droppable)."""
        acked = self._recv_channels[src].next_seq - 1
        self.acks_sent += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("ack", node=self.node_id, dst=src)
        if self.faults.ack_dropped(self.node_id, src):
            return
        yield from self._wire(src, self.params.control_message_bytes,
                              "ack", 0)
        self.network.endpoint(src)._handle_ack(self.node_id, acked)

    def _handle_ack(self, peer: int, acked: int) -> None:
        chan = self._send_channels.get(peer)
        if chan is not None:
            chan.ack_through(acked)

    def _note_retransmit(self, pend: _Pending, backoff: float) -> None:
        env = pend.env
        self.retransmits += 1
        self.retx_timeouts += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("retx", node=self.node_id, track="nic",
                        action="retransmit", dst=env.dst, seq=env.seq,
                        attempt=pend.attempts, begin=pend.last_sent,
                        dur=self.sim.now - pend.last_sent, backoff=backoff,
                        **({"req": env.req} if env.req else {}))

