"""Node assembly and the computation-processor execution model.

A :class:`Node` wires together one workstation's components (paper
figure 3): computation processor, write buffer, direct-mapped cache,
TLB, local DRAM, PCI bus, NIC, and (in controller configurations) the
protocol controller.

The :class:`ComputeProcessor` is the heart of the execution-driven
model.  It runs the application/protocol coroutine on the simulated
timeline and charges every cycle to a breakdown category.  Incoming
protocol service requests (remote page/diff requests in configurations
where the computation processor must handle them, or "complicated"
operations delegated by the controller) are queued and serviced at
*interruptible points*: any long hold or wait races against a
service-arrival gate, mirroring TreadMarks' SIGIO-driven request
servicing.  Service time is charged to ``IPC`` (including the 400-cycle
interrupt cost), exactly the paper's IPC category.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, List, Optional

from repro.hardware.bus import PciBus
from repro.hardware.cache import DirectMappedCache, WriteBuffer
from repro.hardware.controller import ProtocolController
from repro.hardware.memory import MainMemory
from repro.hardware.network import MeshNetwork
from repro.hardware.nic import NetworkInterface
from repro.hardware.params import MachineParams
from repro.hardware.tlb import Tlb
from repro.sim import Event, Simulator
from repro.stats.breakdown import Category, TimeBreakdown

__all__ = ["ComputeProcessor", "Node", "Cluster"]

# Floating-point guard for hold loops: fractional cycle costs (e.g. a
# 5.42-cycles/word memory sweep point) leave +/- ulp residues in
# `remaining -= elapsed`; anything below this is "done".
_EPSILON = 1e-6


class ComputeProcessor:
    """The computation processor: app execution + request servicing.

    Interruptible holds/waits race against service arrival through a
    *fused wake*: a pooled one-shot event subscribed to both the slice
    timeout (or awaited event) and the service gate.  Whichever source
    fires first succeeds the wake, so the hold resumes one ``(now,
    seq)`` slot after it; the loser's callback is detached when the
    hold resumes.
    """

    def __init__(self, sim: Simulator, params: MachineParams, node_id: int):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.breakdown = TimeBreakdown()
        self._pending: deque = deque()
        sim.on_close(self._pending.clear)
        self._service_gate: Optional[Event] = None
        # Fused-wake state for the interruptible hold/wait fast path.
        self._wake: Optional[Event] = None
        self._armed_gate: Optional[Event] = None
        self.finished_at: Optional[float] = None
        self.services_handled = 0
        # Straggler slowdown factor (FaultPlan.install sets > 1.0 on
        # straggler nodes); holds scale their cycles by it.  At exactly
        # 1.0 the multiplication is skipped so un-faulted runs keep
        # bit-identical float arithmetic.
        self.slowdown = 1.0

    # -- service requests ---------------------------------------------------

    def post_service(self, name: str, work: Callable[[], Generator],
                     category: Category = Category.IPC,
                     req: int = 0) -> Event:
        """Queue work for this processor; returns its completion event.

        Called by the NIC handler or the protocol controller.  Never
        blocks the caller.  ``category`` is where the service's time is
        charged: IPC for remote requests (the default), DATA for work
        done on the node's own behalf (e.g. applying a prefetched diff).
        ``req`` tags the service's trace span with the request id it
        serves (0 = untracked).
        """
        done = Event(self.sim)
        self._pending.append((name, work, done, category, req, self.sim.now))
        if self._service_gate is not None and not self._service_gate.triggered:
            self._service_gate.succeed()
        return done

    def _gate(self) -> Event:
        if self._service_gate is None or self._service_gate.triggered:
            self._service_gate = Event(self.sim)
        return self._service_gate

    # -- fused-wake fast path ---------------------------------------------

    def _trampoline(self, _event: Event) -> None:
        """Fire the armed wake once, whichever source lands first."""
        wake = self._wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    def _arm(self, source: Event) -> Event:
        """Return a one-shot wake that fires when ``source`` fires or a
        service request arrives (via the gate), whichever is first."""
        wake = self.sim.pooled_event()
        self._wake = wake
        trampoline = self._trampoline
        source.callbacks.append(trampoline)
        gate = self._gate()
        gate.callbacks.append(trampoline)
        self._armed_gate = gate
        return wake

    def _disarm(self, source: Event) -> None:
        """Detach the trampoline from whichever sources are still pending
        so lost races neither retain the wake nor fire it after reuse."""
        self._wake = None
        trampoline = self._trampoline
        callbacks = source.callbacks
        if callbacks is not None:
            try:
                callbacks.remove(trampoline)
            except ValueError:
                pass
        gate = self._armed_gate
        self._armed_gate = None
        if gate is not None:
            callbacks = gate.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(trampoline)
                except ValueError:
                    pass

    def drain_services(self):
        """Generator: service every queued request, charging each item's
        category (IPC for remote requests) for interrupt entry + handler."""
        while self._pending:
            name, work, done, category, req, posted = self._pending.popleft()
            start = self.sim.now
            # Entry/exit cost of the service interrupt, then the handler.
            yield self.sim.pooled_timeout(self.params.interrupt_cycles)
            result = yield from work()
            elapsed = self.sim.now - start
            self.breakdown.charge(category, elapsed)
            self.services_handled += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit("req", leg="svc", node=self.node_id, name=name,
                            charge=category.value, wait=start - posted,
                            begin=start, dur=elapsed,
                            **({"req": req} if req else {}))
            if not done.triggered:
                done.succeed(result)

    # -- time-charged execution primitives ------------------------------------

    def hold(self, cycles: float, category: Category,
             interruptible: bool = True):
        """Generator: advance this processor ``cycles``, charging ``category``.

        At interruptible points, queued service requests preempt the hold;
        their time goes to IPC and the hold then resumes for its remaining
        cycles.
        """
        sim = self.sim
        remaining = (cycles if self.slowdown == 1.0
                     else cycles * self.slowdown)
        while remaining > _EPSILON:
            if interruptible and self._pending:
                yield from self.drain_services()
                continue
            start = sim.now
            if interruptible:
                timeout = sim.pooled_timeout(remaining)
                yield self._arm(timeout)
                self._disarm(timeout)
                elapsed = sim.now - start
                self.breakdown.charge(category, elapsed)
                remaining -= elapsed
            else:
                yield sim.pooled_timeout(remaining)
                self.breakdown.charge(category, remaining)
                remaining = 0

    def hold_split(self, busy: float, others: float,
                   interruptible: bool = True):
        """Generator: advance ``busy + others`` cycles, splitting the
        charge between BUSY and OTHERS proportionally.

        Used for shared-access batches where issue slots are busy time
        and cache/TLB/write-buffer stalls are ``others``; one simulated
        wait keeps the event count down.
        """
        total = busy + others
        if total <= 0:
            return
        if self.slowdown != 1.0:
            total *= self.slowdown
        sim = self.sim
        busy_frac = busy / (busy + others)
        remaining = total
        while remaining > _EPSILON:
            if interruptible and self._pending:
                yield from self.drain_services()
                continue
            start = sim.now
            if interruptible:
                timeout = sim.pooled_timeout(remaining)
                yield self._arm(timeout)
                self._disarm(timeout)
            else:
                yield sim.pooled_timeout(remaining)
            elapsed = sim.now - start
            self.breakdown.charge(Category.BUSY, elapsed * busy_frac)
            self.breakdown.charge(Category.OTHERS, elapsed * (1 - busy_frac))
            remaining -= elapsed

    def wait(self, event: Event, category: Category,
             interruptible: bool = True):
        """Generator: block on ``event``, charging ``category``
        for the wait."""
        sim = self.sim
        while not event.processed:
            start = sim.now
            if interruptible:
                if self._pending:
                    yield from self.drain_services()
                    continue
                yield self._arm(event)
                self._disarm(event)
            else:
                yield event
            self.breakdown.charge(category, sim.now - start)
        return event.value

    def run_generator(self, gen: Generator, category: Category):
        """Generator: run a sub-generator, charging its elapsed time.

        Used for protocol generators (message sends, lock and barrier
        steps) whose internal waits should all land in one category.
        """
        start = self.sim.now
        result = yield from gen
        self.breakdown.charge(category, self.sim.now - start)
        return result

    # -- main body -----------------------------------------------------------

    def start(self, body: Generator) -> Event:
        """Launch the processor's main coroutine; returns app-done event.

        After the application body returns, the processor stays alive
        servicing remote requests (real DSM nodes do the same until the
        job tears down).
        """
        done = Event(self.sim)
        self.sim.process(self._run(body, done))
        return done

    def _run(self, body: Generator, done: Event):
        result = yield from body
        self.finished_at = self.sim.now
        done.succeed(result)
        while True:
            if self._pending:
                yield from self.drain_services()
            else:
                yield self._gate()


class Node:
    """One workstation: processor + memory system + NIC (+ controller)."""

    def __init__(self, sim: Simulator, params: MachineParams, node_id: int,
                 network: MeshNetwork, with_controller: bool):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.memory = MainMemory(sim, params, node_id)
        self.pci = PciBus(sim, params, node_id)
        self.cache = DirectMappedCache(params)
        self.tlb = Tlb(params)
        self.write_buffer = WriteBuffer(params)
        self.nic = NetworkInterface(sim, params, network, self.pci,
                                    self.memory, node_id)
        self.controller: Optional[ProtocolController] = None
        if with_controller:
            self.controller = ProtocolController(sim, params, self.pci,
                                                 self.memory, node_id)
        self.cpu = ComputeProcessor(sim, params, node_id)
        # Cost memo for access_cost_cycles: applications hit the same few
        # (nwords, tlb-hit, miss-count, write) patterns millions of
        # times, so the arithmetic (and the result tuple) is cached.
        # TLB/cache state probes stay live -- only the pure cost
        # computation on their outcome is memoized.
        self._access_cost_memo: dict = {}

    @property
    def breakdown(self) -> TimeBreakdown:
        return self.cpu.breakdown

    def access_cost_cycles(self, page: int, word_addr: int, nwords: int,
                           write: bool) -> tuple:
        """Account one shared-memory access batch against cache/TLB/WB.

        Returns ``(busy_cycles, other_cycles)``: issue cycles are busy;
        TLB fills, cache-line fills, and write-buffer stalls are
        ``others`` stall.  Shared writes are write-through so the
        controller can snoop them (section 3.1).
        """
        tlb_hit = self.tlb.touch(page)
        result = self.cache.access_range(word_addr, nwords, write)
        if write:
            # The write buffer keeps burst statistics; account it live.
            wb_stall = self.write_buffer.write_burst(nwords)
            key = (nwords, tlb_hit, result.misses, wb_stall)
        else:
            wb_stall = 0.0
            key = (nwords, tlb_hit, result.misses, None)
        cached = self._access_cost_memo.get(key)
        if cached is None:
            busy = float(nwords)  # one issue slot per word
            others = 0.0 if tlb_hit else self.tlb.fill_cycles
            others += result.fill_cycles
            others += wb_stall
            cached = (busy, others)
            self._access_cost_memo[key] = cached
        return cached


class Cluster:
    """The whole machine: mesh + nodes (each NIC attaches itself to the
    mesh as its node's endpoint)."""

    def __init__(self, sim: Simulator, params: MachineParams,
                 with_controller: bool):
        self.sim = sim
        self.params = params
        self.network = MeshNetwork(sim, params)
        self.nodes: List[Node] = [
            Node(sim, params, i, self.network, with_controller)
            for i in range(params.n_processors)
        ]

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, node_id: int) -> Node:
        return self.nodes[node_id]
