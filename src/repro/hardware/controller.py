"""The PCI-based programmable protocol controller (paper section 3.1).

Architecture (paper figure 4): an integer RISC core running protocol
software out of 4 MB of local DRAM, bus-snoop logic that records shared
writes in per-page **bit vectors** (one bit per word), and a custom
**scatter/gather DMA engine** that creates and applies diffs directed by
those bit vectors.  As in the NCP2s prototype ("the protocol
controller is not completely decoupled from the rest of the
workstation hardware"), the controller's snoop logic and DMA engine sit
on the **memory bus**: twin/diff memory traffic charges DRAM directly,
while NIC transfers cross the PCI bus.

The controller runs one command at a time off a **prioritized command
queue** stored in its memory.  Local commands from the computation
processor and remote commands arriving from the network interleave in
this queue; prefetches are enqueued at low priority so urgent requests
overtake them (footnote 2 of the paper -- the mechanism that makes
prefetching viable for overlapping TreadMarks but not for AURC).

Division of labor with the DSM layer: the controller charges *time*
(core cycles, DMA scans, PCI and DRAM occupancy); the protocol supplies
each command's *work* as a generator that composes those primitives and
manipulates actual page data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.hardware.params import MachineParams
from repro.sim import Event, PriorityStore, Simulator, fused_burst
from repro.sim.engine import _PENDING
from repro.stats.metrics import QUEUE_WAIT_BUCKETS

__all__ = ["ProtocolController", "Command", "PRIORITY_URGENT",
           "PRIORITY_REMOTE", "PRIORITY_PREFETCH"]

# Command-queue priorities (paper section 3.1, footnote 2): commands a
# computation processor is stalled on come first, then service of
# remote nodes' requests, then prefetches.
PRIORITY_URGENT = 0
PRIORITY_REMOTE = 1
PRIORITY_PREFETCH = 2


@dataclass
class Command:
    """One unit of controller work.

    ``work`` is a zero-argument callable returning a generator that runs
    on the controller's timeline.  ``done`` (if supplied) fires with the
    generator's return value when the command completes.
    """

    name: str
    work: Callable[[], Generator]
    done: Optional[Event] = None
    priority: int = PRIORITY_URGENT
    enqueued_at: float = field(default=0.0)
    req: int = 0  # request id this command serves (tracing only)


class ProtocolController:
    """One node's protocol controller: command queue + service loop.

    The RISC core and DMA engine run at the computation-processor clock
    (paper section 4.1).  Occupancy statistics let experiments report how
    much protocol work was moved off the computation processor.
    """

    def __init__(self, sim: Simulator, params: MachineParams, pci, memory,
                 node_id: int):
        self.sim = sim
        self.params = params
        self.pci = pci
        self.memory = memory
        self.node_id = node_id
        self.queue = PriorityStore(sim, name=f"ctrl-q{node_id}")
        # Fault hook: a FaultPlan when controller stalls or queue
        # back-pressure are armed (set by FaultPlan.install), else None.
        self.faults = None
        self.stall_cycles = 0.0
        self.busy_cycles = 0.0
        self.commands_served = 0
        self.queue_wait_cycles = 0.0
        self.per_command_counts: dict[str, int] = {}
        # Service state machine: one command at a time, its work
        # generator driven by bound-method continuations instead of a
        # persistent serve-loop process.  The bootstrap lands on the
        # same (time, seq) slot the old process's first step used.
        self._cmd: Optional[Command] = None
        self._work_gen: Optional[Generator] = None
        self._cmd_wait = 0.0
        self._cmd_started = 0.0
        sim.call_soon(self._serve_next)

    # -- enqueueing ----------------------------------------------------------

    def submit(self, name: str, work: Callable[[], Generator],
               priority: int = PRIORITY_URGENT,
               done: Optional[Event] = None, req: int = 0) -> Event:
        """Queue a command; returns the completion event."""
        if done is None:
            done = Event(self.sim)
        cmd = Command(name=name, work=work, done=done, priority=priority,
                      enqueued_at=self.sim.now, req=req)
        faults = self.faults
        if faults is not None and faults.spec.ctrl_queue_limit \
                and len(self.queue) >= faults.spec.ctrl_queue_limit:
            # Overflow back-pressure: the command enters the queue only
            # once depth falls below the limit.  Its enqueued_at stays
            # the submit time, so the deferral shows up as queue wait.
            faults.count("ctrl_backpressure", node=self.node_id)
            self.sim.process(self._deferred_put(cmd),
                             name=f"ctrl-defer{self.node_id}", daemon=True)
            return done
        self.queue.put(cmd, priority=priority)
        return done

    def _deferred_put(self, cmd: Command):
        spec = self.faults.spec
        while len(self.queue) >= spec.ctrl_queue_limit:
            yield self.sim.pooled_timeout(spec.ctrl_retry_cycles)
        self.queue.put(cmd, priority=cmd.priority)

    # -- service state machine ------------------------------------------------
    #
    # The old persistent serve-loop process is flattened: _serve_next
    # pulls the next command (parking a getter callback on the queue
    # when empty), and _drive steps the command's work generator
    # directly, parking a bound-method callback on whatever event it
    # yields.  Every schedule lands on the same (time, seq) slot the
    # generator form used, so simulated cycles are bit-identical.

    def _serve_next(self, _evt=None) -> None:
        cmd = self.queue.try_get()
        if cmd is None:
            getter = self.queue.get()
            getter.callbacks.append(self._on_cmd)
            return
        self._begin(cmd)

    def _on_cmd(self, event: Event) -> None:
        self._begin(event._value)

    def _begin(self, cmd: Command) -> None:
        wait = self.sim.now - cmd.enqueued_at
        self.queue_wait_cycles += wait
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.observe(
                "ctrl_queue_wait", wait, buckets=QUEUE_WAIT_BUCKETS,
                node=self.node_id,
                priority=("low" if cmd.priority >= PRIORITY_PREFETCH
                          else "high"))
        faults = self.faults
        if faults is not None:
            stall = faults.controller_stall(self.node_id)
            if stall > 0.0:
                # Stall window: the core is unavailable before the
                # command runs; not charged as busy time.
                self.stall_cycles += stall
                if metrics is not None:
                    metrics.inc("ctrl_stall_cycles", stall,
                                node=self.node_id)
                self._cmd = cmd
                self._cmd_wait = wait
                self.sim.call_in(stall, self._start_work)
                return
        self._cmd = cmd
        self._cmd_wait = wait
        self._start_work()

    def _start_work(self) -> None:
        self._cmd_started = self.sim.now
        self._work_gen = self._cmd.work()
        self._drive(None, None)

    def _drive(self, value, exc) -> None:
        """Step the command's work generator until it parks or returns."""
        gen = self._work_gen
        sim = self.sim
        while True:
            try:
                if exc is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(exc)
            except StopIteration as stop:
                self._complete(stop.value)
                return
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._work_step)
                return
            # Already fired: bounce through a fresh wakeup at the
            # current (time, seq) slot, exactly as Process does, so we
            # never recurse and ordering is unchanged.
            wakeup = sim.pooled_event()
            wakeup._value = target._value
            wakeup._exception = target._exception
            wakeup.callbacks.append(self._work_step)
            sim._seq += 1
            sim._nowq.append((sim.now, sim._seq, wakeup))
            return

    def _work_step(self, event: Event) -> None:
        exc = event._exception
        if exc is None:
            value = event._value
            self._drive(None if value is _PENDING else value, None)
        else:
            self._drive(None, exc)

    def _complete(self, result) -> None:
        cmd = self._cmd
        self._cmd = None
        self._work_gen = None
        started = self._cmd_started
        elapsed = self.sim.now - started
        self.busy_cycles += elapsed
        self.commands_served += 1
        self.per_command_counts[cmd.name] = (
            self.per_command_counts.get(cmd.name, 0) + 1)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.inc("ctrl_commands", node=self.node_id,
                        command=cmd.name)
            metrics.inc("ctrl_busy_cycles", elapsed, node=self.node_id)
        tracer = self.sim.tracer
        if tracer is not None and tracer.wants("ctrl"):
            tracer.emit("ctrl", node=self.node_id, track="ctrl",
                        action=cmd.name, begin=started, dur=elapsed,
                        wait=self._cmd_wait, priority=cmd.priority,
                        **({"req": cmd.req} if cmd.req else {}))
        if cmd.done is not None and not cmd.done.triggered:
            cmd.done.succeed(result)
        self._serve_next()

    def occupancy(self) -> float:
        """Fraction of elapsed time the controller core was busy."""
        return self.busy_cycles / self.sim.now if self.sim.now else 0.0

    # -- timing primitives for protocol-supplied work -------------------------

    def core_work(self, cycles: float):
        """Generator: occupy the RISC core for ``cycles`` of software."""
        if cycles > 0:
            yield self.sim.pooled_timeout(cycles)

    def list_work(self, n_elements: int):
        """Generator: protocol list traversal (Table 1: 6 cycles/element)."""
        yield from self.core_work(
            n_elements * self.params.list_processing_cycles_per_element)

    def twin_create(self, nwords: Optional[int] = None):
        """Generator: copy a page into a twin in software (5 cycles/word
        plus the memory traffic of reading and writing the page)."""
        nwords = nwords if nwords is not None else self.params.words_per_page
        core = nwords * self.params.twin_cycles_per_word
        fused = self.memory.burst_timeout(2 * nwords, core)
        if fused is not None:
            yield fused
            return
        yield from self.core_work(core)
        yield from self.memory.access(2 * nwords)

    def software_diff_create(self, nwords_page: Optional[int] = None):
        """Generator: software diff creation -- scan the whole page against
        its twin (7 cycles/word over the full page; ~7K cycles for 4 KB,
        matching section 3.1's comparison)."""
        nwords_page = (nwords_page if nwords_page is not None
                       else self.params.words_per_page)
        core = nwords_page * self.params.diff_cycles_per_word
        fused = self.memory.burst_timeout(nwords_page, core)
        if fused is not None:
            yield fused
            return
        yield from self.core_work(core)
        yield from self.memory.access(nwords_page)

    def software_diff_apply(self, dirty_words: int):
        """Generator: software diff application (7 cycles per dirty word
        plus memory traffic for the dirty words)."""
        core = dirty_words * self.params.diff_cycles_per_word
        fused = self.memory.burst_timeout(dirty_words, core, scattered=True)
        if fused is not None:
            yield fused
            return
        yield from self.core_work(core)
        yield from self.memory.access(dirty_words, scattered=True)

    def dma_diff_create(self, dirty_words: int):
        """Generator: DMA diff creation -- bit-vector scan (~200 cycles
        empty to ~2100 cycles full page) plus gathering the dirty words
        from main memory across PCI."""
        core = self.params.dma_scan_cycles(dirty_words)
        if dirty_words:
            fused = self.memory.burst_timeout(dirty_words, core,
                                              scattered=True)
            if fused is not None:
                yield fused
                return
        yield from self.core_work(core)
        if dirty_words:
            yield from self.memory.access(dirty_words, scattered=True)

    def dma_diff_apply(self, dirty_words: int):
        """Generator: DMA diff application -- scatter the diff's words into
        the destination page as directed by its bit vector."""
        core = self.params.dma_scan_cycles(dirty_words)
        if dirty_words:
            fused = self.memory.burst_timeout(dirty_words, core,
                                              scattered=True)
            if fused is not None:
                yield fused
                return
        yield from self.core_work(core)
        if dirty_words:
            yield from self.memory.access(dirty_words, scattered=True)

    def page_copy(self, nwords: Optional[int] = None):
        """Generator: stream a full page between memory and the NIC."""
        nwords = nwords if nwords is not None else self.params.words_per_page
        nbytes = nwords * self.params.word_bytes
        pci = self.pci
        memory = self.memory
        fused = fused_burst(self.sim, (
            (pci.port, self.params.pci_transfer_cycles(nbytes)),
            (memory.port, memory.service_cycles(nwords)),
        ))
        if fused is not None:
            pci.total_bytes += nbytes
            memory.total_words += nwords
            memory.total_accesses += 1
            yield fused
            return
        yield from pci.transfer(nbytes)
        yield from memory.access(nwords)
