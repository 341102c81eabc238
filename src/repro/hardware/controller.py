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
from heapq import heappop, heappush
from typing import Callable, Dict, Generator, List, Optional

from repro.hardware.params import MachineParams
from repro.sim import Event, Simulator

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
        # The prioritized command queue: a heap of (priority, seq, cmd),
        # FIFO within a priority level.
        self._queue: List[tuple] = []
        self._queue_seq = 0
        # True while the controller is parked with an empty queue; the
        # next submit then starts its command directly.
        self._idle = False
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
        # persistent serve-loop process.
        self._cmd: Optional[Command] = None
        self._work_gen: Optional[Generator] = None
        self._cmd_wait = 0.0
        self._cmd_started = 0.0
        sim.call_soon(self._serve_next)
        sim.on_close(self._drop_work)

    # -- enqueueing ----------------------------------------------------------

    def submit(self, name: str, work: Callable[[], Generator],
               priority: int = PRIORITY_URGENT,
               done: Optional[Event] = None, req: int = 0) -> None:
        """Queue a command; ``done``, if given, fires with the work's
        return value when it completes (a command nobody waits on
        dispatches no completion event)."""
        cmd = Command(name=name, work=work, done=done, priority=priority,
                      enqueued_at=self.sim.now, req=req)
        faults = self.faults
        if faults is not None and faults.spec.ctrl_queue_limit \
                and len(self._queue) >= faults.spec.ctrl_queue_limit:
            # Overflow back-pressure: the command enters the queue only
            # once depth falls below the limit.  Its enqueued_at stays
            # the submit time, so the deferral shows up as queue wait.
            faults.count("ctrl_backpressure", node=self.node_id)
            self.sim.process(self._deferred_put(cmd), daemon=True)
            return
        self._put(cmd)

    def _deferred_put(self, cmd: Command):
        spec = self.faults.spec
        while len(self._queue) >= spec.ctrl_queue_limit:
            yield self.sim.pooled_timeout(spec.ctrl_retry_cycles)
        self._put(cmd)

    def _put(self, cmd: Command) -> None:
        if self._idle:
            # The parked controller starts this command in the next
            # (now, seq) slot.
            self._idle = False
            self.sim.call_soon(self._begin, cmd)
            return
        self._queue_seq += 1
        heappush(self._queue, (cmd.priority, self._queue_seq, cmd))

    def _drop_work(self) -> None:
        """Forget the queued and running commands (Simulator.close)."""
        self._queue.clear()
        self._cmd = None
        self._work_gen = None

    def depth_by_priority(self) -> Dict[int, int]:
        """Current queue depth per priority level (for the sampler)."""
        out: Dict[int, int] = {}
        for priority, _seq, _cmd in self._queue:
            out[priority] = out.get(priority, 0) + 1
        return out

    # -- service state machine ------------------------------------------------
    #
    # _serve_next starts the most urgent queued command in the next
    # (now, seq) slot, or parks the controller until _put; _drive steps
    # the command's work generator directly, parking a bound-method
    # callback on whatever event it yields.

    def _serve_next(self) -> None:
        queue = self._queue
        if queue:
            self.sim.call_soon(self._begin, heappop(queue)[2])
        else:
            self._idle = True

    def _begin(self, cmd: Command) -> None:
        wait = self.sim.now - cmd.enqueued_at
        self.queue_wait_cycles += wait
        faults = self.faults
        stall = (faults.controller_stall(self.node_id)
                 if faults is not None else 0.0)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("dequeue", node=self.node_id, priority=cmd.priority,
                        wait=wait, stall=stall)
        self._cmd = cmd
        self._cmd_wait = wait
        if stall > 0.0:
            # Stall window: the core is unavailable before the command
            # runs; not charged as busy time.
            self.stall_cycles += stall
            self.sim.call_in(stall, self._start_work)
        else:
            self._start_work()

    def _start_work(self) -> None:
        self._cmd_started = self.sim.now
        self._work_gen = self._cmd.work()
        self._drive(None)

    def _drive(self, value) -> None:
        """Step the command's work generator until it parks or returns."""
        try:
            target = self._work_gen.send(value)
        except StopIteration as stop:
            self._complete(stop.value)
            return
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._work_step)
        else:
            self.sim.bounce(target, self._work_step)

    def _work_step(self, event: Event) -> None:
        self._drive(event.value)

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
        tracer = self.sim.tracer
        if tracer is not None:
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

    def twin_create(self, nwords: Optional[int] = None):
        """Generator: copy a page into a twin in software (5 cycles/word
        plus the memory traffic of reading and writing the page)."""
        nwords = nwords if nwords is not None else self.params.words_per_page
        yield from self.core_work(nwords * self.params.twin_cycles_per_word)
        yield self.memory.access(2 * nwords)

    def software_diff_create(self, nwords_page: Optional[int] = None):
        """Generator: software diff creation -- scan the whole page against
        its twin (7 cycles/word over the full page; ~7K cycles for 4 KB,
        matching section 3.1's comparison)."""
        nwords_page = (nwords_page if nwords_page is not None
                       else self.params.words_per_page)
        yield from self.core_work(
            nwords_page * self.params.diff_cycles_per_word)
        yield self.memory.access(nwords_page)

    def software_diff_apply(self, dirty_words: int):
        """Generator: software diff application (7 cycles per dirty word
        plus memory traffic for the dirty words)."""
        yield from self.core_work(
            dirty_words * self.params.diff_cycles_per_word)
        burst = self.memory.access(dirty_words, scattered=True)
        if burst is not None:
            yield burst

    def dma_diff_create(self, dirty_words: int):
        """Generator: DMA diff creation -- bit-vector scan (~200 cycles
        empty to ~2100 cycles full page) plus gathering the dirty words
        from main memory across PCI."""
        yield from self.core_work(self.params.dma_scan_cycles(dirty_words))
        burst = self.memory.access(dirty_words, scattered=True)
        if burst is not None:
            yield burst

    def dma_diff_apply(self, dirty_words: int):
        """Generator: DMA diff application -- scatter the diff's words into
        the destination page as directed by its bit vector."""
        yield from self.core_work(self.params.dma_scan_cycles(dirty_words))
        burst = self.memory.access(dirty_words, scattered=True)
        if burst is not None:
            yield burst

    def page_copy(self, nwords: Optional[int] = None):
        """Generator: stream a full page between memory and the NIC."""
        nwords = nwords if nwords is not None else self.params.words_per_page
        yield self.pci.transfer(nwords * self.params.word_bytes)
        yield self.memory.access(nwords)
