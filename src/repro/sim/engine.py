"""Core event loop, events, and processes for the simulation kernel.

The design follows the classic generator-coroutine DES pattern:

* The :class:`Simulator` owns a binary heap of ``(time, seq, event)``
  entries.  ``seq`` is a monotonically increasing tie-breaker so that
  simultaneous events fire in schedule order, which makes every run
  fully deterministic.
* An :class:`Event` is a one-shot waitable.  Processes subscribe by
  yielding it; when it succeeds, all waiting processes are resumed with
  its value.  Events only ever succeed: an exception raised inside a
  process propagates out of :meth:`Simulator.run`.
* A :class:`Process` wraps a generator and is itself an event that
  succeeds when the generator returns, so processes can wait for each
  other simply by yielding them.  A process is resumed only by
  ``send``; nothing throws into it.
* :class:`AllOf` is the one composite: it succeeds once every member
  has.

Time is measured in integer *processor cycles* throughout the
reproduction (1 cycle = 10 ns in the paper's Table 1), but the kernel
accepts any non-negative number.

Performance notes (the kernel is the simulator's hot loop):

* Every event class uses ``__slots__``; a full figure sweep creates
  tens of millions of events, so per-object dict overhead dominates
  otherwise.
* Short-lived kernel-internal events -- the wakeup of
  :meth:`Simulator.bounce`, and the timeout/wake pairs the processor
  model burns through in hold loops -- come from free-list pools
  (:meth:`Simulator.pooled_event` / :meth:`Simulator.pooled_timeout`).
  Pooled objects are recycled by the run loop right after their
  callbacks fire, when nothing can reference them anymore; recycling
  never reorders the heap, so it is invisible to simulated time.
* :meth:`Simulator.run` is the one dispatch loop.  It fires
  continuations and timeouts without a method call; draining waits on
  an event nothing triggers.  :meth:`Process._step` runs the
  generator's send path itself.
* Zero-delay schedules land in a same-cycle batch queue (``_nowq``, a
  FIFO deque) instead of the heap; the run loop drains it by merging
  against the heap on ``(time, seq)``, so dispatch order is
  bit-identical to a heap-only engine while the dominant
  schedule-at-now case costs an append instead of a sift.
* The hot request path (fault -> controller -> NIC -> mesh -> reply)
  runs as continuation-driven state structs (:class:`Continuation`,
  :meth:`Simulator.call_soon` / :meth:`Simulator.call_in`) rather than
  nested generators: one pooled callback object per hop, no `Process`,
  no generator frames.  A PCI or DRAM burst returns the event it ends
  on (``Resource.burst``), which generators yield and state structs
  hook; the mesh transfer is continuation-only, and generator code
  (the NIC reliability layer) reaches it through
  :meth:`Simulator.await_k` -- see DESIGN.md section 7.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Continuation",
    "Simulator",
]

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()

# Free lists never grow beyond this; anything above is left to the GC.
_POOL_MAX = 256


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* -> *triggered* (scheduled to fire) ->
    *processed* (callbacks ran).  ``succeed`` may be called at most
    once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_recycle")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._recycle = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (waiters were resumed)."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("event value accessed before it triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``; its waiters resume at the
        next ``(now, seq)`` slot."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        sim = self.sim
        sim._seq += 1
        sim._nowq.append((sim.now, sim._seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Its value (None) is committed only when the scheduled time arrives,
    so ``triggered`` stays False while the timeout is pending and
    ``Simulator.run(until=sim.timeout(d))`` advances the clock by ``d``.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._recycle = False
        sim._seq += 1
        heappush(sim._heap, (sim.now + delay, sim._seq, self))


class AllOf(Event):
    """Succeeds (with None) once every member event has been processed.

    Already-processed members count at once; an empty or fully
    processed member list succeeds at construction.
    """

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        Event.__init__(self, sim)
        self._remaining = 1
        member_done = self._member_done
        for event in events:
            callbacks = event.callbacks
            if callbacks is not None:
                self._remaining += 1
                callbacks.append(member_done)
        member_done(None)

    def _member_done(self, _event: Optional[Event]) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed()


class Continuation:
    """A bound callback scheduled at a ``(time, seq)`` dispatch slot.

    The first-class continuation primitive of the flat dispatch engine
    (DESIGN.md section 7): state-machine code schedules the next step
    with :meth:`Simulator.call_soon` / :meth:`Simulator.call_in`
    instead of allocating a :class:`Process` around a generator.  The
    run loop invokes the callback exactly where it would have resumed a
    waiting process, then recycles the object into a free list.

    Continuations are fire-and-forget: they cannot be waited on or
    composed.  Paths that need those semantics (or that are cold
    enough not to matter) keep the generator/:class:`Process` form.
    """

    __slots__ = ("fn", "args", "_recycle")

    def __init__(self):
        self.fn: Optional[Callable] = None
        self.args: tuple = ()
        self._recycle = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Continuation {self.fn!r} at {hex(id(self))}>"


class _Waiter(Event):
    """The ``k`` that :meth:`Simulator.await_k` hands a continuation hop.

    Calling it fires the event synchronously: its waiters resume inside
    the dispatch slot that completed the hop, with no event of its own.
    """

    __slots__ = ()

    def __call__(self, value: Any = None) -> None:
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator may yield any :class:`Event`; the process suspends until
    the event fires and is resumed with the event's value.  The
    generator's return value becomes the process's event value.
    """

    __slots__ = ("_send", "_daemon")

    def __init__(self, sim: "Simulator", generator: Generator,
                 daemon: bool = False):
        Event.__init__(self, sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        # Bound once: _step runs once per processed event.
        self._send = generator.send
        # Daemon processes are fire-and-forget: the spawner drops the
        # handle, so the completion event can never be waited on and is
        # committed synchronously instead of through the heap.
        self._daemon = daemon
        # Registered until it returns, so Simulator.close can release
        # it if the run ends with the process still parked.
        sim._live[self] = None
        # Bootstrap: resume the generator at time now.
        bootstrap = sim.pooled_event()
        bootstrap.callbacks.append(self._step)
        bootstrap.succeed()

    def _step(self, event: Event) -> None:
        """Resume the generator with ``event``'s value and park it on
        whatever it yields next (the resume callback of every event a
        process waits on)."""
        try:
            target = self._send(event._value)
        except StopIteration as stop:
            del self.sim._live[self]
            if self._daemon and not self.callbacks:
                # Nobody can observe a daemon's completion (the handle
                # was dropped at spawn), so trigger and mark processed
                # without a heap event.
                self._value = stop.value
                self.callbacks = None
            else:
                self.succeed(stop.value)
            return
        try:
            callbacks = target.callbacks
        except AttributeError:
            name = self._send.__self__.__qualname__
            raise TypeError(
                f"process {name} yielded non-event {target!r}") from None
        if callbacks is not None:
            callbacks.append(self._step)
        else:
            self.sim.bounce(target, self._step)


class Simulator:
    """The event loop: a clock plus a heap of scheduled events.

    An uncaught exception in any process or callback aborts the run by
    propagating out of :meth:`run`.

    ``events_processed`` counts every event dispatched by :meth:`run`
    -- the denominator of the simulator's own events/sec throughput
    metric (``repro profile``, ``benchmarks/microbench.py``).
    """

    def __init__(self):
        self.now: float = 0
        self._heap: List[tuple] = []
        # Same-cycle batch queue: every zero-delay schedule (succeed
        # bounces, wakeups, call_soon continuations) lands here instead
        # of the heap.  Entries are ``(time, seq, obj)`` exactly like
        # heap entries and are appended in seq order at the current
        # time, so the deque is always sorted; the run loop merges the
        # two sources by ``(time, seq)`` and drains everything scheduled
        # at ``now`` before touching the heap again.  Fast-path quiet-
        # window checks must treat a non-empty nowq as "events pending
        # at now" (see Resource.try_acquire).
        self._nowq: deque = deque()
        self._seq = 0
        self.events_processed: int = 0
        # Free lists for kernel-internal short-lived objects.  Only
        # events created via pooled_event/pooled_timeout are recycled;
        # user-visible events are never pooled.  The ``_recycle`` flag
        # doubles as an in-pool guard: it is cleared when an object
        # enters a pool and re-set when it leaves, so a stray second
        # dispatch of a recycled object can never double-insert it.
        self._event_pool: List[Event] = []
        self._timeout_pool: List[Timeout] = []
        self._cont_pool: List[Continuation] = []
        # Processes whose generator has not returned yet, and what the
        # components run to drop their own pending work (see close).
        self._live: dict = {}
        self._on_close: list = []
        # Observability attachment point.  Instrumented components emit
        # through the tracer only when it is non-None, so a bare
        # simulator pays a single attribute check per potential
        # emission.  The harness attaches a `repro.sim.trace.Tracer`
        # when a trace or metrics are requested (the tracer folds each
        # event into its metrics registry); typed as Any to keep the
        # kernel free of upward imports.
        self.tracer: Optional[Any] = None
        # Coherence-audit attachment point (repro.dsm.audit
        # .CoherenceAuditor): same contract as the tracer -- pages
        # and protocols emit typed state-transition events only when
        # non-None, and the auditor itself is strictly passive (never
        # consumes sim RNG, never schedules events).
        self.audit: Optional[Any] = None

    # -- event construction helpers --------------------------------------

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator: Generator, daemon: bool = False) -> Process:
        return Process(self, generator, daemon=daemon)

    # -- continuations -----------------------------------------------------

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Dispatch ``fn(*args)`` at the next ``(now, seq)`` slot.

        The continuation fires in exactly the position a zero-delay
        event scheduled here would have, after everything already
        scheduled at ``now`` -- the state-machine equivalent of
        spawning a daemon process (whose bootstrap wakeup occupies the
        same slot) or bouncing off an already-processed event.
        """
        pool = self._cont_pool
        if pool:
            cont = pool.pop()
            cont._recycle = True
        else:
            cont = Continuation()
        cont.fn = fn
        cont.args = args
        self._seq += 1
        self._nowq.append((self.now, self._seq, cont))

    def call_in(self, delay: float, fn: Callable, *args: Any) -> None:
        """Dispatch ``fn(*args)`` at ``(now + delay, seq)``.

        The continuation occupies the same heap slot a pooled timeout
        created here would have, so replacing ``yield pooled_timeout(d)``
        with ``call_in(d, next_step)`` preserves event order exactly.
        """
        if delay == 0:
            self.call_soon(fn, *args)
            return
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        pool = self._cont_pool
        if pool:
            cont = pool.pop()
            cont._recycle = True
        else:
            cont = Continuation()
        cont.fn = fn
        cont.args = args
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, cont))

    def await_k(self, fn: Callable, *args: Any):
        """Generator: run the continuation hop ``fn(*args, k=...)`` and
        return the value ``k`` is called with.

        The caller resumes inside the dispatch slot that completed the
        hop, exactly where a generator form of ``fn`` would have
        returned, and does not yield at all when ``k`` runs before
        ``fn`` returns -- so ``yield from sim.await_k(fn, ...)``
        occupies the same ``(time, seq)`` slots as ``yield from`` a
        generator twin of ``fn``.
        """
        waiter = _Waiter(self)
        fn(*args, k=waiter)
        if waiter.callbacks is None:
            return waiter._value
        return (yield waiter)

    def bounce(self, target: Event, callback: Callable[[Event], None]) -> None:
        """Wait on the already-processed ``target``: ``callback`` gets
        an event carrying ``target``'s value at the next ``(now, seq)``
        slot.

        Resuming in a fresh slot rather than synchronously keeps a
        chain of processed targets from recursing and lands the waiter
        where a zero-delay event it yielded would have.
        """
        wakeup = self.pooled_event()
        wakeup._value = target._value
        wakeup.callbacks.append(callback)
        self._seq += 1
        self._nowq.append((self.now, self._seq, wakeup))

    # -- free-list pools ---------------------------------------------------

    def pooled_event(self) -> Event:
        """A bare event recycled into the free list once processed.

        For kernel-internal one-shot wakeups only: the caller must not
        retain the event past its processing, and must never hand it to
        user code or an :class:`AllOf`.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            event._value = _PENDING
            event._recycle = True
            return event
        event = Event(self)
        event._recycle = True
        return event

    def pooled_timeout(self, delay: float) -> Timeout:
        """A timeout recycled into the free list once processed.

        Same contract as :meth:`pooled_event`.  A pooled timeout that
        loses a race (its waiter was woken by something else) stays out
        of the pool until its heap entry drains, so reuse can never
        corrupt a scheduled entry.
        """
        pool = self._timeout_pool
        if not pool:
            timeout = Timeout(self, delay)
            timeout._recycle = True
            return timeout
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = pool.pop()
        timeout.callbacks = []
        timeout._value = _PENDING
        timeout._recycle = True
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, timeout))
        return timeout

    # -- teardown -------------------------------------------------------------

    def on_close(self, drop: Callable[[], None]) -> None:
        """Have :meth:`close` call ``drop()``: a component that queues
        pending work outside the heap (a port's waiting requests, a
        controller's commands) drops it there, like the heap's."""
        self._on_close.append(drop)

    def close(self) -> None:
        """Free a finished run by refcount: cut every edge that keeps
        its object graph cyclic.

        A run's components hold the simulator; the simulator holds them
        back only through what is still scheduled or parked.  ``close``
        closes the generator of every process that never returned (the
        processors' service loops, retransmit daemons, the sampler,
        anything an exception left parked), drops the work components
        queue themselves (:meth:`on_close`), the pending heap and
        same-cycle entries with their waiters, and the free lists, and
        unbinds the attached tracer and auditor, so nothing reachable
        from the run points back at it (DESIGN.md, "Run lifetime").  It
        empties no data a caller may still hold -- statistics, the
        tracer's events, the auditor's digests stay -- but nothing can
        be simulated afterwards.
        """
        live, self._live = self._live, {}
        for process in live:
            process._send.__self__.close()
        drops, self._on_close = self._on_close, []
        for drop in drops:
            drop()
        for queue in (self._heap, self._nowq):
            for entry in queue:
                # An event scheduled but never dispatched may still be
                # held elsewhere (a port's granted request): drop its
                # waiters with it.
                callbacks = getattr(entry[2], "callbacks", None)
                if callbacks:
                    callbacks.clear()
            queue.clear()
        self._event_pool.clear()
        self._timeout_pool.clear()
        self._cont_pool.clear()
        for observer in (self.tracer, self.audit):
            if observer is not None:
                observer.sim = None

    # -- the run loop -------------------------------------------------------

    def run(self, until: Optional[Event] = None) -> Any:
        """Run until the heap drains, or until ``until`` triggers.

        With an event, return its value; raise RuntimeError if the
        simulation runs out of events first.  Draining waits on an
        event nothing triggers and returns None.
        """
        stop_event = Event(self) if until is None else until
        heap = self._heap
        nowq = self._nowq
        pop = heapq.heappop
        popleft = nowq.popleft
        cont_pool = self._cont_pool
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        processed = 0
        try:
            while nowq or heap:
                if stop_event._value is not _PENDING:
                    break
                if nowq:
                    if heap and heap[0] < nowq[0]:
                        entry = pop(heap)
                    else:
                        entry = popleft()
                else:
                    entry = pop(heap)
                self.now = entry[0]
                event = entry[2]
                cls = event.__class__
                if cls is Continuation:
                    fn = event.fn
                    args = event.args
                    event.fn = None
                    event.args = ()
                    fn(*args)
                    if event._recycle and len(cont_pool) < _POOL_MAX:
                        event._recycle = False
                        cont_pool.append(event)
                else:
                    if cls is Timeout:
                        event._value = None
                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    if event._recycle:
                        if cls is Timeout:
                            if len(timeout_pool) < _POOL_MAX:
                                event._recycle = False
                                timeout_pool.append(event)
                        elif cls is Event and len(event_pool) < _POOL_MAX:
                            event._recycle = False
                            event_pool.append(event)
                processed += 1
        finally:
            self.events_processed += processed
        if stop_event._value is not _PENDING:
            return stop_event._value
        if until is None:
            return None
        raise RuntimeError(
            "simulation ran out of events before `until` event fired")
