"""Core event loop, events, and processes for the simulation kernel.

The design follows the classic generator-coroutine DES pattern:

* The :class:`Simulator` owns a binary heap of ``(time, seq, event)``
  entries.  ``seq`` is a monotonically increasing tie-breaker so that
  simultaneous events fire in schedule order, which makes every run
  fully deterministic.
* An :class:`Event` is a one-shot waitable.  Processes subscribe by
  yielding it; when it *succeeds* (or *fails*), all waiting processes
  are resumed with its value (or the failure exception re-raised inside
  them).
* A :class:`Process` wraps a generator and is itself an event that
  succeeds when the generator returns, so processes can wait for each
  other simply by yielding them.

Time is measured in integer *processor cycles* throughout the
reproduction (1 cycle = 10 ns in the paper's Table 1), but the kernel
accepts any non-negative number.

Performance notes (the kernel is the simulator's hot loop):

* Every event class uses ``__slots__``; a full figure sweep creates
  tens of millions of events, so per-object dict overhead dominates
  otherwise.
* Short-lived kernel-internal events -- the wakeup bounce a process
  uses to re-inspect an already-processed yield target, and the
  timeout/wake pairs the processor model burns through in hold loops --
  come from free-list pools (:meth:`Simulator.pooled_event` /
  :meth:`Simulator.pooled_timeout`).  Pooled objects are recycled by
  the run loop right after their callbacks fire, when nothing can
  reference them anymore; recycling never reorders the heap, so it is
  invisible to simulated time.
* :meth:`Simulator.run` has one dispatch loop that inlines
  :meth:`step`'s pop/advance/dispatch sequence and fires continuations
  and timeouts without a method call; draining waits on an event
  nothing triggers, and a time limit steps through :meth:`step`.
  :meth:`Process._step` runs the generator's send path itself.
* ``succeed``/``fail`` inline the zero-delay schedule (the common case)
  rather than calling :meth:`Simulator._schedule`.
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
    "Interrupt",
    "AnyOf",
    "AllOf",
    "Continuation",
    "Simulator",
]

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()

# Free lists never grow beyond this; anything above is left to the GC.
_POOL_MAX = 256


class Interrupt(Exception):
    """Thrown inside a process that another process interrupted.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (e.g. a protocol request that needs servicing).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* -> *triggered* (scheduled on the heap) ->
    *processed* (callbacks ran).  ``succeed`` and ``fail`` may each be
    called at most once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_recycle")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._recycle = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (waiters were resumed)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return (self._value is not _PENDING
                or self._exception is not None) and self._exception is None

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("event value accessed before it triggered")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        sim = self.sim
        if delay == 0:
            sim._seq += 1
            sim._nowq.append((sim.now, sim._seq, self))
        else:
            sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        sim = self.sim
        if delay == 0:
            sim._seq += 1
            sim._nowq.append((sim.now, sim._seq, self))
        else:
            sim._schedule(self, delay)
        return self

    def _resume_waiters(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    The value is committed only when the scheduled time arrives, so
    ``triggered`` stays False while the timeout is pending.  (Assigning
    ``_value`` at construction would make ``Simulator.run(until=
    sim.timeout(d))`` observe a triggered stop event immediately and
    return at the current time instead of advancing the clock by ``d``.)
    """

    __slots__ = ("delay", "_pending_value")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._recycle = False
        self.delay = delay
        self._pending_value = value
        sim._seq += 1
        heappush(sim._heap, (sim.now + delay, sim._seq, self))

    def _resume_waiters(self) -> None:
        if self._value is _PENDING and self._exception is None:
            self._value = self._pending_value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


class _ConditionValue:
    """Mapping from constituent events to values for AnyOf/AllOf results."""

    __slots__ = ("events", "_event_set")

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)
        self._event_set = None

    def __getitem__(self, event: Event) -> Any:
        return event.value

    def __contains__(self, event: Event) -> bool:
        # Membership is asked once per constituent in the common pattern
        # (`if t in result`), so an O(n) list scan per lookup turns the
        # whole check quadratic; build the set once instead.
        events = self._event_set
        if events is None:
            events = self._event_set = set(self.events)
        return event in events and event.callbacks is None

    def todict(self) -> dict:
        return {e: e.value for e in self.events if e.processed}


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        Event.__init__(self, sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(_ConditionValue(()))
            return
        for event in self.events:
            if self._value is not _PENDING or self._exception is not None:
                # Already decided (a constituent was pre-processed):
                # subscribing the remainder would only leave stale
                # callbacks behind.
                break
            if event.callbacks is None:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _finish(self) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        events = self.events
        failed = None
        for e in events:
            if e._exception is not None:
                failed = e
                break
        if failed is not None:
            self.fail(failed._exception)
        else:
            self.succeed(_ConditionValue(events))
        # Detach from still-pending constituents: a lost race must not
        # keep this (dead) condition alive through the loser's callback
        # list, nor run a needless `_on_child` when the loser fires.
        on_child = self._on_child
        for e in events:
            callbacks = e.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(on_child)
                except ValueError:
                    pass


class AnyOf(_Condition):
    """Succeeds as soon as any constituent event triggers."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        self._finish()


class AllOf(_Condition):
    """Succeeds once every constituent event has triggered."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 or event._exception is not None:
            self._finish()


class Continuation:
    """A bound callback scheduled at a ``(time, seq)`` dispatch slot.

    The first-class continuation primitive of the flat dispatch engine
    (DESIGN.md section 7): state-machine code schedules the next step
    with :meth:`Simulator.call_soon` / :meth:`Simulator.call_in`
    instead of allocating a :class:`Process` around a generator.  The
    run loop invokes the callback exactly where it would have resumed a
    waiting process, then recycles the object into a free list.

    Continuations are fire-and-forget: they cannot be waited on,
    composed, or interrupted.  Paths that need those semantics (or that
    are cold enough not to matter) keep the generator/:class:`Process`
    form.
    """

    __slots__ = ("sim", "fn", "args", "_recycle")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.fn: Optional[Callable] = None
        self.args: tuple = ()
        self._recycle = True

    def _resume_waiters(self) -> None:
        fn, args = self.fn, self.args
        self.fn = None
        self.args = ()
        fn(*args)

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
        self._resume_waiters()


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator may yield any :class:`Event`; the process suspends until
    the event fires and is resumed with the event's value (or the event's
    failure exception raised at the yield point).  The generator's return
    value becomes the process's event value.
    """

    __slots__ = ("name", "_generator", "_send", "_throw", "_waiting_on",
                 "_daemon")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = "", daemon: bool = False):
        Event.__init__(self, sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # Bound once: _resume runs once per processed event, so the two
        # attribute lookups per resume are worth hoisting.
        self._send = generator.send
        self._throw = generator.throw
        self._waiting_on: Optional[Event] = None
        # Daemon processes are fire-and-forget: the spawner drops the
        # handle, so the completion event can never be waited on and is
        # committed synchronously instead of through the heap.
        self._daemon = daemon
        # Bootstrap: resume the generator at time now.
        bootstrap = sim.pooled_event()
        bootstrap.callbacks.append(self._step)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        A process may not interrupt itself, and a finished process cannot
        be interrupted.
        """
        if self.triggered:
            raise RuntimeError(
                f"cannot interrupt finished process {self.name}")
        if self.sim._active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        # Detach from whatever event the process was waiting on.
        waited = self._waiting_on
        if waited is not None and waited.callbacks is not None:
            try:
                waited.callbacks.remove(self._step)
            except ValueError:
                pass
        self._waiting_on = None
        wakeup = Event(self.sim)
        wakeup.callbacks.append(
            lambda _evt: self._step_throw(Interrupt(cause)))
        wakeup.succeed()

    # -- internal stepping ------------------------------------------------
    #
    # `_step` is the resume callback of every event a process waits on,
    # so it runs the send path itself; a failed event or an interrupt
    # goes through `_resume_throw`.

    def _step(self, event: Event) -> None:
        exc = event._exception
        if exc is not None:
            self._resume_throw(exc)
            return
        value = event._value
        self._waiting_on = None
        sim = self.sim
        prev = sim._active_process
        sim._active_process = self
        try:
            target = self._send(None if value is _PENDING else value)
        except StopIteration as stop:
            sim._active_process = prev
            self._finish(stop.value)
            return
        except BaseException as err:
            sim._active_process = prev
            if sim.strict:
                raise
            self.fail(err)
            return
        sim._active_process = prev
        try:
            callbacks = target.callbacks
        except AttributeError:
            callbacks = None
        if callbacks is not None:
            self._waiting_on = target
            callbacks.append(self._step)
        else:
            self._park(target)

    def _step_throw(self, exc: BaseException) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return  # finished between interrupt and delivery
        self._resume_throw(exc)

    def _resume_throw(self, exc: BaseException) -> None:
        self._waiting_on = None
        sim = self.sim
        prev = sim._active_process
        sim._active_process = self
        try:
            target = self._throw(exc)
        except StopIteration as stop:
            sim._active_process = prev
            self._finish(stop.value)
            return
        except BaseException as err:
            sim._active_process = prev
            if sim.strict:
                raise
            self.fail(err)
            return
        sim._active_process = prev
        self._park(target)

    def _finish(self, value: Any) -> None:
        if self._daemon and not self.callbacks:
            # Nobody can observe a daemon's completion (the handle was
            # dropped at spawn), so trigger and mark processed without
            # a heap event.
            self._value = value
            self.callbacks = None
            return
        self.succeed(value)

    def _park(self, target: Any) -> None:
        """Wait on ``target``, the event the generator just yielded."""
        try:
            callbacks = target.callbacks
        except AttributeError:
            raise TypeError(
                f"process {self.name!r} yielded non-event {target!r}"
            ) from None
        if callbacks is not None:
            self._waiting_on = target
            callbacks.append(self._step)
            return
        # Already fired: re-inspect immediately on a fresh wakeup so we
        # don't recurse arbitrarily deep.  The wakeup is recorded as
        # `_waiting_on` so that interrupt() can detach the pending
        # `_step` callback; otherwise the generator would be resumed
        # twice (once with the value, once with Interrupt).
        sim = self.sim
        wakeup = sim.pooled_event()
        wakeup._value = target._value
        wakeup._exception = target._exception
        wakeup.callbacks.append(self._step)
        self._waiting_on = wakeup
        sim._seq += 1
        sim._nowq.append((sim.now, sim._seq, wakeup))


class Simulator:
    """The event loop: a clock plus a heap of scheduled events.

    ``strict`` controls error handling inside processes: when True
    (the default) an uncaught exception in any process aborts the run by
    propagating out of :meth:`run`, which is what tests want.

    ``events_processed`` counts every event dispatched by :meth:`run` /
    :meth:`step` -- the denominator of the simulator's own events/sec
    throughput metric (``repro profile``, ``benchmarks/microbench.py``).
    """

    def __init__(self, strict: bool = True):
        self.now: float = 0
        self.strict = strict
        self._heap: List[tuple] = []
        # Same-cycle batch queue: every zero-delay schedule (succeed/
        # fail bounces, wakeups, call_soon continuations) lands here
        # instead of the heap.  Entries are ``(time, seq, obj)`` exactly
        # like heap entries and are appended in seq order at the current
        # time, so the deque is always sorted; the run loop merges the
        # two sources by ``(time, seq)`` and drains everything scheduled
        # at ``now`` before touching the heap again.  Fast-path quiet-
        # window checks must treat a non-empty nowq as "events pending
        # at now" (see Resource.try_acquire).
        self._nowq: deque = deque()
        self._seq = 0
        self._active_process: Optional[Process] = None
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
        # Observability attachment points.  Instrumented components read
        # these and emit only when non-None (tracer additionally gated
        # per category via `wants`), so a bare simulator pays a single
        # attribute check per potential emission.  The harness attaches
        # a `repro.sim.trace.Tracer` / `repro.stats.metrics
        # .MetricsRegistry` when observability is requested; typed as
        # Any to keep the kernel free of upward imports.
        self.tracer: Optional[Any] = None
        self.metrics: Optional[Any] = None
        # Coherence-audit attachment point (repro.dsm.audit
        # .CoherenceAuditor): same contract as tracer/metrics -- pages
        # and protocols emit typed state-transition events only when
        # non-None, and the auditor itself is strictly passive (never
        # consumes sim RNG, never schedules events).
        self.audit: Optional[Any] = None

    # -- event construction helpers --------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "",
                daemon: bool = False) -> Process:
        return Process(self, generator, name=name, daemon=daemon)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

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
            cont = Continuation(self)
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
            cont = Continuation(self)
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

    # -- free-list pools ---------------------------------------------------

    def pooled_event(self) -> Event:
        """A bare event recycled into the free list once processed.

        For kernel-internal one-shot wakeups only: the caller must not
        retain the event past its processing, and must never hand it to
        user code or a :class:`_Condition`.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            event._value = _PENDING
            event._exception = None
            event._recycle = True
            return event
        event = Event(self)
        event._recycle = True
        return event

    def pooled_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A timeout recycled into the free list once processed.

        Same contract as :meth:`pooled_event`.  A pooled timeout that
        loses a race (its waiter was woken by something else) stays out
        of the pool until its heap entry drains, so reuse can never
        corrupt a scheduled entry.
        """
        pool = self._timeout_pool
        if not pool:
            timeout = Timeout(self, delay, value)
            timeout._recycle = True
            return timeout
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = pool.pop()
        timeout.callbacks = []
        timeout._value = _PENDING
        timeout._exception = None
        timeout._recycle = True
        timeout.delay = delay
        timeout._pending_value = value
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, timeout))
        return timeout

    def _recycle_event(self, event: Event) -> None:
        # ``_recycle`` is cleared on pool entry (and re-set on exit), so
        # a double dispatch of the same object -- the failure mode a
        # detached-waiter bug would produce -- cannot insert it twice.
        cls = event.__class__
        if cls is Event:
            if len(self._event_pool) < _POOL_MAX:
                event._recycle = False
                self._event_pool.append(event)
        elif cls is Timeout:
            if len(self._timeout_pool) < _POOL_MAX:
                event._recycle = False
                self._timeout_pool.append(event)
        elif cls is Continuation:
            if len(self._cont_pool) < _POOL_MAX:
                event._recycle = False
                self._cont_pool.append(event)

    # -- scheduling and the main loop -------------------------------------

    def _schedule(self, event: Event, delay: float = 0) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._seq += 1
        if delay == 0:
            self._nowq.append((self.now, self._seq, event))
        else:
            heappush(self._heap, (self.now + delay, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        nowq = self._nowq
        heap = self._heap
        if nowq:
            if heap and heap[0][0] < nowq[0][0]:
                return heap[0][0]
            return nowq[0][0]
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Process exactly one scheduled event."""
        nowq = self._nowq
        heap = self._heap
        if nowq and not (heap and heap[0] < nowq[0]):
            time, _seq, event = nowq.popleft()
        else:
            time, _seq, event = heapq.heappop(heap)
        if time < self.now:
            raise RuntimeError("time went backwards")
        self.now = time
        event._resume_waiters()
        self.events_processed += 1
        if event._recycle:
            self._recycle_event(event)

    def run(self, until: Any = None) -> Any:
        """Run until the heap drains, a time limit, or an event fires.

        ``until`` may be ``None`` (drain), a number (stop the clock there),
        or an :class:`Event` (stop when it triggers and return its value).

        One dispatch loop serves the event and drain shapes (draining
        waits on an event nothing triggers); the heap's time ordering
        makes the per-event monotonicity re-check redundant here (it
        stays in :meth:`step`, which a time limit steps through).
        """
        if until is not None and not isinstance(until, Event):
            stop_time = float(until)
            if stop_time < self.now:
                raise ValueError("until lies in the past")
            while self.peek() <= stop_time:
                self.step()
            self.now = stop_time
            return None
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
                if (stop_event._value is not _PENDING
                        or stop_event._exception is not None):
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
                # Continuations and timeouts -- nearly every dispatch --
                # are fired inline rather than through _resume_waiters.
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
                elif cls is Timeout:
                    if event._value is _PENDING \
                            and event._exception is None:
                        event._value = event._pending_value
                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    if event._recycle and len(timeout_pool) < _POOL_MAX:
                        event._recycle = False
                        timeout_pool.append(event)
                else:
                    event._resume_waiters()
                    if event._recycle and cls is Event \
                            and len(event_pool) < _POOL_MAX:
                        event._recycle = False
                        event_pool.append(event)
                processed += 1
        finally:
            self.events_processed += processed
        if stop_event._exception is not None:
            raise stop_event._exception
        if stop_event._value is not _PENDING:
            return stop_event._value
        if until is None:
            return None
        raise RuntimeError(
            "simulation ran out of events before `until` event fired")
