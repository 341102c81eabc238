"""Reference implementations the one-slot port and the controller's own
command heap are tested against.

``Request``/``Resource`` are ``repro.sim.resources``' general FIFO
server as it was before ports became one-slot (capacity, a ``users``
list, a ``Request`` event per acquisition), and ``Store``/
``PriorityStore`` the queue the protocol controller served its commands
from, all kept verbatim apart from the fused-burst helpers
(``acquire``, ``account_uncontended``) no reference schedule calls.
:class:`OracleController` is ``ProtocolController`` with its queue-facing
methods (``submit``, ``_deferred_put``, ``_serve_next``, ``_on_cmd``)
restored verbatim over a ``PriorityStore``; command execution
(``_begin``, ``_drive``, ``_complete``) is the controller's own, which
that change did not touch.  Driving one schedule through a reference and
through the production class must land every event on the same
``(time, seq)`` slot.

The ``Oracle*`` kernel classes at the end are ``repro.sim.engine``'s
succeed path as it was before the kernel became succeed-only: the
``run`` loop, ``Event.succeed``, ``Timeout``, ``_Condition``/``AllOf``,
``Process._step``/``_park`` with its hand-copied wakeup for an
already-processed target, the pools and the continuations, plus
``ProtocolController``'s own copy of that wakeup in
:class:`OracleDrive`.  They are kept verbatim apart from the paths a
succeed-only schedule cannot reach (``fail``, interrupts, a numeric
``until``) and the class renames; ``tests/sim/test_kernel_oracle.py``
drives random schedules through them and through the kernel.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional

from repro.hardware.controller import (
    PRIORITY_URGENT,
    Command,
    ProtocolController,
)
from repro.sim import Event, Simulator
from repro.sim.engine import _POOL_MAX, _PENDING


class Request(Event):
    """Pending acquisition of a resource slot; fires when granted."""

    __slots__ = ("resource", "priority", "requested_at", "granted_at")

    def __init__(self, resource: "Resource", priority: int = 0):
        sim = resource.sim
        # Inlined Event.__init__ (hot path: one Request per bus/memory/
        # link acquisition).
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._recycle = False
        self.resource = resource
        self.priority = priority
        self.requested_at = sim.now
        self.granted_at: Optional[float] = None


class Resource:
    """A FIFO server with ``capacity`` simultaneous users.

    Statistics:

    * ``busy_time`` -- integral of (users in service) over time, i.e.
      total service received; divide by elapsed time and capacity for
      utilization.
    * ``wait_time`` -- total time requests spent queued before grant.
    * ``total_requests`` -- number of grants issued.
    * ``peak_queue_length`` -- high-water mark of requests left waiting
      after a grant pass (uncontended requests never count).
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self._queue: Deque[Request] = deque()
        self.busy_time: float = 0.0
        self.wait_time: float = 0.0
        self.total_requests: int = 0
        self.peak_queue_length: int = 0
        self._last_change: float = sim.now

    # -- statistics -------------------------------------------------------

    def _account(self) -> None:
        now = self.sim.now
        self.busy_time += len(self.users) * (now - self._last_change)
        self._last_change = now

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of capacity-time spent busy over ``elapsed`` (or now)."""
        self._account()
        span = elapsed if elapsed is not None else self.sim.now
        if span <= 0:
            return 0.0
        return self.busy_time / (span * self.capacity)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # -- acquire/release ---------------------------------------------------

    def request(self, priority: int = 0) -> Request:
        req = Request(self, priority)
        self._enqueue(req)
        self._grant()
        # Record the peak only after the grant pass: an uncontended
        # request is granted immediately and never waited, so it must
        # not register a queue of length >= 1.  (PriorityResource
        # shares this path; its overridden queue_length sees the heap.)
        self.peak_queue_length = max(self.peak_queue_length,
                                     self.queue_length)
        return req

    def try_acquire(self, priority: int = 0) -> Optional[Request]:
        """Claim a free slot synchronously when provably safe, else None.

        Plain-call fast path: when the slot is free *and* no other event
        is pending at the current timestamp (so nothing could have
        interleaved with the grant hop anyway), the slot is claimed
        without scheduling a grant event -- one fewer event and one
        fewer process resume, with identical statistics and identical
        relative event ordering.  The returned request is released with
        :meth:`release` exactly as a granted :meth:`request`.  Hot
        callers use this directly to skip the generator machinery of
        :meth:`acquire`.
        """
        users = self.users
        if self.queue_length == 0 and len(users) < self.capacity:
            sim = self.sim
            heap = sim._heap
            now = sim.now
            if not sim._nowq and (not heap or heap[0][0] > now):
                req = Request(self, priority)
                self.busy_time += len(users) * (now - self._last_change)
                self._last_change = now
                users.append(req)
                req.granted_at = now
                self.total_requests += 1
                req._value = req  # granted; never scheduled, never waited
                return req
        return None

    def release(self, request: Request) -> None:
        users = self.users
        if request not in users:
            raise RuntimeError(
                f"releasing a request not in service: {request}")
        now = self.sim.now
        self.busy_time += len(users) * (now - self._last_change)
        self._last_change = now
        users.remove(request)
        self._grant()

    def _enqueue(self, req: Request) -> None:
        self._queue.append(req)

    def _pop(self) -> Request:
        return self._queue.popleft()

    def _grant(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            req = self._pop()
            self._account()
            self.users.append(req)
            req.granted_at = self.sim.now
            self.wait_time += req.granted_at - req.requested_at
            self.total_requests += 1
            req.succeed(req)


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks (command queues in the controller DRAM are large
    relative to demand); ``get`` returns an event that fires with the next
    item.  ``peak_size`` records the high-water mark for reporting.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.peak_size = 0
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self.total_puts += 1
        self._items.append(item)
        self.peak_size = max(self.peak_size, len(self._items))
        self._dispatch()

    def get(self) -> Event:
        event = Event(self.sim)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self) -> Optional[Any]:
        """Take the next item synchronously when provably safe, else None.

        Plain-call fast path mirroring :meth:`Resource.try_acquire`:
        when an item is already queued, no earlier getter is waiting,
        and no other event is pending at the current timestamp, the
        item is taken synchronously -- the dispatch event could not
        have interleaved with anything, so ordering is identical.
        Unsuitable for stores whose items may legitimately be None.
        """
        if len(self) and not self._getters:
            sim = self.sim
            heap = sim._heap
            if not sim._nowq and (not heap or heap[0][0] > sim.now):
                return self._next_item()
        return None

    def _next_item(self) -> Any:
        return self._items.popleft()

    def _dispatch(self) -> None:
        while self._items and self._getters:
            getter = self._getters.popleft()
            getter.succeed(self._next_item())


class PriorityStore(Store):
    """A store whose items are served lowest-priority-value first.

    ``put`` takes an explicit priority; ties break by insertion order so
    the queue stays FIFO within a priority level.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        super().__init__(sim, name)
        self._heap: List[tuple] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def put(self, item: Any,
            priority: int = 0) -> None:  # type: ignore[override]
        self.total_puts += 1
        self._seq += 1
        heapq.heappush(self._heap, (priority, self._seq, item))
        self.peak_size = max(self.peak_size, len(self._heap))
        self._dispatch()

    def _next_item(self) -> Any:
        return heapq.heappop(self._heap)[2]

    def depth_by_priority(self) -> Dict[int, int]:
        """Current queue depth per priority level (for the sampler)."""
        out: Dict[int, int] = {}
        for priority, _seq, _item in self._heap:
            out[priority] = out.get(priority, 0) + 1
        return out

    def _dispatch(self) -> None:
        while self._heap and self._getters:
            getter = self._getters.popleft()
            getter.succeed(self._next_item())


class OracleController(ProtocolController):
    """``ProtocolController`` serving its commands from a ``PriorityStore``."""

    def __init__(self, sim: Simulator, params, pci, memory, node_id: int):
        super().__init__(sim, params, pci, memory, node_id)
        self.queue = PriorityStore(sim, name=f"ctrl-q{node_id}")

    def depth_by_priority(self) -> Dict[int, int]:
        return self.queue.depth_by_priority()

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
            self.sim.process(self._deferred_put(cmd), daemon=True)
            return done
        self.queue.put(cmd, priority=priority)
        return done

    def _deferred_put(self, cmd: Command):
        spec = self.faults.spec
        while len(self.queue) >= spec.ctrl_queue_limit:
            yield self.sim.pooled_timeout(spec.ctrl_retry_cycles)
        self.queue.put(cmd, priority=cmd.priority)

    def _serve_next(self, _evt=None) -> None:
        cmd = self.queue.try_get()
        if cmd is None:
            getter = self.queue.get()
            getter.callbacks.append(self._on_cmd)
            return
        self._begin(cmd)

    def _on_cmd(self, event: Event) -> None:
        self._begin(event._value)


# -- the kernel before it became succeed-only -----------------------------


class OracleEvent:
    """``Event`` as it was, without ``fail``."""

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_recycle")

    def __init__(self, sim: "OracleSimulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._recycle = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("event value accessed before it triggered")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0) -> "OracleEvent":
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

    def _resume_waiters(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


class OracleTimeout(OracleEvent):
    """``Timeout`` as it was: the value is committed when it fires."""

    __slots__ = ("delay", "_pending_value")

    def __init__(self, sim: "OracleSimulator", delay: float,
                 value: Any = None):
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
        heapq.heappush(sim._heap, (sim.now + delay, sim._seq, self))

    def _resume_waiters(self) -> None:
        if self._value is _PENDING and self._exception is None:
            self._value = self._pending_value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


class _OracleConditionValue:
    __slots__ = ("events", "_event_set")

    def __init__(self, events):
        self.events = list(events)
        self._event_set = None


class _OracleCondition(OracleEvent):
    """``_Condition`` as it was."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "OracleSimulator", events):
        OracleEvent.__init__(self, sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(_OracleConditionValue(()))
            return
        for event in self.events:
            if self._value is not _PENDING or self._exception is not None:
                break
            if event.callbacks is None:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

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
            raise AssertionError("a succeed-only schedule failed an event")
        self.succeed(_OracleConditionValue(events))
        on_child = self._on_child
        for e in events:
            callbacks = e.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(on_child)
                except ValueError:
                    pass


class OracleAllOf(_OracleCondition):
    """``AllOf`` as it was."""

    __slots__ = ()

    def _on_child(self, event: OracleEvent) -> None:
        self._remaining -= 1
        if self._remaining == 0 or event._exception is not None:
            self._finish()


class OracleContinuation:
    """``Continuation`` as it was."""

    __slots__ = ("sim", "fn", "args", "_recycle")

    def __init__(self, sim: "OracleSimulator"):
        self.sim = sim
        self.fn: Optional[Callable] = None
        self.args: tuple = ()
        self._recycle = True


class OracleProcess(OracleEvent):
    """``Process`` as it was: ``_step``, ``_finish`` and ``_park``."""

    __slots__ = ("name", "_generator", "_send", "_throw", "_waiting_on",
                 "_daemon")

    def __init__(self, sim: "OracleSimulator", generator: Generator,
                 name: str = "", daemon: bool = False):
        OracleEvent.__init__(self, sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._waiting_on: Optional[OracleEvent] = None
        self._daemon = daemon
        bootstrap = sim.pooled_event()
        bootstrap.callbacks.append(self._step)
        bootstrap.succeed()

    def _step(self, event: OracleEvent) -> None:
        if event._exception is not None:
            raise AssertionError("a succeed-only schedule failed an event")
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

    def _finish(self, value: Any) -> None:
        if self._daemon and not self.callbacks:
            self._value = value
            self.callbacks = None
            return
        self.succeed(value)

    def _park(self, target: Any) -> None:
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
        sim = self.sim
        wakeup = sim.pooled_event()
        wakeup._value = target._value
        wakeup._exception = target._exception
        wakeup.callbacks.append(self._step)
        self._waiting_on = wakeup
        sim._seq += 1
        sim._nowq.append((sim.now, sim._seq, wakeup))


class OracleSimulator:
    """``Simulator`` as it was: pools, continuations and the run loop."""

    def __init__(self):
        self.now: float = 0
        self._heap: List[tuple] = []
        self._nowq: deque = deque()
        self._seq = 0
        self._active_process: Optional[OracleProcess] = None
        self.events_processed: int = 0
        self._event_pool: List[OracleEvent] = []
        self._timeout_pool: List[OracleTimeout] = []
        self._cont_pool: List[OracleContinuation] = []

    def timeout(self, delay: float, value: Any = None) -> OracleTimeout:
        return OracleTimeout(self, delay, value)

    def process(self, generator: Generator, name: str = "",
                daemon: bool = False) -> OracleProcess:
        return OracleProcess(self, generator, name=name, daemon=daemon)

    def call_soon(self, fn: Callable, *args: Any) -> None:
        pool = self._cont_pool
        if pool:
            cont = pool.pop()
            cont._recycle = True
        else:
            cont = OracleContinuation(self)
        cont.fn = fn
        cont.args = args
        self._seq += 1
        self._nowq.append((self.now, self._seq, cont))

    def call_in(self, delay: float, fn: Callable, *args: Any) -> None:
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
            cont = OracleContinuation(self)
        cont.fn = fn
        cont.args = args
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, cont))

    def pooled_event(self) -> OracleEvent:
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            event._value = _PENDING
            event._exception = None
            event._recycle = True
            return event
        event = OracleEvent(self)
        event._recycle = True
        return event

    def pooled_timeout(self, delay: float,
                       value: Any = None) -> OracleTimeout:
        pool = self._timeout_pool
        if not pool:
            timeout = OracleTimeout(self, delay, value)
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
        heapq.heappush(self._heap, (self.now + delay, self._seq, timeout))
        return timeout

    def _schedule(self, event: OracleEvent, delay: float = 0) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._seq += 1
        if delay == 0:
            self._nowq.append((self.now, self._seq, event))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, event))

    def run(self, until: Any = None) -> Any:
        stop_event = OracleEvent(self) if until is None else until
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
                cls = event.__class__
                if cls is OracleContinuation:
                    fn = event.fn
                    args = event.args
                    event.fn = None
                    event.args = ()
                    fn(*args)
                    if event._recycle and len(cont_pool) < _POOL_MAX:
                        event._recycle = False
                        cont_pool.append(event)
                elif cls is OracleTimeout:
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
                    if event._recycle and cls is OracleEvent \
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


class OracleDrive:
    """``ProtocolController._drive``/``_work_step`` as they were: step a
    work generator, hand-copying ``Process._park``'s wakeup when it
    yields an already-processed event.  ``on_return`` stands in for
    ``_complete``."""

    def __init__(self, sim, gen: Generator, on_return: Callable):
        self.sim = sim
        self._work_gen = gen
        self._complete = on_return

    def _drive(self, value, exc) -> None:
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
            wakeup = sim.pooled_event()
            wakeup._value = target._value
            wakeup._exception = target._exception
            wakeup.callbacks.append(self._work_step)
            sim._seq += 1
            sim._nowq.append((sim.now, sim._seq, wakeup))
            return

    def _work_step(self, event) -> None:
        exc = event._exception
        if exc is None:
            value = event._value
            self._drive(None if value is _PENDING else value, None)
        else:
            self._drive(None, exc)
