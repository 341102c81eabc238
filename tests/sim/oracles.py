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
from repro.sim.engine import _PENDING


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
        self._exception = None
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

    def _serve_next(self, _evt=None) -> None:
        cmd = self.queue.try_get()
        if cmd is None:
            getter = self.queue.get()
            getter.callbacks.append(self._on_cmd)
            return
        self._begin(cmd)

    def _on_cmd(self, event: Event) -> None:
        self._begin(event._value)
