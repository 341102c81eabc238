"""Contended resources and message queues for the simulation kernel.

Two families:

* :class:`Resource` / :class:`PriorityResource` -- a server with fixed
  capacity.  Processes ``yield resource.request()`` to acquire a slot and
  call ``resource.release(req)`` when done.  Both record utilization and
  queueing statistics, which the reproduction uses to report bus, memory,
  and network contention.
* :class:`Store` / :class:`PriorityStore` -- unbounded item queues used
  for protocol-controller command queues and NIC message queues.  The
  priority variant is what lets the controller serve urgent commands
  ahead of prefetches (paper section 3.1, footnote 2).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.sim.engine import _PENDING, Event, Simulator

__all__ = ["Resource", "PriorityResource", "Store", "PriorityStore",
           "fused_burst"]


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

    def acquire(self, priority: int = 0):
        """Generator: request a slot and wait for the grant.

        Uses :meth:`try_acquire` when safe; otherwise falls back to the
        event-based :meth:`request`.  Callers use ``req = yield from
        res.acquire()`` and ``res.release(req)``.
        """
        req = self.try_acquire(priority)
        if req is None:
            req = self.request(priority)
            yield req
        return req

    def account_uncontended(self, cycles: float) -> None:
        """Account a burst that provably ran alone (no request event).

        Caller contract: the resource was idle for the burst's whole
        window, and no other event ran inside it (strict quiet window),
        so nothing could have observed or contended the slot.  The
        busy-time integral, request count, and wait statistics all
        match an acquire/hold/release of ``cycles`` exactly.
        """
        now = self.sim.now
        self.busy_time += len(self.users) * (now - self._last_change)
        self._last_change = now
        self.busy_time += cycles
        self.total_requests += 1

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


def fused_burst(sim: Simulator, segments) -> Optional[Event]:
    """Fuse a sequence of resource-held bursts into one pooled timeout.

    ``segments`` is a sequence of ``(resource_or_None, cycles)`` pairs
    describing back-to-back bursts (a ``None`` resource is plain
    occupancy, e.g. software overhead before a bus grab).  When every
    named resource is idle with an empty queue *and* no other event is
    scheduled strictly inside the combined window, the sequence is
    provably equivalent to a single timeout: nothing can run that would
    observe an intermediate boundary, contend a port, or post a service.
    Each resource is then accounted exactly as acquire/hold/release
    would have (see :meth:`Resource.account_uncontended`) and the fused
    timeout is returned for the caller to yield.  Returns None when the
    fast path does not apply; the caller must fall back to the
    event-per-burst path.
    """
    total = 0.0
    for resource, cycles in segments:
        if resource is not None and (resource.users
                                     or resource.queue_length):
            return None
        total += cycles
    if total <= 0:
        return None
    heap = sim._heap
    if sim._nowq or (heap and heap[0][0] <= sim.now + total):
        return None
    for resource, cycles in segments:
        if resource is not None:
            resource.account_uncontended(cycles)
    return sim.pooled_timeout(total)


class PriorityResource(Resource):
    """A resource whose queue is ordered by (priority, arrival).

    Lower ``priority`` values are served first, matching the controller
    convention that urgent commands are priority 0 and prefetches are
    priority 1.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        super().__init__(sim, capacity, name)
        self._pqueue: List[tuple] = []
        self._seq = 0

    def _enqueue(self, req: Request) -> None:
        self._seq += 1
        heapq.heappush(self._pqueue, (req.priority, self._seq, req))

    def _pop(self) -> Request:
        return heapq.heappop(self._pqueue)[2]

    @property
    def queue_length(self) -> int:
        return len(self._pqueue)

    def _grant(self) -> None:
        while self._pqueue and len(self.users) < self.capacity:
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
