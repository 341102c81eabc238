"""Contended one-owner ports for the simulation kernel.

:class:`Resource` is a FIFO server with a single slot: every contended
resource the machine model builds -- a node's PCI bus, its DRAM port,
each directed mesh link -- has exactly one owner at a time.  Callers
claim the slot with :meth:`Resource.try_acquire` (synchronous, when
nothing could interleave) or :meth:`Resource.request` (an event that
fires on grant) and hand the returned token back to
:meth:`Resource.release`, or hold it for a fixed :meth:`Resource.burst`.
Utilization and queueing statistics report bus, memory and network
contention.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.engine import _PENDING, Event, Simulator, _Waiter

__all__ = ["Resource"]


class Request(Event):
    """Pending acquisition of a resource slot; fires (value None) when
    granted.  The request itself is the token :meth:`Resource.release`
    takes: it never refers to itself, so refcounting frees it."""

    __slots__ = ("requested_at",)

    def __init__(self, sim: Simulator):
        # Inlined Event.__init__ (one Request per contended acquisition).
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._recycle = False
        self.requested_at = sim.now


class Resource:
    """A one-slot FIFO server.

    ``holder`` is the token of the current owner (None when idle): the
    granted :class:`Request`, or the fresh token :meth:`try_acquire`
    returns.  :meth:`release` checks it by identity, so releasing a
    slot one does not hold -- or releasing twice -- raises.

    Statistics:

    * ``busy_time`` -- total time the slot was held; divide by elapsed
      time for utilization.
    * ``wait_time`` -- total time requests spent queued before grant.
    * ``total_requests`` -- number of grants issued.
    * ``peak_queue_length`` -- high-water mark of requests left waiting
      (uncontended requests never count).
    """

    __slots__ = ("sim", "name", "holder", "_queue", "busy_time",
                 "wait_time", "total_requests", "peak_queue_length",
                 "_last_change", "_burst", "_end")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self.holder: Any = None
        self._queue: deque = deque()
        self.busy_time: float = 0.0
        self.wait_time: float = 0.0
        self.total_requests: int = 0
        self.peak_queue_length: int = 0
        self._last_change: float = sim.now
        # Token of the burst in service (one slot holds at most one),
        # and the callback that ends it, bound once: a burst allocates
        # as few collectable objects as the generator it replaced.
        self._burst: Any = None
        self._end = self._end_burst

    # -- statistics -------------------------------------------------------

    def _account(self) -> None:
        # ``_last_change`` is the instant since which the holder's busy
        # time is unaccounted; it is only read while the slot is held.
        if self.holder is not None:
            now = self.sim.now
            self.busy_time += now - self._last_change
            self._last_change = now

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time spent busy over ``elapsed`` (or now)."""
        self._account()
        span = elapsed if elapsed is not None else self.sim.now
        if span <= 0:
            return 0.0
        return self.busy_time / span

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # -- acquire/release ---------------------------------------------------

    def request(self) -> Request:
        """Queue for the slot; the returned event fires when granted.

        A free slot is granted at once, but through a scheduled event,
        so the requester resumes in the next ``(now, seq)`` slot.
        """
        req = Request(self.sim)
        if self.holder is None:
            self._grant(req)
        else:
            queue = self._queue
            queue.append(req)
            if len(queue) > self.peak_queue_length:
                self.peak_queue_length = len(queue)
        return req

    def try_acquire(self) -> Any:
        """Claim the free slot synchronously when provably safe, else None.

        When the slot is free *and* no other event is pending at the
        current timestamp (so nothing could have interleaved with a
        grant event anyway), the slot is claimed without scheduling or
        allocating one -- identical statistics and identical relative
        event ordering.  The returned token is handed to
        :meth:`release` exactly like a granted :meth:`request`.
        """
        if self.holder is None:
            sim = self.sim
            if not sim._nowq:
                heap = sim._heap
                now = sim.now
                if not heap or heap[0][0] > now:
                    token = self.holder = object()
                    self._last_change = now
                    self.total_requests += 1
                    return token
        return None

    def release(self, token: Any) -> None:
        """Give the slot back; the next queued request is granted."""
        if token is not self.holder or token is None:
            raise RuntimeError(
                f"releasing a request not in service: {token}")
        self.busy_time += self.sim.now - self._last_change
        queue = self._queue
        if queue:
            self._grant(queue.popleft())
        else:
            self.holder = None

    def burst(self, cycles: float) -> Event:
        """Claim the slot, hold it ``cycles`` and release it; returns the
        event the burst ends on, which fires right after the release.

        Generator code yields the event, a state struct appends its next
        step to ``callbacks``.  Uncontended it is the occupancy's pooled
        timeout; contended, a synchronously firing waiter (as in
        ``Simulator.await_k``) called by the timeout started at grant --
        the ``(time, seq)`` slots of "acquire, yield
        ``pooled_timeout(cycles)``, release".  The event is single-use
        and its value meaningless: yield it or append to it at once,
        never keep it or hand it to an ``AllOf`` or an interruptible
        ``ComputeProcessor.wait``.
        """
        token = self.try_acquire()
        if token is not None:
            self._burst = token
            hop = self.sim.pooled_timeout(cycles)
            hop.callbacks.append(self._end)
            return hop
        waiter = _BurstWaiter(self, cycles)
        self.request().callbacks.append(waiter.granted)
        return waiter

    def _end_burst(self, _hop: Event) -> None:
        token = self._burst
        self._burst = None
        self.release(token)

    def _grant(self, req: Request) -> None:
        now = self.sim.now
        self._last_change = now
        self.holder = req
        self.wait_time += now - req.requested_at
        self.total_requests += 1
        req.succeed()


class _BurstWaiter(_Waiter):
    """The waiter a contended burst returns: its grant starts the
    occupancy, whose timeout releases the port and then calls it."""

    __slots__ = ("port", "cycles")

    def __init__(self, port: Resource, cycles: float):
        Event.__init__(self, port.sim)
        self.port = port
        self.cycles = cycles

    def granted(self, req: Request) -> None:
        port = self.port
        port._burst = req
        port.sim.pooled_timeout(self.cycles).callbacks += (port._end, self)
