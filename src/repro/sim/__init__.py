"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the style
of SimPy, cut down to what the machine model uses.  Application and
hardware components are *processes*: Python generators that yield
:class:`Event` objects (timeouts, resource grants, other processes) and
are resumed with their values when those events fire.  Hot paths skip
the generator and schedule bound callbacks (:class:`Continuation`).

Events only ever succeed; an exception inside a process propagates out of
:meth:`Simulator.run`, the one dispatch loop.

Public surface:

* :class:`Simulator` -- the event loop and clock.
* :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AllOf` --
  waitable objects.
* :class:`Continuation` -- a scheduled callback (``Simulator.call_soon``
  / ``call_in``).
* :class:`Resource` -- a contended one-owner port with utilization
  statistics.
"""

from repro.sim.engine import (
    AllOf,
    Continuation,
    Event,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "Continuation",
    "Event",
    "Process",
    "Resource",
    "Simulator",
    "Timeout",
]
