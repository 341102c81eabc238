"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the style
of SimPy, purpose-built for this reproduction.  Application and hardware
components are *processes*: Python generators that yield :class:`Event`
objects (timeouts, resource requests, other processes) and are resumed
when those events fire.

Public surface:

* :class:`Simulator` -- the event loop and clock.
* :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AnyOf`,
  :class:`AllOf` -- waitable objects.
* :class:`Interrupt` -- exception thrown into an interrupted process.
* :class:`Resource` -- a contended one-owner port with utilization
  statistics.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Continuation,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Continuation",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "Simulator",
    "Timeout",
]
