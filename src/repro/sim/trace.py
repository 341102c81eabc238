"""The one observability call of the model: :meth:`Tracer.emit`.

Every instrumented site in ``hardware/``, ``dsm/`` and ``faults/``
reports with one ``tracer.emit(category, **fields)``, guarded only by
``if sim.tracer is not None`` -- a bare simulator has no tracer, so an
unobserved run pays one attribute check per site.  Each event goes to
two consumers:

* an attached :class:`~repro.stats.metrics.MetricsRegistry`
  (``registry``) folds it into counters and histograms;
* with ``record`` set, events of the :data:`DEFAULT_CATEGORIES` are
  kept as :class:`TraceEvent` objects for the exporters and the causal
  analysis.  Other categories only feed the registry.

Typical use::

    tracer = Tracer(sim)
    sim.tracer = tracer
    ...
    tracer.emit("fault", node=3, page=17, action="read")
    ...
    for event in tracer.select(category="fault", node=3):
        print(event)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.sim.engine import Simulator

__all__ = ["TraceEvent", "Tracer", "DEFAULT_CATEGORIES"]

# The categories a recording tracer keeps -- everything `repro run
# --trace` writes.  "req" carries the request-lifecycle legs (issue /
# svc / done) that stats/causal.py stitches into spans.
DEFAULT_CATEGORIES = frozenset((
    "fault", "diff", "notice", "prefetch", "lock", "barrier", "ctrl",
    "msg", "net", "au", "req", "retx"))


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence."""

    time: float
    category: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        # Underscore/dunder lookups (pickle's __reduce_ex__ probes,
        # copy's __deepcopy__, ...) must never resolve through
        # `self.payload`: during unpickling/copying `payload` is not yet
        # set, and `self.payload` would re-enter __getattr__ forever.
        if name.startswith("_") or name == "payload":
            raise AttributeError(name)
        try:
            return self.payload[name]
        except KeyError:
            raise AttributeError(name) from None

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.payload.items())
        return f"[{self.time:>12.1f}] {self.category:12s} {details}"


class Tracer:
    """Folds emitted events into ``registry`` and records them."""

    def __init__(self, sim: Optional[Simulator],
                 limit: Optional[int] = None, record: bool = True,
                 registry: Optional[Any] = None):
        # ``sim=None`` builds an unbound tracer; run_app binds it to the
        # run's simulator, letting callers hold the tracer before the
        # run starts (and flush a partial trace if the run dies).
        self.sim = sim
        self.limit = limit
        self.record = record
        self.registry = registry
        self.events: List[TraceEvent] = []
        self.dropped = 0

    def emit(self, category: str, **payload: Any) -> None:
        """Fold the event into the registry, then record it."""
        registry = self.registry
        if registry is not None:
            registry.fold(category, payload)
        if not self.record or category not in DEFAULT_CATEGORIES:
            return
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(TraceEvent(self.sim.now, category, payload))

    def select(self, category: Optional[str] = None,
               since: float = 0.0, **match: Any) -> Iterator[TraceEvent]:
        """Iterate recorded events matching category/time/payload filters."""
        for event in self.events:
            if category is not None and event.category != category:
                continue
            if event.time < since:
                continue
            if any(event.payload.get(k) != v for k, v in match.items()):
                continue
            yield event

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.category] = out.get(event.category, 0) + 1
        return out
