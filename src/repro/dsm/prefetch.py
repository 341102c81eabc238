"""Diff-prefetching heuristic and statistics (paper section 3.2).

The heuristic: at lock-acquire (and barrier-release) points, a page that
this node *cached and referenced* but that has just been (or remains)
invalidated is likely to be referenced again, so its diffs are requested
immediately instead of waiting for the access fault.  Write notices name
the processors that must supply the diffs.

The statistics mirror the paper's analysis: a prefetch is **useful** when
the page is referenced after the prefetched diffs arrive, **useless**
when the page is re-invalidated before any reference (or never referenced
again) -- the paper reports >85% useless prefetches for Water and Radix
-- and **late** when the access fault arrives while the prefetch is
still in flight (the fault then waits for it rather than re-requesting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.dsm.page import PageView, TmPage

__all__ = ["PrefetchStats", "should_prefetch", "note_prefetch"]


def note_prefetch(sim, node_id: int, action: str, page: int,
                  **extra: Any) -> None:
    """Guarded observability emission for one prefetch lifecycle event.

    ``action`` is one of ``issue`` / ``hit`` / ``useless`` / ``late``,
    mirroring the :class:`PrefetchStats` counters; both TreadMarks and
    AURC route their prefetch accounting through here so traces and
    metrics stay comparable across protocols.  Zero-cost when neither a
    tracer nor a registry is attached to ``sim``.
    """
    metrics = sim.metrics
    if metrics is not None:
        metrics.inc("prefetch_events", node=node_id, action=action)
    audit = sim.audit
    if audit is not None:
        # The auditor keys useless/useful classification to the request
        # tokens the issue leg carried, so `repro analyze` and the
        # paper's useless-prefetch counter agree on the same ids.
        audit.prefetch(node_id, action, page,
                       tokens=extra.get("tokens"))
    tracer = sim.tracer
    if tracer is not None and tracer.wants("prefetch"):
        extra.pop("tokens", None)
        tracer.emit("prefetch", node=node_id, action=action, page=page,
                    **extra)


@dataclass
class PrefetchStats:
    """Counters for prefetch effectiveness analysis."""

    issued: int = 0          # prefetch operations (one per page)
    diff_requests: int = 0   # diff requests sent on behalf of prefetches
    useful: int = 0          # page referenced after prefetch completed
    useless: int = 0         # re-invalidated or never referenced
    late: int = 0            # fault waited on an in-flight prefetch
    lead_cycles_total: float = 0.0   # issue -> first use, for useful ones

    @property
    def completed(self) -> int:
        return self.useful + self.useless

    def useless_fraction(self) -> float:
        done = self.completed
        return self.useless / done if done else 0.0

    def mean_lead_cycles(self) -> float:
        return (self.lead_cycles_total / self.useful) if self.useful else 0.0


def should_prefetch(page_state: PageView) -> bool:
    """The paper's heuristic: cached, referenced, now invalid, not already
    being prefetched."""
    return (page_state.has_frame
            and page_state.referenced
            and not page_state.is_valid()
            and page_state.prefetch_event is None)


# The adaptive strategy gives up on a page after this many consecutive
# useless prefetches; a demand fault on the page resets the streak (it
# clearly is being used again).
ADAPTIVE_USELESS_LIMIT = 2


def should_prefetch_adaptive(page_state: TmPage) -> bool:
    """An adaptive refinement (the paper's future work, explored in
    Bianchini et al.'s tech report ES-401/96): also require the page's
    recent prefetch history not to be a string of misfires."""
    return (should_prefetch(page_state)
            and page_state.pf_useless_streak < ADAPTIVE_USELESS_LIMIT)
