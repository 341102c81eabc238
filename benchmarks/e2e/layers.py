"""Host-time share per simulator layer, from ``cProfile`` run from here.

``tottime`` is grouped by ``src/repro/<package>/<module>.py``.  Time in
code outside the package (``array.index``, ``heapq``, numpy, json) is
charged to the layer that called it: exactly for a direct caller (the
pstats callers table splits a function's own time by caller), and in
proportion to cumulative time further up.  What reaches the benchmark's
own frames unowned is ``other``.

Only shares and call counts leave this module.  cProfile charges a
fixed cost per call and nothing inside native code, so totals are
inflated about 2.7x and call-heavy layers look bigger than they are;
``trace.overhead_ratio`` says by how much the run as a whole grew.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Callable, Dict, Optional, Tuple

from benchmarks.e2e import SRC

__all__ = ["LAYERS", "MODULES", "LayerProfile", "SRC_ROOT"]

SRC_ROOT = os.path.join(SRC, "repro") + os.sep

LAYERS = ("sim", "hardware", "dsm", "apps", "stats", "harness")

# Modules reported on their own: the ones the ROADMAP's open items name.
MODULES = (
    ("sim", "engine"), ("sim", "resources"),
    ("hardware", "nic"), ("hardware", "network"),
    ("hardware", "controller"), ("hardware", "topology"),
    ("hardware", "node"),
    ("dsm", "compact"), ("dsm", "aurc"), ("dsm", "treadmarks"),
    ("dsm", "page"),
)

Site = Tuple[str, str]     # (layer, module)


def _site(func) -> Optional[Site]:
    filename = func[0]
    if not filename.startswith(SRC_ROOT):
        return None
    parts = filename[len(SRC_ROOT):].split(os.sep)
    if len(parts) != 2 or parts[0] not in LAYERS:
        return None
    return parts[0], parts[1][:-len(".py")]


class LayerProfile:
    """Accumulates own-time and calls per (layer, module) over runs."""

    def __init__(self):
        self.seconds: Dict[Site, float] = {}
        self.calls: Dict[Site, int] = {}
        self.total = 0.0
        self.profiled_seconds = 0.0

    def run(self, fn: Callable[[], object]):
        """Call ``fn`` under cProfile; fold its stats in; return its
        value and this call's own :class:`LayerProfile`."""
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        try:
            value = fn()
        finally:
            profile.disable()
        elapsed = time.perf_counter() - start
        one = LayerProfile()
        one.profiled_seconds = elapsed
        one._fold(pstats.Stats(profile).stats)
        self.merge(one)
        return value, one

    def merge(self, other: "LayerProfile") -> None:
        for site, seconds in other.seconds.items():
            self.seconds[site] = self.seconds.get(site, 0.0) + seconds
        for site, calls in other.calls.items():
            self.calls[site] = self.calls.get(site, 0) + calls
        self.total += other.total
        self.profiled_seconds += other.profiled_seconds

    def _fold(self, stats: dict) -> None:
        memo: Dict[tuple, Dict[Site, float]] = {}

        def owners(func, trail) -> Dict[Site, float]:
            site = _site(func)
            if site is not None:
                return {site: 1.0}
            if func in memo:
                return memo[func]
            out: Dict[Site, float] = {}
            if func not in trail and func in stats:
                callers = stats[func][4]
                total = sum(row[3] for row in callers.values())
                if total > 0:
                    for caller, row in callers.items():
                        up = owners(caller, trail | {func})
                        for owner, share in up.items():
                            out[owner] = (out.get(owner, 0.0)
                                          + share * row[3] / total)
            memo[func] = out
            return out

        for func, (_cc, ncalls, own, _ct, callers) in stats.items():
            self.total += own
            site = _site(func)
            if site is not None:
                self.seconds[site] = self.seconds.get(site, 0.0) + own
                self.calls[site] = self.calls.get(site, 0) + ncalls
                continue
            for caller, row in callers.items():
                for owner, share in owners(caller, frozenset()).items():
                    self.seconds[owner] = (self.seconds.get(owner, 0.0)
                                           + row[2] * share)

    def layer_share(self, layer: str) -> float:
        if not self.total:
            return 0.0
        return sum(seconds for (name, _), seconds in self.seconds.items()
                   if name == layer) / self.total

    def metrics(self) -> Dict[str, float]:
        """``<layer>.self_share`` / ``.calls`` plus the named modules."""
        out: Dict[str, float] = {}
        owned = 0.0
        for layer in LAYERS:
            share = self.layer_share(layer)
            owned += share
            out[f"{layer}.self_share"] = share
            out[f"{layer}.calls"] = float(sum(
                calls for (name, _), calls in self.calls.items()
                if name == layer))
        out["other.self_share"] = max(0.0, 1.0 - owned) \
            if self.total else 0.0
        for site in MODULES:
            out[f"{site[0]}.{site[1]}.self_share"] = (
                self.seconds.get(site, 0.0) / self.total
                if self.total else 0.0)
        out["dsm.compact.calls"] = float(
            self.calls.get(("dsm", "compact"), 0))
        return out
