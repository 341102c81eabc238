"""Periodic time-series sampling of the machine's contended resources.

The paper's argument is about *where cycles go over time* -- controller
occupancy during computation phases, prefetch bursts congesting links
right after a barrier, queue depth spikes when urgent commands pile up
behind a DMA scan.  End-of-run scalars cannot show any of that, so the
:class:`Sampler` runs as an ordinary (purely observational) simulation
process and appends, every ``interval`` cycles, to registry series:

* ``controller_occupancy`` (label ``node``) -- fraction of the sample
  window the protocol controller's core+DMA were busy;
* ``ctrl_queue_depth`` (labels ``node``, ``priority`` in high/low) --
  instantaneous command-queue depth, urgent+remote vs. prefetch;
* ``link_utilization`` (label ``link``, e.g. ``"1->2"``) -- per
  directed mesh link, fraction of the window the link was held;
* ``outstanding_requests`` -- cluster-wide count of page/diff requests
  awaiting replies (the overlap the I/I+D/P modes are buying).

The sampler holds no resources and only reads statistics, so attaching
it never changes simulated timing or results.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.hardware.controller import PRIORITY_PREFETCH
from repro.stats.metrics import MetricsRegistry

__all__ = ["Sampler", "DEFAULT_SAMPLE_INTERVAL"]

DEFAULT_SAMPLE_INTERVAL = 10_000.0  # cycles (100 us at 100 MHz)


class Sampler:
    """Samples cluster state into ``registry`` until :meth:`stop`."""

    def __init__(self, sim, registry: MetricsRegistry, cluster, protocol,
                 interval: float = DEFAULT_SAMPLE_INTERVAL):
        if interval <= 0:
            raise ValueError(f"sample interval must be positive: {interval}")
        self.sim = sim
        self.registry = registry
        self.cluster = cluster
        self.protocol = protocol
        self.interval = interval
        self.samples_taken = 0
        self._stopped = False
        self._last_time = sim.now
        self._last_ctrl_busy: Dict[int, float] = {
            node.node_id: node.controller.busy_cycles
            for node in cluster.nodes if node.controller is not None}
        self._last_link_busy: Dict[Tuple[int, int], float] = {
            key: self._link_busy(link)
            for key, link in cluster.network.iter_links()}
        sim.process(self._loop())

    @staticmethod
    def _link_busy(link) -> float:
        link._account()
        return link.busy_time

    # -- lifecycle -----------------------------------------------------------

    def stop(self, final_sample: bool = True) -> None:
        """Stop sampling; optionally record one last window first."""
        if self._stopped:
            return
        self._stopped = True
        if final_sample and self.sim.now > self._last_time:
            self._take_sample()

    def _loop(self):
        while not self._stopped:
            yield self.sim.pooled_timeout(self.interval)
            if self._stopped:
                return
            self._take_sample()

    # -- one sample ----------------------------------------------------------

    def _take_sample(self) -> None:
        now = self.sim.now
        window = now - self._last_time
        if window <= 0:
            return
        reg = self.registry
        for node in self.cluster.nodes:
            ctrl = node.controller
            if ctrl is None:
                continue
            busy = ctrl.busy_cycles
            delta = busy - self._last_ctrl_busy[node.node_id]
            self._last_ctrl_busy[node.node_id] = busy
            reg.sample("controller_occupancy", now,
                       min(1.0, delta / window), node=node.node_id)
            depth = ctrl.depth_by_priority()
            high = sum(c for p, c in depth.items()
                       if p < PRIORITY_PREFETCH)
            low = sum(c for p, c in depth.items()
                      if p >= PRIORITY_PREFETCH)
            reg.sample("ctrl_queue_depth", now, high,
                       node=node.node_id, priority="high")
            reg.sample("ctrl_queue_depth", now, low,
                       node=node.node_id, priority="low")
        for (src, dst), link in self.cluster.network.iter_links():
            busy = self._link_busy(link)
            delta = busy - self._last_link_busy[(src, dst)]
            self._last_link_busy[(src, dst)] = busy
            reg.sample("link_utilization", now,
                       min(1.0, delta / window), link=f"{src}->{dst}")
        reg.sample("outstanding_requests", now,
                   self.protocol.pending_requests)
        self._last_time = now
        self.samples_taken += 1
