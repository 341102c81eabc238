"""Wormhole-routed interconnect (paper section 4.1) over pluggable
topologies.

The default topology is the paper's N x N mesh (4 x 4 for the default
16 nodes) with bidirectional links modeled as a pair of directed
:class:`~repro.sim.Resource` channels and dimension-ordered (XY)
routing, which keeps the channel-dependency graph acyclic so the
hold-while-advancing acquisition below cannot deadlock.  Geometry and
routing live in :mod:`repro.hardware.topology` strategy objects
(``params.topology`` selects mesh/torus/fattree/dragonfly); every
topology's channel-dependency graph is likewise acyclic (dateline or
local/remote virtual channels where rings demand them).

Routes are computed in O(path length) per transfer and resolved to
their link resources.  A small (src, dst) memo of both is retained only
for machines of <= 64 nodes, where it is a few thousand short lists; at
256-1024 nodes the old unbounded memo was an O(N^2) memory hog that
dominated the footprint before coherence state could be measured, so
large machines always recompute.

A transfer acquires the links of its route in order (the worm's head
blocks on a busy link while holding the links behind it), then pays

    head latency   = hops * (switch + wire)
    serialization  = nbytes * link_cycles_per_byte

and releases the whole path.  This is a standard circuit-like
approximation of wormhole flow control that preserves the two phenomena
the paper's results depend on: per-link contention (prefetch bursts and
AURC update streams congest real links) and bandwidth/latency knobs
(figures 13-14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.hardware.params import MachineParams
from repro.hardware.topology import make_topology
from repro.sim import Resource, Simulator

__all__ = ["MeshNetwork", "NetworkStats", "ROUTE_MEMO_MAX_NODES"]

# Machines up to this many nodes keep a (src, dst) -> route memo; larger
# machines recompute every route in O(path) to keep memory flat in N.
ROUTE_MEMO_MAX_NODES = 64


class _TransferFlight:
    """State struct for one mesh transfer.

    Acquire the route's links head-first (holding the links behind the
    worm's head), pay the serialized duration, release, then invoke
    ``k()``.  ``held`` holds the granted tokens, index-aligned with
    ``links``.
    """

    __slots__ = ("net", "src", "dst", "links", "held", "start",
                 "duration", "nbytes", "traffic_class", "req", "blocked",
                 "k")

    def __init__(self, net: "MeshNetwork", src: int, dst: int, links,
                 start: float, duration: float, nbytes: int,
                 traffic_class: str, req: int, k):
        self.net = net
        self.src = src
        self.dst = dst
        self.links = links
        self.held: List = []
        self.start = start
        self.duration = duration
        self.nbytes = nbytes
        self.traffic_class = traffic_class
        self.req = req
        self.blocked = 0.0
        self.k = k

    def advance(self) -> None:
        """Acquire remaining links; park on the first contended one."""
        links = self.links
        held = self.held
        for idx in range(len(held), len(links)):
            link = links[idx]
            token = link.try_acquire()
            if token is None:
                link.request().callbacks.append(self._on_grant)
                return
            held.append(token)
        sim = self.net.sim
        self.blocked = sim.now - self.start
        sim.call_in(self.duration, self._finish)

    def _on_grant(self, link_req) -> None:
        self.held.append(link_req)
        self.advance()

    def _finish(self) -> None:
        for link, token in zip(self.links, self.held):
            link.release(token)
        net = self.net
        net._account(self.src, self.dst, self.nbytes,
                     net.sim.now - self.start, self.blocked,
                     self.traffic_class, self.start, len(self.links),
                     self.req)
        self.k()


@dataclass
class NetworkStats:
    """Aggregate traffic counters for reporting."""

    messages: int = 0
    bytes: int = 0
    total_latency: float = 0.0
    total_blocked: float = 0.0
    per_class_bytes: Dict[str, int] = field(default_factory=dict)

    def mean_latency(self) -> float:
        return self.total_latency / self.messages if self.messages else 0.0


class MeshNetwork:
    """The mesh: route computation, link resources, and transfer timing."""

    def __init__(self, sim: Simulator, params: MachineParams,
                 topology=None):
        self.sim = sim
        self.params = params
        self.topology = topology if topology is not None \
            else make_topology(params)
        self.n_nodes = params.n_processors
        # Mesh-family geometry helpers keep working on every topology
        # (row-major width x height layout of the *node* ids).
        self.width = getattr(self.topology, "width", params.mesh_width)
        self.height = getattr(self.topology, "height", params.mesh_height)
        self.stats = NetworkStats()
        # Fault hook: a FaultPlan when link latency spikes are armed
        # (set by FaultPlan.install), else None -- the transfer fast
        # path pays one None-check.
        self.faults = None
        # Route memo, bounded: (src, dst) -> (channel keys, link
        # Resources).  None on large machines (always recompute) so
        # route-cache memory cannot grow O(N^2) with node count.
        self._routes: Dict[Tuple[int, int], Tuple[list, list]] | None = \
            {} if self.n_nodes <= ROUTE_MEMO_MAX_NODES else None
        # Per-hop head latency, precomputed for the transfer fast path.
        self._head_per_hop = (params.switch_latency_cycles
                              + params.wire_latency_cycles)
        # Directed channels keyed by the topology's channel keys --
        # (from, to) on the mesh, (from, to, vc) where virtual channels
        # exist.  Creation order follows Topology.links() exactly (the
        # golden fixtures pin the historical mesh order).
        self._links: Dict[tuple, Resource] = {}
        for key in self.topology.links():
            if key in self._links:
                continue
            label = f"link{key[0]}->{key[1]}" if len(key) == 2 else \
                f"link{key[0]}->{key[1]}.vc{key[2]}"
            self._links[key] = Resource(sim, name=label)

    # -- topology helpers ---------------------------------------------------

    def coords(self, node: int) -> Tuple[int, int]:
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        return y * self.width + x

    def route(self, src: int, dst: int) -> List[tuple]:
        """Directed channel keys from src to dst (topology-defined).

        Routes are static; small machines memoize per (src, dst), large
        machines recompute in O(path) -- callers must not mutate the
        returned list either way.
        """
        return self._route(src, dst)[0]

    def _route(self, src: int, dst: int) -> Tuple[list, list]:
        """``(channel keys, link Resources)`` of the src -> dst route."""
        routes = self._routes
        if routes is not None:
            cached = routes.get((src, dst))
            if cached is not None:
                return cached
        path = self.topology.compute_route(src, dst)
        links = self._links
        entry = (path, [links[key] for key in path])
        if routes is not None:
            routes[(src, dst)] = entry
        return entry

    def hops(self, src: int, dst: int) -> int:
        return self.topology.hops(src, dst)

    def iter_links(self):
        """Iterate ``((src, dst), Resource)`` over every directed link."""
        return self._links.items()

    def uncontended_cycles(self, src: int, dst: int, nbytes: int) -> float:
        """Transfer time with empty links (for analysis and tests)."""
        hops = self.hops(src, dst)
        head = hops * (self.params.switch_latency_cycles
                       + self.params.wire_latency_cycles)
        return head + nbytes * self.params.link_cycles_per_byte

    # -- transfer ------------------------------------------------------------

    def transfer(self, src: int, dst: int, nbytes: int,
                 traffic_class: str = "protocol", req: int = 0,
                 k=None) -> None:
        """Move ``nbytes`` from ``src`` to ``dst`` with contention, then
        call ``k()``.

        ``req`` tags the trace event with the request id riding this
        transfer (0 = untracked).  ``k`` runs synchronously for local
        loopback (src == dst); generator callers go through
        ``sim.await_k(net.transfer, ...)``.
        """
        if src == dst:
            k()  # local loopback: no mesh traversal
            return
        sim = self.sim
        path, links = self._route(src, dst)
        duration = (len(path) * self._head_per_hop
                    + nbytes * self.params.link_cycles_per_byte)
        faults = self.faults
        if faults is not None and faults.route_armed(path):
            spike = faults.link_spike(path)
            if spike > 0.0:
                duration += spike
                metrics = sim.metrics
                if metrics is not None:
                    metrics.inc("net_spike_cycles", spike,
                                traffic_class=traffic_class)
        _TransferFlight(self, src, dst, links, sim.now, duration, nbytes,
                        traffic_class, req, k).advance()

    def _account(self, src: int, dst: int, nbytes: int, latency: float,
                 blocked: float, traffic_class: str, start: float,
                 hops: int, req: int) -> None:
        """Post-transfer stats/metrics/trace."""
        stats = self.stats
        stats.messages += 1
        stats.bytes += nbytes
        stats.total_latency += latency
        stats.total_blocked += blocked
        per_class = stats.per_class_bytes
        per_class[traffic_class] = per_class.get(traffic_class, 0) + nbytes
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.inc("net_transfers", traffic_class=traffic_class)
            metrics.inc("net_bytes", nbytes, traffic_class=traffic_class)
            metrics.inc("net_blocked_cycles", blocked,
                        traffic_class=traffic_class)
        tracer = self.sim.tracer
        if tracer is not None and tracer.wants("net"):
            tracer.emit("net", node=src, track="net", action=traffic_class,
                        dst=dst, bytes=nbytes, hops=hops,
                        blocked=blocked, begin=start,
                        dur=latency,
                        **({"req": req} if req else {}))

    def link_utilization(self) -> float:
        """Mean utilization across all links."""
        utils = [link.utilization() for link in self._links.values()]
        return sum(utils) / len(utils) if utils else 0.0

    def max_link_utilization(self) -> float:
        return max((link.utilization() for link in self._links.values()),
                   default=0.0)
