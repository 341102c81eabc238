"""Pluggable interconnect topologies: routing as data.

:class:`MeshNetwork` historically hardwired the paper's 2D wormhole
mesh -- node coordinates, link construction, and XY route computation
all lived on the network object.  This module extracts that geometry
into small :class:`Topology` strategy objects so the same transfer
engine (link resources, `_TransferFlight` continuations) can drive a k-ary 2D mesh, a 2D torus, a two-tier
fat-tree, or a dragonfly without touching the timing code.

A topology answers exactly three questions:

* ``links()`` -- which directed channels exist (construction order is
  part of the golden contract for the default mesh: resources must be
  created in the historical node-major, (+x, -x, +y, -y) order).
* ``compute_route(src, dst)`` -- the ordered list of channel keys a
  worm's head acquires, O(path length) with no O(N^2) table.
* ``hops()`` / ``diameter()`` -- path-length metadata for uncontended
  timing and test bounds.

Channel keys are opaque tuples.  The mesh uses bare ``(from, to)``
pairs (bit-compatible with the pre-topology link dict); the torus and
dragonfly append a virtual-channel index (Dally/Seitz dateline VCs for
torus rings, a source-local/dest-local split for dragonfly) so the
hold-while-advancing link acquisition stays deadlock-free: the channel
dependency graph of every topology here is acyclic, which the property
tests verify directly.

Switch-based topologies (fat-tree) introduce internal switch vertices
with ids >= n_nodes; they appear only inside channel keys, never as
message endpoints.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

__all__ = ["Topology", "Mesh2D", "Torus2D", "FatTree", "Dragonfly",
           "make_topology", "TOPOLOGIES", "square_factor"]


def square_factor(n: int) -> int:
    """Largest divisor of ``n`` that is <= sqrt(n) (most-square split)."""
    best = 1
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            best = d
    return best


class Topology:
    """Strategy interface: geometry and routing for one fabric shape."""

    name = "abstract"

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("topology needs at least one node")
        self.n_nodes = n_nodes

    def links(self) -> Iterator[tuple]:
        """Yield every directed channel key, in construction order."""
        raise NotImplementedError

    def compute_route(self, src: int, dst: int) -> List[tuple]:
        """Ordered channel keys from ``src`` to ``dst`` (O(path))."""
        raise NotImplementedError

    def hops(self, src: int, dst: int) -> int:
        """Path length; must equal ``len(compute_route(src, dst))``."""
        return len(self.compute_route(src, dst))

    def diameter(self) -> int:
        """Upper bound on ``hops`` over all node pairs."""
        raise NotImplementedError


class Mesh2D(Topology):
    """The paper's dimension-ordered (XY) 2D mesh.

    Link enumeration order and route shapes are bit-identical to the
    pre-topology ``MeshNetwork`` internals: golden fixtures depend on
    resource creation order and on x-then-y walks.
    """

    name = "mesh"

    def __init__(self, n_nodes: int, width: int, height: int):
        super().__init__(n_nodes)
        if width < 1 or height < 1 or width * height != n_nodes:
            raise ValueError(
                f"mesh geometry {width}x{height} does not tile "
                f"{n_nodes} nodes")
        self.width = width
        self.height = height

    def coords(self, node: int) -> Tuple[int, int]:
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        return y * self.width + x

    def links(self) -> Iterator[tuple]:
        for node in range(self.n_nodes):
            x, y = self.coords(node)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < self.width and 0 <= ny < self.height:
                    yield node, self.node_at(nx, ny)

    def compute_route(self, src: int, dst: int) -> List[tuple]:
        if src == dst:
            return []
        links: List[tuple] = []
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        here = src
        while x != dx:
            x += 1 if dx > x else -1
            nxt = self.node_at(x, y)
            links.append((here, nxt))
            here = nxt
        while y != dy:
            y += 1 if dy > y else -1
            nxt = self.node_at(x, y)
            links.append((here, nxt))
            here = nxt
        return links

    def hops(self, src: int, dst: int) -> int:
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(x - dx) + abs(y - dy)

    def diameter(self) -> int:
        return (self.width - 1) + (self.height - 1)


class Torus2D(Mesh2D):
    """2D torus: the mesh plus wraparound, shortest-way per dimension.

    Each ring direction carries two virtual channels with a dateline at
    coordinate 0 (Dally/Seitz): a worm starts on VC 0 and switches to
    VC 1 after traversing the wrap edge, which breaks the ring cycle in
    the channel dependency graph.  Channel keys are ``(from, to, vc)``.
    Ties (even ring size, exactly half-way) break toward +.
    """

    name = "torus"

    def links(self) -> Iterator[tuple]:
        seen = set()
        for node in range(self.n_nodes):
            x, y = self.coords(node)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = (x + dx) % self.width, (y + dy) % self.height
                peer = self.node_at(nx, ny)
                if peer == node:
                    continue  # degenerate 1-wide ring
                for vc in (0, 1):
                    key = (node, peer, vc)
                    if key not in seen:
                        seen.add(key)
                        yield key

    def _walk(self, links: List[tuple], here: int, cur: int, tgt: int,
              size: int, axis: int) -> int:
        """Append one dimension's dateline-VC hops; return the new node."""
        delta = (tgt - cur) % size
        if delta == 0:
            return here
        step = 1 if delta <= size - delta else -1
        count = delta if step == 1 else size - delta
        x, y = self.coords(here)
        vc = 0
        for _ in range(count):
            if axis == 0:
                nx = (x + step) % size
                wrapped = (x == size - 1) if step == 1 else (x == 0)
                x = nx
            else:
                ny = (y + step) % size
                wrapped = (y == size - 1) if step == 1 else (y == 0)
                y = ny
            nxt = self.node_at(x, y)
            links.append((here, nxt, vc))
            if wrapped:
                vc = 1  # crossed the dateline: rest of the ring on VC 1
            here = nxt
        return here

    def compute_route(self, src: int, dst: int) -> List[tuple]:
        if src == dst:
            return []
        links: List[tuple] = []
        dx, dy = self.coords(dst)
        here = self._walk(links, src, self.coords(src)[0], dx,
                          self.width, 0)
        self._walk(links, here, self.coords(here)[1], dy, self.height, 1)
        return links

    def hops(self, src: int, dst: int) -> int:
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        ax = abs(x - dx)
        ay = abs(y - dy)
        return min(ax, self.width - ax) + min(ay, self.height - ay)

    def diameter(self) -> int:
        return self.width // 2 + self.height // 2


class FatTree(Topology):
    """Two-tier folded Clos (leaf/spine): up-down routing.

    ``arity`` leaves hang off each edge switch; every edge switch
    connects to every spine.  Switch vertices use ids >= n_nodes (edge
    switch ``e`` is ``n + e``, spine ``s`` is ``n + n_edge + s``) and
    exist only inside channel keys.  Up-down routing makes the channel
    dependency graph trivially acyclic (up links only ever precede down
    links), so no virtual channels are needed.
    """

    name = "fattree"

    def __init__(self, n_nodes: int, arity: int):
        super().__init__(n_nodes)
        if arity < 1:
            raise ValueError("fat-tree arity must be >= 1")
        if n_nodes % arity:
            raise ValueError(
                f"fat-tree needs n_processors divisible by arity "
                f"({n_nodes} % {arity} != 0)")
        self.arity = arity
        self.n_edge = n_nodes // arity
        self.n_spine = arity if self.n_edge > 1 else 0

    def _edge_of(self, node: int) -> int:
        return self.n_nodes + node // self.arity

    def _spine(self, index: int) -> int:
        return self.n_nodes + self.n_edge + index

    def links(self) -> Iterator[tuple]:
        for node in range(self.n_nodes):
            edge = self._edge_of(node)
            yield node, edge
            yield edge, node
        for e in range(self.n_edge):
            edge = self.n_nodes + e
            for s in range(self.n_spine):
                spine = self._spine(s)
                yield edge, spine
                yield spine, edge

    def compute_route(self, src: int, dst: int) -> List[tuple]:
        if src == dst:
            return []
        e_src = self._edge_of(src)
        e_dst = self._edge_of(dst)
        if e_src == e_dst:
            return [(src, e_src), (e_src, dst)]
        spine = self._spine((src + dst) % self.n_spine)
        return [(src, e_src), (e_src, spine), (spine, e_dst), (e_dst, dst)]

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        return 2 if self._edge_of(src) == self._edge_of(dst) else 4

    def diameter(self) -> int:
        if self.n_nodes == 1:
            return 0
        return 2 if self.n_edge == 1 else 4


class Dragonfly(Topology):
    """Dragonfly: all-to-all within a group, one global link per group
    pair, minimal local-global-local routing.

    The global link from group A to group B attaches at A's local node
    index ``B % group_size`` and lands on B's local index
    ``A % group_size``, spreading gateways across each group.  Minimal
    dragonfly routing needs two local virtual channels (the classic
    local->global->local cycle): source-group local hops ride VC 0,
    destination-group local hops ride VC 1, globals are their own
    channel class -- the dependency graph VC0-local -> global ->
    VC1-local is acyclic.  Channel keys are ``(from, to, vc)``.
    """

    name = "dragonfly"

    def __init__(self, n_nodes: int, group_size: int):
        super().__init__(n_nodes)
        if group_size < 1:
            raise ValueError("dragonfly group size must be >= 1")
        if n_nodes % group_size:
            raise ValueError(
                f"dragonfly needs n_processors divisible by group size "
                f"({n_nodes} % {group_size} != 0)")
        self.group_size = group_size
        self.n_groups = n_nodes // group_size

    def _group(self, node: int) -> int:
        return node // self.group_size

    def _gateway(self, group: int, toward: int) -> int:
        return group * self.group_size + (toward % self.group_size)

    def links(self) -> Iterator[tuple]:
        gs = self.group_size
        for g in range(self.n_groups):
            base = g * gs
            for a in range(base, base + gs):
                for b in range(base, base + gs):
                    if a != b:
                        yield a, b, 0
                        yield a, b, 1
        for ga in range(self.n_groups):
            for gb in range(self.n_groups):
                if ga != gb:
                    yield (self._gateway(ga, gb), self._gateway(gb, ga), 0)

    def compute_route(self, src: int, dst: int) -> List[tuple]:
        if src == dst:
            return []
        g_src = self._group(src)
        g_dst = self._group(dst)
        if g_src == g_dst:
            return [(src, dst, 0)]
        out_gw = self._gateway(g_src, g_dst)
        in_gw = self._gateway(g_dst, g_src)
        links: List[tuple] = []
        if src != out_gw:
            links.append((src, out_gw, 0))
        links.append((out_gw, in_gw, 0))
        if in_gw != dst:
            links.append((in_gw, dst, 1))
        return links

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        g_src = self._group(src)
        g_dst = self._group(dst)
        if g_src == g_dst:
            return 1
        return (1 + (src != self._gateway(g_src, g_dst))
                + (dst != self._gateway(g_dst, g_src)))

    def diameter(self) -> int:
        if self.n_nodes == 1:
            return 0
        return 1 if self.n_groups == 1 else 3


TOPOLOGIES = ("mesh", "torus", "fattree", "dragonfly")


def make_topology(params) -> Topology:
    """Build the Topology a :class:`MachineParams` bundle describes.

    Geometry errors (unknown name, non-divisible counts) surface here
    and in ``MachineParams.__post_init__`` as ``ValueError`` -- never
    from deep inside a route computation mid-run.
    """
    name = params.topology
    n = params.n_processors
    if name == "mesh":
        return Mesh2D(n, params.mesh_width, params.mesh_height)
    if name == "torus":
        return Torus2D(n, params.mesh_width, params.mesh_height)
    if name == "fattree":
        return FatTree(n, params.fattree_arity or square_factor(n))
    if name == "dragonfly":
        return Dragonfly(n, params.dragonfly_group_size or square_factor(n))
    raise ValueError(
        f"unknown topology {name!r}; expected one of {TOPOLOGIES}")
