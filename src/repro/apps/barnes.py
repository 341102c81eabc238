"""Barnes: Barnes-Hut hierarchical N-body simulation (SPLASH-2 Barnes).

Per timestep: an octree is built over the bodies, each body's
acceleration is computed by a theta-criterion traversal, and owners
integrate their body block.  The tree lives in shared arrays (children,
centers of mass, cell masses) written by processor 0 during the build
phase and read by every processor during the force phase -- the
many-readers-of-fresh-pages pattern that gives Barnes its data-fetch
and synchronization overheads.

The paper itself modified Barnes ("the only application that required
modification", removing busy-wait synchronization); we go one step
further and serialize the tree build on processor 0 (DESIGN.md section
2): the parallel lock-per-cell build changes load balance of one phase
but not the page-level sharing the evaluation is about.

Verification is exact: the reference solution runs the same build and
the same traversal kernel, :func:`compute_accels`, over all bodies at
once, where each worker runs it over its own block, and simulated
positions must still match to the last bit.  That holds because the
kernel is batch-independent.  It walks the tree one level per pass
over a frontier of (body, node) pairs kept in body order, a body's
nodes in octant order of their parents; every pair's term is computed
elementwise and a body's terms are added one at a time in frontier
order, level after level.  So a body's acceleration and its term count
are functions of the tree alone, bit for bit, whichever bodies share
its batch or chunk.  The term count is what the force phase charges as
compute, and it equals that of the depth-first per-body traversal this
kernel replaced (the same cells are accepted, the same bodies reached);
the acceleration differs from it by summation order only.  That scalar
traversal lives on as the oracle in ``tests/apps/oracles.py``, and
``tests/apps/test_kernels.py`` holds both properties.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps import costs
from repro.apps.base import Application, check_close
from repro.dsm.shmem import DsmApi, SharedSegment

__all__ = ["Barnes", "build_octree", "compute_accels"]

_THETA = 0.6
_SOFT2 = 0.05
_DT = 0.01
# Bodies traversed per batch: bounds the frontier temporaries (a few MB
# at 4096 bodies) whatever the caller passes in.
_CHUNK = 256


def build_octree(pos: np.ndarray, mass: np.ndarray):
    """Insert all bodies into an octree; returns flat shared-ready arrays.

    ``children[node, octant]`` is ``2 + child_node`` for an internal
    child, ``-(body + 1)`` for a body leaf, or 0 when empty (the +2
    offset keeps node 0 unambiguous).  Cell centers/half-sizes are
    internal to the build; centers of mass and cell masses are computed
    bottom-up and returned.
    """
    n = len(mass)
    max_nodes = max(16, 8 * n)
    children = np.zeros((max_nodes, 8), dtype=np.int64)
    center = np.zeros((max_nodes, 3))
    half = np.zeros(max_nodes)
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    mid = (lo + hi) / 2
    size = float((hi - lo).max()) / 2 + 1e-9
    center[0] = mid
    half[0] = size
    n_nodes = 1

    def octant_of(node: int, p: np.ndarray) -> int:
        c = center[node]
        return ((p[0] > c[0]) * 1 + (p[1] > c[1]) * 2 + (p[2] > c[2]) * 4)

    def child_center(node: int, octant: int) -> np.ndarray:
        offset = half[node] / 2
        c = center[node].copy()
        c[0] += offset if octant & 1 else -offset
        c[1] += offset if octant & 2 else -offset
        c[2] += offset if octant & 4 else -offset
        return c

    def insert(node: int, body: int) -> None:
        nonlocal n_nodes
        while True:
            octant = octant_of(node, pos[body])
            slot = children[node, octant]
            if slot == 0:
                children[node, octant] = -(body + 1)
                return
            if slot < 0:
                other = -int(slot) - 1
                if n_nodes >= len(half):
                    raise RuntimeError("octree node pool exhausted")
                fresh = n_nodes
                n_nodes += 1
                center[fresh] = child_center(node, octant)
                half[fresh] = half[node] / 2
                children[node, octant] = fresh + 2
                sub = octant_of(fresh, pos[other])
                children[fresh, sub] = -(other + 1)
                node = fresh
                continue
            node = int(slot) - 2

    for body in range(n):
        insert(0, body)

    com = np.zeros((max_nodes, 3))
    cmass = np.zeros(max_nodes)

    # Bottom-up: a cell is always allocated after its parent, so a
    # reverse sweep finishes every child before the cell that sums it.
    for node in range(n_nodes - 1, -1, -1):
        total = 0.0
        weighted = np.zeros(3)
        for octant in range(8):
            slot = children[node, octant]
            if slot == 0:
                continue
            if slot < 0:
                body = -int(slot) - 1
                total += mass[body]
                weighted += mass[body] * pos[body]
            else:
                child = int(slot) - 2
                total += cmass[child]
                weighted += cmass[child] * com[child]
        cmass[node] = total
        com[node] = weighted / total if total else center[node]
    return (children[:n_nodes], com[:n_nodes], cmass[:n_nodes],
            half[:n_nodes], n_nodes)


def compute_accels(bodies: np.ndarray, pos: np.ndarray, mass: np.ndarray,
                   children: np.ndarray, com: np.ndarray,
                   cmass: np.ndarray, half: np.ndarray,
                   theta: float = _THETA) -> Tuple[np.ndarray, np.ndarray]:
    """Theta-criterion traversal for a batch of bodies.

    Returns ``(acc[k, 3], terms[k])`` for the ``k`` body indices in
    ``bodies``: each body's acceleration and the number of force terms
    its traversal evaluated (what the force phase charges as compute).
    A body's row depends only on the tree, never on which other bodies
    share the call (see the module docstring).
    """
    bodies = np.asarray(bodies, dtype=np.int64)
    acc = np.zeros((len(bodies), 3))
    terms = np.zeros(len(bodies), dtype=np.int64)
    tree = (children, com[:, 0].copy(), com[:, 1].copy(), com[:, 2].copy(),
            cmass, 2 * half)
    for lo in range(0, len(bodies), _CHUNK):
        hi = lo + _CHUNK
        acc[lo:hi], terms[lo:hi] = _traverse(bodies[lo:hi], pos, mass,
                                             tree, theta)
    return acc, terms


def _traverse(bodies: np.ndarray, pos: np.ndarray, mass: np.ndarray,
              tree, theta: float) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk of :func:`compute_accels`, one tree level per pass.

    The frontier is the (row, node) pairs still to be judged, ``row``
    indexing ``bodies``.  It starts as every row at the root and stays
    sorted by row, with a row's nodes in octant order of their parents:
    a pass replaces each opened cell by its child cells in place.
    """
    children, cx, cy, cz, cmass, width = tree
    k = len(bodies)
    px, py, pz = pos[bodies].T
    acc = np.zeros((3, k))
    terms = np.zeros(k, dtype=np.int64)

    def interact(row, counted, source_mass, dx, dy, dz, d2):
        # ``bincount`` adds a row's pairs one by one in frontier order,
        # so the sum never depends on the other rows.  Pairs not
        # counted (an opened cell, the body itself) weigh 0.0 and leave
        # the running sum as it is.
        weight = np.where(counted, source_mass, 0.0)
        scale = d2 * np.sqrt(d2)
        acc[0] += np.bincount(row, weight * dx / scale, k)
        acc[1] += np.bincount(row, weight * dy / scale, k)
        acc[2] += np.bincount(row, weight * dz / scale, k)
        terms[:] += np.bincount(row[counted], minlength=k)

    row = np.arange(k)
    node = np.zeros(k, dtype=np.int64)
    while len(row):
        dx, dy, dz = cx[node] - px[row], cy[node] - py[row], cz[node] - pz[row]
        d2 = dx * dx + dy * dy + dz * dz + _SOFT2
        far = width[node] / np.sqrt(d2) < theta
        interact(row, far, cmass[node], dx, dy, dz, d2)
        # Open the rest: octants holding a body interact now, octants
        # holding a cell are the next frontier.
        slot = children[node[~far]].ravel()
        row = np.repeat(row[~far], 8)
        leaf = slot < 0
        other = -slot[leaf] - 1
        leaf_row = row[leaf]
        dx, dy, dz = (pos[other, 0] - px[leaf_row],
                      pos[other, 1] - py[leaf_row],
                      pos[other, 2] - pz[leaf_row])
        d2 = dx * dx + dy * dy + dz * dz + _SOFT2
        interact(leaf_row, other != bodies[leaf_row], mass[other],
                 dx, dy, dz, d2)
        cell = slot > 0
        row = row[cell]
        node = slot[cell] - 2
    return acc.T, terms


class Barnes(Application):
    """Barnes-Hut over a shared tree and shared body arrays."""

    name = "Barnes"

    def __init__(self, nprocs: int, n_bodies: int = 512, steps: int = 2,
                 seed: int = 31337):
        super().__init__(nprocs)
        self.n = n_bodies
        self.steps = steps
        rng = np.random.default_rng(seed)
        self.initial_pos = rng.normal(0.0, 1.0, size=(self.n, 3))
        self.mass = rng.uniform(0.5, 1.5, size=self.n)
        self.max_nodes = max(16, 8 * self.n)
        self.pos_base = 0
        self.mass_base = 0
        self.acc_base = 0
        self.child_base = 0
        self.com_base = 0
        self.cmass_base = 0
        self.half_base = 0
        self.meta_base = 0

    def allocate(self, segment: SharedSegment) -> None:
        self.pos_base = segment.alloc("barnes.pos", self.n * 3)
        self.mass_base = segment.alloc("barnes.mass", self.n)
        self.acc_base = segment.alloc("barnes.acc", self.n * 3)
        self.child_base = segment.alloc("barnes.child", self.max_nodes * 8)
        self.com_base = segment.alloc("barnes.com", self.max_nodes * 3)
        self.cmass_base = segment.alloc("barnes.cmass", self.max_nodes)
        self.half_base = segment.alloc("barnes.half", self.max_nodes)
        self.meta_base = segment.alloc("barnes.meta", 2)

    def reference_solution(self) -> np.ndarray:
        pos = self.initial_pos.copy()
        vel = np.zeros_like(pos)
        for _ in range(self.steps):
            children, com, cmass, half, _n = build_octree(pos, self.mass)
            acc, _terms = compute_accels(
                np.arange(self.n), pos, self.mass, children, com, cmass,
                half)
            vel += acc * _DT
            pos = pos + vel * _DT
        return pos

    def worker(self, api: DsmApi, pid: int):
        n = self.n
        lo, hi = self.block_range(pid, n)
        vel = np.zeros((max(hi - lo, 0), 3))
        if pid == 0:
            yield from api.write(self.pos_base, self.initial_pos.ravel())
            yield from api.write(self.mass_base, self.mass)
        yield from api.barrier(0)
        bid = 1
        for _step in range(self.steps):
            # -- tree build (processor 0) --------------------------------
            if pid == 0:
                flat = yield from api.read(self.pos_base, n * 3)
                pos = flat.reshape(n, 3)
                children, com, cmass, half, n_nodes = build_octree(
                    pos, self.mass)
                yield from api.compute(
                    n_nodes * costs.BARNES_CYCLES_PER_TREE_NODE)
                yield from api.write(self.child_base,
                                     children.astype(np.float64).ravel())
                yield from api.write(self.com_base, com.ravel())
                yield from api.write(self.cmass_base, cmass)
                yield from api.write(self.half_base, half)
                yield from api.write(self.meta_base, [float(n_nodes)])
            yield from api.barrier(bid)
            bid += 1
            # -- force phase: everyone reads the tree --------------------
            n_nodes = int((yield from api.read1(self.meta_base)))
            child_flat = yield from api.read(self.child_base, n_nodes * 8)
            com_flat = yield from api.read(self.com_base, n_nodes * 3)
            cmass = yield from api.read(self.cmass_base, n_nodes)
            half = yield from api.read(self.half_base, n_nodes)
            pos_flat = yield from api.read(self.pos_base, n * 3)
            pos = pos_flat.reshape(n, 3)
            masses = yield from api.read(self.mass_base, n)
            children = child_flat.astype(np.int64).reshape(n_nodes, 8)
            com = com_flat.reshape(n_nodes, 3)
            my_acc, terms = compute_accels(
                np.arange(lo, hi), pos, masses, children, com, cmass, half)
            yield from api.compute(
                int(terms.sum()) * costs.BARNES_CYCLES_PER_FORCE_TERM)
            if hi > lo:
                yield from api.write(self.acc_base + lo * 3,
                                     my_acc.ravel())
            yield from api.barrier(bid)
            bid += 1
            # -- integration by owners -----------------------------------
            if hi > lo:
                acc_flat = yield from api.read(self.acc_base + lo * 3,
                                               (hi - lo) * 3)
                vel += acc_flat.reshape(-1, 3) * _DT
                new_pos = pos[lo:hi] + vel * _DT
                yield from api.write(self.pos_base + lo * 3,
                                     new_pos.ravel())
            yield from api.barrier(bid)
            bid += 1
        return bid

    def epilogue(self, api: DsmApi):
        flat = yield from api.read(self.pos_base, self.n * 3)
        expected = self.reference_solution()
        check_close(flat.reshape(self.n, 3), expected, "barnes positions",
                    rtol=1e-9)
