"""TSP: branch-and-bound traveling salesman (the TreadMarks demo app).

A shared work queue holds partial tours; workers pop a tour, either
expand it (pushing its children back on the queue) or, past the depth
cutoff, solve the remaining cities exhaustively with bound pruning.
The global best bound is shared and updated under its own lock; like
the original TreadMarks TSP, workers read it optimistically between
synchronizations (a benign monotonic race -- a stale bound only prunes
less).

This is the paper's *lock-intensive, high-speedup* application: the
queue lock serializes small critical sections, tour data lives in a
shared pool, and almost all time is private search -- which is why TSP
tops figure 1 and shows almost no diff overhead (1.5%).

Execution-driven by construction: how many nodes each worker explores
depends on when bound improvements reach it, which depends on simulated
protocol timing.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.apps import costs
from repro.apps.base import Application
from repro.dsm.shmem import DsmApi, SharedSegment

__all__ = ["Tsp"]

_QUEUE_LOCK = 0
_BOUND_LOCK = 1
_DONE_BARRIER = 500


def held_karp(dist: np.ndarray) -> float:
    """Exact TSP solution by dynamic programming (for verification)."""
    n = dist.shape[0]
    full = 1 << (n - 1)  # subsets of cities 1..n-1
    dp = np.full((full, n), np.inf)
    for j in range(1, n):
        dp[1 << (j - 1), j] = dist[0, j]
    for mask in range(1, full):
        for j in range(1, n):
            bit = 1 << (j - 1)
            if not mask & bit or dp[mask, j] == np.inf:
                continue
            base = dp[mask, j]
            for k in range(1, n):
                kbit = 1 << (k - 1)
                if mask & kbit:
                    continue
                cand = base + dist[j, k]
                if cand < dp[mask | kbit, k]:
                    dp[mask | kbit, k] = cand
    best = min(dp[full - 1, j] + dist[j, 0] for j in range(1, n))
    return float(best)


class Tsp(Application):
    """Branch-and-bound TSP over a shared work queue."""

    name = "TSP"

    def __init__(self, nprocs: int, n_cities: int = 11, cutoff: int = 3,
                 seed: int = 20107, max_pool: int = 4096):
        super().__init__(nprocs)
        if n_cities < 4:
            raise ValueError("need at least 4 cities")
        self.nc = n_cities
        self.cutoff = min(cutoff, n_cities - 2)
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 100, size=(n_cities, 2))
        delta = coords[:, None, :] - coords[None, :, :]
        self.dist = np.sqrt((delta ** 2).sum(axis=2))
        np.fill_diagonal(self.dist, 0.0)
        self.max_pool = max_pool
        self.slot_words = n_cities + 2  # length, cost, path...
        # shared bases
        self.dist_base = 0
        self.ctrl_base = 0   # [queue_top, pool_next, pending_tasks, best]
        self.queue_base = 0
        self.pool_base = 0

    def allocate(self, segment: SharedSegment) -> None:
        self.dist_base = segment.alloc("tsp.dist", self.nc * self.nc)
        self.ctrl_base = segment.alloc("tsp.ctrl", 4)
        self.queue_base = segment.alloc("tsp.queue", self.max_pool)
        self.pool_base = segment.alloc("tsp.pool",
                                       self.max_pool * self.slot_words)

    # -- shared-structure helpers (all generators) ------------------------

    def _slot_addr(self, slot: int) -> int:
        return self.pool_base + slot * self.slot_words

    def _write_tour(self, api: DsmApi, slot: int, cost: float,
                    path: List[int]):
        record = np.zeros(self.slot_words)
        record[0] = len(path)
        record[1] = cost
        record[2:2 + len(path)] = path
        yield from api.write(self._slot_addr(slot), record)

    def _read_tour(self, api: DsmApi, slot: int):
        record = yield from api.read(self._slot_addr(slot), self.slot_words)
        length = int(record[0])
        return float(record[1]), [int(c) for c in record[2:2 + length]]

    def _solve_tail(self, path: List[int], cost: float,
                    bound: float) -> Tuple[float, int]:
        """Exhaustive bounded DFS over the remaining cities.

        Returns (best completion cost, nodes visited) -- the node count
        drives the busy-cycle charge, so pruning efficacy (a function of
        how fresh the shared bound is) shapes simulated time.
        """
        remaining = [c for c in range(self.nc) if c not in path]
        # Plain floats: the search is pure Python, and float arithmetic
        # on list rows is the same IEEE double as numpy scalars at a
        # fraction of the dispatch cost.
        dist = self.dist.tolist()
        home = [row[path[0]] for row in dist]
        best = float(bound)
        visited = 1

        def dfs(last: int, cost_so_far: float, rest: List[int]):
            # Entered only for a counted node that beats the bound; the
            # children it cannot extend are counted here, not called.
            nonlocal best, visited
            if not rest:
                total = cost_so_far + home[last]
                if total < best:
                    best = total
                return
            row = dist[last]
            for idx, city in enumerate(rest):
                visited += 1
                step = cost_so_far + row[city]
                if step < best:
                    dfs(city, step, rest[:idx] + rest[idx + 1:])

        if cost < best:
            dfs(path[-1], float(cost), remaining)
        return best, visited

    # -- the worker ----------------------------------------------------------

    def greedy_bound(self) -> float:
        """Nearest-neighbour tour cost: the initial upper bound."""
        unvisited = set(range(1, self.nc))
        tour = [0]
        cost = 0.0
        while unvisited:
            last = tour[-1]
            nxt = min(unvisited, key=lambda c: self.dist[last, c])
            cost += self.dist[last, nxt]
            tour.append(nxt)
            unvisited.remove(nxt)
        return cost + self.dist[tour[-1], 0]

    def worker(self, api: DsmApi, pid: int):
        if pid == 0:
            yield from api.write(self.dist_base, self.dist.ravel())
            # Root task: tour [0], cost 0, in slot 0.
            yield from self._write_tour(api, 0, 0.0, [0])
            yield from api.write(self.queue_base, [0.0])
            # ctrl: queue_top=1, pool_next=1, pending=1, and a greedy
            # nearest-neighbour tour as the initial bound.
            yield from api.write(self.ctrl_base,
                                 [1.0, 1.0, 1.0, self.greedy_bound()])
        yield from api.barrier(_DONE_BARRIER)
        explored = 0
        backoff = 5000
        while True:
            yield from api.acquire(_QUEUE_LOCK)
            ctrl = yield from api.read(self.ctrl_base, 3)
            top, pool_next, pending = (int(ctrl[0]), int(ctrl[1]),
                                       int(ctrl[2]))
            if top == 0:
                yield from api.release(_QUEUE_LOCK)
                if pending == 0:
                    break
                # Exponential back-off before re-polling the queue so
                # idle workers do not hammer the queue lock at the tail.
                yield from api.compute(backoff)
                backoff = min(backoff * 2, 1_000_000)
                continue
            backoff = 5000
            slot_val = yield from api.read1(self.queue_base + top - 1)
            yield from api.write(self.ctrl_base, [float(top - 1)])
            yield from api.release(_QUEUE_LOCK)

            cost, path = yield from self._read_tour(api, int(slot_val))
            bound = yield from api.read1(self.ctrl_base + 3)
            if cost >= bound:
                # Pruned before expansion: just retire the task.
                yield from self._retire(api)
                continue
            if len(path) < self.cutoff:
                children = []
                for city in range(self.nc):
                    if city in path:
                        continue
                    child_cost = cost + self.dist[path[-1], city]
                    if child_cost < bound:
                        children.append((child_cost, path + [city]))
                yield from api.compute(
                    self.nc * costs.TSP_CYCLES_PER_EXPANSION)
                yield from self._push_children(api, children)
            else:
                best, visited = self._solve_tail(path, cost, bound)
                explored += visited
                yield from api.compute(
                    visited * costs.TSP_CYCLES_PER_TOUR_NODE)
                if best < bound:
                    yield from api.acquire(_BOUND_LOCK)
                    current = yield from api.read1(self.ctrl_base + 3)
                    if best < current:
                        yield from api.write(self.ctrl_base + 3, best)
                    yield from api.release(_BOUND_LOCK)
                yield from self._retire(api)
        yield from api.barrier(_DONE_BARRIER + 1)
        return explored

    def _push_children(self, api: DsmApi, children):
        """Generator: allocate slots, publish tours, push, retire parent.

        Tour bodies are written *before* their slot indices become
        visible on the queue (publish-then-push), so a popper that sees
        an index is ordered after the body write through the queue lock.
        """
        yield from api.acquire(_QUEUE_LOCK)
        pool_next = int((yield from api.read1(self.ctrl_base + 1)))
        if pool_next + len(children) > self.max_pool:
            raise RuntimeError("tsp pool exhausted; raise max_pool")
        first_slot = pool_next
        yield from api.write(self.ctrl_base + 1,
                             float(pool_next + len(children)))
        yield from api.release(_QUEUE_LOCK)

        slots = []
        for index, (cost, path) in enumerate(children):
            slot = first_slot + index
            yield from self._write_tour(api, slot, cost, path)
            slots.append(slot)

        yield from api.acquire(_QUEUE_LOCK)
        ctrl = yield from api.read(self.ctrl_base, 3)
        top, pending = int(ctrl[0]), int(ctrl[2])
        for index, slot in enumerate(slots):
            yield from api.write(self.queue_base + top + index,
                                 float(slot))
        yield from api.write(self.ctrl_base, [float(top + len(slots))])
        yield from api.write(self.ctrl_base + 2,
                             float(pending + len(slots) - 1))
        yield from api.release(_QUEUE_LOCK)

    def _retire(self, api: DsmApi):
        """Generator: decrement the pending-task count."""
        yield from api.acquire(_QUEUE_LOCK)
        pending = yield from api.read1(self.ctrl_base + 2)
        yield from api.write(self.ctrl_base + 2, pending - 1)
        yield from api.release(_QUEUE_LOCK)

    def epilogue(self, api: DsmApi):
        best = yield from api.read1(self.ctrl_base + 3)
        expected = held_karp(self.dist)
        if abs(best - expected) > 1e-6:
            raise AssertionError(
                f"tsp bound {best} != optimal {expected}")
