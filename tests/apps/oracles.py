"""Scalar reference kernels the batched app kernels are tested against.

These are the per-body Barnes traversal and the numpy-indexed TSP tail
search that ``src/repro/apps`` ran before the kernels were batched,
kept verbatim: what they count (force terms, visited nodes) is what the
apps charge as compute, so the fast kernels must reproduce the counts
exactly and the values to rounding.
"""

from typing import List, Tuple

import numpy as np

SOFT2 = 0.05


def scalar_accel(body: int, pos: np.ndarray, mass: np.ndarray,
                 children: np.ndarray, com: np.ndarray,
                 cmass: np.ndarray, half: np.ndarray,
                 theta: float) -> Tuple[np.ndarray, int]:
    """Depth-first theta-criterion traversal for one body."""
    acc = np.zeros(3)
    terms = 0
    stack: List[int] = [0]
    p = pos[body]
    while stack:
        node = stack.pop()
        delta = com[node] - p
        dist2 = float((delta ** 2).sum()) + SOFT2
        dist = np.sqrt(dist2)
        if (2 * half[node]) / dist < theta:
            acc += cmass[node] * delta / (dist2 * dist)
            terms += 1
            continue
        for octant in range(8):
            slot = children[node, octant]
            if slot == 0:
                continue
            if slot < 0:
                other = -int(slot) - 1
                if other == body:
                    continue
                d = pos[other] - p
                d2 = float((d ** 2).sum()) + SOFT2
                dd = np.sqrt(d2)
                acc += mass[other] * d / (d2 * dd)
                terms += 1
            else:
                stack.append(int(slot) - 2)
    return acc, terms


def direct_accel(body: int, pos: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Softened all-pairs sum: what theta = 0 must reproduce."""
    d = np.delete(pos, body, axis=0) - pos[body]
    d2 = (d ** 2).sum(axis=1) + SOFT2
    weight = np.delete(mass, body) / (d2 * np.sqrt(d2))
    return (weight[:, None] * d).sum(axis=0)


def numpy_solve_tail(dist: np.ndarray, path: List[int], cost,
                     bound) -> Tuple[float, int]:
    """Bounded DFS over the cities not on ``path``, indexing ``dist``."""
    remaining = [c for c in range(dist.shape[0]) if c not in path]
    best = bound
    visited = 0

    def dfs(last: int, cost_so_far, rest: List[int]):
        nonlocal best, visited
        visited += 1
        if cost_so_far >= best:
            return
        if not rest:
            total = cost_so_far + dist[last, path[0]]
            if total < best:
                best = total
            return
        for idx in range(len(rest)):
            city = rest[idx]
            dfs(city, cost_so_far + dist[last, city],
                rest[:idx] + rest[idx + 1:])

    dfs(path[-1], cost, remaining)
    return best, visited
