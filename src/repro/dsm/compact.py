"""Memory-lean containers for hot per-page coherence state.

At 16 nodes a ``Dict[int, int]`` per page per protocol structure is
noise; at 256-1024 nodes the per-(page, node) dictionaries (copysets,
applied/notified write-notice watermarks, directory membership) dominate
the simulator's footprint.  :class:`NodeIntMap` replaces those dicts
with an int bitset (O(1) membership, one machine word per 64 nodes) plus
two parallel ``array`` columns holding the insertion-ordered entries.

The insertion-order guarantee is load-bearing, not cosmetic: TreadMarks
issues diff requests in ``pending_writers()`` order, which is the
iteration order of the ``notified`` map -- any reordering changes
request interleaving and therefore simulated cycles.  ``NodeIntMap``
iterates exactly like the dict it replaces (first-insertion order,
updates in place), which is what keeps the 18 golden configs
bit-identical.

Lookups scan the id column linearly, and entry counts are *not* small:
Em3d holds 49-65 writers per ``notified`` map at 64 and 256 nodes.  The
hot question, "is anything pending?", no longer reaches the scan
(``PageView.pending``); what is left is one scan per watermark *change*
(:meth:`NodeIntMap.raise_to`) or lookup (:meth:`NodeIntMap.get`).  On
the repo benchmark's 64-node AURC ``scale`` cells those two, with the
C-level ``array.index`` they call, take 7.5 % of host time under thread
stack sampling and 12 % under cProfile (2-core x86 host), so the
single-writer scan stays.  A page install is different: it adopts a
whole writer snapshot, up to one watermark per node, and at 1024 nodes
two scans per writer made ``array.index`` 44 % of the AURC mesh cell's
cProfile time (32 s a run unprofiled, same host).  Installs therefore
merge in one pass (:meth:`NodeIntMap.raise_many` indexes the id column
once per call, ``PageView.mark_applied_many`` reads ``notified``
once): ``array.index`` drops to 0.1 % and the cell runs in 7-9 s.
"""

from __future__ import annotations

import sys
from array import array

__all__ = ["NodeIntMap"]


class NodeIntMap:
    """Insertion-ordered ``node id -> int`` map backed by a bitset.

    Drop-in for the ``Dict[int, int]`` protocol surface the DSM layers
    use: ``in``, ``[]``, ``get``, ``[k] = v``, ``len``, truthiness,
    ``items``/``keys``/``values``, and ``as_dict``.  Deletion is
    deliberately unsupported -- the coherence maps it replaces only ever
    grow within a page's lifetime and are reset wholesale.
    """

    __slots__ = ("mask", "_ids", "_vals")

    def __init__(self):
        self.mask = 0
        self._ids = array("H")
        self._vals = array("q")

    def __contains__(self, node: int) -> bool:
        return (self.mask >> node) & 1 == 1

    def __len__(self) -> int:
        return len(self._ids)

    def __bool__(self) -> bool:
        return bool(self._ids)

    def __getitem__(self, node: int) -> int:
        if not (self.mask >> node) & 1:
            raise KeyError(node)
        return self._vals[self._ids.index(node)]

    def __setitem__(self, node: int, value: int) -> None:
        if (self.mask >> node) & 1:
            self._vals[self._ids.index(node)] = value
        else:
            self._ids.append(node)  # OverflowError past 65535, map intact
            self._vals.append(value)
            self.mask |= 1 << node

    def get(self, node: int, default: int = 0) -> int:
        if not (self.mask >> node) & 1:
            return default
        return self._vals[self._ids.index(node)]

    def raise_to(self, node: int, value: int) -> bool:
        """``if value > self.get(node, 0): self[node] = value`` in one
        scan -- the watermark update; returns True if it raised."""
        if (self.mask >> node) & 1:
            at = self._ids.index(node)
            if value <= self._vals[at]:
                return False
            self._vals[at] = value
            return True
        if value <= 0:
            return False
        self._ids.append(node)  # as __setitem__: ids first, mask last
        self._vals.append(value)
        self.mask |= 1 << node
        return True

    def raise_many(self, pairs) -> list:
        """:meth:`raise_to` over ``(node, value)`` pairs in order, with
        the id column indexed once; returns the pairs that raised."""
        ids, vals = self._ids, self._vals
        at = dict(zip(ids, range(len(ids))))
        raised = []
        for node, value in pairs:
            i = at.get(node)
            if i is None:
                if value <= 0:
                    continue
                at[node] = len(ids)
                ids.append(node)  # as __setitem__: ids first, mask last
                vals.append(value)
                self.mask |= 1 << node
            elif value <= vals[i]:
                continue
            else:
                vals[i] = value
            raised.append((node, value))
        return raised

    def items(self):
        return zip(self._ids, self._vals)

    def __iter__(self):
        return iter(self._ids)

    keys = __iter__

    def values(self):
        return iter(self._vals)

    def as_dict(self) -> dict:
        return dict(zip(self._ids, self._vals))

    def clear(self) -> None:
        self.mask = 0
        del self._ids[:]
        del self._vals[:]

    def __repr__(self) -> str:  # debugging/audit dumps only
        return f"NodeIntMap({self.as_dict()!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, NodeIntMap):
            return self.as_dict() == other.as_dict()
        if isinstance(other, dict):
            return self.as_dict() == other
        return NotImplemented

    # -- memory accounting --------------------------------------------------

    def nbytes(self) -> int:
        """Actual bytes held: object header, bitset, and both columns."""
        return (object.__sizeof__(self)
                + sys.getsizeof(self.mask)
                + sys.getsizeof(self._ids)
                + sys.getsizeof(self._vals))
