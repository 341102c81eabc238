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
scan stays because the hot question, "is anything pending?", no longer
reaches it (``PageView.pending``): what is left is one scan per watermark
*change* (:meth:`NodeIntMap.raise_to`), under 10% of a 64-node AURC run.
"""

from __future__ import annotations

import sys
from array import array

__all__ = ["NodeIntMap", "dict_equiv_nbytes"]

# Measured CPython cost of one small-dict entry: the dict's internal
# growth amortizes to ~100 bytes/entry at small sizes plus the boxed
# int key/value objects (28 bytes each above the small-int cache).
_DICT_ENTRY_BYTES = 104


def dict_equiv_nbytes(entries: int) -> int:
    """Approximate bytes a ``Dict[int, int]`` of ``entries`` would cost.

    Used only for the before/after memory accounting recorded in the
    bench archive -- the baseline the compact representation is compared
    against.  An empty dict's fixed cost is measured, per-entry growth
    uses the amortized CPython figure.
    """
    return sys.getsizeof({}) + entries * _DICT_ENTRY_BYTES


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

    def dict_equiv_nbytes(self) -> int:
        """Bytes the dict this map replaced would have cost."""
        return dict_equiv_nbytes(len(self._ids))
