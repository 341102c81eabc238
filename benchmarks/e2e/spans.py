"""In-memory spans recorded around the benchmark's own calls.

A span is (name, start, end, parent, request id).  Spans of one request
share the id of the outermost span that named one.  They are kept in a
list and written out by the caller when the run ends; with tracing off
``span()`` hands back a shared no-op context so the timed path pays
nothing.
"""

from __future__ import annotations

import contextlib
import time
from typing import List, Optional

__all__ = ["Spans"]

_OFF = contextlib.nullcontext()


class Spans:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.rows: List[dict] = []
        self._stack: List[int] = []

    def span(self, name: str, request: Optional[str] = None):
        return self._record(name, request) if self.enabled else _OFF

    @contextlib.contextmanager
    def _record(self, name: str, request: Optional[str]):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.rows[parent]["request"]
        row = {"id": len(self.rows), "name": name, "parent": parent,
               "request": request, "start": time.perf_counter(),
               "end": None}
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every finished span called ``name``."""
        return sum(row["end"] - row["start"] for row in self.rows
                   if row["name"] == name and row["end"] is not None)
