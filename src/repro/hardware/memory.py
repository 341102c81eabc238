"""Main-memory (DRAM) model with setup + per-word timing and contention.

Each node has one memory module shared by the computation processor, the
protocol controller, and the network interface (paper figure 3).  Accesses
serialize on a single-ported resource; service time is
``setup + nwords * cycles_per_word`` (Table 1: 10-cycle setup, 3
cycles/word).  Callers run ``yield from memory.access(nwords)``.
"""

from __future__ import annotations

from repro.hardware.params import MachineParams
from repro.sim import Resource, Simulator

__all__ = ["MainMemory"]


class MainMemory:
    """One node's DRAM: a contended single-ported burst device."""

    def __init__(self, sim: Simulator, params: MachineParams,
                 node_id: int = 0):
        self.sim = sim
        self.params = params
        self.port = Resource(sim, name=f"mem{node_id}")
        self.total_words = 0
        self.total_accesses = 0

    def _cycles(self, nwords: int, scattered: bool) -> float:
        """Port occupancy of one burst: one row setup per burst, or per
        cache-line group when the words are ``scattered``."""
        params = self.params
        cycles = nwords * params.memory_cycles_per_word
        if scattered:
            groups = -(-nwords // params.words_per_line)
            return groups * params.memory_setup_cycles + cycles
        return cycles + params.memory_setup_cycles

    def access(self, nwords: int, scattered: bool = False):
        """Generator: occupy the memory port for one burst of ``nwords``.

        ``scattered`` words sit at non-contiguous addresses: diff
        gathers/scatters touch isolated words across a page, so roughly
        every cache-line-sized group pays its own row setup -- this is
        what makes TreadMarks diff operations sensitive to memory
        latency (paper figure 15).
        """
        if nwords <= 0:
            return
        cycles = self._cycles(nwords, scattered)
        port = self.port
        req = port.try_acquire()
        if req is None:
            req = port.request()
            yield req
        try:
            yield self.sim.pooled_timeout(cycles)
        finally:
            port.release(req)
        self.total_words += nwords
        self.total_accesses += 1

    def access_k(self, nwords: int, k) -> None:
        """Continuation form of :meth:`access`: call ``k()`` when done.

        Schedules the same (time, seq) slots as the generator form, so
        simulated cycles are bit-identical; ``k`` runs synchronously for
        zero-word bursts.
        """
        if nwords <= 0:
            k()
            return
        cycles = self._cycles(nwords, False)
        port = self.port
        req = port.try_acquire()
        if req is not None:
            self.sim.call_in(cycles, self._finish_k, req, nwords, k)
            return
        req = port.request()
        req.callbacks.append(
            lambda _evt, s=self, c=cycles, r=req, n=nwords, kk=k:
            s.sim.call_in(c, s._finish_k, r, n, kk))

    def _finish_k(self, req, nwords: int, k) -> None:
        self.port.release(req)
        self.total_words += nwords
        self.total_accesses += 1
        k()

    def utilization(self) -> float:
        return self.port.utilization()
