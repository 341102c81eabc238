"""Main-memory (DRAM) model with setup + per-word timing and contention.

Each node has one memory module shared by the computation processor, the
protocol controller, and the network interface (paper figure 3).  Accesses
serialize on a single-ported resource; service time is
``setup + nwords * cycles_per_word`` (Table 1: 10-cycle setup, 3
cycles/word).  An access returns the event its burst ends on.
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
        """Occupy the memory port for one burst of ``nwords``; returns the
        event it ends on (see :meth:`Resource.burst`), or None for zero
        words, which are free.

        ``scattered`` words sit at non-contiguous addresses: diff
        gathers/scatters touch isolated words across a page, so roughly
        every cache-line-sized group pays its own row setup -- this is
        what makes TreadMarks diff operations sensitive to memory
        latency (paper figure 15).
        """
        if nwords <= 0:
            return None
        return self.port.burst(self._cycles(nwords, scattered))
