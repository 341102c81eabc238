"""The node's PCI I/O bus.

The PCI bus carries controller<->NIC<->memory traffic (paper figure 3:
both the protocol controller and the network interface sit on PCI behind
a bridge); it is a single-master-at-a-time resource with burst timing.
The memory bus has no model of its own: its occupancy is folded into the
:class:`~repro.hardware.memory.MainMemory` port (a burst holds DRAM and
bus together).
"""

from __future__ import annotations

from repro.hardware.params import MachineParams
from repro.sim import Resource, Simulator

__all__ = ["PciBus"]


class PciBus:
    """The PCI bus: setup + per-word burst occupancy, one master at a time."""

    def __init__(self, sim: Simulator, params: MachineParams,
                 node_id: int = 0):
        self.sim = sim
        self.params = params
        self.port = Resource(sim, name=f"pci{node_id}")
        self.total_bytes = 0

    def transfer(self, nbytes: int):
        """Generator: move ``nbytes`` across the bus as one burst."""
        if nbytes <= 0:
            return
        cycles = self.params.pci_transfer_cycles(nbytes)
        port = self.port
        req = port.try_acquire()
        if req is None:
            req = port.request()
            yield req
        try:
            yield self.sim.pooled_timeout(cycles)
        finally:
            port.release(req)
        self.total_bytes += nbytes

    def transfer_k(self, nbytes: int, k) -> None:
        """Continuation form of :meth:`transfer`: call ``k()`` when done.

        Schedules the same (time, seq) slots as the generator form, so
        simulated cycles are bit-identical; ``k`` runs synchronously for
        zero-byte transfers.
        """
        if nbytes <= 0:
            k()
            return
        cycles = self.params.pci_transfer_cycles(nbytes)
        port = self.port
        req = port.try_acquire()
        if req is not None:
            self.sim.call_in(cycles, self._finish_k, req, nbytes, k)
            return
        req = port.request()
        req.callbacks.append(
            lambda _evt, s=self, c=cycles, r=req, n=nbytes, kk=k:
            s.sim.call_in(c, s._finish_k, r, n, kk))

    def _finish_k(self, req, nbytes: int, k) -> None:
        self.port.release(req)
        self.total_bytes += nbytes
        k()

    def utilization(self) -> float:
        return self.port.utilization()
