"""The node's PCI I/O bus.

The PCI bus carries controller<->NIC<->memory traffic (paper figure 3:
both the protocol controller and the network interface sit on PCI behind
a bridge); it is a single-master-at-a-time resource with burst timing.
The memory bus has no model of its own: its occupancy is folded into the
:class:`~repro.hardware.memory.MainMemory` port (a burst holds DRAM and
bus together).  A transfer returns the event its burst ends on.
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

    def transfer(self, nbytes: int):
        """Move ``nbytes`` across the bus as one burst; returns the event
        it ends on (see :meth:`Resource.burst`), or None for zero bytes,
        which are free."""
        if nbytes <= 0:
            return None
        return self.port.burst(self.params.pci_transfer_cycles(nbytes))
