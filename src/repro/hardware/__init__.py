"""Hardware models of a 16-node network of workstations (paper section 4.1).

Every component of the simulated node architecture (paper figures 3 and 4)
lives here:

* :mod:`repro.hardware.params` -- Table 1 system parameters and the
  sensitivity knobs of section 5.3.
* :mod:`repro.hardware.memory` -- DRAM with setup + per-word timing and
  contention.
* :mod:`repro.hardware.bus` -- PCI bus.
* :mod:`repro.hardware.cache` -- direct-mapped first-level cache and the
  write buffer.
* :mod:`repro.hardware.tlb` -- software-filled TLB.
* :mod:`repro.hardware.network` -- 4x4 wormhole-routed mesh.
* :mod:`repro.hardware.nic` -- network interface, including the
  SHRIMP-style automatic-update engine used by AURC.
* :mod:`repro.hardware.controller` -- the paper's PCI protocol controller
  (prioritized command queue, snoop bit vectors, scatter/gather DMA).
* :mod:`repro.hardware.node` -- a full node assembling all of the above.
"""

from repro.hardware.params import MachineParams

__all__ = ["MachineParams"]
