"""Deterministic, seeded fault injection for the simulated machine.

The subsystem separates *what can go wrong* (:class:`FaultSpec`, a
frozen description of fault kinds and rates) from *one concrete
realization* (:class:`FaultPlan`, which owns its own
``random.Random(seed)`` -- never the simulator's event ordering or any
global RNG -- and is consulted by the hardware layers at well-defined
injection points).  Because the simulation kernel is single-threaded
and deterministic, the plan's draws occur in a reproducible order:
the same ``(seed, spec)`` pair always injects the same faults at the
same simulated instants.

Injection points (armed only when the corresponding rates are nonzero,
so an all-empty plan leaves every hardware fast path untouched and the
run cycle-identical to an un-faulted one):

* mesh transfers (:mod:`repro.hardware.network`): per-link latency
  spikes on routes with an armed link;
* explicit messages (:mod:`repro.hardware.nic`): drop, duplication,
  and reorder delay, survived by the NIC's sequence-numbered
  ack/retransmit layer;
* protocol controllers (:mod:`repro.hardware.controller`): stall
  windows and command-queue overflow back-pressure;
* computation processors (:mod:`repro.hardware.node`): per-node
  straggler slowdown factors.

See DESIGN.md section 8 for the fault model and determinism contract.
"""

from repro.faults.plan import FaultPlan, FaultSpec, MessageVerdict

__all__ = ["FaultPlan", "FaultSpec", "MessageVerdict"]
