"""Fault specifications and seeded fault plans.

A :class:`FaultSpec` is a frozen, JSON-serializable description of the
fault rates and magnitudes to inject.  A :class:`FaultPlan` binds one
spec to one seed and holds all mutable injection state: the plan's own
``random.Random`` (never the simulator's), per-channel consecutive-drop
bounds, and injected-fault counters.  Plans are single-use: installing
one into a second simulation would replay a *different* fault sequence
(the RNG has advanced), so :meth:`FaultPlan.install` refuses reuse.

Determinism contract: the simulation kernel is single-threaded and
processes events in a deterministic order, so the plan's draws happen
in a reproducible sequence.  Hardware layers consult the plan only when
the corresponding fault family is armed (rate > 0); an all-empty spec
therefore performs zero draws and leaves the run cycle-identical to an
un-faulted one.

Liveness: unbounded random drops could starve a retransmit channel
forever.  ``max_consecutive_drops`` caps the run of consecutive drops
per directed channel (data and ack channels count separately); after
that many losses in a row the next transmission is forced through, so
every message is delivered after a bounded number of attempts and
every faulted run terminates.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

__all__ = ["FaultSpec", "FaultPlan", "MessageVerdict"]


class MessageVerdict(NamedTuple):
    """One transmission attempt's fate: lost, duplicated, delayed."""

    drop: bool = False
    duplicate: bool = False
    delay: float = 0.0


@dataclass(frozen=True)
class FaultSpec:
    """What to inject, and how hard.  All rates default to zero (off).

    Message faults (``drop_prob`` / ``dup_prob`` / ``reorder_prob``)
    arm the NIC's reliable delivery layer; network faults
    (``spike_prob``) arm the mesh hook; controller faults
    (``ctrl_stall_prob`` / ``ctrl_queue_limit``) arm the protocol
    controller hook; ``straggler_nodes`` slows selected computation
    processors by ``straggler_factor``.
    """

    # -- message-level faults (NIC reliable layer) ----------------------
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_delay_cycles: float = 4_000.0
    # -- mesh faults ----------------------------------------------------
    spike_prob: float = 0.0
    spike_cycles: float = 2_000.0
    spike_links: Tuple[Tuple[int, int], ...] = ()  # () = every link
    # -- straggler nodes ------------------------------------------------
    straggler_nodes: Tuple[int, ...] = ()
    straggler_factor: float = 1.0
    # -- protocol-controller faults ------------------------------------
    ctrl_stall_prob: float = 0.0
    ctrl_stall_cycles: float = 5_000.0
    ctrl_queue_limit: int = 0  # 0 = unbounded (back-pressure off)
    ctrl_retry_cycles: float = 200.0
    # -- liveness and recovery knobs -----------------------------------
    max_consecutive_drops: int = 8
    retx_timeout_cycles: float = 25_000.0
    retx_backoff_cap_cycles: float = 200_000.0

    @property
    def message_faults_armed(self) -> bool:
        return (self.drop_prob > 0.0 or self.dup_prob > 0.0
                or self.reorder_prob > 0.0)

    @property
    def network_armed(self) -> bool:
        return self.spike_prob > 0.0

    @property
    def controller_armed(self) -> bool:
        return self.ctrl_stall_prob > 0.0 or self.ctrl_queue_limit > 0

    @property
    def empty(self) -> bool:
        return not (self.message_faults_armed or self.network_armed
                    or self.controller_armed
                    or (self.straggler_nodes
                        and self.straggler_factor != 1.0))

    @classmethod
    def chaos(cls) -> "FaultSpec":
        """The default chaos-sweep spec: every fault family armed at
        rates high enough to exercise recovery on a quick run, low
        enough to keep the overhead (and runtime) moderate."""
        return cls(
            drop_prob=0.02,
            dup_prob=0.02,
            reorder_prob=0.05,
            reorder_delay_cycles=4_000.0,
            spike_prob=0.02,
            spike_cycles=2_000.0,
            straggler_nodes=(1,),
            straggler_factor=1.25,
            ctrl_stall_prob=0.01,
            ctrl_stall_cycles=5_000.0,
            ctrl_queue_limit=32,
        )

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["spike_links"] = [list(pair) for pair in self.spike_links]
        doc["straggler_nodes"] = list(self.straggler_nodes)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown FaultSpec keys: {', '.join(sorted(unknown))}")
        kwargs = dict(doc)
        if "spike_links" in kwargs:
            kwargs["spike_links"] = tuple(
                tuple(pair) for pair in kwargs["spike_links"])
        if "straggler_nodes" in kwargs:
            kwargs["straggler_nodes"] = tuple(kwargs["straggler_nodes"])
        return cls(**kwargs)


class FaultPlan:
    """One seeded realization of a :class:`FaultSpec`.

    The plan owns its RNG; hardware layers call the verdict methods
    below from inside simulation processes, so draws happen in the
    kernel's deterministic event order.  Each injected fault is counted
    in ``injected`` and emitted as an ``inject`` event, which a metrics
    registry folds into ``faults_injected``.
    """

    def __init__(self, seed: int = 0, spec: Optional[FaultSpec] = None):
        self.seed = seed
        self.spec = spec if spec is not None else FaultSpec()
        self.rng = random.Random(seed)
        self.sim = None
        self.injected: Dict[str, int] = {}
        self._consecutive_drops: Dict[tuple, int] = {}
        self._spike_links = frozenset(
            tuple(pair) for pair in self.spec.spike_links)
        self._installed = False

    # -- JSON plan files -----------------------------------------------

    def to_json(self) -> dict:
        return {"seed": self.seed, "spec": self.spec.to_dict()}

    @classmethod
    def from_json(cls, doc: dict) -> "FaultPlan":
        spec = FaultSpec.from_dict(doc.get("spec", {}))
        return cls(seed=int(doc.get("seed", 0)), spec=spec)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    # -- installation ---------------------------------------------------

    def install(self, sim, cluster) -> None:
        """Arm the cluster's hardware hooks for this plan.

        Only the armed fault families are wired up, so an empty spec
        installs nothing and the simulation keeps every fast path.
        A plan is single-use; reuse raises.
        """
        if self._installed:
            raise RuntimeError(
                "FaultPlan already installed; plans are single-use "
                "(their RNG state advances during a run)")
        self._installed = True
        self.sim = sim
        spec = self.spec
        if spec.network_armed:
            cluster.network.faults = self
        for node in cluster.nodes:
            if spec.message_faults_armed:
                node.nic.enable_reliability(self)
            if (node.node_id in spec.straggler_nodes
                    and spec.straggler_factor != 1.0):
                node.cpu.slowdown = spec.straggler_factor
            if node.controller is not None and spec.controller_armed:
                node.controller.faults = self

    # -- bookkeeping ----------------------------------------------------

    def count(self, kind: str, **labels) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        tracer = self.sim.tracer if self.sim is not None else None
        if tracer is not None:
            tracer.emit("inject", kind=kind, **labels)

    def _bounded_drop(self, channel: tuple, prob: float) -> bool:
        """Draw a drop, bounded to ``max_consecutive_drops`` in a row
        per channel so delivery (and the whole run) stays live."""
        drops = self._consecutive_drops
        if self.rng.random() < prob:
            streak = drops.get(channel, 0)
            if streak < self.spec.max_consecutive_drops:
                drops[channel] = streak + 1
                return True
        drops[channel] = 0
        return False

    # -- verdicts (called from simulation processes) -------------------

    def message_verdict(self, src: int, dst: int) -> MessageVerdict:
        """Fate of one data-message transmission attempt on src->dst."""
        spec = self.spec
        if spec.drop_prob > 0.0:
            if self._bounded_drop(("data", src, dst), spec.drop_prob):
                self.count("drop", src=src, dst=dst)
                return MessageVerdict(drop=True)
        duplicate = False
        delay = 0.0
        if spec.dup_prob > 0.0 and self.rng.random() < spec.dup_prob:
            duplicate = True
            self.count("dup", src=src, dst=dst)
        if spec.reorder_prob > 0.0 \
                and self.rng.random() < spec.reorder_prob:
            # Delay is 1-2x the nominal, so a delayed message reliably
            # falls behind its successors (a genuine reorder).
            delay = spec.reorder_delay_cycles * (1.0 + self.rng.random())
            self.count("reorder", src=src, dst=dst)
        return MessageVerdict(drop=False, duplicate=duplicate, delay=delay)

    def ack_dropped(self, src: int, dst: int) -> bool:
        """Whether one acknowledgement on src->dst is lost (bounded)."""
        if self.spec.drop_prob <= 0.0:
            return False
        if self._bounded_drop(("ack", src, dst), self.spec.drop_prob):
            self.count("ack_drop", src=src, dst=dst)
            return True
        return False

    def route_armed(self, path: Sequence[tuple]) -> bool:
        """Whether the mesh hook is armed on any link of ``path``.

        The network draws spikes (:meth:`link_spike`) only for armed
        routes, so an unarmed transfer consumes no RNG.
        """
        if self.spec.spike_prob <= 0.0:
            return False
        if not self._spike_links:
            return True
        return any(link in self._spike_links for link in path)

    def link_spike(self, path: Sequence[tuple]) -> float:
        """Total spike cycles drawn across the armed links of a route."""
        spec = self.spec
        spike = 0.0
        armed = self._spike_links
        for link in path:
            if armed and link not in armed:
                continue
            if self.rng.random() < spec.spike_prob:
                spike += spec.spike_cycles
                self.count("spike", link=f"{link[0]}->{link[1]}")
        return spike

    def controller_stall(self, node_id: int) -> float:
        """Stall cycles to insert before the controller's next command."""
        spec = self.spec
        if spec.ctrl_stall_prob <= 0.0:
            return 0.0
        if self.rng.random() < spec.ctrl_stall_prob:
            self.count("ctrl_stall", node=node_id)
            return spec.ctrl_stall_cycles
        return 0.0

    # -- reporting ------------------------------------------------------

    def summary(self, cluster) -> dict:
        """Injected-fault and recovery counters for reports."""
        doc = {
            "seed": self.seed,
            "injected": dict(sorted(self.injected.items())),
            "retransmits": 0,
            "dups_dropped": 0,
            "acks_sent": 0,
        }
        for node in cluster.nodes:
            nic = node.nic
            doc["retransmits"] += nic.retransmits
            doc["dups_dropped"] += nic.dups_dropped
            doc["acks_sent"] += nic.acks_sent
        return doc
