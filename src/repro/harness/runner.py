"""Run one (application, protocol, machine) configuration end to end.

The runner owns the whole lifecycle: build the simulator and cluster,
allocate the application's shared segment, start one worker coroutine
per processor, run to completion, snapshot the per-processor time
breakdowns (the *timed region* ends when the last worker returns), and
then run the application's epilogue -- result verification through the
DSM -- outside the timed region.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.dsm.aurc import Aurc
from repro.dsm.overlap import BASE, OverlapMode, mode_by_name
from repro.dsm.shmem import DsmApi, SharedSegment
from repro.dsm.treadmarks import TreadMarks
from repro.hardware.network import NetworkStats
from repro.hardware.node import Cluster
from repro.hardware.params import MachineParams
from repro.sim import AllOf, Simulator
from repro.sim.trace import Tracer
from repro.stats.breakdown import Category, TimeBreakdown
from repro.stats.metrics import MetricsRegistry
from repro.stats.sampler import DEFAULT_SAMPLE_INTERVAL, Sampler

__all__ = ["ProtocolConfig", "RunResult", "run_app"]


@dataclass(frozen=True)
class ProtocolConfig:
    """Which protocol to run: TreadMarks in some overlap mode, or AURC.

    Construct via the named helpers: ``ProtocolConfig.treadmarks("I+D")``
    or ``ProtocolConfig.aurc(prefetch=True)``.
    """

    family: str                      # "tm" | "aurc"
    mode: OverlapMode = BASE         # TreadMarks overlap mode
    prefetch: bool = False           # AURC prefetching

    @staticmethod
    def treadmarks(mode_name: str = "Base") -> "ProtocolConfig":
        return ProtocolConfig(family="tm", mode=mode_by_name(mode_name))

    @staticmethod
    def aurc(prefetch: bool = False) -> "ProtocolConfig":
        return ProtocolConfig(family="aurc", prefetch=prefetch)

    @property
    def label(self) -> str:
        if self.family == "tm":
            return f"TM/{self.mode.name}"
        return "AURC+P" if self.prefetch else "AURC"

    @property
    def needs_controller(self) -> bool:
        return self.family == "tm" and self.mode.uses_controller


@dataclass
class RunResult:
    """Everything an experiment needs from one run.

    ``network``, ``protocol_stats``, ``lock_stats`` and ``barrier_stats``
    are snapshots taken at the end of the timed region, so the verify
    and snapshot epilogues never add to them.  ``metrics`` and
    ``tracer`` stay streams over the simulator's whole lifetime,
    epilogues included: a request span may end inside the epilogue.
    """

    app_name: str
    protocol_label: str
    n_procs: int
    execution_cycles: float
    breakdowns: List[TimeBreakdown]
    finish_times: List[float]
    network: NetworkStats
    protocol_stats: object
    controller_diff_cycles: List[float] = field(default_factory=list)
    lock_stats: object = None
    barrier_stats: object = None
    verified: bool = False
    tracer: object = None            # Tracer when run with trace=True
    metrics: object = None           # MetricsRegistry when metrics=True
    events_processed: int = 0        # kernel events in the timed region
    wall_seconds: float = 0.0        # host time for the timed region
    fault_stats: object = None       # FaultPlan summary when faults ran
    final_memory: object = None      # ndarray when snapshot_memory=True
    audit: object = None             # CoherenceAuditor when audit=True
    # End-of-run coherence-metadata footprint (compact bytes, dict-
    # equivalent bytes, page count) -- the scale sweeps' memory metric.
    coherence_state: Optional[dict] = None

    @property
    def merged_breakdown(self) -> TimeBreakdown:
        merged = TimeBreakdown()
        for b in self.breakdowns:
            merged = merged.merged_with(b)
        return merged

    def category_fraction(self, category: Category) -> float:
        return self.merged_breakdown.fraction(category)

    def to_json(self) -> dict:
        """Plain-JSON summary for downstream tooling/archiving.

        The document is complete enough for
        :class:`repro.harness.parallel.SimResult` to reconstruct
        everything the figure functions and ``format_run`` consume, so
        cached results are interchangeable with live ones.
        """
        merged = self.merged_breakdown
        doc = {
            "app": self.app_name,
            "protocol": self.protocol_label,
            "n_procs": self.n_procs,
            "execution_cycles": self.execution_cycles,
            "breakdown": merged.as_dict(),
            "finish_times": list(self.finish_times),
            "network": {
                "messages": self.network.messages,
                "bytes": self.network.bytes,
                "mean_latency": self.network.mean_latency(),
                "per_class_bytes": dict(self.network.per_class_bytes),
            },
            "diff_fraction": self.diff_fraction(),
            "controller_diff_cycles": list(self.controller_diff_cycles),
            "verified": self.verified,
            "events_processed": self.events_processed,
            "wall_seconds": self.wall_seconds,
        }
        if self.audit is not None:
            doc["audit"] = {
                "events": self.audit.events,
                "violations": self.audit.violation_count,
            }
        if self.coherence_state is not None:
            doc["coherence_state"] = dict(self.coherence_state)
        if dataclasses.is_dataclass(self.protocol_stats):
            counters = dataclasses.asdict(self.protocol_stats)
            prefetch = counters.pop("prefetch", None)
            doc["protocol_counters"] = counters
            if prefetch is not None:
                doc["prefetch"] = prefetch
        return doc

    def diff_fraction(self) -> float:
        """Twin+diff time (processor + controller) as a fraction of the
        total processor time (the figure 2 percentage)."""
        merged = self.merged_breakdown
        total = merged.total
        if not total:
            return 0.0
        diff = merged.diff_cycles + sum(self.controller_diff_cycles)
        return diff / total


def _worker_body(app, api: DsmApi, pid: int):
    """Wrap a worker so trailing buffered compute cycles are charged
    before the processor reports finished."""
    result = yield from app.worker(api, pid)
    yield from api.flush_compute()
    return result


def _snapshot_body(api: DsmApi, total_words: int, words_per_page: int):
    """Read the whole shared segment through the DSM on one node.

    Runs outside the timed region (like the verify epilogue).  Going
    through the protocol -- rather than peeking at page frames --
    brings the reading node coherence-current first, so the snapshot is
    the memory image any node would observe after the run.
    """
    import numpy as np

    chunks = []
    for base in range(0, total_words, words_per_page):
        count = min(words_per_page, total_words - base)
        values = yield from api.read(base, count)
        chunks.append(np.array(values, dtype=np.float64, copy=True))
    if not chunks:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(chunks)


def _build_protocol(config: ProtocolConfig, sim: Simulator,
                    cluster: Cluster, params: MachineParams,
                    segment: SharedSegment):
    if config.family == "tm":
        return TreadMarks(sim, cluster, params, segment, mode=config.mode)
    if config.family == "aurc":
        return Aurc(sim, cluster, params, segment, prefetch=config.prefetch)
    raise ValueError(f"unknown protocol family {config.family!r}")


def run_app(app, config: ProtocolConfig,
            params: Optional[MachineParams] = None,
            verify: bool = True,
            trace: bool = False,
            metrics: bool = False,
            trace_limit: int = 500_000,
            sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
            faults=None,
            snapshot_memory: bool = False,
            audit: bool = False) -> RunResult:
    """Simulate ``app`` under ``config``; returns the :class:`RunResult`.

    ``app.nprocs`` fixes the processor count; ``params`` (if given) must
    agree or is adjusted via ``replace``.

    The model reports through one :class:`Tracer`, attached when either
    is requested: ``trace=True`` makes it record (capped at
    ``trace_limit`` events) and ``metrics=True`` attaches a
    :class:`MetricsRegistry` that folds every emitted event, plus a
    periodic :class:`Sampler`.  The recording tracer and the registry
    end up on the result (``result.tracer`` / ``result.metrics``).  With
    both off -- the default -- no observability object is created and
    the simulation pays only a None-check per emit site.  ``trace`` may
    also be a pre-built :class:`Tracer` (even one constructed with
    ``sim=None``; it is bound to this run's simulator here): callers
    holding the tracer before the run starts can flush a partial trace
    when the run dies, instead of losing every recorded event.

    ``run_app`` emits no telemetry: its callers -- the sweep runner's
    ``job_*`` events, chaos's ``chaos_run`` -- report each run once,
    from the coordinating process (:mod:`repro.harness.telemetry`).

    ``faults`` (a fresh :class:`~repro.faults.FaultPlan`) arms fault
    injection on the cluster before any worker starts; its summary
    lands on ``result.fault_stats``.  ``snapshot_memory=True`` reads
    the whole shared segment through the DSM on node 0 after the run
    (and after verification) into ``result.final_memory``, so callers
    can compare final shared-memory contents across runs.

    ``audit=True`` attaches a
    :class:`~repro.dsm.audit.CoherenceAuditor` (``result.audit``): a
    passive subscriber to per-page protocol state transitions that
    checks every read against its last happens-before write.  The
    auditor never consumes simulator RNG or schedules events, so the
    run stays bit-identical in cycles to an unaudited one; its state
    digests are frozen at the end of the timed region (before the
    verify epilogue).
    """
    params = params or MachineParams()
    if params.n_processors != app.nprocs:
        params = params.replace(n_processors=app.nprocs)
    sim = Simulator()
    try:
        registry = MetricsRegistry() if metrics else None
        tracer = None
        if trace:
            tracer = trace if isinstance(trace, Tracer) \
                else Tracer(None, limit=trace_limit)
            tracer.sim = sim
            tracer.registry = registry
            sim.tracer = tracer
        elif metrics:
            sim.tracer = Tracer(sim, record=False, registry=registry)
        cluster = Cluster(sim, params, with_controller=config.needs_controller)
        if faults is not None:
            faults.install(sim, cluster)
        segment = SharedSegment(params)
        app.allocate(segment)
        protocol = _build_protocol(config, sim, cluster, params, segment)
        auditor = None
        if audit:
            from repro.dsm.audit import CoherenceAuditor
            auditor = CoherenceAuditor(sim)
            sim.audit = auditor
            protocol.attach_audit(auditor)
        sampler = None
        if metrics:
            sampler = Sampler(sim, registry, cluster, protocol,
                              interval=sample_interval)

        done_events = []
        for pid in range(app.nprocs):
            api = DsmApi(protocol, pid)
            done_events.append(
                cluster[pid].cpu.start(_worker_body(app, api, pid)))
        wall_start = time.perf_counter()
        sim.run(until=AllOf(sim, done_events))
        wall_seconds = time.perf_counter() - wall_start
        events_processed = sim.events_processed
        if sampler is not None:
            sampler.stop()

        # Compare against None explicitly: a worker may legitimately finish
        # at cycle 0, and `or` would replace that with sim.now.
        finish_times = [sim.now if cluster[pid].cpu.finished_at is None
                        else cluster[pid].cpu.finished_at
                        for pid in range(app.nprocs)]
        execution_cycles = max(finish_times)
        breakdowns = [cluster[pid].cpu.breakdown.copy()
                      for pid in range(app.nprocs)]
        protocol.finalize()
        if auditor is not None:
            # Freeze the state digests at the end of the timed region:
            # verify/snapshot epilogues fault pages through the DSM and
            # would otherwise fold nondeterministic-looking extra
            # transitions into the golden digests.
            auditor.freeze()

        result = RunResult(
            app_name=app.name,
            protocol_label=config.label,
            n_procs=app.nprocs,
            execution_cycles=execution_cycles,
            breakdowns=breakdowns,
            finish_times=finish_times,
            network=copy.deepcopy(cluster.network.stats),
            protocol_stats=copy.deepcopy(protocol.stats),
            controller_diff_cycles=list(
                getattr(protocol, "controller_diff_cycles", [])),
            lock_stats=copy.deepcopy(protocol.locks.stats),
            barrier_stats=copy.deepcopy(protocol.barriers.stats),
            tracer=tracer,
            metrics=registry,
            events_processed=events_processed,
            wall_seconds=wall_seconds,
            audit=auditor,
            coherence_state=protocol.coherence_state_report(),
        )

        if verify:
            # The epilogue reads results through the DSM on processor 0,
            # outside the timed region; it raises on mismatch.
            api0 = DsmApi(protocol, 0)
            epilogue_done = sim.process(app.epilogue(api0))
            sim.run(until=epilogue_done)
            result.verified = True
        if snapshot_memory:
            api0 = DsmApi(protocol, 0)
            snapshot_done = sim.process(
                _snapshot_body(api0, segment.total_words,
                               params.words_per_page))
            result.final_memory = sim.run(until=snapshot_done)
        if faults is not None:
            result.fault_stats = faults.summary(cluster)
        return result
    finally:
        # Nothing is simulated after this point: free the run's object
        # graph by refcount instead of leaving it to the cyclic GC.
        sim.close()
