"""The NIC's reliable delivery layer and end-to-end faulted runs.

The channel-level tests drive the raw NIC under hostile fault specs
(certain duplication, certain reorder, heavy loss) and assert the
protocol-layer contract: every payload is delivered exactly once, in
send order.  The end-to-end tests run whole applications under the
chaos spec and require termination, verification, and a value check
that finds no stale read, also in a final read of every shared word.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultSpec
from repro.harness import chaos
from repro.harness.bench import config_for
from repro.harness.experiments import scaled_app
from repro.harness.runner import ProtocolConfig, run_app
from repro.harness.telemetry import LiveRenderer
from repro.hardware.node import Cluster
from repro.hardware.params import MachineParams
from repro.sim import Simulator
from repro.stats.report import validate_report
from tests.dsm.test_mutants import MUTANTS


def _deliveries(spec, n_messages, seed, src=0, dst=3):
    """Send ``n_messages`` tagged payloads src -> dst under ``spec``;
    returns the payload list the destination handler observed."""
    params = MachineParams().replace(n_processors=4)
    sim = Simulator()
    cluster = Cluster(sim, params, with_controller=False)
    FaultPlan(seed=seed, spec=spec).install(sim, cluster)
    received = []
    cluster[dst].nic.handler = received.append

    def sender():
        nic = cluster[src].nic
        for i in range(n_messages):
            yield from nic.send(dst, ("msg", i), nbytes=256)

    sim.process(sender())
    # Bounded drops guarantee every message and ack eventually lands,
    # after which the retransmit daemons go quiet and the heap drains.
    sim.run()
    return received


HOSTILE_SPECS = {
    "drop": FaultSpec(drop_prob=0.4, max_consecutive_drops=4,
                      retx_timeout_cycles=5_000.0),
    "dup": FaultSpec(dup_prob=1.0),
    "reorder": FaultSpec(reorder_prob=0.7,
                         reorder_delay_cycles=20_000.0),
    "chaos": FaultSpec(drop_prob=0.2, dup_prob=0.3, reorder_prob=0.5,
                       reorder_delay_cycles=15_000.0,
                       retx_timeout_cycles=5_000.0),
}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_messages=st.integers(min_value=1, max_value=25),
       kind=st.sampled_from(sorted(HOSTILE_SPECS)))
def test_exactly_once_in_order_delivery(seed, n_messages, kind):
    received = _deliveries(HOSTILE_SPECS[kind], n_messages, seed)
    assert received == [("msg", i) for i in range(n_messages)]


def test_duplicates_are_suppressed_and_counted():
    params = MachineParams().replace(n_processors=4)
    sim = Simulator()
    cluster = Cluster(sim, params, with_controller=False)
    FaultPlan(seed=1, spec=FaultSpec(dup_prob=1.0)).install(sim, cluster)
    received = []
    cluster[1].nic.handler = received.append

    def sender():
        for i in range(10):
            yield from cluster[0].nic.send(1, i, nbytes=64)

    sim.process(sender())
    sim.run()
    assert received == list(range(10))
    # Every message was duplicated; every duplicate was dropped at the
    # receiver (either as an early copy or as a late one).
    assert cluster[1].nic.dups_dropped == 10


def test_loss_triggers_retransmission():
    spec = FaultSpec(drop_prob=1.0, max_consecutive_drops=2,
                     retx_timeout_cycles=5_000.0)
    params = MachineParams().replace(n_processors=4)
    sim = Simulator()
    cluster = Cluster(sim, params, with_controller=False)
    FaultPlan(seed=0, spec=spec).install(sim, cluster)
    received = []
    cluster[1].nic.handler = received.append

    def sender():
        yield from cluster[0].nic.send(1, "only", nbytes=64)

    sim.process(sender())
    sim.run()
    assert received == ["only"]
    assert cluster[0].nic.retransmits >= 1


def test_loopback_bypasses_the_reliable_layer():
    params = MachineParams().replace(n_processors=4)
    sim = Simulator()
    cluster = Cluster(sim, params, with_controller=False)
    FaultPlan(seed=0, spec=FaultSpec(drop_prob=1.0)).install(sim, cluster)
    received = []
    cluster[0].nic.handler = received.append

    def sender():
        yield from cluster[0].nic.send(0, "self", nbytes=64)

    sim.process(sender())
    sim.run()
    assert received == ["self"]
    assert cluster[0].nic.retransmits == 0


@pytest.mark.parametrize("app_name,protocol", [
    ("Em3d", "Base"),
    ("Em3d", "I+P+D"),
    ("Water", "I+P+D"),
    ("Water", "aurc"),
])
def test_faulted_run_terminates_with_correct_memory(app_name, protocol):
    if protocol.lower() == "aurc":
        config = ProtocolConfig.aurc()
    else:
        config = ProtocolConfig.treadmarks(protocol)
    baseline = run_app(scaled_app(app_name, 4, quick=True), config)
    plan = FaultPlan(seed=2, spec=FaultSpec.chaos())
    faulted = run_app(scaled_app(app_name, 4, quick=True), config,
                      faults=plan, snapshot_memory=True, audit=True)
    assert faulted.verified
    assert faulted.audit.ok
    assert faulted.fault_stats is not None
    assert sum(faulted.fault_stats["injected"].values()) > 0
    # Faults cost cycles; they must never be free.
    assert faulted.execution_cycles > baseline.execution_cycles


@pytest.mark.parametrize("protocol", ["Base", "aurc"])
def test_the_snapshot_read_value_checks_every_word(protocol):
    """What lets a chaos run be its own reference: the final read of
    the whole segment is compared word for word with the run's last
    happens-before writes -- also for TSP, whose final memory depends on
    timing (its unlocked bound read steers the search)."""
    def run(snapshot):
        return run_app(scaled_app("TSP", 4, quick=True),
                       config_for(protocol), audit=True,
                       faults=FaultPlan(seed=1, spec=FaultSpec.chaos()),
                       snapshot_memory=snapshot)

    plain, snapped = run(False), run(True)
    assert snapped.audit.ok
    assert (snapped.audit.compared - plain.audit.compared
            == snapped.final_memory.size)


def test_chaos_judges_timing_dependent_memory_by_its_own_reads():
    # TSP's final memory differs from the fault-free baseline's under
    # these seeds; the sweep passes on verification and the value check.
    report = chaos.run_chaos(seeds=2, apps=("TSP",),
                             protocols=("Base", "aurc"), procs=4,
                             echo=None)
    assert report["ok"], report["rows"]
    assert report["total"] == report["survived"] == report["clean"] == 4
    assert all(row["verified"] for row in report["rows"])


def test_chaos_fails_under_a_notice_dropping_mutant(monkeypatch):
    # Armed in every run: each cell's fault-free baseline raises, which
    # fails that cell's rows and leaves the sweep going to the next.
    MUTANTS["drop-notice"](monkeypatch)
    events = []
    report = chaos.run_chaos(seeds=2, apps=("Em3d", "Water"),
                             protocols=("Base",), procs=4, echo=None,
                             on_event=events.append)
    assert not report["ok"]
    assert report["total"] == 4 and report["survived"] == 0
    for row in report["rows"]:
        assert not row["verified"]
        assert row["error"].startswith("baseline: AssertionError"), row
    assert validate_report(report) == []
    cells = [e for e in events if e["kind"] == "chaos_cell"]
    assert [e["app"] for e in cells] == ["Em3d", "Water"]
    lines = []
    LiveRenderer(echo=lines.append)(cells[0])
    assert "Em3d/TM/Base FAILED -- baseline: AssertionError" in lines[0]


def test_faulted_runs_are_deterministic():
    config = ProtocolConfig.treadmarks("I+P+D")
    spec = FaultSpec.chaos()

    def one(seed):
        return run_app(scaled_app("Em3d", 4, quick=True), config,
                       faults=FaultPlan(seed=seed, spec=spec),
                       snapshot_memory=True)

    first, second = one(5), one(5)
    assert first.execution_cycles == second.execution_cycles
    assert list(first.finish_times) == list(second.finish_times)
    assert first.fault_stats == second.fault_stats
    assert np.array_equal(first.final_memory, second.final_memory)
    # A different seed realizes a different fault sequence.
    other = one(6)
    assert other.fault_stats != first.fault_stats


def test_fault_metrics_and_retx_traces_are_recorded():
    config = ProtocolConfig.treadmarks("I+P+D")
    spec = FaultSpec(drop_prob=0.3, max_consecutive_drops=3,
                     retx_timeout_cycles=5_000.0)
    result = run_app(scaled_app("Em3d", 4, quick=True), config,
                     faults=FaultPlan(seed=3, spec=spec),
                     trace=True, metrics=True)
    counters = {c["name"] for c in result.metrics.to_json()["counters"]}
    assert "faults_injected" in counters
    assert "nic_retransmits" in counters
    assert "nic_acks" in counters
    retx = [e for e in result.tracer.events if e.category == "retx"]
    assert retx, "retransmit legs must be traced"
    assert all(e.payload["action"] == "retransmit" for e in retx)


def test_snapshot_matches_the_segment_allocation():
    config = ProtocolConfig.treadmarks("Base")
    result = run_app(scaled_app("Em3d", 4, quick=True), config,
                     snapshot_memory=True)
    assert isinstance(result.final_memory, np.ndarray)
    assert result.final_memory.size > 0
