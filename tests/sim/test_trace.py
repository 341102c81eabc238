"""Tracer behaviour."""

import pytest

from repro.sim import Simulator
from repro.sim.trace import TraceEvent, Tracer
from repro.stats.metrics import MetricsRegistry


@pytest.fixture
def rig():
    sim = Simulator()
    return sim, Tracer(sim)


def test_enable_and_emit(rig):
    sim, tracer = rig
    tracer.emit("fault", page=1, node=0)
    tracer.emit("spike", spike=64.0)  # feeds metrics only, never recorded
    assert len(tracer.events) == 1
    event = tracer.events[0]
    assert event.category == "fault"
    assert event.page == 1 and event.node == 0
    assert event.time == 0


def test_events_carry_sim_time(rig):
    sim, tracer = rig

    def proc():
        yield sim.timeout(42)
        tracer.emit("net", n=1)

    sim.process(proc())
    sim.run()
    assert tracer.events[0].time == 42


def test_select_filters(rig):
    sim, tracer = rig
    for node in (0, 1, 0):
        tracer.emit("fault", node=node)
    tracer.emit("lock", node=1)
    assert len(list(tracer.select(category="fault", node=0))) == 2
    assert len(list(tracer.select(node=1))) == 2
    assert list(tracer.select(category="barrier")) == []
    assert tracer.counts() == {"fault": 3, "lock": 1}


def test_limit_drops_excess(rig):
    sim, _ = rig
    tracer = Tracer(sim, limit=2)
    for i in range(5):
        tracer.emit("msg", i=i)
    assert len(tracer.events) == 2
    assert tracer.dropped == 3


@pytest.mark.parametrize("record", [False, True])
def test_registry_folds_every_emitted_event(rig, record):
    sim, _ = rig
    registry = MetricsRegistry()
    tracer = Tracer(sim, record=record, registry=registry)
    tracer.emit("fault", node=0, action="read", page=1, begin=0, dur=80.0)
    tracer.emit("ack", node=0, dst=1)  # registry-only category
    assert [e.category for e in tracer.events] == (
        ["fault"] if record else [])
    assert registry.counter("faults", node=0, kind="read").value == 1
    assert registry.histogram("fault_stall_cycles", kind="read").sum == 80.0
    assert registry.counter("nic_acks", node=0, dst=1).value == 1


def test_event_str_and_missing_attr(rig):
    sim, tracer = rig
    event = TraceEvent(5.0, "fault", {"page": 3})
    assert "fault" in str(event) and "page=3" in str(event)
    with pytest.raises(AttributeError):
        _ = event.nonexistent


def test_event_pickle_round_trip():
    import pickle

    event = TraceEvent(5.0, "fault", {"page": 3, "node": 1})
    clone = pickle.loads(pickle.dumps(event))
    assert clone == event
    assert clone.page == 3 and clone.node == 1


def test_event_deepcopy():
    import copy

    event = TraceEvent(5.0, "fault", {"page": 3})
    clone = copy.deepcopy(event)
    assert clone == event and clone.payload is not event.payload


def test_event_underscore_lookup_raises_cleanly():
    event = TraceEvent(5.0, "fault", {"_private": 1, "payload": 2})
    # Underscore names and "payload" never resolve through the payload
    # dict (that path is what used to recurse under pickle/deepcopy).
    with pytest.raises(AttributeError):
        _ = event._private
    assert event.payload == {"_private": 1, "payload": 2}
