"""Tests for the one-slot contended resource."""

import gc

import pytest

from repro.sim import Resource, Simulator
from repro.sim.resources import Request


def test_resource_serializes_users():
    sim = Simulator()
    res = Resource(sim)
    grants = []

    def user(tag, hold):
        req = res.request()
        yield req
        grants.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    sim.process(user("a", 10))
    sim.process(user("b", 10))
    sim.process(user("c", 10))
    sim.run()
    assert grants == [("a", 0), ("b", 10), ("c", 20)]


def test_release_unheld_request_raises():
    sim = Simulator()
    res = Resource(sim)

    def p1():
        req = res.request()
        yield req
        res.release(req)
        with pytest.raises(RuntimeError):
            res.release(req)

    sim.process(p1())
    sim.run()


def test_resource_statistics():
    sim = Simulator()
    res = Resource(sim)

    def user(hold):
        req = res.request()
        yield req
        yield sim.timeout(hold)
        res.release(req)

    sim.process(user(10))
    sim.process(user(10))
    sim.run()
    assert sim.now == 20
    assert res.total_requests == 2
    assert res.busy_time == 20
    assert res.wait_time == 10  # second user waited 10 cycles
    assert res.utilization() == pytest.approx(1.0)


# -- contention statistics --------------------------------------------------


def test_utilization_with_explicit_elapsed():
    sim = Simulator()
    res = Resource(sim)

    def user(hold):
        req = res.request()
        yield req
        yield sim.timeout(hold)
        res.release(req)

    sim.process(user(10))
    sim.process(user(30))
    sim.run()
    # 40 busy cycles (the two holds serialize) over an 80-cycle window.
    assert sim.now == 40
    assert res.utilization(elapsed=80) == pytest.approx(40 / 80)
    # Default window is sim.now.
    assert res.utilization() == pytest.approx(1.0)
    # Degenerate window.
    assert res.utilization(elapsed=0) == 0.0


def test_peak_queue_length_high_water_mark():
    sim = Simulator()
    res = Resource(sim)

    def user(delay):
        yield sim.timeout(delay)
        req = res.request()
        yield req
        yield sim.timeout(10)
        res.release(req)

    for delay in (0, 1, 2, 3):
        sim.process(user(delay))
    sim.run()
    # Three users queued behind the first before any release.
    assert res.peak_queue_length == 3
    assert res.queue_length == 0


def test_peak_queue_length_zero_when_uncontended():
    # Regression: the peak was recorded between enqueue and grant, so a
    # lone request momentarily counted as a queue of 1.
    sim = Simulator()
    res = Resource(sim)

    def user(delay):
        yield sim.timeout(delay)
        req = res.request()
        yield req
        yield sim.timeout(1)
        res.release(req)

    # Strictly serialized users: never more than one in service.
    for delay in (0, 5, 10):
        sim.process(user(delay))
    sim.run()
    assert res.total_requests == 3
    assert res.peak_queue_length == 0
    assert res.wait_time == 0


def test_granted_request_is_freed_by_refcount():
    """A contended grant leaves no reference cycle: once released and
    dropped, the request dies by refcount, without the cyclic
    collector (which stays off while the run executes)."""

    def live_requests():
        return sum(type(obj) is Request for obj in gc.get_objects())

    sim = Simulator()
    res = Resource(sim)
    granted = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(10)
        res.release(req)

    def waiter():
        req = res.request()  # queued behind holder: a contended grant
        yield req
        granted.append(sim.now)
        res.release(req)

    gc.collect()  # drop what earlier tests left behind
    before = live_requests()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert granted == [10] and res.holder is None
        assert live_requests() == before
    finally:
        if was_enabled:
            gc.enable()
