"""Tests for the one-slot contended resource."""

import pytest

from repro.sim import Resource, Simulator


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


