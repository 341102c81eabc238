"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim import AllOf, Event, Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(10)
        yield sim.timeout(5)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert sim.now == 15
    assert p.value == 15


def test_zero_delay_timeout_fires_same_time():
    sim = Simulator()
    trace = []

    def proc():
        yield sim.timeout(0)
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def make(tag):
        def proc():
            yield sim.timeout(10)
            order.append(tag)
        return proc

    for tag in ("a", "b", "c"):
        sim.process(make(tag)())
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_waits_for_process():
    sim = Simulator()

    def child():
        yield sim.timeout(7)
        return 42

    def parent():
        value = yield sim.process(child())
        return value + 1

    p = sim.process(parent())
    sim.run()
    assert p.value == 43
    assert sim.now == 7


def test_wait_on_already_finished_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        return "done"

    def parent(cp):
        yield sim.timeout(10)
        value = yield cp  # already finished at t=1
        return (value, sim.now)

    cp = sim.process(child())
    p = sim.process(parent(cp))
    sim.run()
    assert p.value == ("done", 10)


def test_event_succeed_wakes_waiters():
    sim = Simulator()
    gate = Event(sim)
    woke = []

    def waiter(tag):
        value = yield gate
        woke.append((tag, value, sim.now))

    def opener():
        yield sim.timeout(5)
        gate.succeed("open")

    sim.process(waiter("w1"))
    sim.process(waiter("w2"))
    sim.process(opener())
    sim.run()
    assert woke == [("w1", "open", 5), ("w2", "open", 5)]


def test_event_double_succeed_raises():
    sim = Simulator()
    gate = Event(sim)
    gate.succeed()
    with pytest.raises(RuntimeError):
        gate.succeed()


def test_uncaught_process_exception_propagates_in_strict_mode():
    # Every simulator is strict: events only succeed, so an exception
    # raised in a process aborts the run.
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("kaput")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 17

    sim.process(bad())
    with pytest.raises(TypeError, match="bad yielded non-event 17"):
        sim.run()


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(12)
        return "answer"

    p = sim.process(proc())
    assert sim.run(until=p) == "answer"
    assert sim.now == 12


def test_run_until_event_that_never_fires_raises():
    sim = Simulator()
    gate = Event(sim)

    def proc():
        yield sim.timeout(1)

    sim.process(proc())
    with pytest.raises(RuntimeError, match="ran out of events"):
        sim.run(until=gate)


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc():
        events = [sim.timeout(d) for d in (4, 1, 6)]
        result = yield AllOf(sim, events)
        return (sim.now, result, [e.processed for e in events])

    p = sim.process(proc())
    sim.run(until=p)
    assert p.value == (6, None, [True, True, True])


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        yield AllOf(sim, [])
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 0


def test_timeout_pending_until_fired():
    # Regression: Timeout.__init__ used to assign the value immediately,
    # so `triggered` reported True before the timeout actually fired.
    sim = Simulator()
    t = sim.timeout(5)
    assert not t.triggered
    assert not t.processed
    with pytest.raises(RuntimeError, match="before it triggered"):
        t.value
    sim.run()
    assert sim.now == 5
    assert t.triggered and t.processed
    assert t.value is None


def test_run_until_timeout_advances_clock():
    # Regression: run(until=sim.timeout(d)) used to return at time 0
    # because the pre-triggered Timeout satisfied the stop condition
    # before any event was processed.
    sim = Simulator()
    ticks = []

    def ticker():
        while True:
            yield sim.timeout(4)
            ticks.append(sim.now)

    sim.process(ticker())
    value = sim.run(until=sim.timeout(10))
    assert value is None
    assert sim.now == 10
    assert ticks == [4, 8]


def test_run_until_timeout_without_other_events():
    sim = Simulator()
    assert sim.run(until=sim.timeout(25)) is None
    assert sim.now == 25


def test_determinism_across_runs():
    def build():
        sim = Simulator()
        order = []

        def proc(tag, delays):
            for d in delays:
                yield sim.timeout(d)
                order.append((tag, sim.now))

        sim.process(proc("a", [3, 3, 3]))
        sim.process(proc("b", [2, 4, 3]))
        sim.process(proc("c", [9]))
        sim.run()
        return order

    assert build() == build()
