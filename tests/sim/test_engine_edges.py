"""Edge cases of the DES kernel beyond the basic suite."""

import pytest

from repro.sim import AllOf, Event, Simulator


def test_child_process_exception_aborts_the_run():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("inner")

    def parent(cp):
        yield cp
        return "never"

    sim.process(parent(sim.process(child())))
    with pytest.raises(ValueError, match="inner"):
        sim.run()
    assert sim.now == 1


def test_all_of_with_already_processed_members():
    sim = Simulator()
    early = sim.timeout(1)

    def late_waiter():
        yield sim.timeout(10)
        yield AllOf(sim, [early])  # every member already processed
        at_once = sim.now
        yield AllOf(sim, [early, sim.timeout(5)])
        return at_once, sim.now

    p = sim.process(late_waiter())
    sim.run(until=p)
    assert p.value == (10, 15)


def test_bounce_resumes_in_the_next_slot_with_the_value():
    sim = Simulator()
    log = []
    gate = Event(sim)
    gate.succeed("v")
    sim.run()
    assert gate.processed
    sim.call_soon(log.append, "queued first")
    sim.bounce(gate, lambda event: log.append(event.value))
    sim.call_soon(log.append, "queued after")
    assert log == []
    sim.run()
    assert log == ["queued first", "v", "queued after"]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = Event(sim)
    with pytest.raises(RuntimeError):
        _ = event.value


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(42)  # type: ignore[arg-type]


def test_nested_process_chain_returns():
    sim = Simulator()

    def level(n):
        if n == 0:
            yield sim.timeout(1)
            return 0
        value = yield sim.process(level(n - 1))
        return value + 1

    p = sim.process(level(5))
    sim.run()
    assert p.value == 5
    assert sim.now == 1


def test_run_without_events_is_noop():
    sim = Simulator()
    assert sim.run() is None
    assert sim.now == 0


def test_clock_monotone_across_many_processes():
    sim = Simulator()
    stamps = []

    def proc(seed):
        delay = (seed * 7919) % 13 + 1
        for _ in range(10):
            yield sim.timeout(delay)
            stamps.append(sim.now)

    for seed in range(20):
        sim.process(proc(seed))
    sim.run()
    assert stamps == sorted(stamps)


def test_immediate_succeed_before_run():
    sim = Simulator()
    gate = Event(sim)
    gate.succeed("early")

    def proc():
        value = yield gate
        return value

    p = sim.process(proc())
    sim.run()
    assert p.value == "early"


# -- await_k ------------------------------------------------------------------

def test_await_k_synchronous_k_yields_nothing():
    sim = Simulator()
    gen = sim.await_k(lambda value, k: k(value), "now")
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "now"


def test_await_k_synchronous_k_leaves_counters_unchanged():
    def run(with_hop):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)
            if with_hop:
                got = yield from sim.await_k(lambda k: k(7))
                assert got == 7
            yield sim.timeout(1)

        sim.process(proc())
        sim.run()
        return sim.events_processed, sim._seq, sim.now

    assert run(with_hop=True) == run(with_hop=False)


def test_await_k_resumes_in_the_completing_slot():
    def run(form):
        sim = Simulator()
        log = []

        # A 10-cycle hop, plus a rival entry one sequence number behind
        # the hop's completion at the same cycle; once as a continuation
        # hop and once as its generator twin.
        def hop(k):
            sim.call_in(10, k, "done")
            sim.call_in(10, log.append, ("rival", sim.now + 10))

        def generator_hop():
            timeout = sim.pooled_timeout(10)
            sim.call_in(10, log.append, ("rival", sim.now + 10))
            yield timeout
            return "done"

        def proc():
            if form == "await_k":
                value = yield from sim.await_k(hop)
            else:
                value = yield from generator_hop()
            log.append((value, sim.now))

        sim.process(proc())
        sim.run()
        return log, sim.events_processed, sim._seq

    log, events, seq = run("await_k")
    # Resumed inside the hop's slot: ahead of the rival queued behind it.
    assert log == [("done", 10), ("rival", 10)]
    assert (log, events, seq) == run("generator")


def test_await_k_value_of_k_without_arguments_is_none():
    sim = Simulator()

    def proc():
        value = yield from sim.await_k(lambda k: sim.call_in(3, k))
        return value, sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == (None, 3)


# -- run ----------------------------------------------------------------------

def test_run_drain_returns_none_and_counts_events():
    sim = Simulator()

    def proc():
        yield sim.timeout(2)
        yield sim.timeout(3)

    sim.process(proc())
    assert sim.run() is None
    assert sim.now == 5
    assert sim.events_processed == 4  # bootstrap, two timeouts, completion
