"""Tests for the kernel fast paths: event pooling, synchronous resource
acquisition, and daemon processes.

Every fast path here has the same contract: identical simulated cycles
and identical statistics to the event-per-step path it replaces, with
fewer heap events.  The tests pin both halves -- the equivalence and
the event saving.
"""


from repro.sim import Event, Resource, Simulator


# -- pooled events ------------------------------------------------------------

def test_pooled_timeout_objects_are_recycled():
    sim = Simulator()
    seen = []

    def proc():
        for _ in range(8):
            t = sim.pooled_timeout(5)
            seen.append(t)
            yield t

    sim.process(proc())
    sim.run()
    assert sim.now == 40
    # A serial chain reuses the same free-listed object after the first.
    assert len(set(map(id, seen))) < len(seen)


def test_recycled_timeout_leaks_no_state():
    sim = Simulator()
    values = []

    def proc():
        first = sim.pooled_timeout(1)
        got = yield first
        values.append(got)
        second = sim.pooled_timeout(1)  # may be the same object, reused
        # The recycled object's state must be reset, not left from its
        # previous life.
        assert not second.triggered and not second.processed
        got = yield second
        values.append(got)

    sim.process(proc())
    sim.run()
    assert values == [None, None]


def test_pooled_event_not_reused_while_scheduled():
    sim = Simulator()

    def proc():
        sim.pooled_timeout(10)
        # Losing the race: something else wakes us first; the pooled
        # timeout's heap entry is still pending.
        gate = Event(sim)
        gate.succeed("winner")
        got = yield gate
        assert got == "winner"
        # Draining the abandoned timeout later must be harmless.
        yield sim.pooled_timeout(20)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 20


def _pool_ids_unique(sim):
    for pool in (sim._event_pool, sim._timeout_pool, sim._cont_pool):
        if len(set(map(id, pool))) != len(pool):
            return False
    return True


# -- Resource.try_acquire -----------------------------------------------------

def test_try_acquire_grants_when_idle_and_quiet():
    sim = Simulator()
    res = Resource(sim)
    req = res.try_acquire()
    assert req is not None
    assert res.holder is req
    assert res.total_requests == 1
    res.release(req)
    assert res.holder is None


def test_try_acquire_refuses_when_busy_or_noisy():
    sim = Simulator()
    res = Resource(sim)
    held = res.try_acquire()
    assert res.try_acquire() is None  # no free slot
    res.release(held)
    sim.timeout(0)  # a same-time heap entry makes the window non-quiet
    assert res.try_acquire() is None


def test_try_acquire_matches_request_statistics():
    def run(use_fast):
        sim = Simulator()
        res = Resource(sim)

        def worker():
            for _ in range(4):
                req = res.try_acquire() if use_fast else None
                if req is None:
                    req = res.request()
                    yield req
                yield sim.timeout(10)
                res.release(req)
            return sim.now

        p = sim.process(worker())
        sim.run()
        return p.value, res.busy_time, res.total_requests, res.wait_time

    assert run(True) == run(False)


# -- daemon processes ---------------------------------------------------------

def test_daemon_completion_skips_heap_event():
    sim = Simulator()

    def flight():
        yield sim.timeout(5)

    def spawner():
        sim.process(flight(), daemon=True)
        yield sim.timeout(100)

    sim.process(spawner())
    sim.run()
    sim2 = Simulator()

    def spawner2():
        sim2.process(flight2(), daemon=False)
        yield sim2.timeout(100)

    def flight2():
        yield sim2.timeout(5)

    sim2.process(spawner2())
    sim2.run()
    assert sim.now == sim2.now == 100
    assert sim.events_processed == sim2.events_processed - 1


def test_daemon_with_waiter_still_fires():
    sim = Simulator()

    def flight():
        yield sim.timeout(5)
        return "landed"

    def waiter():
        p = sim.process(flight(), daemon=True)
        got = yield p  # the spawner kept the handle after all
        return got

    w = sim.process(waiter())
    sim.run()
    assert w.value == "landed"
