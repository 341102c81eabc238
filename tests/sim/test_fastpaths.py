"""Tests for the kernel fast paths: event pooling, synchronous resource
acquisition, and daemon processes.

Every fast path here has the same contract: identical simulated cycles
and identical statistics to the event-per-step path it replaces, with
fewer heap events.  The tests pin both halves -- the equivalence and
the event saving.
"""


from repro.sim import Event, Interrupt, Resource, Simulator


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
        first = sim.pooled_timeout(1, value="first")
        got = yield first
        values.append(got)
        second = sim.pooled_timeout(1)  # may be the same object, reused
        got = yield second
        values.append(got)
        assert second._exception is None

    sim.process(proc())
    sim.run()
    # The recycled object's value must be reset, not left from its
    # previous life.
    assert values == ["first", None]


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


def test_interrupt_during_pooled_timeout_keeps_pool_intact():
    # An interrupt detaches the waiter mid-flight; the orphaned pooled
    # timeout still fires (with no callbacks) and must be recycled
    # exactly once -- never double-inserted into the free list, and
    # never handed back out while its heap entry is still pending.
    sim = Simulator()
    log = []

    def victim():
        orphan = sim.pooled_timeout(10)
        try:
            yield orphan
            log.append("timeout")
        except Interrupt:
            log.append("interrupted")
            # Survive and immediately reuse the pool.
            fresh = sim.pooled_timeout(3)
            assert fresh is not orphan  # orphan is still scheduled
            yield fresh
            log.append("after")
        return sim.now

    def aggressor(vp):
        yield sim.pooled_timeout(5)
        vp.interrupt()

    vp = sim.process(victim())
    sim.process(aggressor(vp))
    sim.run()
    assert log == ["interrupted", "after"]
    assert vp.value == 8  # interrupted at 5, then a 3-cycle wait
    assert sim.now == 10  # the orphan drained harmlessly at its slot
    assert _pool_ids_unique(sim)


def test_interrupted_waiter_is_never_resumed_by_the_orphan():
    # After the interrupt, the orphaned timeout's dispatch must not
    # resume the detached process a second time.
    sim = Simulator()
    resumes = []

    def victim():
        try:
            yield sim.pooled_timeout(10)
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
        yield sim.pooled_timeout(100)
        resumes.append("late")

    def aggressor(vp):
        yield sim.pooled_timeout(4)
        vp.interrupt()

    vp = sim.process(victim())
    sim.process(aggressor(vp))
    sim.run()
    assert resumes == ["interrupt", "late"]
    assert _pool_ids_unique(sim)


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
