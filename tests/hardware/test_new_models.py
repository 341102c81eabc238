"""Tests for scattered memory access, update splitting, priorities."""


from repro.hardware.controller import (
    PRIORITY_PREFETCH,
    PRIORITY_REMOTE,
    PRIORITY_URGENT,
    ProtocolController,
)
from repro.hardware.bus import PciBus
from repro.hardware.memory import MainMemory
from repro.hardware.node import Cluster
from repro.hardware.params import MachineParams
from repro.sim import Simulator


def test_scattered_access_pays_setup_per_line_group():
    sim = Simulator()
    params = MachineParams()
    mem = MainMemory(sim, params)

    def proc():
        yield mem.access(16, scattered=True)  # 2 line groups
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 2 * 10 + 16 * 3


def test_scattered_access_costs_more_than_burst():
    params = MachineParams()

    def run(kind):
        sim = Simulator()
        mem = MainMemory(sim, params)

        def proc():
            yield (mem.access(256, scattered=True) if kind == "scattered"
                   else mem.access(256))
            return sim.now

        p = sim.process(proc())
        sim.run()
        return p.value

    assert run("scattered") > run("burst")


def test_scattered_zero_words_free():
    sim = Simulator()
    mem = MainMemory(sim, MachineParams())
    assert mem.access(0, scattered=True) is None
    assert sim._seq == 0
    assert mem.port.total_requests == 0


def test_memory_latency_knob_scales_scattered_cost():
    def cost(ns):
        sim = Simulator()
        mem = MainMemory(sim, MachineParams().with_memory_latency(ns))

        def proc():
            yield mem.access(64, scattered=True)
            return sim.now

        p = sim.process(proc())
        sim.run()
        return p.value

    # 8 groups * setup: doubling latency adds 8 * 10 cycles.
    assert cost(200) - cost(100) == 8 * 10


# -- automatic-update splitting -----------------------------------------------

def test_large_write_splits_into_write_cache_flushes():
    sim = Simulator()
    params = MachineParams(n_processors=2)
    cluster = Cluster(sim, params, with_controller=False)
    engine = cluster[0].nic.au_engine
    assert engine.combining_capacity_bytes == 128  # 4 lines of 32 B
    seq = engine.post_write(1, page=0, nwords=1024)  # a full page
    # 4096 bytes / 128-byte flushes = 32 messages.
    assert seq == 32
    assert engine.updates_issued == 32


def test_small_writes_combine_up_to_capacity():
    sim = Simulator()
    params = MachineParams(n_processors=2)
    cluster = Cluster(sim, params, with_controller=False)
    engine = cluster[0].nic.au_engine
    s1 = engine.post_write(1, page=0, nwords=16)   # 64 B
    s2 = engine.post_write(1, page=0, nwords=16)   # tops up to 128 B
    assert s1 == s2 == 1
    s3 = engine.post_write(1, page=0, nwords=16)   # needs a new batch
    assert s3 == 2


# -- controller priority tiers ------------------------------------------------

def test_three_priority_tiers_order():
    sim = Simulator()
    params = MachineParams()
    ctrl = ProtocolController(sim, params, PciBus(sim, params),
                              MainMemory(sim, params), node_id=0)
    order = []

    def work(tag):
        def gen():
            yield from ctrl.core_work(10)
            order.append(tag)
        return gen

    def driver():
        ctrl.submit("busy", work("busy"))
        yield sim.timeout(1)
        ctrl.submit("pf", work("pf"), priority=PRIORITY_PREFETCH)
        ctrl.submit("remote", work("remote"), priority=PRIORITY_REMOTE)
        ctrl.submit("urgent", work("urgent"), priority=PRIORITY_URGENT)

    sim.process(driver())
    sim.run()
    assert order == ["busy", "urgent", "remote", "pf"]
    assert PRIORITY_URGENT < PRIORITY_REMOTE < PRIORITY_PREFETCH
