"""DRAM and bus timing/contention tests."""

import pytest

from repro.hardware.bus import PciBus
from repro.hardware.memory import MainMemory
from repro.hardware.params import MachineParams
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def params():
    return MachineParams()


def test_memory_burst_timing(sim, params):
    mem = MainMemory(sim, params)

    def proc():
        yield from mem.access(8)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 10 + 8 * 3


def test_memory_zero_words_is_free(sim, params):
    mem = MainMemory(sim, params)

    def proc():
        yield from mem.access(0)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 0


def test_memory_contention_serializes(sim, params):
    mem = MainMemory(sim, params)
    times = []

    def proc():
        yield from mem.access(10)
        times.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    per = 10 + 30
    assert times == [per, 2 * per]
    assert mem.total_accesses == 2
    assert mem.total_words == 20


def test_memory_page_burst(sim, params):
    mem = MainMemory(sim, params)

    def proc():
        yield from mem.access(params.words_per_page)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 10 + 1024 * 3


def test_memory_utilization_counts_busy_time(sim, params):
    mem = MainMemory(sim, params)

    def proc():
        yield from mem.access(10)
        yield sim.timeout(40)  # idle tail

    sim.process(proc())
    sim.run()
    assert mem.utilization() == pytest.approx(40 / 80)


def test_pci_burst_timing(sim, params):
    pci = PciBus(sim, params)

    def proc():
        yield from pci.transfer(4096)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 10 + 1024 * 3
    assert pci.total_bytes == 4096


def test_pci_contention(sim, params):
    pci = PciBus(sim, params)
    done = []

    def proc(tag):
        yield from pci.transfer(40)
        done.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    per = 10 + 10 * 3
    assert done == [("a", per), ("b", 2 * per)]


def test_memory_sweep_knobs_change_timing(sim):
    slow = MachineParams().with_memory_latency(200)
    mem = MainMemory(sim, slow)

    def proc():
        yield from mem.access(1)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 20 + 3
