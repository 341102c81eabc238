"""Protocol-controller command queue, priorities, and DMA timing."""

import pytest

from repro.hardware.bus import PciBus
from repro.hardware.controller import (
    PRIORITY_PREFETCH,
    PRIORITY_URGENT,
    ProtocolController,
)
from repro.hardware.memory import MainMemory
from repro.hardware.params import MachineParams
from repro.sim import Event, Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    params = MachineParams()
    pci = PciBus(sim, params)
    mem = MainMemory(sim, params)
    ctrl = ProtocolController(sim, params, pci, mem, node_id=0)
    return sim, params, ctrl


def test_commands_run_fifo(rig):
    sim, params, ctrl = rig
    order = []

    def make(tag):
        def work():
            yield from ctrl.core_work(100)
            order.append((tag, sim.now))
        return work

    ctrl.submit("a", make("a"))
    ctrl.submit("b", make("b"))
    sim.run()
    assert order == [("a", 100), ("b", 200)]
    assert ctrl.commands_served == 2
    assert ctrl.per_command_counts == {"a": 1, "b": 1}


def test_prefetch_priority_yields_to_urgent(rig):
    sim, params, ctrl = rig
    order = []

    def work(tag, cycles):
        def gen():
            yield from ctrl.core_work(cycles)
            order.append(tag)
        return gen

    def driver():
        ctrl.submit("busy", work("busy", 50))
        yield sim.timeout(1)
        # Queue three prefetches, then an urgent request.
        for i in range(3):
            ctrl.submit("pf", work(f"pf{i}", 10), priority=PRIORITY_PREFETCH)
        ctrl.submit("urgent", work("urgent", 10), priority=PRIORITY_URGENT)

    sim.process(driver())
    sim.run()
    assert order == ["busy", "urgent", "pf0", "pf1", "pf2"]


def test_done_event_carries_result(rig):
    sim, params, ctrl = rig

    def work():
        yield from ctrl.core_work(10)
        return "diff-data"

    done = Event(sim)
    ctrl.submit("diff", work, done=done)
    value = sim.run(until=done)
    assert value == "diff-data"
    assert sim.now == 10


def test_occupancy_tracks_busy_fraction(rig):
    sim, params, ctrl = rig

    def work():
        yield from ctrl.core_work(30)

    def driver():
        ctrl.submit("w", work)
        yield sim.timeout(60)

    sim.run(until=sim.process(driver()))
    assert sim.now == 60
    assert ctrl.occupancy() == pytest.approx(0.5)


def test_queue_wait_statistics(rig):
    sim, params, ctrl = rig

    def work():
        yield from ctrl.core_work(100)

    ctrl.submit("w1", work)
    ctrl.submit("w2", work)
    sim.run()
    assert ctrl.queue_wait_cycles == pytest.approx(100)


def test_twin_create_cost(rig):
    sim, params, ctrl = rig
    ctrl.submit("twin", lambda: ctrl.twin_create())
    sim.run()
    core = 1024 * 5
    mem = params.memory_access_cycles(2048)
    assert sim.now == core + mem


def test_software_diff_create_scans_whole_page(rig):
    sim, params, ctrl = rig
    ctrl.submit("sdiff", lambda: ctrl.software_diff_create())
    sim.run()
    assert sim.now >= 1024 * 7  # at least the 7-cycles/word scan


def test_software_diff_apply_scales_with_dirty_words(rig):
    sim, params, ctrl = rig
    ctrl.submit("apply", lambda: ctrl.software_diff_apply(100))
    sim.run()
    # Scattered apply: one setup per cache-line-sized group.
    groups = -(-100 // params.words_per_line)
    mem = (groups * params.memory_setup_cycles
           + 100 * params.memory_cycles_per_word)
    assert sim.now == 100 * 7 + mem


def test_dma_diff_create_is_much_cheaper_than_software(rig):
    sim, params, ctrl = rig
    ctrl.submit("dma", lambda: ctrl.dma_diff_create(100))
    sim.run()
    dma_time = sim.now

    sim2 = Simulator()
    pci2 = PciBus(sim2, params)
    mem2 = MainMemory(sim2, params)
    ctrl2 = ProtocolController(sim2, params, pci2, mem2, node_id=0)
    ctrl2.submit("sw", lambda: ctrl2.software_diff_create())
    sim2.run()
    assert dma_time < sim2.now / 3


def test_dma_empty_page_scan_is_base_cost(rig):
    sim, params, ctrl = rig
    ctrl.submit("dma0", lambda: ctrl.dma_diff_create(0))
    sim.run()
    assert sim.now == 200


def test_page_copy_charges_pci_and_memory(rig):
    sim, params, ctrl = rig
    ctrl.submit("page", lambda: ctrl.page_copy())
    sim.run()
    assert sim.now == (params.pci_transfer_cycles(4096)
                       + params.memory_access_cycles(1024))


def test_await_k_in_command_work_resumes_in_hop_slot(rig):
    sim, params, ctrl = rig
    log = []

    def hop(k):
        sim.call_in(25, k, "hop")
        sim.call_in(25, log.append, (sim.now + 25, "rival"))

    def work():
        value = yield from sim.await_k(hop)
        log.append((sim.now, value))
        return value

    done = Event(sim)
    ctrl.submit("hop", work, done=done)
    sim.run()
    assert done.value == "hop"
    # The controller's _drive resumed the work generator inside the
    # hop's completion slot, ahead of the rival queued behind it.
    assert log == [(25, "hop"), (25, "rival")]
