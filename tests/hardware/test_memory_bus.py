"""DRAM and bus timing/contention tests, and hop parity against the
generator and continuation forms the hops replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.bus import PciBus
from repro.hardware.memory import MainMemory
from repro.hardware.params import MachineParams
from repro.sim import Simulator
from tests.hardware import oracles


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def params():
    return MachineParams()


def test_memory_burst_timing(sim, params):
    mem = MainMemory(sim, params)

    def proc():
        yield mem.access(8)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 10 + 8 * 3


def test_memory_zero_words_is_free(sim, params):
    mem = MainMemory(sim, params)
    assert mem.access(0) is None
    assert sim._seq == 0
    assert mem.port.total_requests == 0


def test_memory_contention_serializes(sim, params):
    mem = MainMemory(sim, params)
    times = []

    def proc():
        yield mem.access(10)
        times.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    per = 10 + 30
    assert times == [per, 2 * per]
    assert mem.port.total_requests == 2
    assert mem.port.busy_time == 2 * per


def test_memory_page_burst(sim, params):
    mem = MainMemory(sim, params)

    def proc():
        yield mem.access(params.words_per_page)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 10 + 1024 * 3


def test_memory_utilization_counts_busy_time(sim, params):
    mem = MainMemory(sim, params)

    def proc():
        yield mem.access(10)
        yield sim.timeout(40)  # idle tail

    sim.process(proc())
    sim.run()
    assert mem.port.utilization() == pytest.approx(40 / 80)


def test_pci_burst_timing(sim, params):
    pci = PciBus(sim, params)

    def proc():
        yield pci.transfer(4096)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 10 + 1024 * 3
    assert pci.port.total_requests == 1


def test_pci_contention(sim, params):
    pci = PciBus(sim, params)
    done = []

    def proc(tag):
        yield pci.transfer(40)
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
        yield mem.access(1)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 20 + 3


def test_burst_releases_before_its_waiter_resumes(sim, params):
    pci = PciBus(sim, params)
    seen = []

    def proc():
        yield pci.transfer(40)
        seen.append(pci.port.holder)
        # The port is free again, so a follow-up burst claims it at once.
        yield pci.transfer(40)
        seen.append(sim.now)

    def rival():
        yield pci.transfer(40)  # makes the first burst above contended

    sim.process(rival())
    sim.process(proc())
    sim.run()
    assert seen == [None, 3 * 40]


# -- hop parity ---------------------------------------------------------------
#
# One PCI bus and one DRAM port shared by generator callers (``yield hop``),
# state-struct callers (``hop.callbacks.append``) and hogs that hold a port
# through ``request``/``release``.  Each schedule runs once through the
# hops and once through the forms they replaced (``tests/hardware/
# oracles.py``): the completion log with the sequence counter at every
# completion, the port statistics, ``sim._seq`` and the dispatch count
# must agree exactly.

# Round sizes make exact time ties likely (a 10-word burst holds DRAM 40
# cycles, a 40-byte PCI burst 40 cycles).
_sizes = st.sampled_from([0, 1, 10, 40]) | st.integers(0, 300)
_gaps = st.sampled_from([0, 0, 40]) | st.integers(0, 120)
_delays = st.sampled_from([0, 40, 80]) | st.integers(0, 200)
_gen_ops = st.tuples(st.sampled_from(["pci", "mem", "mem-scattered"]),
                     _sizes, _gaps)
_struct_ops = st.tuples(st.sampled_from(["pci", "mem"]), _sizes, _gaps)


@st.composite
def hop_schedules(draw):
    return {
        "gens": draw(st.lists(
            st.tuples(_delays, st.lists(_gen_ops, min_size=1, max_size=5)),
            max_size=5)),
        "structs": draw(st.lists(
            st.tuples(_delays, st.lists(_struct_ops, min_size=1,
                                        max_size=5)),
            max_size=5)),
        # (port, delay, hold): occupy a port directly, so bursts queue.
        "hogs": draw(st.lists(
            st.tuples(st.sampled_from(["pci", "mem"]), _delays,
                      st.integers(0, 150)),
            max_size=4)),
        # Unrelated timeouts: they make the quiet window fail sometimes.
        "noise": draw(st.lists(_delays, max_size=4)),
    }


class _StructUser:
    """A state struct issuing its bursts back to back, with gaps."""

    def __init__(self, sim, uid, ops, hops, log, via_oracle):
        self.sim = sim
        self.uid = uid
        self.ops = ops
        self.hops = hops
        self.log = log
        self.via_oracle = via_oracle
        self.idx = 0

    def step(self) -> None:
        if self.idx == len(self.ops):
            return
        kind, size, _gap = self.ops[self.idx]
        device = self.hops[kind]
        if self.via_oracle:
            burst_k = (oracles.pci_transfer_k if kind == "pci"
                       else oracles.memory_access_k)
            burst_k(device, size, self.done)
            return
        hop = device.transfer(size) if kind == "pci" else device.access(size)
        if hop is None:
            self.done()
        else:
            hop.callbacks.append(self.done)

    def done(self, _hop=None) -> None:
        sim = self.sim
        self.log.append(("struct", self.uid, self.idx, sim.now, sim._seq))
        gap = self.ops[self.idx][2]
        self.idx += 1
        if gap:
            sim.call_in(gap, self.step)
        else:
            self.step()


def _drive_hops(schedule, via_oracle):
    sim = Simulator()
    params = MachineParams()
    pci = PciBus(sim, params)
    mem = MainMemory(sim, params)
    hops = {"pci": pci, "mem": mem}
    log = []

    def gen_user(uid, delay, ops):
        yield sim.timeout(delay)
        for idx, (kind, size, gap) in enumerate(ops):
            scattered = kind == "mem-scattered"
            if via_oracle:
                if kind == "pci":
                    yield from oracles.pci_transfer(pci, size)
                else:
                    yield from oracles.memory_access(mem, size, scattered)
            else:
                hop = (pci.transfer(size) if kind == "pci"
                       else mem.access(size, scattered))
                if hop is not None:
                    yield hop
            log.append(("gen", uid, idx, sim.now, sim._seq))
            if gap:
                yield sim.timeout(gap)

    def hog(port, delay, hold):
        yield sim.timeout(delay)
        req = port.request()
        yield req
        if hold:
            yield sim.timeout(hold)
        port.release(req)

    for delay in schedule["noise"]:
        sim.timeout(delay)
    for kind, delay, hold in schedule["hogs"]:
        sim.process(hog(hops[kind].port, delay, hold))
    for uid, (delay, ops) in enumerate(schedule["gens"]):
        sim.process(gen_user(uid, delay, ops))
    for uid, (delay, ops) in enumerate(schedule["structs"]):
        user = _StructUser(sim, uid, ops, hops, log, via_oracle)
        sim.call_in(delay, user.step)
    sim.run()
    return {
        "log": log,
        "ports": [(d.port.busy_time, d.port.wait_time,
                   d.port.total_requests, d.port.peak_queue_length)
                  for d in (pci, mem)],
        "seq": sim._seq,
        "events": sim.events_processed,
        "now": sim.now,
    }


@given(schedule=hop_schedules())
@settings(max_examples=150, deadline=None)
def test_hops_match_generator_and_continuation_forms(schedule):
    assert _drive_hops(schedule, via_oracle=False) \
        == _drive_hops(schedule, via_oracle=True)
