"""Cycle-identity tests for the interruptible-hold fast paths.

The hold/wait loop has three execution shapes -- the quiet-window
short-circuit (plain pooled timeout), the armed fused-wake race, and a
mid-hold service preemption -- and all three must charge exactly the
same simulated cycles.  These tests pin the arithmetic for each shape
so scheduling optimizations cannot silently shift an interrupt or lose
a fraction of a slice.
"""

import pytest

from repro.hardware.node import ComputeProcessor
from repro.hardware.params import MachineParams
from repro.sim import Simulator
from repro.stats.breakdown import Category


def make_cpu():
    sim = Simulator()
    params = MachineParams(n_processors=4)
    return sim, params, ComputeProcessor(sim, params, node_id=0)


def test_quiet_window_hold_is_exact():
    sim, params, cpu = make_cpu()

    def body():
        yield from cpu.hold(1000, Category.BUSY)
        return sim.now

    done = cpu.start(body())
    assert sim.run(until=done) == 1000
    assert cpu.breakdown.as_dict()[Category.BUSY.value] == 1000


def test_armed_race_without_service_is_cycle_identical():
    # A foreign event inside the hold window forces the armed fused-wake
    # path; with no service posted the hold must still end on the cycle.
    sim, params, cpu = make_cpu()

    def bystander():
        yield sim.timeout(400)  # fires mid-hold, posts nothing

    def body():
        yield from cpu.hold(1000, Category.BUSY)
        return sim.now

    sim.process(bystander())
    done = cpu.start(body())
    assert sim.run(until=done) == 1000
    assert cpu.breakdown.as_dict()[Category.BUSY.value] == \
        pytest.approx(1000)
    # The hold disarmed on resuming: no wake retained, no trampoline
    # left on the gate to fire the recycled wake later.
    assert cpu._wake is None and cpu._armed_gate is None
    gate = cpu._service_gate
    assert gate.callbacks is None or cpu._trampoline not in gate.callbacks


def test_mid_hold_service_preemption_cycle_identity():
    sim, params, cpu = make_cpu()
    served_at = []

    def svc():
        served_at.append(sim.now)
        yield sim.pooled_timeout(50)
        return "served"

    def poster():
        yield sim.timeout(400)
        cpu.post_service("svc", svc)

    def body():
        yield from cpu.hold(1000, Category.BUSY)
        return sim.now

    sim.process(poster())
    done = cpu.start(body())
    finish = sim.run(until=done)
    ic = params.interrupt_cycles
    # Hold pauses at 400, pays interrupt entry + the 50-cycle handler,
    # then resumes its remaining 600 cycles.
    assert served_at == [400 + ic]
    assert finish == 1000 + ic + 50
    breakdown = cpu.breakdown.as_dict()
    assert breakdown[Category.BUSY.value] == pytest.approx(1000)
    assert breakdown[Category.IPC.value] == pytest.approx(ic + 50)
    assert cpu.services_handled == 1


def test_back_to_back_services_drain_in_one_preemption():
    sim, params, cpu = make_cpu()

    def svc():
        yield sim.pooled_timeout(10)

    def poster():
        yield sim.timeout(300)
        cpu.post_service("a", svc)
        cpu.post_service("b", svc)

    def body():
        yield from cpu.hold(1000, Category.BUSY)
        return sim.now

    sim.process(poster())
    done = cpu.start(body())
    finish = sim.run(until=done)
    ic = params.interrupt_cycles
    # Each queued service pays its own interrupt entry (SIGIO per
    # request), but the hold is only paused once.
    assert finish == 1000 + 2 * (ic + 10)
    assert cpu.services_handled == 2

