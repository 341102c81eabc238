"""The one-slot port and the controller's command heap against the
general implementations they replaced (``tests/sim/oracles.py``).

Random schedules run through the production class and the reference
side by side; grant and service order and times, every statistic,
``sim._seq`` and the dispatch count must agree exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultSpec
from repro.hardware.controller import (
    PRIORITY_PREFETCH,
    PRIORITY_REMOTE,
    PRIORITY_URGENT,
    ProtocolController,
)
from repro.hardware.params import MachineParams
from repro.sim import Resource, Simulator
from tests.sim import oracles

# Small round values make same-cycle ties likely.
_delays = st.sampled_from([0, 5, 10]) | st.integers(0, 60)
_holds = st.sampled_from([0, 5]) | st.integers(0, 30)

# -- one-slot port --------------------------------------------------------
#
# "try": try_acquire, else request and wait (the hardware hot path);
# "request": always the grant event; "grant-release": a callback on the
# grant event releases the slot inside the grant's own dispatch slot.
_port_ops = st.tuples(st.sampled_from(["try", "request", "grant-release"]),
                      _holds, _delays)


@st.composite
def port_schedules(draw):
    return {
        "users": draw(st.lists(
            st.tuples(_delays, st.lists(_port_ops, min_size=1, max_size=4)),
            min_size=1, max_size=6)),
        # Unrelated timeouts: they make the quiet window fail sometimes.
        "noise": draw(st.lists(_delays, max_size=4)),
    }


def _drive_port(schedule, resource_cls):
    sim = Simulator()
    res = resource_cls(sim)
    grants = []

    def user(uid, delay, ops):
        yield sim.timeout(delay)
        for idx, (mode, hold, gap) in enumerate(ops):
            token = res.try_acquire() if mode == "try" else None
            if token is None:
                token = res.request()
                if mode == "grant-release":
                    token.callbacks.append(lambda evt: res.release(evt))
                yield token
            grants.append((uid, idx, sim.now))
            if mode != "grant-release":
                if hold:
                    yield sim.pooled_timeout(hold)
                res.release(token)
            if gap:
                yield sim.timeout(gap)

    for delay in schedule["noise"]:
        sim.timeout(delay)
    for uid, (delay, ops) in enumerate(schedule["users"]):
        sim.process(user(uid, delay, ops))
    sim.run()
    observed = {
        "grants": grants,
        "stats": (res.busy_time, res.wait_time, res.total_requests,
                  res.peak_queue_length, res.utilization()),
        "seq": sim._seq,
        "events": sim.events_processed,
        "now": sim.now,
    }
    # A foreign token and a second release are refused on both sides.
    with pytest.raises(RuntimeError):
        res.release(object())
    token = res.try_acquire()
    res.release(token)
    with pytest.raises(RuntimeError):
        res.release(token)
    return observed


@given(schedule=port_schedules())
@settings(max_examples=150, deadline=None)
def test_port_matches_general_resource(schedule):
    assert _drive_port(schedule, Resource) \
        == _drive_port(schedule, oracles.Resource)


# -- controller command heap ---------------------------------------------
#
# Each submitter waits, then submits commands at the three priorities,
# some while the controller is busy and some (after long gaps) while it
# is idle.  A command's work may itself submit a follow-up command.
_priorities = st.sampled_from([PRIORITY_URGENT, PRIORITY_REMOTE,
                               PRIORITY_PREFETCH])
_commands = st.tuples(_priorities, _holds,
                      st.sampled_from([0, 0, 5, 400]) | st.integers(0, 80),
                      st.none() | _priorities)


@st.composite
def command_schedules(draw):
    return {
        "submitters": draw(st.lists(
            st.tuples(st.sampled_from([0, 5, 500]) | st.integers(0, 200),
                      st.lists(_commands, min_size=1, max_size=5)),
            min_size=1, max_size=4)),
        # (seed, stall probability, queue limit) or no fault plan.
        "faults": draw(st.none() | st.tuples(
            st.integers(0, 2**16), st.sampled_from([0.0, 0.3]),
            st.sampled_from([0, 1, 2]))),
    }


def _drive_controller(schedule, controller_cls):
    sim = Simulator()
    ctrl = controller_cls(sim, MachineParams(n_processors=1), None, None,
                          node_id=0)
    plan = None
    if schedule["faults"] is not None:
        seed, stall_prob, limit = schedule["faults"]
        plan = FaultPlan(seed=seed, spec=FaultSpec(
            ctrl_stall_prob=stall_prob, ctrl_stall_cycles=37.0,
            ctrl_queue_limit=limit, ctrl_retry_cycles=11.0))
        plan.sim = sim
        ctrl.faults = plan
    log = []

    def work(name, cycles, child):
        def gen():
            log.append(("start", name, sim.now))
            if cycles:
                yield sim.pooled_timeout(cycles)
            if child is not None:
                submit(f"{name}.child", child, 3, None)
            return name
        return gen

    def submit(name, priority, cycles, child):
        done = ctrl.submit(name, work(name, cycles, child),
                           priority=priority)
        done.callbacks.append(
            lambda evt: log.append(("done", evt.value, sim.now)))
        log.append(("depth", name, sim.now,
                    sorted(ctrl.depth_by_priority().items())))

    def submitter(sid, delay, commands):
        yield sim.timeout(delay)
        for idx, (priority, cycles, gap, child) in enumerate(commands):
            submit(f"c{sid}.{idx}", priority, cycles, child)
            if gap:
                yield sim.timeout(gap)

    # Submitters start after the controller's bootstrap slot, as every
    # protocol command does.
    for sid, (delay, commands) in enumerate(schedule["submitters"]):
        sim.process(submitter(sid, delay, commands))
    sim.run()
    return {
        "log": log,
        "stats": (ctrl.busy_cycles, ctrl.queue_wait_cycles,
                  ctrl.stall_cycles, ctrl.commands_served,
                  ctrl.per_command_counts),
        "rng": plan.rng.getstate() if plan is not None else None,
        "seq": sim._seq,
        "events": sim.events_processed,
        "now": sim.now,
    }


class _CountingStore(oracles.PriorityStore):
    """The reference queue, counting the ``try_get`` calls that hit."""

    hits = 0

    def try_get(self):
        item = super().try_get()
        if item is not None:
            _CountingStore.hits += 1
        return item


class _CountingController(oracles.OracleController):
    def __init__(self, sim, params, pci, memory, node_id):
        super().__init__(sim, params, pci, memory, node_id)
        self.queue = _CountingStore(sim)


@given(schedule=command_schedules())
@settings(max_examples=150, deadline=None)
def test_command_heap_matches_priority_store(schedule):
    _CountingStore.hits = 0
    assert _drive_controller(schedule, ProtocolController) \
        == _drive_controller(schedule, _CountingController)
    # The reference's synchronous try_get never fires once the
    # controller is running: a finishing command has always scheduled
    # its done event first.  That is why the heap has no such path.
    assert _CountingStore.hits == 0
