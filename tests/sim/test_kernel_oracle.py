"""The succeed-only kernel against the kernel it replaced.

``tests/sim/oracles.py`` keeps the earlier kernel's succeed path
verbatim (``Oracle*``).  Random schedules of processes, daemons and a
controller-style work-generator drive run on both: they yield plain and
pooled timeouts, shared events that peers succeed, ``AllOf``s (empty,
or with already-processed members), already-processed events (the
``Simulator.bounce`` path) and each other, and schedule ``call_soon``/
``call_in`` callbacks.  Every resume lands in a log with its
``(now, seq)``; the logs, the return values, ``sim._seq`` and
``events_processed`` must be identical.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.controller import ProtocolController
from repro.sim import AllOf, Event, Simulator
from tests.sim import oracles

N_GATES = 3
MAX_ACTORS = 5


class _Drive:
    """``ProtocolController``'s own ``_drive``/``_work_step`` over a
    bare work generator; ``on_return`` stands in for ``_complete``."""

    _drive = ProtocolController._drive
    _work_step = ProtocolController._work_step

    def __init__(self, sim, gen, on_return):
        self.sim = sim
        self._work_gen = gen
        self._complete = on_return


KERNEL = SimpleNamespace(
    Simulator=Simulator,
    Event=Event,
    AllOf=AllOf,
    Drive=_Drive,
    start=lambda drive: drive._drive(None),
)
ORACLE = SimpleNamespace(
    Simulator=oracles.OracleSimulator,
    Event=oracles.OracleEvent,
    AllOf=oracles.OracleAllOf,
    Drive=oracles.OracleDrive,
    start=lambda drive: drive._drive(None, None),
)

# Small round values make same-cycle ties likely.
_delays = st.sampled_from([0, 1, 5]) | st.integers(0, 20)
_gates = st.integers(0, N_GATES - 1)
_ops = st.one_of(
    st.tuples(st.just("timeout"), _delays),
    st.tuples(st.just("pooled"), _delays),
    st.tuples(st.just("gate"), _gates),
    st.tuples(st.just("open"), _gates),
    st.tuples(st.just("processed")),
    st.tuples(st.just("join"), st.integers(0, MAX_ACTORS - 1)),
    st.tuples(st.just("soon")),
    st.tuples(st.just("later"), _delays),
    st.tuples(
        st.just("all_of"),
        st.lists(_gates, max_size=3),
        st.lists(_delays, max_size=2),
        st.booleans(),
    ),
)
_actors = st.tuples(
    st.sampled_from(["proc", "daemon", "drive"]),
    _delays,
    st.lists(_ops, max_size=6),
)
_untils = st.one_of(
    st.none(),
    st.tuples(st.just("timeout"), _delays),
    st.tuples(st.just("actor"), st.integers(0, MAX_ACTORS - 1)),
)


@st.composite
def kernel_schedules(draw):
    return {
        "actors": draw(st.lists(_actors, min_size=1, max_size=MAX_ACTORS)),
        "until": draw(_untils),
    }


def _run(k, schedule):
    sim = k.Simulator()
    log = []
    gates = [k.Event(sim) for _ in range(N_GATES)]
    fired = k.Event(sim)
    fired.succeed("fired")
    handles = []

    def note(*entry):
        log.append((sim.now, sim._seq) + entry)

    def target_of(op):
        kind = op[0]
        if kind == "timeout":
            return sim.timeout(op[1])
        if kind == "pooled":
            return sim.pooled_timeout(op[1])
        if kind == "gate":
            return gates[op[1]]
        if kind == "processed":
            return fired
        if kind == "join":
            return handles[op[1] % len(handles)]
        members = [gates[i] for i in op[1]]
        members += [sim.timeout(delay) for delay in op[2]]
        if op[3]:
            members.append(fired)
        return k.AllOf(sim, members)

    def body(tag, start, ops):
        if start:
            yield sim.timeout(start)
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "open":
                if not gates[op[1]].triggered:
                    gates[op[1]].succeed((tag, step))
                note(tag, step, "open")
            elif kind == "soon":
                sim.call_soon(note, tag, step, "soon")
            elif kind == "later":
                sim.call_in(op[1], note, tag, step, "later")
            else:
                target = target_of(op)
                note(tag, step, kind, target.triggered, target.processed)
                value = yield target
                if kind == "all_of":
                    value = None  # the earlier kernel's value is a mapping
                note(tag, step, "resumed", value)
        return tag

    for tag, (kind, start, ops) in enumerate(schedule["actors"]):
        if kind == "drive":
            done = k.Event(sim)
            drive = k.Drive(sim, body(tag, 0, ops), done.succeed)
            sim.call_in(start, k.start, drive)
            handles.append(done)
        else:
            gen = body(tag, start, ops)
            handles.append(sim.process(gen, daemon=kind == "daemon"))

    until = schedule["until"]
    if until is None:
        stop = None
    elif until[0] == "timeout":
        stop = sim.timeout(until[1])
    else:
        stop = handles[until[1] % len(handles)]
    try:
        note("run", sim.run(until=stop))
    except RuntimeError as err:
        note("run", str(err))
    note("drain", sim.run())
    returns = [
        handle.value if handle.triggered else "pending" for handle in handles
    ]
    return log, returns, sim._seq, sim.events_processed, sim.now


@given(schedule=kernel_schedules())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_the_earlier_kernel(schedule):
    assert _run(KERNEL, schedule) == _run(ORACLE, schedule)
