"""Property-based invariants of the Event lifecycle under random
interleavings of ``succeed``, late waits and ``AllOf``.

Hypothesis drives a random program against a small fleet of events
(pooled and unpooled) and waiter processes, checking the contracts the
kernel's fast paths rely on:

* ``triggered``/``processed`` stay consistent at every observation
  point -- processed implies triggered, and a value is readable exactly
  when the event has triggered.
* ``succeed`` may fire at most once; a second trigger always raises
  ``RuntimeError``.
* Every waiter is resumed exactly once, with the value the event
  succeeded with, no earlier than the cycle it succeeded in -- also a
  waiter that subscribes after the event was processed (the bounce
  path) -- and a waiter on an event that never fires is never resumed.
* An ``AllOf`` waiter resumes with None once every member is processed.
* The free lists stay duplicate-free: no pooled object is recycled
  twice, whatever the interleaving.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, Event, Simulator

N_EVENTS = 4

# One program step: after `delay` cycles, apply `action` to the event
# at `target`: succeed it, start a late waiter on it, or start a waiter
# on the AllOf of it and every event after it.
_op = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["succeed", "wait", "all_of"]),
    st.integers(min_value=0, max_value=N_EVENTS - 1),
)


def _pools_duplicate_free(sim):
    for pool in (sim._event_pool, sim._timeout_pool, sim._cont_pool):
        if len(set(map(id, pool))) != len(pool):
            return False
    return True


def _observe(log):
    """An extra callback on every event, asserting state consistency
    at the exact moment waiters are resumed."""
    def callback(event):
        assert event.triggered
        assert event.processed  # callbacks detached before dispatch
        event.value  # readable once triggered
        log.append(id(event))
    return callback


@given(ops=st.lists(_op, min_size=1, max_size=12),
       pooled=st.lists(st.booleans(), min_size=N_EVENTS,
                       max_size=N_EVENTS))
@settings(max_examples=120, deadline=None)
def test_event_lifecycle_invariants_under_interleavings(ops, pooled):
    sim = Simulator()
    events = [sim.pooled_event() if use_pool else Event(sim)
              for use_pool in pooled]
    dispatched = []
    for event in events:
        event.callbacks.append(_observe(dispatched))
    succeeded_at = {}  # event index -> (value, cycle)
    outcomes = {}  # waiter tag -> list of (value, cycle)
    all_of_members = {}  # waiter tag -> member indices

    def waiter(tag, event):
        outcomes[tag] = []
        value = yield event
        outcomes[tag].append((value, sim.now))

    def all_of_waiter(tag, members):
        outcomes[tag] = []
        value = yield AllOf(sim, [events[i] for i in members])
        assert all(events[i].processed for i in members)
        outcomes[tag].append((value, sim.now))

    # Pooled events are recycled once processed, so only waiters
    # subscribed up front may hold them.
    for i, event in enumerate(events):
        sim.process(waiter(("early", i), event))

    def driver():
        for step, (delay, action, target) in enumerate(ops):
            if delay:
                yield sim.timeout(delay)
            event = events[target]
            if action == "succeed":
                if event.triggered:
                    with pytest.raises(RuntimeError):
                        event.succeed("again")
                else:
                    with pytest.raises(RuntimeError):
                        event.value
                    event.succeed((target, step))
                    succeeded_at[target] = ((target, step), sim.now)
                continue
            members = [i for i in range(target, N_EVENTS) if not pooled[i]]
            if action == "wait" and not pooled[target]:
                sim.process(waiter(("late", step), event))
            elif action == "all_of":
                all_of_members[("all_of", step)] = members
                sim.process(all_of_waiter(("all_of", step), members))

    sim.process(driver())
    sim.run()

    for tag, seen in outcomes.items():
        assert len(seen) <= 1, f"waiter {tag} resumed twice: {seen}"
        if tag[0] == "all_of":
            members = all_of_members[tag]
            if all(i in succeeded_at for i in members):
                assert len(seen) == 1 and seen[0][0] is None
                assert seen[0][1] >= max(
                    (succeeded_at[i][1] for i in members), default=0)
            else:
                assert seen == []
            continue
        target = tag[1] if tag[0] == "early" else ops[tag[1]][2]
        if target in succeeded_at:
            value, cycle = succeeded_at[target]
            assert len(seen) == 1
            assert seen[0][0] == value and seen[0][1] >= cycle
        else:
            assert seen == []
    for i, (event, use_pool) in enumerate(zip(events, pooled)):
        if use_pool and id(event) in dispatched:
            continue  # recycled: the object may have a new life now
        assert event.triggered == (i in succeeded_at)
        assert event.processed == (i in succeeded_at)
    assert _pools_duplicate_free(sim)
