"""A finished run is freed by refcount: ``run_app`` leaves no cycle.

With the cyclic collector off, ``gc.collect()`` right after
``run_app`` returns must find nothing, and the run's
:class:`~repro.sim.Simulator` must already be gone -- while the caller
still holds the result, and again once it drops it.  Each case ends a
run in a different state: controller commands or processor services
still queued (TM I+P+D, AURC+P), requests waiting for a mesh link
(AURC+P), a port grant not yet dispatched (TM P at 16 nodes),
retransmit daemons and unacknowledged envelopes (a fault plan), an
attached auditor plus the snapshot epilogue, the metrics tracer and
its sampler, an epilogue that raises; TSP and Barnes run their
recursive host kernels.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.harness import runner
from repro.harness.bench import config_for
from repro.harness.experiments import scaled_app
from repro.harness.runner import run_app
from repro.sim import Simulator


class _TrackedSimulator(Simulator):
    """A simulator that leaves a weak reference to itself behind."""

    made: list = []

    def __init__(self):
        super().__init__()
        _TrackedSimulator.made.append(weakref.ref(self))


@pytest.fixture
def tracked(monkeypatch):
    """Patch ``run_app``'s simulator, warm lazy imports, then switch the
    cyclic collector off for the test's body."""
    monkeypatch.setattr(runner, "Simulator", _TrackedSimulator)
    run_app(scaled_app("Em3d", 4, quick=True), config_for("I+P+D"),
            audit=True, metrics=True)
    gc.collect()
    _TrackedSimulator.made.clear()
    gc.disable()
    try:
        yield _TrackedSimulator.made
    finally:
        gc.enable()


def _assert_freed(made) -> None:
    # The simulator first: a collection that finalizes parked
    # generators can free a cycle and still report 0 objects.
    assert len(made) == 1 and made[0]() is None
    assert gc.collect() == 0


CASES = {
    "tm-base": ("TSP", "Base", 4, {}),
    "tm-ipd": ("Water", "I+P+D", 4, {}),
    "tm-p": ("Water", "P", 16, {}),
    "aurc-prefetch": ("Water", "aurc+prefetch", 8, {}),
    "faults": ("Em3d", "I+P+D", 4,
               dict(faults=lambda: FaultPlan(1, FaultSpec.chaos()))),
    "audit-snapshot": ("Radix", "aurc", 4,
                       dict(audit=True, snapshot_memory=True)),
    "metrics": ("Barnes", "I+P+D", 4, dict(metrics=True)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_finished_run_is_freed_by_refcount(tracked, case):
    app_name, protocol, procs, options = CASES[case]
    kwargs = {key: value() if callable(value) else value
              for key, value in options.items()}
    result = run_app(scaled_app(app_name, procs, quick=True),
                     config_for(protocol), **kwargs)
    # A fault plan keeps its simulator (it emits through the run's
    # tracer): a caller that holds the plan holds the run, acyclically.
    del kwargs
    _assert_freed(tracked)
    # What the caller holds survives the teardown.
    assert result.verified
    doc = result.to_json()
    if result.audit is not None:
        assert doc["audit"]["violations"] == 0
        assert result.audit.frozen is not None
        assert result.final_memory is not None
    if result.metrics is not None:
        assert result.metrics.all("series")
    if "faults" in options:
        assert result.fault_stats["acks_sent"] > 0
    del result, doc
    assert gc.collect() == 0


def test_run_whose_epilogue_raises_is_freed(tracked):
    app = scaled_app("Em3d", 4, quick=True)
    base, count = app.e_base, app.n_half

    def epilogue(api):
        yield from api.read(base, count)
        raise AssertionError("epilogue mismatch")

    app.epilogue = epilogue
    try:
        run_app(app, config_for("I+P+D"))
    except AssertionError as exc:
        assert str(exc) == "epilogue mismatch"
    else:
        pytest.fail("the epilogue's error did not propagate")
    del app, epilogue
    _assert_freed(tracked)
