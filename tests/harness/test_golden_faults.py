"""Cycle pins for runs under fault plans.

Two properties, both against the 18 quick configurations of
``golden_cycles.json``:

* An all-empty FaultPlan must be bit-identical to no plan at all.
  ``repro chaos`` and ``--faults`` promise that installing a plan whose
  spec arms nothing leaves every fast path untouched: the NIC keeps its
  fire-and-forget flights, the controller never stalls, and no RNG is
  ever drawn.  Every quick configuration must reproduce its pinned
  cycles exactly when run under ``FaultPlan(seed=0, spec=FaultSpec())``.
* Runs under ``FaultSpec.chaos()`` must reproduce
  ``tests/fixtures/golden_faults.json``: cycles, finish times, the
  merged breakdown, the injected-fault counters and the plan's RNG
  state (as a SHA-256 of ``repr(plan.rng.getstate())``).  These pin the
  reliability layer's retransmit, duplicate and ack paths, the
  controller stalls and back-pressure, and the latency spikes, none of
  which the fault-free goldens reach.

Regenerate the fault fixture (only after an intentional model change)
with ``PYTHONPATH=src python -m tests.harness.test_golden_faults``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.harness.experiments import scaled_app
from repro.harness.runner import ProtocolConfig, run_app

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
CYCLES_FIXTURE = FIXTURES / "golden_cycles.json"
FAULTS_FIXTURE = FIXTURES / "golden_faults.json"
FAULT_SEEDS = (1, 2)

with CYCLES_FIXTURE.open() as fh:
    GOLDEN = json.load(fh)


def _config_for(label: str) -> ProtocolConfig:
    if label.startswith("TM/"):
        return ProtocolConfig.treadmarks(label[3:])
    return ProtocolConfig.aurc(prefetch=label.endswith("+P"))


def _parse_key(key: str):
    parts = key.split("/")
    return parts[0], int(parts[-2][:-1]), "/".join(parts[1:-2])


def _chaos_record(key: str, seed: int) -> dict:
    """Run ``key`` under the chaos spec at ``seed``; what the fixture pins."""
    app_name, procs, label = _parse_key(key)
    plan = FaultPlan(seed=seed, spec=FaultSpec.chaos())
    result = run_app(scaled_app(app_name, procs, quick=True),
                     _config_for(label), faults=plan)
    return {
        "execution_cycles": result.execution_cycles,
        "finish_times": list(result.finish_times),
        "breakdown": result.merged_breakdown.as_dict(),
        "injected": dict(sorted(plan.injected.items())),
        "rng_sha256": hashlib.sha256(
            repr(plan.rng.getstate()).encode()).hexdigest(),
    }


@pytest.mark.parametrize("key", sorted(GOLDEN["runs"]))
def test_empty_fault_plan_is_cycle_identical(key):
    app_name, procs, label = _parse_key(key)
    expected = GOLDEN["runs"][key]
    plan = FaultPlan(seed=0, spec=FaultSpec())
    result = run_app(scaled_app(app_name, procs, quick=True),
                     _config_for(label), faults=plan)
    assert result.execution_cycles == expected["execution_cycles"], \
        f"{key}: empty fault plan changed execution_cycles"
    assert list(result.finish_times) == expected["finish_times"], \
        f"{key}: empty fault plan changed finish_times"
    assert result.merged_breakdown.as_dict() == expected["breakdown"], \
        f"{key}: empty fault plan changed the breakdown"
    # And the plan itself must have stayed inert.
    assert not plan.injected


def _fault_runs() -> dict:
    with FAULTS_FIXTURE.open() as fh:
        return json.load(fh)["runs"]


@pytest.mark.parametrize("seed", FAULT_SEEDS)
@pytest.mark.parametrize("key", sorted(GOLDEN["runs"]))
def test_chaos_run_reproduces(key, seed):
    expected = _fault_runs()[f"{key}/seed{seed}"]
    got = _chaos_record(key, seed)
    for field in ("execution_cycles", "finish_times", "breakdown",
                  "injected", "rng_sha256"):
        assert got[field] == expected[field], f"{key}/seed{seed}: {field}"


def test_fault_fixture_covers_every_golden_config():
    assert set(_fault_runs()) == {
        f"{key}/seed{seed}" for key in GOLDEN["runs"] for seed in FAULT_SEEDS}


def test_chaos_runs_exercise_every_fault_family():
    injected = set()
    for run in _fault_runs().values():
        injected.update(run["injected"])
    assert {"drop", "dup", "reorder", "ack_drop", "spike", "ctrl_stall",
            "ctrl_backpressure"} <= injected


if __name__ == "__main__":
    doc = {
        "schema": "repro-golden-faults/1",
        "procs": GOLDEN["procs"],
        "quick": True,
        "spec": FaultSpec.chaos().to_dict(),
        "runs": {f"{key}/seed{seed}": _chaos_record(key, seed)
                 for key in sorted(GOLDEN["runs"]) for seed in FAULT_SEEDS},
    }
    FAULTS_FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True)
                              + "\n")
