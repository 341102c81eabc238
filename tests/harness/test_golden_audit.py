"""Golden coherence-audit tests: zero-cost and protocol-state pinning.

Three guarantees over the same 18 quick configurations that
``golden_cycles.json`` pins:

* **Zero-cost** -- attaching every observer (the tracer, the metrics
  registry with its sampler, and the :class:`~repro.dsm.audit
  .CoherenceAuditor`) never changes a simulated cycle.  Observers are
  strictly passive (no RNG, no scheduled events that touch the model),
  so a fully observed run's execution cycles and finish times must be
  bit-identical to the pinned fixture values, which were recorded with
  nothing attached.
* **Protocol-state goldens** -- ``golden_state.json`` pins the SHA-256
  of each configuration's final per-page applied-interval snapshots
  and transition counts.  A protocol refactor that silently changes
  which write notices or diffs flow (even with identical cycles) trips
  the digest; regenerate only after an intentional protocol change.
* **Observed-output goldens** -- ``golden_observe.json`` pins the
  SHA-256 of each run's canonical metrics document and of its recorded
  trace events, so a refactor of the emission sites or of the metrics
  schema cannot silently change what a run reports.  It also pins Em3d
  under AURC+P (the prefetch paths of AURC) and the metrics of two
  chaos runs (the fault-only sites: retransmits, duplicates, acks,
  spikes, controller stalls).

Every configuration must also pass the online value check with zero
violations.

Regenerate the observe fixture (only after an intentional change to
what runs report) with
``PYTHONPATH=src python -m tests.harness.test_golden_audit``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.harness.experiments import scaled_app
from repro.harness.runner import ProtocolConfig, run_app

_FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
OBSERVE_FIXTURE = _FIXTURES / "golden_observe.json"

with (_FIXTURES / "golden_cycles.json").open() as fh:
    GOLDEN_CYCLES = json.load(fh)

with (_FIXTURES / "golden_state.json").open() as fh:
    GOLDEN_STATE = json.load(fh)

# Configurations pinned beyond the 18 golden ones, and the chaos runs
# whose metrics are pinned (app/protocol key, fault seed).
EXTRA_OBSERVED = ("Em3d/AURC+P/4p/quick",)
CHAOS_OBSERVED = (("Em3d/TM/I+P+D/4p/quick", 1),
                  ("Water/AURC/4p/quick", 2))


def _config_for(label: str) -> ProtocolConfig:
    if label.startswith("TM/"):
        return ProtocolConfig.treadmarks(label[3:])
    return ProtocolConfig.aurc(prefetch=label.endswith("+P"))


def _parse_key(key: str):
    parts = key.split("/")
    return parts[0], int(parts[-2][:-1]), "/".join(parts[1:-2])


def _observed_run(key: str, **kwargs):
    app_name, procs, label = _parse_key(key)
    return run_app(scaled_app(app_name, procs, quick=True),
                   _config_for(label), **kwargs)


def metrics_digest(registry) -> str:
    """SHA-256 of the registry's document, instruments sorted by kind,
    name and labels (so creation order does not matter)."""
    doc = registry.to_json()
    canonical = {
        kind: sorted(items, key=lambda m: (
            m["name"], json.dumps(m["labels"], sort_keys=True)))
        for kind, items in doc.items()}
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def trace_digest(tracer) -> str:
    """SHA-256 of the recorded events in order: time, category and the
    payload with its keys in emission order."""
    rows = [[event.time, event.category, event.payload]
            for event in tracer.events]
    return hashlib.sha256(
        json.dumps(rows, default=repr).encode()).hexdigest()


def _observe_record(key: str) -> dict:
    result = _observed_run(key, trace=True, metrics=True)
    return {"metrics": metrics_digest(result.metrics),
            "trace": trace_digest(result.tracer)}


def _chaos_observe_record(key: str, seed: int) -> dict:
    plan = FaultPlan(seed=seed, spec=FaultSpec.chaos())
    result = _observed_run(key, metrics=True, faults=plan)
    return {"metrics": metrics_digest(result.metrics)}


def _observe_runs() -> dict:
    with OBSERVE_FIXTURE.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", sorted(GOLDEN_STATE["runs"]))
def test_audited_run_is_bit_identical_clean_and_state_golden(key):
    result = _observed_run(key, trace=True, metrics=True, audit=True)
    audit = result.audit
    assert audit is not None

    # Value check: every read returned its last happens-before write.
    assert audit.violation_count == 0, \
        f"{key}: {audit.format_summary()}"
    # The check actually compared words (vacuity guard).
    assert audit.compared > 0

    # Zero-cost: cycles identical to the unobserved golden fixture.
    expected = GOLDEN_CYCLES["runs"][key]
    assert result.execution_cycles == expected["execution_cycles"], \
        f"{key}: observing changed simulated cycles"
    assert list(result.finish_times) == expected["finish_times"], \
        f"{key}: observing changed finish times"

    # Protocol-state golden: applied snapshots + transition counts.
    pinned = GOLDEN_STATE["runs"][key]
    assert audit.final_digest() == pinned["state_digest"], \
        f"{key}: protocol state digest drifted"
    assert audit.final_applied_digest() == pinned["applied_digest"], \
        f"{key}: applied-snapshot digest drifted"
    assert audit.events == pinned["events"], \
        f"{key}: audit event count drifted"

    # Observed-output golden: metrics and trace as pinned.
    observed = _observe_runs()["runs"][key]
    assert metrics_digest(result.metrics) == observed["metrics"], \
        f"{key}: metrics drifted"
    assert trace_digest(result.tracer) == observed["trace"], \
        f"{key}: trace drifted"


@pytest.mark.parametrize("key", EXTRA_OBSERVED)
def test_extra_observed_run_matches_golden(key):
    assert _observe_record(key) == _observe_runs()["runs"][key]


@pytest.mark.parametrize("key,seed", CHAOS_OBSERVED)
def test_chaos_metrics_match_golden(key, seed):
    assert _chaos_observe_record(key, seed) \
        == _observe_runs()["chaos"][f"{key}/seed{seed}"]


def test_state_fixture_covers_same_keys_as_cycles_fixture():
    assert set(GOLDEN_STATE["runs"]) == set(GOLDEN_CYCLES["runs"])
    assert set(_observe_runs()["runs"]) \
        == set(GOLDEN_CYCLES["runs"]) | set(EXTRA_OBSERVED)


def test_audit_off_run_carries_no_auditor():
    result = run_app(scaled_app("Em3d", 2, quick=True),
                     ProtocolConfig.treadmarks("Base"))
    assert result.audit is None


if __name__ == "__main__":
    doc = {
        "schema": "repro-golden-observe/1",
        "quick": True,
        "runs": {key: _observe_record(key)
                 for key in sorted(GOLDEN_CYCLES["runs"])
                 + list(EXTRA_OBSERVED)},
        "chaos": {f"{key}/seed{seed}": _chaos_observe_record(key, seed)
                  for key, seed in CHAOS_OBSERVED},
    }
    OBSERVE_FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True)
                               + "\n")
