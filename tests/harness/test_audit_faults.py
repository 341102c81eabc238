"""Hostile-fault audit tests (hypothesis + matrix).

Fault injection (drop / duplicate / reorder) perturbs *timing*, never
*semantics*: the NIC's ack/retransmit layer re-delivers everything, so
every read of a faulted run must still pass the value check (return
its last happens-before write), and -- for non-speculative protocols
-- the final per-page applied-interval snapshots must be exactly those
of the unfaulted run.

Prefetch-bearing configurations are held to the zero-violations bar
only: prefetch issue/landing is timing-dependent *speculation*, so a
fault-shifted schedule may legitimately leave different pages
speculatively applied (see DESIGN.md section 10 for the caveat).
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultSpec
from repro.harness.experiments import scaled_app
from repro.harness.runner import ProtocolConfig, run_app

HOSTILE = FaultSpec(drop_prob=0.05, dup_prob=0.05, reorder_prob=0.1)

# Non-speculative configurations: applied snapshots must be identical
# under faults.  (label, config factory args)
_EXACT_CONFIGS = {
    "TM/Base": lambda: ProtocolConfig.treadmarks("Base"),
    "TM/I+D": lambda: ProtocolConfig.treadmarks("I+D"),
    "AURC": lambda: ProtocolConfig.aurc(prefetch=False),
}

# Speculative (prefetching) configurations: zero violations only.
_SPEC_CONFIGS = {
    "TM/I+P+D": lambda: ProtocolConfig.treadmarks("I+P+D"),
    "AURC+P": lambda: ProtocolConfig.aurc(prefetch=True),
}


@lru_cache(maxsize=None)
def _baseline_applied_digest(app_name: str, label: str) -> str:
    result = run_app(scaled_app(app_name, 4, quick=True),
                     _EXACT_CONFIGS[label](), audit=True)
    assert result.audit.violation_count == 0
    return result.audit.final_applied_digest()


def _faulted(app_name: str, config, seed: int,
             spec: FaultSpec = HOSTILE):
    plan = FaultPlan(seed=seed, spec=spec)
    return run_app(scaled_app(app_name, 4, quick=True), config,
                   faults=plan, audit=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("app_name", ["Em3d", "Water"])
@pytest.mark.parametrize("label", sorted(_EXACT_CONFIGS))
def test_hostile_faults_clean_and_state_identical(app_name, label, seed):
    result = _faulted(app_name, _EXACT_CONFIGS[label](), seed)
    audit = result.audit
    assert audit.violation_count == 0, \
        f"{app_name}/{label} seed {seed}: {audit.format_summary()}"
    # Faults were actually injected (the test is not vacuous)...
    assert sum(result.fault_stats["injected"].values()) > 0
    # ...yet the final applied snapshots match the unfaulted run.
    assert audit.final_applied_digest() == \
        _baseline_applied_digest(app_name, label), \
        f"{app_name}/{label} seed {seed}: applied state diverged"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("app_name", ["Em3d", "Water"])
@pytest.mark.parametrize("label", sorted(_SPEC_CONFIGS))
def test_hostile_faults_clean_under_speculation(app_name, label, seed):
    result = _faulted(app_name, _SPEC_CONFIGS[label](), seed)
    audit = result.audit
    assert audit.violation_count == 0, \
        f"{app_name}/{label} seed {seed}: {audit.format_summary()}"
    assert result.verified


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       drop=st.floats(min_value=0.0, max_value=0.08),
       dup=st.floats(min_value=0.0, max_value=0.08),
       reorder=st.floats(min_value=0.0, max_value=0.15))
def test_random_hostile_plans_never_violate(seed, drop, dup, reorder):
    """Any (seed, rates) draw keeps every coherence transition legal."""
    spec = FaultSpec(drop_prob=drop, dup_prob=dup, reorder_prob=reorder)
    result = _faulted("Em3d", ProtocolConfig.treadmarks("I+D"), seed,
                      spec=spec)
    audit = result.audit
    assert audit.violation_count == 0, audit.format_summary()
    assert audit.final_applied_digest() == \
        _baseline_applied_digest("Em3d", "TM/I+D")
