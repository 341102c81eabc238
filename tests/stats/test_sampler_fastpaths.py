"""Sampler x kernel-fast-path consistency.

The cycle-exact fast paths (quiet-window short-circuits, pooled
timeouts) coalesce kernel work, and the :class:`Sampler` rides
the same event queue via ``pooled_timeout``.  These tests pin the
contract between them on golden-fixture configurations:

* attaching the sampler (``metrics=True``) must not move a single
  simulated cycle -- results stay bit-identical to the pinned golden
  fixture;
* sampled gauges stay physical: occupancy/utilization in [0, 1],
  queue depths non-negative, sample times strictly increasing on the
  interval grid;
* windowed occupancy integrates back to (at most) the controller's
  charged busy cycles -- the sampler's windows and the controller's
  counters describe the same machine.
"""

import json
import pathlib

import pytest

from repro.harness.experiments import scaled_app
from repro.harness.runner import ProtocolConfig, run_app
from repro.stats.sampler import DEFAULT_SAMPLE_INTERVAL

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" \
    / "golden_cycles.json"

with FIXTURE.open() as fh:
    GOLDEN = json.load(fh)

# Three protocol families x two apps: base TreadMarks, the full overlap
# pipeline, and AURC's update-based path.
KEYS = (
    "Em3d/TM/Base/4p/quick",
    "Em3d/TM/I+P+D/4p/quick",
    "Water/TM/Base/4p/quick",
    "Water/AURC/4p/quick",
)


def _config_for(label: str) -> ProtocolConfig:
    if label.startswith("TM/"):
        return ProtocolConfig.treadmarks(label[3:])
    return ProtocolConfig.aurc(prefetch=label.endswith("+P"))


def _run_with_metrics(key):
    parts = key.split("/")
    app_name, procs = parts[0], int(parts[-2][:-1])
    label = "/".join(parts[1:-2])
    app = scaled_app(app_name, procs, quick=True)
    return run_app(app, _config_for(label), metrics=True)


@pytest.fixture(scope="module")
def sampled_results():
    return {key: _run_with_metrics(key) for key in KEYS}


@pytest.mark.parametrize("key", KEYS)
def test_sampler_does_not_perturb_golden_cycles(sampled_results, key):
    # metrics=True attaches the Sampler as a real simulation process;
    # it must be purely observational even across fast-path runs.
    expected = GOLDEN["runs"][key]
    result = sampled_results[key]
    assert result.execution_cycles == expected["execution_cycles"], \
        f"{key}: sampler moved execution_cycles"
    assert list(result.finish_times) == expected["finish_times"], \
        f"{key}: sampler moved finish_times"
    assert result.merged_breakdown.as_dict() == expected["breakdown"], \
        f"{key}: sampler moved the time breakdown"


@pytest.mark.parametrize("key", KEYS)
def test_sampled_gauges_stay_physical(sampled_results, key):
    registry = sampled_results[key].metrics
    fractions = [s for s in registry.all(kind="series")
                 if s.name in ("controller_occupancy",
                               "link_utilization")]
    depths = [s for s in registry.all(kind="series")
              if s.name in ("ctrl_queue_depth", "outstanding_requests")]
    assert fractions, f"{key}: no occupancy/utilization series sampled"
    assert depths, f"{key}: no queue-depth series sampled"
    for series in fractions:
        assert all(0.0 <= v <= 1.0 for v in series.values), \
            f"{key}: {series.name}{dict(series.labels)} out of [0,1]"
    for series in depths:
        assert all(v >= 0 for v in series.values), \
            f"{key}: {series.name}{dict(series.labels)} negative"


@pytest.mark.parametrize("key", KEYS)
def test_sample_times_monotone_on_interval_grid(sampled_results, key):
    result = sampled_results[key]
    for series in result.metrics.all(kind="series"):
        times = series.times
        assert times == sorted(times), \
            f"{key}: {series.name} times not sorted"
        assert all(b > a for a, b in zip(times, times[1:])), \
            f"{key}: {series.name} has duplicate sample times"
        # Every periodic tick lands on the interval grid; only the
        # final flush (sampler.stop at run end) may fall off-grid.
        for t in times[:-1]:
            assert t % DEFAULT_SAMPLE_INTERVAL == pytest.approx(0.0), \
                f"{key}: {series.name} tick at {t} is off the " \
                f"{DEFAULT_SAMPLE_INTERVAL:g}-cycle grid"
        assert times[-1] <= result.execution_cycles


@pytest.mark.parametrize("key", KEYS)
def test_occupancy_integrates_to_controller_busy(sampled_results, key):
    """Window-integrated occupancy never exceeds the busy counter.

    Each occupancy sample is (busy delta) / window, clamped to 1.0, so
    integrating value * window over the sampled windows recovers the
    busy cycles the sampler observed.  The ``ctrl_busy_cycles`` counter
    keeps counting through the post-run drain (commands completing
    after the sampler stopped), so the integral is a strict lower
    accounting: 0 < integral <= counter whenever the controller worked.
    An integral above the counter means the fast paths double-charged
    busy time; an integral of zero means the sampler went blind.
    """
    registry = sampled_results[key].metrics
    occupancy = [s for s in registry.all(kind="series")
                 if s.name == "controller_occupancy"]
    if not occupancy:
        pytest.skip(f"{key}: protocol has no controller")
    for series in occupancy:
        node = dict(series.labels)["node"]
        counters = [c for c in registry.all(kind="counter")
                    if c.name == "ctrl_busy_cycles"
                    and dict(c.labels).get("node") == node]
        assert counters, f"{key}: node {node} has no ctrl_busy_cycles"
        busy_total = sum(c.value for c in counters)
        integral = 0.0
        last = 0.0
        for t, v in zip(series.times, series.values):
            integral += v * (t - last)
            last = t
        assert integral <= busy_total + 1e-6, \
            f"{key}: node {node} sampled more busy time than charged " \
            f"({integral:.1f} > {busy_total:.1f})"
        if busy_total > 0:
            assert integral > 0, \
                f"{key}: node {node} charged {busy_total:.1f} busy " \
                f"cycles but the sampler observed none"
