"""Golden cycle-exactness tests.

``tests/fixtures/golden_cycles.json`` pins the simulated outputs --
execution cycles, per-processor finish times, and the merged time
breakdown -- of every quick app x protocol configuration.  Kernel
performance work (event pooling, one-slot ports, scheduling fast paths)
must never change a single simulated cycle; any diff here means an
optimization altered simulated behavior and must be rejected, not
re-goldened, unless the simulation model itself intentionally changed.

Regenerate (only after an intentional model change) by running each
configuration through ``run_app`` and rewriting the fixture.
"""

import json
import pathlib

import pytest

from repro.harness.experiments import scaled_app
from repro.harness.runner import ProtocolConfig, run_app

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" \
    / "golden_cycles.json"

with FIXTURE.open() as fh:
    GOLDEN = json.load(fh)


def _config_for(label: str) -> ProtocolConfig:
    if label.startswith("TM/"):
        return ProtocolConfig.treadmarks(label[3:])
    return ProtocolConfig.aurc(prefetch=label.endswith("+P"))


def _parse_key(key: str):
    # "App/TM/I+P+D/4p/quick" or "App/AURC/4p/quick"
    parts = key.split("/")
    app = parts[0]
    procs = int(parts[-2][:-1])
    label = "/".join(parts[1:-2])
    return app, procs, label


@pytest.mark.parametrize("key", sorted(GOLDEN["runs"]))
def test_golden_cycles_exact(key):
    app_name, procs, label = _parse_key(key)
    expected = GOLDEN["runs"][key]
    app = scaled_app(app_name, procs, quick=True)
    result = run_app(app, _config_for(label))
    assert result.execution_cycles == expected["execution_cycles"], \
        f"{key}: execution_cycles drifted"
    assert list(result.finish_times) == expected["finish_times"], \
        f"{key}: finish_times drifted"
    assert result.merged_breakdown.as_dict() == expected["breakdown"], \
        f"{key}: breakdown drifted"


def test_fixture_covers_all_apps_and_protocol_families():
    apps = {key.split("/")[0] for key in GOLDEN["runs"]}
    labels = {_parse_key(key)[2] for key in GOLDEN["runs"]}
    assert {"Barnes", "Em3d", "Ocean", "Radix", "TSP", "Water"} <= apps
    assert "TM/Base" in labels
    assert "TM/I+P+D" in labels
    assert "AURC" in labels
