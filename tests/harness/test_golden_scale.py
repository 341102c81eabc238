"""Scale-sweep and seeded-chaos cycle pins.

``tests/fixtures/golden_scale.json`` pins what the 18-config golden
fixture does not reach: Em3d at 64 and 256 nodes across topologies and
machine presets, and one quick run under the seeded chaos fault spec.
The scale cells go through one process-pool batch, so the pins also
hold serial == pooled for them.  Cells marked ``slow`` are checked by
CI's scale-smoke job against this same fixture instead.
"""

import json
import pathlib

from repro.faults import FaultPlan, FaultSpec
from repro.harness.bench import config_for
from repro.harness.experiments import scaled_app
from repro.harness.parallel import SweepRunner
from repro.harness.runner import run_app
from repro.harness.scale import scale_request

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" \
    / "golden_scale.json"

with FIXTURE.open() as fh:
    GOLDEN = json.load(fh)


def test_scale_cells_reproduce_through_the_pool():
    cells = [cell for cell in GOLDEN["scale"] if not cell.get("slow")]
    results = SweepRunner(jobs=2).run_batch([
        scale_request("Em3d", cell["nodes"], cell["protocol"],
                      topology=cell["topology"], preset=cell["preset"])
        for cell in cells])
    for cell, result in zip(cells, results):
        assert result.verified, cell
        assert result.execution_cycles == cell["execution_cycles"], cell


def test_seeded_chaos_run_reproduces():
    pin = GOLDEN["chaos"]
    plan = FaultPlan(seed=pin["fault_seed"], spec=FaultSpec.chaos())
    result = run_app(scaled_app(pin["app"], pin["procs"], quick=True),
                     config_for(pin["protocol"]), faults=plan)
    assert result.verified
    assert result.execution_cycles == pin["execution_cycles"]
