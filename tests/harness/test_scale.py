"""Scale-sweep harness: sizes and row shaping."""

import pytest

from repro.harness.scale import (
    SCALE_SIZES,
    _row,
    scale_request,
    scale_sizes,
)
from repro.hardware.params import PRESETS


def test_scale_sizes_fallback_to_nearest_smaller():
    assert scale_sizes("Em3d", 64) == SCALE_SIZES["Em3d"][64]
    assert scale_sizes("Em3d", 128) == SCALE_SIZES["Em3d"][64]
    assert scale_sizes("Em3d", 256) == SCALE_SIZES["Em3d"][256]
    assert scale_sizes("Em3d", 512) == SCALE_SIZES["Em3d"][256]
    # Below the smallest configured count: use the smallest entry.
    assert scale_sizes("Em3d", 16) == SCALE_SIZES["Em3d"][64]
    # Always a copy, never the table entry itself.
    assert scale_sizes("Em3d", 64) is not SCALE_SIZES["Em3d"][64]


def test_scale_request_carries_preset_and_topology():
    req = scale_request("Em3d", 64, "I+D", topology="torus",
                        preset="rdma")
    assert req.nprocs == 64
    assert req.params.topology == "torus"
    assert req.params.messaging_overhead_cycles == \
        PRESETS["rdma"]["messaging_overhead_cycles"]


def _fake_doc():
    return {
        "protocol": "TM/I+P+D",
        "execution_cycles": 1000,
        "wall_seconds": 2.0,
        "events_processed": 500,
        "verified": True,
        "breakdown": {"busy": 3.0, "data": 1.0},
        "diff_fraction": 0.1,
        "peak_rss_kb": 4096,
        "coherence_state": {
            "coherence_state_bytes": 6400,
            "coherence_pages": 10,
        },
    }


def test_row_shapes_scale_metrics():
    row = _row(_fake_doc(), "Em3d", 64, "torus", "rdma", cached=False)
    assert row["n_procs"] == 64
    assert row["scale"] is True
    assert row["topology"] == "torus"
    assert row["preset"] == "rdma"
    assert row["events_per_second"] == pytest.approx(250.0)
    assert row["peak_rss_kb"] == 4096
    assert row["coherence_state_bytes"] == 6400
    assert row["coherence_state_bytes_per_node"] == 100
    assert abs(sum(row["fractions"].values()) - 1.0) < 1e-9
    assert row["fractions"]["busy"] == pytest.approx(0.75)

