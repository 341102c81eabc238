"""Cross-run differential analysis (``stats/diff.py``).

The acceptance bar: identical-seed runs diff to *zero unexplained
delta*, and a baseline-vs-faulted diff attributes the overhead to named
categories with residual below 0.5% of the baseline."""

import pathlib

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.harness.experiments import scaled_app
from repro.harness.runner import ProtocolConfig, run_app
from repro.stats.diff import (
    DIFF_SCHEMA,
    diff_runs,
    format_diff,
    golden_doc,
    load_run_doc,
)
from repro.stats.report import RunReport, validate_report

FIXTURE = str(pathlib.Path(__file__).parent.parent / "fixtures"
              / "golden_cycles.json")


def _report_doc(app="Em3d", protocol="I+P+D", procs=4, faults=None):
    config = ProtocolConfig.treadmarks(protocol)
    result = run_app(scaled_app(app, procs, quick=True), config,
                     metrics=True, faults=faults)
    return RunReport(result).to_json()


@pytest.fixture(scope="module")
def baseline_doc():
    return _report_doc()


@pytest.fixture(scope="module")
def faulted_doc():
    return _report_doc(faults=FaultPlan(seed=7, spec=FaultSpec.chaos()))


def test_identical_runs_diff_to_zero(baseline_doc):
    doc = diff_runs(load_run_doc(baseline_doc, label="a"),
                    load_run_doc(baseline_doc, label="b"))
    assert doc["schema"] == DIFF_SCHEMA
    assert doc["identical"] is True
    assert doc["unexplained_cycles"] == 0
    assert doc["execution_cycles"]["delta"] == 0
    assert "zero unexplained delta" in format_diff(doc)
    assert validate_report(doc) == []


def test_live_run_matches_golden_fixture(baseline_doc):
    golden = golden_doc("Em3d/TM/I+P+D/4p/quick", fixture_path=FIXTURE)
    doc = diff_runs(golden, load_run_doc(baseline_doc, label="live"))
    assert doc["identical"] is True
    assert doc["unexplained_cycles"] == 0


def test_faulted_diff_attributes_overhead(baseline_doc, faulted_doc):
    doc = diff_runs(load_run_doc(baseline_doc, label="clean"),
                    load_run_doc(faulted_doc, label="faulted"))
    assert doc["identical"] is False
    total = doc["execution_cycles"]
    overhead = total["delta"] / total["a"]
    # The pinned fault-overhead row: Em3d I+P+D, seed 7, +14.7%.
    assert overhead == pytest.approx(0.147, abs=0.002)
    attribution = doc["attribution"]
    # Attribution runs over the merged per-processor breakdown (every
    # processor cycle charged exactly once), so the category deltas
    # explain the whole charged-cycle delta: residual < 0.5% of the
    # baseline (arithmetically zero unless the documents disagree).
    charged = attribution["total"]
    assert abs(attribution["residual"]) < 0.005 * charged["a"]
    category_sum = sum(c["delta"] for c in attribution["categories"])
    assert category_sum == pytest.approx(charged["delta"], abs=1e-6)
    names = {c["name"] for c in attribution["categories"]}
    assert {"busy", "data", "synch", "ipc", "others"} <= names


def test_faulted_diff_names_detail_mechanisms(baseline_doc, faulted_doc):
    doc = diff_runs(load_run_doc(baseline_doc, label="clean"),
                    load_run_doc(faulted_doc, label="faulted"))
    detail_names = {row["name"] for row in doc.get("detail", [])}
    # Seeded chaos faults must surface their mechanisms by name.
    assert any("controller" in name for name in detail_names)
    # Histogram-only cycle metrics surface too.
    assert "retransmit backoff" in detail_names
    text = format_diff(doc)
    assert "faulted" in text and "%" in text


def test_golden_doc_unknown_key_lists_known():
    with pytest.raises(KeyError, match="known:"):
        golden_doc("Nope/TM/Base/4p/quick", fixture_path=FIXTURE)


def test_mismatched_configs_are_reported():
    a = golden_doc("Em3d/TM/Base/4p/quick", fixture_path=FIXTURE)
    b = golden_doc("Water/TM/Base/4p/quick", fixture_path=FIXTURE)
    doc = diff_runs(a, b)
    assert doc["aligned"] is False
    assert any("app" in m for m in doc["mismatches"])
