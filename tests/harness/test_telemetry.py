"""Fleet telemetry: the JSONL sweep log, the live renderer, and the
``on_event`` sinks of the sweep runner and the chaos harness."""

import json

import pytest

from repro.harness import telemetry
from repro.harness.chaos import run_chaos
from repro.harness.parallel import SimRequest, SweepRunner
from repro.harness.runner import ProtocolConfig
from repro.harness.telemetry import (
    SWEEP_LOG_SCHEMA,
    LiveRenderer,
    SweepLogWriter,
    read_sweep_log,
    sweep_log_summary,
)


# -- the sweep log ---------------------------------------------------------

def test_sweep_log_roundtrip(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepLogWriter(str(path), context={"argv": ["x"]}) as writer:
        writer({"kind": "job_finished", "run": "A", "wall_seconds": 0.5})
        writer({"kind": "job_cached", "run": "B"})
    records = read_sweep_log(str(path))
    assert records[0]["schema"] == SWEEP_LOG_SCHEMA
    assert records[0]["kind"] == "_open"
    assert records[-1] == pytest.approx(records[-1])  # parseable
    assert records[-1]["kind"] == "_meta"
    assert records[-1]["events"] == 2
    assert "aborted" not in records[-1]
    summary = sweep_log_summary(records)
    assert summary["closed"] and summary["aborted"] is None
    assert summary["jobs"] == 2 and summary["cache_hits"] == 1
    assert summary["cache_hit_rate"] == 0.5
    assert summary["compute_seconds"] == pytest.approx(0.5)


def test_sweep_log_meta_written_on_abnormal_exit(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with pytest.raises(RuntimeError):
        with SweepLogWriter(str(path)) as writer:
            writer({"kind": "job_started", "run": "A"})
            raise RuntimeError("campaign died")
    records = read_sweep_log(str(path))
    meta = records[-1]
    assert meta["kind"] == "_meta"
    assert meta["aborted"] == "RuntimeError: campaign died"
    assert meta["events"] == 1
    writer({"kind": "job_finished", "run": "A"})  # dropped once closed
    assert read_sweep_log(str(path)) == records
    summary = sweep_log_summary(records)
    assert summary["closed"] and "RuntimeError" in summary["aborted"]


def test_sweep_log_reader_skips_torn_final_line(tmp_path):
    path = tmp_path / "sweep.jsonl"
    writer = SweepLogWriter(str(path))
    writer({"kind": "job_finished", "run": "A", "wall_seconds": 0.1})
    writer.close()
    with path.open("a") as fh:
        fh.write('{"kind": "job_fin')  # killed mid-write
    records = read_sweep_log(str(path))
    assert [r["kind"] for r in records] == \
        ["_open", "job_finished", "_meta"]


def test_sweep_log_carries_monotonic_stamps(tmp_path):
    # The writer stamps every record with an epoch ts (display) and a
    # perf_counter mono stamp (duration math); the trailer's
    # duration_seconds is the monotonic span, so a wall-clock step
    # mid-sweep cannot corrupt it.
    path = tmp_path / "sweep.jsonl"
    with SweepLogWriter(str(path)) as writer:
        writer({"kind": "job_finished", "run": "A", "wall_seconds": 0.1})
    records = read_sweep_log(str(path))
    assert all("ts" in r and "mono" in r for r in records)
    header, trailer = records[0], records[-1]
    assert trailer["duration_seconds"] == \
        pytest.approx(trailer["mono"] - header["mono"])
    assert sweep_log_summary(records)["duration_seconds"] >= 0.0
    assert telemetry.sweep_log_duration(records[:1]) == 0.0


# -- the live renderer -----------------------------------------------------

def test_renderer_tracks_progress_and_replays(tmp_path):
    lines = []
    renderer = LiveRenderer(echo=lines.append)
    renderer({"kind": "sweep_started", "jobs": 2, "unique": 2,
              "workers": 1})
    renderer({"kind": "job_cached", "run": "A"})
    renderer({"kind": "job_finished", "run": "B", "wall_seconds": 0.25,
              "events_processed": 100, "events_per_second": 400.0})
    renderer({"kind": "sweep_finished", "misses": 1, "hits": 1,
              "hit_rate": 0.5, "batch_seconds": 0.3,
              "worker_utilization": 0.9})
    assert any("sweep started: 2 jobs" in line for line in lines)
    assert any("[1/2]" in line for line in lines)
    assert any("[2/2]" in line for line in lines)
    assert any("hit rate 50%" in line for line in lines)
    # replay skips the structural records
    lines.clear()
    renderer.replay([{"kind": "_open"}, {"kind": "job_failed",
                     "run": "X", "error": "boom"}, {"kind": "_meta"}])
    assert len(lines) == 1 and "FAILED" in lines[0]


def test_renderer_ignores_unknown_kinds():
    lines = []
    renderer = LiveRenderer(echo=lines.append)
    renderer({"kind": "someday_a_new_kind"})
    renderer({"kind": "run_started", "app": "Em3d"})  # not a sweep edge
    assert lines == []


# -- the sinks of the sweep runner and the chaos harness --------------------

def test_sweep_runner_publishes_lifecycle_events():
    seen = []
    runner = SweepRunner(jobs=1, cache=None, on_event=seen.append)
    request = SimRequest.for_app("Ocean", 2,
                                 ProtocolConfig.treadmarks("Base"),
                                 quick=True, verify=False)
    runner.run_batch([request, request])  # second is a memo hit
    kinds = [e["kind"] for e in seen]
    assert kinds[0] == "sweep_started"
    assert kinds[-1] == "sweep_finished"
    assert "job_finished" in kinds
    assert "job_cached" in kinds  # the duplicate served from the memo
    finished = next(e for e in seen if e["kind"] == "job_finished")
    assert finished["run"].startswith("Ocean/")
    assert finished["wall_seconds"] > 0
    assert finished["execution_cycles"] > 0
    done = next(e for e in seen if e["kind"] == "sweep_finished")
    assert done["jobs"] == 2 and done["hits"] == 1


def test_chaos_hands_its_events_to_its_sink():
    # run_app emits nothing: a chaos campaign's sink sees only chaos
    # edges, one chaos_run per faulted run.
    seen = []
    report = run_chaos(seeds=1, apps=("Em3d",), protocols=("Base",),
                       procs=2, echo=None, on_event=seen.append)
    assert [e["kind"] for e in seen] == [
        "chaos_started", "chaos_cell", "chaos_run", "chaos_finished"]
    assert seen[2]["survived"] and seen[2]["seed"] == 1
    assert seen[-1]["ok"] == report["ok"]


def test_sweep_log_events_are_json_lines(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepLogWriter(str(path)) as writer:
        runner = SweepRunner(jobs=1, cache=None, on_event=writer)
        runner.run_batch([SimRequest.for_app(
            "Ocean", 2, ProtocolConfig.treadmarks("Base"),
            quick=True, verify=False)])
    with path.open() as fh:
        for line in fh:
            json.loads(line)  # every line individually parseable
    summary = sweep_log_summary(read_sweep_log(str(path)))
    assert summary["closed"] and summary["jobs"] == 1
