"""Fleet telemetry: the event bus, the JSONL sweep log, the live
renderer, and the publishers wired into the sweep/run/chaos layers."""

import json

import pytest

from repro.harness import telemetry
from repro.harness.parallel import SimRequest, SweepRunner
from repro.harness.runner import ProtocolConfig, run_app
from repro.harness.telemetry import (
    SWEEP_LOG_SCHEMA,
    LiveRenderer,
    SweepLogWriter,
    TelemetryBus,
    read_sweep_log,
    sweep_log_summary,
)


@pytest.fixture
def quiet_bus():
    """Detach any leaked subscribers from the process bus and restore
    them afterwards, so tests observe only their own events."""
    bus = telemetry.bus()
    saved = list(bus._subscribers)
    bus._subscribers.clear()
    yield bus
    bus._subscribers[:] = saved


# -- the bus ---------------------------------------------------------------

def test_bus_is_inert_without_subscribers():
    bus = TelemetryBus()
    assert not bus.active
    bus.publish("anything", x=1)  # must be a silent no-op


def test_bus_delivers_stamped_events_in_order():
    bus = TelemetryBus()
    seen = []
    bus.subscribe(seen.append)
    bus.publish("first", a=1)
    bus.publish("second", b=2)
    assert [e["kind"] for e in seen] == ["first", "second"]
    assert seen[0]["a"] == 1 and "ts" in seen[0]


def test_bus_unsubscribe_is_idempotent():
    bus = TelemetryBus()
    cb = bus.subscribe(lambda e: None)
    bus.unsubscribe(cb)
    bus.unsubscribe(cb)  # second removal must not raise
    assert not bus.active


# -- the sweep log ---------------------------------------------------------

def test_sweep_log_roundtrip(tmp_path):
    path = tmp_path / "sweep.jsonl"
    bus = TelemetryBus()
    with SweepLogWriter(str(path), bus=bus, context={"argv": ["x"]}):
        bus.publish("job_finished", run="A", wall_seconds=0.5)
        bus.publish("job_cached", run="B")
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
    bus = TelemetryBus()
    with pytest.raises(RuntimeError):
        with SweepLogWriter(str(path), bus=bus):
            bus.publish("job_started", run="A")
            raise RuntimeError("campaign died")
    records = read_sweep_log(str(path))
    meta = records[-1]
    assert meta["kind"] == "_meta"
    assert meta["aborted"] == "RuntimeError: campaign died"
    assert meta["events"] == 1
    assert not bus.active  # the writer detached itself
    summary = sweep_log_summary(records)
    assert summary["closed"] and "RuntimeError" in summary["aborted"]


def test_sweep_log_reader_skips_torn_final_line(tmp_path):
    path = tmp_path / "sweep.jsonl"
    bus = TelemetryBus()
    writer = SweepLogWriter(str(path), bus=bus)
    bus.publish("job_finished", run="A", wall_seconds=0.1)
    writer.close()
    with path.open("a") as fh:
        fh.write('{"kind": "job_fin')  # killed mid-write
    records = read_sweep_log(str(path))
    assert [r["kind"] for r in records] == \
        ["_open", "job_finished", "_meta"]


def test_sweep_log_carries_monotonic_stamps(tmp_path):
    # Every record gets both an epoch ts (display) and a perf_counter
    # mono stamp (duration math); the trailer's duration_seconds is the
    # monotonic span, so a wall-clock step mid-sweep cannot corrupt it.
    path = tmp_path / "sweep.jsonl"
    bus = TelemetryBus()
    with SweepLogWriter(str(path), bus=bus):
        bus.publish("job_finished", run="A", wall_seconds=0.1)
    records = read_sweep_log(str(path))
    assert all("ts" in r and "mono" in r for r in records)
    header, trailer = records[0], records[-1]
    assert trailer["duration_seconds"] == \
        pytest.approx(trailer["mono"] - header["mono"])
    assert sweep_log_summary(records)["duration_seconds"] >= 0.0


def test_sweep_log_duration_falls_back_to_ts():
    # Pre-mono logs still summarize: the epoch stamps are the fallback.
    records = [{"kind": "_open", "ts": 100.0},
               {"kind": "_meta", "ts": 103.5}]
    assert telemetry.sweep_log_duration(records) == pytest.approx(3.5)
    assert telemetry.sweep_log_duration([{"kind": "_open"}]) == 0.0


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
    LiveRenderer(echo=lines.append)({"kind": "someday_a_new_kind"})
    assert lines == []


# -- publisher wiring ------------------------------------------------------

def test_sweep_runner_publishes_lifecycle_events(quiet_bus):
    seen = []
    quiet_bus.subscribe(seen.append)
    runner = SweepRunner(jobs=1, cache=None)
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


def test_run_app_publishes_run_events(quiet_bus):
    seen = []
    quiet_bus.subscribe(seen.append)
    from repro.harness.experiments import scaled_app
    run_app(scaled_app("Ocean", 2, quick=True),
            ProtocolConfig.treadmarks("Base"), verify=False)
    kinds = [e["kind"] for e in seen]
    assert kinds == ["run_started", "run_finished"]
    assert seen[1]["execution_cycles"] > 0
    assert seen[1]["app"] == "Ocean"


def test_publish_without_subscribers_costs_nothing(quiet_bus):
    # The no-subscriber fast path must not even build the event dict;
    # this guards the contract that pool workers (fresh bus, no
    # consumers) pay nothing for the instrumentation.
    quiet_bus.publish("job_finished", run="X")  # no error, no effect
    assert not quiet_bus.active


def test_sweep_log_events_are_json_lines(quiet_bus, tmp_path):
    path = tmp_path / "sweep.jsonl"
    runner = SweepRunner(jobs=1, cache=None)
    with SweepLogWriter(str(path), bus=quiet_bus):
        runner.run_batch([SimRequest.for_app(
            "Ocean", 2, ProtocolConfig.treadmarks("Base"),
            quick=True, verify=False)])
    with path.open() as fh:
        for line in fh:
            json.loads(line)  # every line individually parseable
    summary = sweep_log_summary(read_sweep_log(str(path)))
    assert summary["closed"] and summary["jobs"] == 1
