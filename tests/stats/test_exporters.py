"""Trace exporters: JSONL, Chrome trace-event JSON, and loaders."""

import json

from repro.hardware.params import CYCLE_NS
from repro.sim import Simulator
from repro.sim.trace import Tracer
from repro.stats.exporters import (
    load_trace_file,
    load_trace_meta,
    summarize_events,
    trace_to_chrome,
    trace_to_jsonl,
    write_trace,
)


def _tracer_with_events():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.emit("fault", node=3, action="read", page=7,
                begin=0.0, dur=120.0)
    tracer.emit("ctrl", node=3, track="ctrl", action="diff-apply",
                begin=50.0, dur=30.0)
    tracer.emit("msg", node=1, track="nic", action="DiffRequest", dst=3,
                bytes=64)
    return tracer


def test_jsonl_one_object_per_line():
    tracer = _tracer_with_events()
    lines = trace_to_jsonl(tracer).strip().splitlines()
    assert len(lines) == 4  # 3 events + trailing meta record
    first = json.loads(lines[0])
    assert first["cat"] == "fault" and first["page"] == 7
    meta = json.loads(lines[-1])
    assert meta["cat"] == "_meta"
    assert meta["events"] == 3 and meta["dropped"] == 0


def test_chrome_spans_and_instants():
    tracer = _tracer_with_events()
    doc = trace_to_chrome(tracer)
    events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    assert all("ts" in e and "pid" in e and "tid" in e for e in events)
    span = events[0]
    assert span["ph"] == "X"
    assert span["name"] == "fault:read"
    assert span["pid"] == 3 and span["tid"] == 0  # cpu track
    us_per_cycle = CYCLE_NS / 1000.0
    assert span["dur"] == 120.0 * us_per_cycle
    ctrl = events[1]
    assert ctrl["tid"] == 1  # controller track
    instant = events[2]
    assert instant["ph"] == "i" and instant["s"] == "t"
    assert instant["tid"] == 2  # nic track
    # Structural keys are stripped from args; data keys survive.
    assert "node" not in span["args"] and span["args"]["page"] == 7


def test_chrome_metadata_names_tracks():
    doc = trace_to_chrome(_tracer_with_events())
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    process_names = {e["pid"]: e["args"]["name"] for e in meta
                     if e["name"] == "process_name"}
    assert process_names == {1: "node1", 3: "node3"}
    thread_names = {(e["pid"], e["tid"]): e["args"]["name"] for e in meta
                    if e["name"] == "thread_name"}
    assert thread_names[(3, 1)] == "controller"
    assert thread_names[(1, 2)] == "nic"


def test_write_and_load_chrome(tmp_path):
    path = str(tmp_path / "trace.json")
    write_trace(_tracer_with_events(), path)
    events = load_trace_file(path)
    assert len(events) == 3  # metadata filtered out
    assert summarize_events(events) == {"ctrl": 1, "fault": 1, "msg": 1}


def test_write_and_load_jsonl(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    write_trace(_tracer_with_events(), path)
    events = load_trace_file(path)
    assert len(events) == 3
    assert summarize_events(events) == {"ctrl": 1, "fault": 1, "msg": 1}


def test_empty_tracer_exports_cleanly(tmp_path):
    sim = Simulator()
    tracer = Tracer(sim)
    # Only the meta record remains for an empty trace.
    lines = trace_to_jsonl(tracer).strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["cat"] == "_meta"
    doc = trace_to_chrome(tracer)
    assert doc["traceEvents"] == []
    path = str(tmp_path / "empty.json")
    write_trace(tracer, path)
    assert load_trace_file(path) == []


def test_dropped_count_recorded():
    sim = Simulator()
    tracer = Tracer(sim, limit=1)
    tracer.emit("fault")
    tracer.emit("fault")
    doc = trace_to_chrome(tracer)
    assert doc["otherData"]["dropped_events"] == 1


def test_load_trace_meta_round_trips_both_formats(tmp_path):
    sim = Simulator()
    tracer = Tracer(sim, limit=2)
    for _ in range(3):
        tracer.emit("fault")
    for name in ("t.jsonl", "t.json"):
        path = str(tmp_path / name)
        write_trace(tracer, path)
        meta = load_trace_meta(path)
        assert meta["events"] == 2, name
        assert meta["dropped"] == 1, name
        # The meta record never leaks into the event stream.
        assert len(load_trace_file(path)) == 2, name


def test_load_trace_meta_missing_for_legacy_files(tmp_path):
    path = tmp_path / "legacy.jsonl"
    path.write_text('{"t": 0, "cat": "fault"}\n')
    assert load_trace_meta(str(path)) == {}
