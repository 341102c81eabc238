"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "TSP" in out and "I+P+D" in out and "aurc" in out


def test_run_command_quick(capsys):
    code = main(["run", "Ocean", "--protocol", "Base", "--procs", "4",
                 "--quick"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Ocean under TM/Base" in out
    assert "result verified" in out


def test_run_aurc_no_verify(capsys):
    code = main(["run", "Em3d", "--protocol", "aurc", "--procs", "2",
                 "--quick", "--no-verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Em3d under AURC" in out
    assert "result verified" not in out


def test_figure_command_quick(capsys):
    code = main(["figure", "2", "--quick"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out


def test_figure_overlap_with_app(capsys):
    code = main(["figure", "5", "--app", "Ocean", "--quick"])
    assert code == 0
    assert "Ocean" in capsys.readouterr().out


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "Nope"])


def test_figure_12_is_alias_for_11(capsys):
    assert main(["figure", "12", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "TM/I+D" in out and "AURC" in out


def test_run_with_trace_and_metrics_files(tmp_path, capsys):
    import json

    trace_file = str(tmp_path / "trace.json")
    metrics_file = str(tmp_path / "metrics.json")
    code = main(["run", "Em3d", "--protocol", "I+D", "--procs", "4",
                 "--quick", "--trace", trace_file,
                 "--metrics", metrics_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "metrics report" in out

    with open(trace_file) as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]
    assert all({"ph", "pid", "tid"} <= set(e) for e in doc["traceEvents"])

    with open(metrics_file) as fh:
        report = json.load(fh)
    assert report["schema"] == "repro-run-report/2"
    assert report["run"]["app"] == "Em3d"
    assert report["metrics"]["counters"]

    # The companion subcommands read those files back.
    assert main(["metrics", metrics_file]) == 0
    out = capsys.readouterr().out
    assert "counters (summed over labels):" in out and "series:" in out

    assert main(["trace", trace_file, "--category", "fault",
                 "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "fault" in out


def test_analyze_command(tmp_path, capsys):
    import json

    folded = str(tmp_path / "stacks.folded")
    out_json = str(tmp_path / "causal.json")
    code = main(["analyze", "Em3d", "--protocol", "I+P+D", "--procs", "4",
                 "--quick", "--top", "3", "--flamegraph", folded,
                 "--json", out_json])
    assert code == 0
    out = capsys.readouterr().out
    assert "causal analysis" in out
    assert "critical path" in out
    assert "hottest pages" in out
    assert "spans vs charged" in out
    with open(folded) as fh:
        lines = fh.read().strip().splitlines()
    assert lines and all(" " in line for line in lines)
    with open(out_json) as fh:
        doc = json.load(fh)
    assert doc["requests"]["orphans"] == 0


def test_validate_command(tmp_path, capsys):
    import json

    good = tmp_path / "good.json"
    metrics_file = str(tmp_path / "metrics.json")
    assert main(["run", "Em3d", "--protocol", "Base", "--procs", "2",
                 "--quick", "--no-verify", "--metrics",
                 metrics_file]) == 0
    capsys.readouterr()
    good.write_text(json.dumps({
        "schema": "repro-bench/1", "generated_by": "test",
        "runs": [{"app": "Em3d", "protocol": "TM/Base",
                  "execution_cycles": 1.0, "fractions": {}}]}))
    assert main(["validate", str(good), metrics_file]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 2

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "nope/1"}')
    assert main(["validate", str(good), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out


def test_metrics_command_rejects_plain_json(tmp_path, capsys):
    path = tmp_path / "not-a-report.json"
    path.write_text('{"hello": 1}')
    assert main(["metrics", str(path)]) == 1
    assert "no metrics section" in capsys.readouterr().out


def test_run_without_flags_prints_no_observability(capsys):
    code = main(["run", "Em3d", "--protocol", "I+D", "--procs", "2",
                 "--quick", "--no-verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace:" not in out and "metrics report" not in out


def test_run_second_invocation_served_from_cache(capsys):
    argv = ["run", "Em3d", "--protocol", "Base", "--procs", "2",
            "--quick", "--no-verify"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "simulated in" in first and "cache" not in first

    assert main(argv) == 0
    assert "served from cache" in capsys.readouterr().out

    assert main(argv + ["--no-cache"]) == 0
    assert "served from cache" not in capsys.readouterr().out


def test_figure_accepts_jobs_and_no_cache(capsys):
    code = main(["figure", "2", "--quick", "--jobs", "2", "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "cache hits" in out  # the sweep-stats footer


def test_figure_sweep_log_and_watch_flags(tmp_path, capsys):
    from repro.harness.telemetry import read_sweep_log, sweep_log_summary

    log = str(tmp_path / "sweep.jsonl")
    code = main(["figure", "2", "--quick", "--jobs", "1", "--no-cache",
                 "--sweep-log", log, "--watch"])
    assert code == 0
    captured = capsys.readouterr()
    assert "Figure 2" in captured.out
    assert "[watch]" in captured.err  # live lines stream to stderr
    records = read_sweep_log(log)
    summary = sweep_log_summary(records)
    assert summary["closed"] and summary["aborted"] is None
    assert summary["jobs"] > 0
    assert records[0]["command"] == "figure"


def test_figure_sweep_log_is_whole_at_any_jobs(tmp_path, capfd):
    """Only the coordinating process writes the log and the --watch
    lines: each trailer counts every event line, no pool worker adds
    any, and each job's edges match across --jobs but for the pool
    queueing where the serial path starts."""
    from collections import defaultdict

    from repro.harness.telemetry import read_sweep_log

    edges = {}
    for jobs in ("1", "2"):
        log = str(tmp_path / f"sweep{jobs}.jsonl")
        assert main(["figure", "2", "--quick", "--jobs", jobs,
                     "--no-cache", "--sweep-log", log, "--watch"]) == 0
        records = read_sweep_log(log)
        events = records[1:-1]
        assert records[-1]["kind"] == "_meta"
        assert records[-1]["events"] == len(events)
        watch = [line for line in capfd.readouterr().err.splitlines()
                 if line.startswith("[watch]")]
        assert len(watch) == len(events)
        per_job = defaultdict(list)
        for event in events:
            assert not event["kind"].startswith("run_")
            per_job[event.get("run")].append(event["kind"])
        edges[jobs] = dict(per_job)
    assert edges["1"][None] == ["sweep_started", "sweep_finished"]
    assert len(edges["1"]) > 2
    assert edges["2"] == {
        run: ["job_queued" if kind == "job_started" else kind
              for kind in kinds]
        for run, kinds in edges["1"].items()}


def test_watch_command_replays_and_reports_closure(tmp_path, capsys):
    from repro.harness.telemetry import SweepLogWriter

    log = str(tmp_path / "sweep.jsonl")
    with SweepLogWriter(log) as writer:
        writer({"kind": "sweep_started", "jobs": 1, "unique": 1,
                "workers": 1})
        writer({"kind": "job_finished", "run": "Em3d/TM/Base/2p",
                "wall_seconds": 0.2, "events_processed": 10,
                "events_per_second": 50.0})
        writer({"kind": "sweep_finished", "misses": 1, "hits": 0,
                "hit_rate": 0.0, "batch_seconds": 0.2})
    assert main(["watch", log]) == 0
    out = capsys.readouterr().out
    assert "finished Em3d/TM/Base/2p" in out
    assert "log closed" in out


def test_watch_command_flags_aborted_log(tmp_path, capsys):
    from repro.harness.telemetry import SweepLogWriter

    log = str(tmp_path / "sweep.jsonl")
    with pytest.raises(ValueError):
        with SweepLogWriter(log):
            raise ValueError("interrupted")
    assert main(["watch", log]) == 0
    assert "aborted: ValueError: interrupted" in capsys.readouterr().out


def test_diff_command_identical_metrics_files(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    for path in (a, b):
        assert main(["run", "Em3d", "--protocol", "I+P+D", "--procs",
                     "4", "--quick", "--metrics", path]) == 0
    capsys.readouterr()
    out_doc = str(tmp_path / "diff.json")
    assert main(["diff", a, b, "--json", out_doc]) == 0
    out = capsys.readouterr().out
    assert "zero unexplained delta" in out
    assert main(["validate", out_doc]) == 0


def test_diff_command_golden_side(tmp_path, capsys):
    metrics = str(tmp_path / "m.json")
    assert main(["run", "Water", "--protocol", "Base", "--procs", "4",
                 "--quick", "--metrics", metrics]) == 0
    capsys.readouterr()
    assert main(["diff", "golden:Water/TM/Base/4p/quick", metrics]) == 0
    assert "zero unexplained delta" in capsys.readouterr().out


def test_run_trace_flushed_on_abort(tmp_path, monkeypatch, capsys):
    import types

    import repro.__main__ as cli
    from repro.stats.exporters import load_trace_meta

    def doomed_run(app, config, verify=True, trace=False, metrics=False,
                   faults=None, **kwargs):
        tracer = trace
        tracer.sim = types.SimpleNamespace(now=42.0)
        tracer.emit("fault", node=1, action="diff-fetch")
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(cli, "run_app", doomed_run)
    trace_file = str(tmp_path / "partial.jsonl")
    with pytest.raises(RuntimeError, match="simulated crash"):
        cli.main(["run", "Em3d", "--protocol", "Base", "--procs", "2",
                  "--quick", "--trace", trace_file])
    err = capsys.readouterr().err
    assert "partial trace" in err
    meta = load_trace_meta(trace_file)
    assert meta["events"] == 1
    assert meta["aborted"] == "RuntimeError: simulated crash"


@pytest.mark.parametrize("argv", [
    ["run", "Em3d", "--protocol", "Bogus"],
    ["profile", "Em3d", "--protocol", "aurcx"],
    ["analyze", "Em3d", "--protocol", ""],
    ["inspect", "Em3d", "--protocol", "Bogus"],
    ["scale", "--protocols", "aurc", "aurcx"],
    ["chaos", "--protocols", "Bogus"],
])
def test_bad_protocol_name_exits_2_before_simulating(argv, monkeypatch,
                                                     capsys):
    import repro.__main__ as cli

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated despite a bad protocol name")

    monkeypatch.setattr(cli, "run_app", no_simulation)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "unknown protocol" in err
    assert "Traceback" not in err


def test_every_command_dispatches_through_its_handler():
    import argparse

    import repro.__main__ as cli

    parser = cli._build_parser()
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert len(commands.choices) == 17
    for name, sub in commands.choices.items():
        handler = getattr(cli, "_cmd_" + name.replace("-", "_"))
        assert sub.get_default("handler") is handler, name


def test_scale_command_writes_valid_archive(tmp_path, capsys):
    import json

    out_file = tmp_path / "scale.json"
    argv = ["scale", "--nodes", "64", "--protocols", "aurc", "--jobs",
            "1", "--out", str(out_file)]
    assert main(argv) == 0
    assert "[simulated]" in capsys.readouterr().out
    text = out_file.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert doc["schema"] == "repro-bench/1"
    assert doc["generated_by"] == "repro scale"
    assert doc["execution"]["cache_misses"] == len(doc["runs"]) == 1
    assert all(row["verified"] for row in doc["runs"])
    assert main(["validate", str(out_file)]) == 0
    capsys.readouterr()

    # Re-running against the populated cache serves every row.
    assert main(argv) == 0
    rerun = capsys.readouterr().out
    assert "[cached]" in rerun and "[simulated]" not in rerun


def test_trace_piped_into_head_exits_quietly(tmp_path, capsys):
    import os
    import subprocess
    import sys

    import repro

    trace = str(tmp_path / "trace.json")
    assert main(["run", "Em3d", "--protocol", "I+P+D", "--procs", "4",
                 "--quick", "--no-verify", "--trace", trace]) == 0
    capsys.readouterr()
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        f'"{sys.executable}" -m repro trace "{trace}" --limit 1000000 '
        f'| head -1', shell=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stdout.count("\n") == 1
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "BrokenPipeError" not in proc.stderr, proc.stderr
