"""CLI tests for ``repro inspect`` and ``repro run --audit``."""

import json

from repro.__main__ import main


def test_inspect_run_renders_tables(capsys):
    code = main(["inspect", "Em3d", "--protocol", "I+P+D", "--quick",
                 "--procs", "4", "--top-pages", "5", "--timeline"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coherence audit:" in out and "0 violations" in out
    assert "top pages" in out
    assert "coherence timeline" in out and "barrier intervals" in out


def test_inspect_json_roundtrip_and_validate(tmp_path, capsys):
    path = str(tmp_path / "inspect.json")
    assert main(["inspect", "Em3d", "--protocol", "I+P+D", "--quick",
                 "--procs", "4", "--json", path]) == 0
    capsys.readouterr()

    with open(path) as fh:
        doc = json.load(fh)
    assert doc["schema"] == "repro-inspect/1"
    assert doc["audit"]["violations"] == 0
    assert doc["state"]["digest"]

    # repro validate accepts the document...
    assert main(["validate", path]) == 0
    assert "repro-inspect/1" in capsys.readouterr().out

    # ...and inspect reads it back without re-running the simulation.
    assert main(["inspect", path, "--page",
                 str(doc["pages"][0]["page"])]) == 0
    out = capsys.readouterr().out
    assert "detail" in out and "transitions:" in out


def test_inspect_diff_identical_runs(tmp_path, capsys):
    path = str(tmp_path / "a.json")
    assert main(["inspect", "Em3d", "--protocol", "I+D", "--quick",
                 "--procs", "4", "--json", path]) == 0
    capsys.readouterr()
    assert main(["inspect", "--diff", path, path]) == 0
    out = capsys.readouterr().out
    assert "zero delta" in out


def test_inspect_diff_across_protocols(tmp_path, capsys):
    # Base vs I+P+D: prefetching adds pf_* transitions, so the diff
    # must show per-page deltas.  (Base vs I+D is identical by design:
    # overlap modes change timing, never which notices/diffs flow.)
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["inspect", "Em3d", "--protocol", "Base", "--quick",
                 "--procs", "4", "--json", a]) == 0
    assert main(["inspect", "Em3d", "--protocol", "I+P+D", "--quick",
                 "--procs", "4", "--json", b]) == 0
    capsys.readouterr()
    assert main(["inspect", "--diff", a, b]) == 0
    out = capsys.readouterr().out
    assert "state digest differs" in out or "->" in out


def test_inspect_aurc_notices_take_the_tm_path(tmp_path, capsys):
    # AURC merges notices through TreadMarks' record_notice: its rings
    # log the same notice text, and its pages count invalidations (a
    # notice whose updates flow to the node itself never invalidates).
    path = str(tmp_path / "aurc.json")
    assert main(["inspect", "Em3d", "--protocol", "aurc", "--quick",
                 "--procs", "4", "--json", path]) == 0
    capsys.readouterr()
    with open(path) as fh:
        doc = json.load(fh)
    entries = [entry for pages in doc["rings"].values()
               for ring in pages.values() for entry in ring]
    notices = [entry for entry in entries if " notice w" in entry]
    assert notices and not any("aurc-notice" in e for e in entries)
    assert any(entry.endswith(" ->invalid") for entry in notices)
    assert not all(entry.endswith(" ->invalid") for entry in notices)
    assert sum(page["transitions"].get("invalidations", 0)
               for page in doc["pages"]) > 0


def test_inspect_rejects_bad_inputs(tmp_path, capsys):
    assert main(["inspect"]) == 2
    assert "needs an APP" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "repro-chaos/2"}))
    assert main(["inspect", str(bad)]) == 2
    assert "expected repro-inspect/1" in capsys.readouterr().err


def test_run_audit_clean_exit(capsys):
    code = main(["run", "Em3d", "--protocol", "I+D", "--quick",
                 "--procs", "4", "--audit"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coherence audit:" in out and "OK" in out


def test_run_audit_with_faults_clean(capsys):
    code = main(["run", "Em3d", "--protocol", "I+D", "--quick",
                 "--procs", "4", "--audit", "--fault-seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coherence audit:" in out
    assert "faults (seed 1)" in out


def test_run_audit_violation_exits_nonzero(monkeypatch, capsys):
    # Force a value-check finding to prove the CLI surfaces it: the
    # check sees one read return one more than the last write left.
    from repro.dsm import audit as audit_mod

    original = audit_mod.NodeAudit.read

    def corrupted(self, page, offset, chunk):
        if self.auditor.ok:
            chunk = chunk + 1.0
        original(self, page, offset, chunk)

    monkeypatch.setattr(audit_mod.NodeAudit, "read", corrupted)
    code = main(["run", "Em3d", "--protocol", "I+D", "--quick",
                 "--procs", "4", "--audit"])
    assert code == 1
    captured = capsys.readouterr()
    assert "AUDIT FAILURE" in captured.err
    assert "VIOLATION stale read of word" in captured.out
