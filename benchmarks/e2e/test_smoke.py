"""Smoke test of the benchmark itself: ``pytest benchmarks/e2e -q``.

Outside the tier-1 ``testpaths``.  Every workload runs once with
tracing off and once with it on, at ``--smoke`` sizes, each in a
process of its own as the driver would run it.
"""

import copy
import os
import sys

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for _path in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [os.path.join(_REPO_ROOT, "src")]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

from benchmarks.e2e import TMP_PARENT, check, compare, core  # noqa: E402
from benchmarks.e2e.layers import LAYERS  # noqa: E402
from benchmarks.e2e.serve import Serve  # noqa: E402

WORKLOADS = ("paper16", "scale", "figsweep", "serve")


def _left_behind():
    """Scratch directories and server processes of finished runs."""
    scratch = os.listdir(TMP_PARENT) \
        if os.path.isdir(TMP_PARENT) else []
    servers = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if " serve " in cmdline and TMP_PARENT in cmdline:
            servers.append(cmdline)
    return scratch, servers


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("e2e"))
    lines = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines[workload, trace] = check.smoke_result(
                workload, trace, ("--out", out))
    return lines, compare.load_runs(out)


def test_declaration_keeps_its_limits():
    assert check.declaration_problems(core.load_declaration()) == []


def test_names_printed_are_the_names_declared(results):
    lines, _ = results
    declared = core.load_declaration()
    problems = []
    for (workload, trace), line in lines.items():
        problems += check.name_problems(declared, workload, trace,
                                        line["metrics"])
    assert problems == []


def test_nothing_fails(results):
    lines, _ = results
    for key, line in lines.items():
        assert line["correct"] and line["failed"] == 0, key
        assert line["attempted"] >= 1, key
    for key, line in lines.items():
        if key[1] == 0:
            zero = [name for name, m in line["metrics"].items()
                    if not m["value"] > 0]
            assert zero == [], key


def test_simulated_values_repeat_exactly(results):
    _, runs = results
    for workload in WORKLOADS:
        untraced, = runs[workload, 0]
        traced, = runs[workload, 1]
        assert untraced["exact"] and untraced["exact"] == traced["exact"]
    # Same code, same seed: compare must find nothing to report.
    rows, violations = compare.compare(runs, runs,
                                       core.load_declaration())
    assert violations == 0, "\n".join(rows)


def test_layer_shares_sum_to_one(results):
    lines, _ = results
    for workload in WORKLOADS:
        metrics = lines[workload, 1]["metrics"]
        total = sum(metrics[f"{layer}.self_share"]["value"]
                    for layer in LAYERS + ("other",))
        assert total == pytest.approx(1.0, abs=0.01), workload


def test_runs_leave_nothing_behind(results):
    assert _left_behind() == ([], [])


def test_cleanup_when_a_phase_raises(tmp_path):
    class Broken(Serve):
        def run_pass(self, server):
            assert server.proc.poll() is None
            raise RuntimeError("phase failed")

    with pytest.raises(RuntimeError, match="phase failed"):
        core.run_workload(Broken, seed=0, seconds=1, trace=False,
                          smoke=True, out_dir=None)
    assert _left_behind() == ([], [])


def test_compare_flags_a_regression(results):
    _, runs = results
    declared = core.load_declaration()
    slower = copy.deepcopy(runs)
    for doc in slower["paper16", 0]:
        doc["metrics"]["wall_s"] *= 2.0
    for doc in slower["paper16", 1]:
        doc["metrics"]["sim.mcycles"] += 1.0
    rows, violations = compare.compare(runs, slower, declared)
    flagged = [row for row in rows
               if row.endswith("worse") or row.endswith("differs")]
    assert violations == 2 and len(flagged) == 2, "\n".join(rows)
