"""``--check``: what the benchmark prints is what BENCHMARK.json says.

Smoke-runs every workload with tracing off and on, and reports every
name that is printed but not declared, declared but not printed, or
outside the limits the declaration must keep.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from typing import Dict, List, Tuple

from benchmarks.e2e import REPO_ROOT
from benchmarks.e2e.core import load_declaration

__all__ = ["declaration_problems", "name_problems", "smoke_result",
           "main"]

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
         "per_layer"}
_LIMITS = {"workloads": (2, 8), "end_to_end": (1, 16),
           "per_layer": (1, 128)}


def declaration_problems(declared: dict) -> List[str]:
    problems = []
    if set(declared) != _KEYS:
        problems.append(f"keys are {sorted(declared)}, not {sorted(_KEYS)}")
        return problems
    names: List[str] = []
    for section, (low, high) in _LIMITS.items():
        rows = declared[section]
        if not low <= len(rows) <= high:
            problems.append(f"{section}: {len(rows)} entries, allowed "
                            f"{low} to {high}")
        names += [row["name"] for row in rows]
    problems += [f"name {name!r} breaks the name rule"
                 for name in names if not _NAME.match(name)]
    problems += [f"name {name!r} is used twice"
                 for name in sorted(set(names)) if names.count(name) > 1]
    for row in declared["workloads"]:
        if set(row) != {"name", "why"} or len(row["why"]) > 200 \
                or "\n" in row["why"]:
            problems.append(f"workload {row.get('name')!r}: needs "
                            f"exactly a name and a one-line why")
    for section in ("end_to_end", "per_layer"):
        keys = {"name", "unit", "better"}
        if section == "end_to_end":
            keys = keys | {"bound"}
        for row in declared[section]:
            if set(row) != keys:
                problems.append(f"{row.get('name')!r}: keys "
                                f"{sorted(row)}, not {sorted(keys)}")
                continue
            if not _UNIT.match(row["unit"]):
                problems.append(f"{row['name']}: unit {row['unit']!r}")
            if row["better"] not in ("lower", "higher"):
                problems.append(f"{row['name']}: better "
                                f"{row['better']!r}")
            if "bound" in row and not 0 <= row["bound"] <= 0.25:
                problems.append(f"{row['name']}: bound {row['bound']}")
    setup = [row for row in declared["end_to_end"]
             if row["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" \
            or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s, in s, lower is better")
    if not 1 <= declared["run_seconds"] <= 60:
        problems.append(f"run_seconds {declared['run_seconds']}")
    return problems


def name_problems(declared: dict, workload: str, trace: int,
                  printed: Dict[str, dict]) -> List[str]:
    section = "per_layer" if trace else "end_to_end"
    expected = {row["name"]: row["unit"] for row in declared[section]}
    where = f"{workload} --trace {trace}"
    problems = [f"{where}: {name} is printed but not declared"
                for name in sorted(set(printed) - set(expected))]
    problems += [f"{where}: {name} is declared but not printed"
                 for name in sorted(set(expected) - set(printed))]
    problems += [f"{where}: {name} printed in {printed[name]['unit']!r}, "
                 f"declared in {unit!r}"
                 for name, unit in expected.items()
                 if name in printed and printed[name]["unit"] != unit]
    return problems


def smoke_result(workload: str, trace: int,
                 extra: Tuple[str, ...] = ()) -> dict:
    """The result line of one ``--smoke`` run, in a process of its own."""
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
         "--smoke", "--trace", str(trace), *extra],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    declared = load_declaration()
    problems = declaration_problems(declared)
    if not problems:
        for row in declared["workloads"]:
            for trace in (0, 1):
                result = smoke_result(row["name"], trace)
                if not result["correct"]:
                    problems.append(f"{row['name']} --trace {trace}: "
                                    f"{result['failed']} failed checks")
                problems += name_problems(declared, row["name"], trace,
                                          result["metrics"])
    for problem in problems:
        print(problem)
    print(f"{len(problems)} problems" if problems
          else "BENCHMARK.json and the benchmark agree")
    return 1 if problems else 0
