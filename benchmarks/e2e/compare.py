"""``compare A B``: is run set B worse than run set A?

A and B are directories of result files written with ``--out`` (or
single files).  Every end-to-end metric of every workload gets its own
row: the medians, how much worse B's is as a share of A's, the bound
from BENCHMARK.json and the spread of A's own runs (the distance
between their quartiles over their median).

* ``worse``      B's median is worse by more than the bound.
* ``unresolved`` A's own spread exceeds the bound, so the bound cannot
  be checked -- unless every run of B reads better than every run of A.
* ``differs``    a simulated value that must repeat exactly per seed
  (cycles, event, message and call counts) is not the same in A and B.

Exit status is 1 when any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from typing import Dict, List, Tuple

from benchmarks.e2e.core import SCHEMA, load_declaration

__all__ = ["EXACT", "load_runs", "compare", "main"]

# Per-layer metrics that are simulated values or deterministic counts:
# two runs at one seed must agree to the last digit, whatever the host.
EXACT = {
    "sim.mcycles", "sim.events", "model.err_pct",
    "hardware.network.messages", "hardware.network.bytes",
    "hardware.network.mean_latency_cycles",
    "dsm.diff_fraction", "dsm.prefetch.issued",
    "dsm.prefetch.useless_share", "dsm.coherence_state_bytes",
    "stats.breakdown.busy_share", "stats.breakdown.data_share",
    "stats.breakdown.synch_share", "stats.breakdown.ipc_share",
    "sim.calls", "hardware.calls", "dsm.calls", "apps.calls",
    "stats.calls", "dsm.compact.calls",
    "harness.parallel.unique_runs", "harness.parallel.memo_hits",
}

Runs = Dict[Tuple[str, int], List[dict]]    # (workload, trace) -> results


def load_runs(path: str) -> Runs:
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name)
                       for name in os.listdir(path)
                       if name.endswith(".json"))
    runs: Runs = {}
    for name in files:
        with open(name) as fh:
            doc = json.load(fh)
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"{name}: not a {SCHEMA} result")
        runs.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return runs


def _spread(values: List[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(median)


def compare(a: Runs, b: Runs, declared: dict) -> Tuple[List[str], int]:
    """Table rows and the number of violations."""
    gated = {m["name"]: m for m in declared["end_to_end"]}
    layer = {m["name"]: m for m in declared["per_layer"]}
    rows = [f"{'workload':9s} {'metric':38s} {'A':>12s} {'B':>12s} "
            f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict"]
    violations = 0
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        names = sorted(a[key][0]["metrics"])
        for name in names:
            spec = gated.get(name) or layer.get(name)
            if spec is None:
                continue
            side_a = [r["metrics"][name] for r in a[key]]
            side_b = [r["metrics"][name] for r in b[key]]
            med_a = statistics.median(side_a)
            med_b = statistics.median(side_b)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
            spread = _spread(side_a)
            verdict = ""
            if name in EXACT:
                by_seed = {r["seed"]: r["metrics"][name] for r in a[key]}
                if any(r["seed"] in by_seed
                       and by_seed[r["seed"]] != r["metrics"][name]
                       for r in b[key]):
                    verdict = "differs"
                    violations += 1
                else:
                    verdict = "same"
            elif name in gated:
                bound = spec["bound"]
                if spread > bound:
                    clear = (max(side_b) < min(side_a) if sign > 0
                             else min(side_b) > max(side_a))
                    verdict = "better" if clear else "unresolved"
                elif worse > bound:
                    verdict = "worse"
                    violations += 1
                else:
                    verdict = "ok"
            bound_text = f"{spec['bound']:6.2f}" if "bound" in spec \
                else f"{'':6s}"
            rows.append(
                f"{workload:9s} {name:38s} {med_a:12.6g} {med_b:12.6g} "
                f"{100 * worse:8.1f}% {bound_text} {100 * spread:6.1f}%"
                f"  {verdict}")
    for key in sorted(set(a) ^ set(b)):
        rows.append(f"{key[0]} --trace {key[1]}: only in one of the sets")
    return rows, violations


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="result file or directory: the base")
    parser.add_argument("b", help="result file or directory: the change")
    args = parser.parse_args(argv)
    rows, violations = compare(load_runs(args.a), load_runs(args.b),
                               load_declaration())
    print("\n".join(rows))
    print(f"{violations} violations")
    return 1 if violations else 0
