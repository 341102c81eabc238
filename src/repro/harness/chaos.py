"""Chaos sweeps: run configurations under seeded faults and check that
they survive with the same final shared memory as a fault-free run.

For every (app, protocol) cell the sweep first runs a fault-free
baseline with a final-memory snapshot, then one faulted run per seed
(a fresh :class:`~repro.faults.FaultPlan` each time -- plans are
single-use) and reports, per run:

* **survival** -- the simulation terminated and the app's own
  verification epilogue passed (a hang shows up as the kernel's
  "ran out of events" error, which the sweep records as a failure);
* **memory match** -- the faulted run's final shared-memory snapshot
  against the baseline's: ``exact`` for bitwise identity, ``close``
  when equal within the applications' verification tolerance (1e-6
  relative -- lock-ordered floating-point accumulation, e.g. Water's
  force reduction, legitimately reorders under faults), or ``diverged``;
* **overhead** -- faulted execution cycles over baseline cycles;
* **violations** -- the coherence-audit sanitizer's finding count:
  every faulted run carries a :class:`~repro.dsm.audit
  .CoherenceAuditor`, turning PR 5's "final memory identical" into
  "every read returned its last happens-before write".  Any violation
  fails the sweep.

Chaos runs never touch the result cache: a faulted run must not be
served from -- or poison -- the cache entry of its fault-free twin.
The optional ``on_event`` sink receives ``chaos_started``, one
``chaos_cell`` per baseline, one ``chaos_run`` per faulted run and
``chaos_finished``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.faults import FaultPlan, FaultSpec
from repro.harness.bench import config_for
from repro.harness.experiments import scaled_app
from repro.harness.runner import run_app
from repro.harness.telemetry import EventSink

__all__ = ["CHAOS_SCHEMA", "DEFAULT_APPS", "DEFAULT_PROTOCOLS",
           "memory_match", "run_chaos"]

CHAOS_SCHEMA = "repro-chaos/1"

DEFAULT_APPS = ("Em3d", "Water")
DEFAULT_PROTOCOLS = ("Base", "I+P+D")

# Matches the applications' own verification tolerance (see
# repro.apps.water): lock-ordered FP accumulation is timing-dependent.
MEMORY_RTOL = 1e-6


def memory_match(baseline, faulted) -> str:
    """Classify a faulted snapshot against the baseline's."""
    if baseline is None or faulted is None:
        return "missing"
    if baseline.shape == faulted.shape \
            and np.array_equal(baseline, faulted):
        return "exact"
    if np.allclose(baseline, faulted, rtol=MEMORY_RTOL, atol=1e-12):
        return "close"
    return "diverged"


def run_chaos(seeds: int = 3,
              apps: Sequence[str] = DEFAULT_APPS,
              protocols: Sequence[str] = DEFAULT_PROTOCOLS,
              procs: int = 4,
              quick: bool = True,
              spec: Optional[FaultSpec] = None,
              echo=print,
              on_event: Optional[EventSink] = None) -> dict:
    """Sweep ``seeds`` fault seeds over apps x protocols; returns the
    ``repro-chaos/1`` report document."""
    spec = spec if spec is not None else FaultSpec.chaos()
    seed_values = list(range(1, seeds + 1))

    def emit(kind: str, **fields) -> None:
        if on_event is not None:
            on_event(dict(kind=kind, **fields))

    emit("chaos_started", apps=list(apps), protocols=list(protocols),
         seeds=seed_values, n_procs=procs, quick=quick)
    rows = []
    for app_name in apps:
        for protocol in protocols:
            config = config_for(protocol)
            baseline = run_app(
                scaled_app(app_name, procs, quick=quick), config,
                snapshot_memory=True)
            emit("chaos_cell", app=app_name,
                 protocol=baseline.protocol_label, n_procs=procs,
                 baseline_cycles=baseline.execution_cycles)
            if echo is not None:
                echo(f"  {app_name:8s} {baseline.protocol_label:8s} "
                     f"baseline {baseline.execution_cycles / 1e6:8.2f} "
                     f"Mcycles")
            for seed in seed_values:
                plan = FaultPlan(seed=seed, spec=spec)
                row = {
                    "app": app_name,
                    "protocol": baseline.protocol_label,
                    "n_procs": procs,
                    "seed": seed,
                    "survived": False,
                    "verified": False,
                    "memory": "missing",
                    "overhead": None,
                    "error": None,
                    "faults": None,
                    "violations": None,
                }
                try:
                    result = run_app(
                        scaled_app(app_name, procs, quick=quick),
                        config, faults=plan, snapshot_memory=True,
                        audit=True)
                except Exception as exc:  # hang, protocol error, ...
                    row["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    row["survived"] = True
                    row["verified"] = result.verified
                    row["memory"] = memory_match(baseline.final_memory,
                                                 result.final_memory)
                    row["overhead"] = (result.execution_cycles
                                       / baseline.execution_cycles - 1.0)
                    row["faults"] = result.fault_stats
                    row["violations"] = result.audit.violation_count
                rows.append(row)
                emit("chaos_run", app=app_name, protocol=row["protocol"],
                     seed=seed, survived=row["survived"],
                     verified=row["verified"], memory=row["memory"],
                     overhead=row["overhead"], error=row["error"])
                if echo is not None:
                    if row["survived"]:
                        injected = sum(
                            row["faults"]["injected"].values())
                        echo(f"    seed {seed}: survived, "
                             f"memory {row['memory']}, "
                             f"+{100 * row['overhead']:.1f}% cycles, "
                             f"{injected} faults injected, "
                             f"{row['faults']['retransmits']} "
                             f"retransmits, "
                             f"{row['violations']} audit violations")
                    else:
                        echo(f"    seed {seed}: FAILED -- "
                             f"{row['error']}")
    survived = sum(1 for row in rows if row["survived"])
    matched = sum(1 for row in rows
                  if row["memory"] in ("exact", "close")
                  and row["verified"])
    clean = sum(1 for row in rows if row["violations"] == 0)
    report = {
        "schema": CHAOS_SCHEMA,
        "spec": spec.to_dict(),
        "seeds": seed_values,
        "rows": rows,
        "total": len(rows),
        "survived": survived,
        "matched": matched,
        "clean": clean,
        "ok": (survived == len(rows) and matched == len(rows)
               and clean == len(rows)),
    }
    emit("chaos_finished", total=len(rows), survived=survived,
         matched=matched, clean=clean, ok=report["ok"])
    return report
