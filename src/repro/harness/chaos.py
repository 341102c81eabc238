"""Chaos sweeps: run configurations under seeded faults and check that
every faulted run survives with correct shared memory.

For every (app, protocol) cell the sweep first runs a fault-free
baseline (for the overhead), then one faulted run per seed (a fresh
:class:`~repro.faults.FaultPlan` each time -- plans are single-use) and
reports, per run:

* **survival** -- the simulation terminated and the app's own
  verification epilogue passed (a hang shows up as the kernel's
  "ran out of events" error, which the sweep records as a failure);
* **violations** -- the value check's finding count: every faulted run
  carries a :class:`~repro.dsm.audit.CoherenceAuditor`, which compares
  every read with its last happens-before write, and ends with a read
  of the whole shared segment on node 0, so every word of the final
  memory is checked against the run's own writes.  Any violation fails
  the sweep;
* **overhead** -- faulted execution cycles over baseline cycles.

The run is its own reference: a fault-free run's final memory is not,
since a program whose result legitimately depends on timing (TSP's
unlocked bound read steers its search) ends with different memory
under faults.

Chaos runs never touch the result cache: a faulted run must not be
served from -- or poison -- the cache entry of its fault-free twin.
The optional ``on_event`` sink receives ``chaos_started``, one
``chaos_cell`` per baseline, one ``chaos_run`` per faulted run and
``chaos_finished``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.faults import FaultPlan, FaultSpec
from repro.harness.bench import config_for
from repro.harness.experiments import scaled_app
from repro.harness.runner import run_app
from repro.harness.telemetry import EventSink

__all__ = ["CHAOS_SCHEMA", "DEFAULT_APPS", "DEFAULT_PROTOCOLS",
           "run_chaos"]

CHAOS_SCHEMA = "repro-chaos/2"

DEFAULT_APPS = ("Em3d", "Water")
DEFAULT_PROTOCOLS = ("Base", "I+P+D")


def run_chaos(seeds: int = 3,
              apps: Sequence[str] = DEFAULT_APPS,
              protocols: Sequence[str] = DEFAULT_PROTOCOLS,
              procs: int = 4,
              quick: bool = True,
              spec: Optional[FaultSpec] = None,
              echo=print,
              on_event: Optional[EventSink] = None) -> dict:
    """Sweep ``seeds`` fault seeds over apps x protocols; returns the
    ``repro-chaos/2`` report document."""
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
                scaled_app(app_name, procs, quick=quick), config)
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
                    row["overhead"] = (result.execution_cycles
                                       / baseline.execution_cycles - 1.0)
                    row["faults"] = result.fault_stats
                    row["violations"] = result.audit.violation_count
                rows.append(row)
                emit("chaos_run", app=app_name, protocol=row["protocol"],
                     seed=seed, survived=row["survived"],
                     verified=row["verified"],
                     violations=row["violations"],
                     overhead=row["overhead"], error=row["error"])
                if echo is not None:
                    if row["survived"]:
                        injected = sum(
                            row["faults"]["injected"].values())
                        echo(f"    seed {seed}: survived, "
                             f"+{100 * row['overhead']:.1f}% cycles, "
                             f"{injected} faults injected, "
                             f"{row['faults']['retransmits']} "
                             f"retransmits, "
                             f"{row['violations']} audit violations")
                    else:
                        echo(f"    seed {seed}: FAILED -- "
                             f"{row['error']}")
    survived = sum(1 for row in rows if row["survived"])
    clean = sum(1 for row in rows if row["violations"] == 0)
    report = {
        "schema": CHAOS_SCHEMA,
        "spec": spec.to_dict(),
        "seeds": seed_values,
        "rows": rows,
        "total": len(rows),
        "survived": survived,
        "clean": clean,
        "ok": all(row["verified"] and row["violations"] == 0
                  for row in rows),
    }
    emit("chaos_finished", total=len(rows), survived=survived,
         clean=clean, ok=report["ok"])
    return report
