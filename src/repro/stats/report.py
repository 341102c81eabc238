"""Run-report generation: human-readable summaries of a RunResult.

The harness returns raw counters; this module turns one or more
:class:`~repro.harness.runner.RunResult` objects into the summary
blocks the examples and the CLI print: execution time, per-category
breakdown bars, protocol event counts, network and prefetch statistics,
and side-by-side comparisons.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.hardware.params import CYCLE_NS
from repro.stats.breakdown import Category

__all__ = ["format_run", "format_comparison", "speedup_table",
           "breakdown_bar", "RunReport", "validate_report",
           "KNOWN_SCHEMAS"]

_BAR_WIDTH = 40
_CATEGORY_GLYPHS = {
    Category.BUSY: "#",
    Category.DATA: "d",
    Category.SYNC: "s",
    Category.IPC: "i",
    Category.OTHERS: ".",
}


def breakdown_bar(breakdown, width: int = _BAR_WIDTH) -> str:
    """Render a breakdown as a proportional ASCII bar.

    ``#`` busy, ``d`` data, ``s`` synchronization, ``i`` IPC,
    ``.`` others -- the categories of the paper's figure 2.
    """
    total = breakdown.total
    if total <= 0:
        return " " * width
    cells: List[str] = []
    for category in Category:
        share = int(round(width * breakdown.fraction(category)))
        cells.append(_CATEGORY_GLYPHS[category] * share)
    bar = "".join(cells)[:width]
    return bar + " " * (width - len(bar))


def format_run(result, verbose: bool = False) -> str:
    """One run's summary block."""
    merged = result.merged_breakdown
    ms = result.execution_cycles * CYCLE_NS / 1e6
    lines = [
        f"{result.app_name} under {result.protocol_label} "
        f"on {result.n_procs} processors",
        f"  execution time : {result.execution_cycles / 1e6:9.2f} Mcycles"
        f"  ({ms:.2f} ms at 100 MHz)",
        f"  breakdown      : [{breakdown_bar(merged)}]",
    ]
    for category in Category:
        lines.append(f"    {category.value:7s} "
                     f"{100 * merged.fraction(category):5.1f}%")
    stats = result.protocol_stats
    if hasattr(stats, "diffs_created"):
        lines.append(
            f"  protocol       : {stats.read_faults} read faults, "
            f"{stats.write_faults} write faults, "
            f"{stats.cold_fetches} page fetches")
        lines.append(
            f"                   {stats.diffs_created} diffs created "
            f"({stats.diff_words_created} words), "
            f"{stats.twins_created} twins")
    elif hasattr(stats, "fetches"):
        lines.append(
            f"  protocol       : {stats.faults} faults, "
            f"{stats.fetches} page fetches, "
            f"{stats.pairwise_formations} pairwise pages, "
            f"{stats.reverts_to_home} reverts to home")
    prefetch = getattr(stats, "prefetch", None)
    if prefetch is not None and prefetch.issued:
        lines.append(
            f"  prefetch       : {prefetch.issued} issued, "
            f"{prefetch.useful} useful, {prefetch.useless} useless, "
            f"{prefetch.late} late "
            f"({100 * prefetch.useless_fraction():.0f}% useless)")
    lines.append(
        f"  network        : {result.network.messages} messages, "
        f"{result.network.bytes / 1024:.0f} KiB, "
        f"mean latency {result.network.mean_latency():.0f} cycles")
    if verbose:
        lines.append("  per-processor finish times (Mcycles): "
                     + ", ".join(f"{t / 1e6:.2f}"
                                 for t in result.finish_times))
        if result.controller_diff_cycles:
            total_ctrl = sum(result.controller_diff_cycles)
            lines.append(f"  controller diff work: "
                         f"{total_ctrl / 1e6:.2f} Mcycles total")
    return "\n".join(lines)


def format_comparison(results: Sequence, baseline_index: int = 0) -> str:
    """Side-by-side normalized comparison of several runs of one app."""
    if not results:
        return "(no runs)"
    base = getattr(results[baseline_index], "execution_cycles", 0) or 0
    lines = [f"comparison ({results[baseline_index].protocol_label} "
             f"= 100%)"]
    for result in results:
        cycles = getattr(result, "execution_cycles", 0) or 0
        pct = f"{100.0 * cycles / base:7.1f}%" if base > 0 else f"{'n/a':>8s}"
        merged = result.merged_breakdown
        lines.append(
            f"  {result.protocol_label:12s} {pct}  "
            f"[{breakdown_bar(merged, width=30)}]")
    return "\n".join(lines)


class RunReport:
    """Machine-readable report of one run: result + metrics + trace summary.

    Duck-typed on the result object (anything with ``to_json()``); the
    tracer and registry are optional so a plain ``run_app`` result still
    produces a valid -- if sparse -- report.  Schema is versioned so
    downstream consumers (benchmark archives, plotting scripts) can
    detect incompatible changes.

    Version 2 adds a ``warnings`` list (e.g. dropped trace events, which
    make any trace-derived numbers undercounts) and, when the run was
    traced with request spans, a ``causal`` section: critical-path
    intervals and top-N blame tables from
    :mod:`repro.stats.causal`.

    ``metadata`` (optional, and merged with any ``wall_seconds`` /
    ``cached`` execution facts the result object itself carries, e.g. a
    :class:`~repro.harness.parallel.SimResult`) lands under an
    ``execution`` key: per-run wall time, cache hit/miss counters from
    the sweep runner, and the job count used.
    """

    SCHEMA = "repro-run-report/2"

    def __init__(self, result, tracer=None, metrics=None,
                 causal_top: int = 5, metadata: Optional[dict] = None):
        self.result = result
        self.tracer = tracer if tracer is not None \
            else getattr(result, "tracer", None)
        self.metrics = metrics if metrics is not None \
            else getattr(result, "metrics", None)
        self.causal_top = causal_top
        self.metadata = metadata

    def execution_metadata(self) -> dict:
        meta = dict(self.metadata or {})
        wall = getattr(self.result, "wall_seconds", None)
        if wall is not None:
            meta.setdefault("wall_seconds", wall)
        cached = getattr(self.result, "cached", None)
        if cached is not None:
            meta.setdefault("cached", cached)
        return meta

    def warnings(self) -> List[str]:
        notes = []
        if self.tracer is not None and self.tracer.dropped:
            notes.append(
                f"trace dropped {self.tracer.dropped} events at its "
                f"{self.tracer.limit}-event limit; trace-derived numbers "
                f"are undercounts")
        return notes

    def to_json(self) -> dict:
        doc = {
            "schema": self.SCHEMA,
            "run": self.result.to_json(),
        }
        warnings = self.warnings()
        if warnings:
            doc["warnings"] = warnings
        execution = self.execution_metadata()
        if execution:
            doc["execution"] = execution
        if self.metrics is not None:
            doc["metrics"] = self.metrics.to_json()
        if self.tracer is not None:
            doc["trace"] = {
                "events": len(self.tracer.events),
                "dropped": self.tracer.dropped,
                "counts": self.tracer.counts(),
            }
            if self.tracer.counts().get("req"):
                from repro.stats.causal import analyze_run
                doc["causal"] = analyze_run(self.result).to_json(
                    top=self.causal_top)
        return doc


# Schemas `repro validate` accepts.  Version 1 run reports (pre-causal)
# remain readable; repro-bench/1 is the scale-sweep archive
# (`repro scale --out`); repro-chaos/1 is the fault-sweep report
# `repro chaos` writes; repro-diff/1 is the cross-run differential
# document (`repro diff`); repro-inspect/1 the per-page coherence-audit
# document (`repro inspect`).
# repro-serve/1 is the job document the `repro serve` API returns
# (and `repro submit/status` write with --json).
# (The repro-sweep-log/1 JSONL stream is validated by its own reader,
# repro.harness.telemetry.read_sweep_log -- it is not a JSON document.)
KNOWN_SCHEMAS = ("repro-run-report/1", "repro-run-report/2",
                 "repro-bench/1", "repro-chaos/1", "repro-diff/1",
                 "repro-inspect/1", "repro-serve/1")

# Top-level keys that must be present per schema.
_REQUIRED_KEYS = {
    "repro-run-report/1": ("run",),
    "repro-run-report/2": ("run",),
    "repro-bench/1": ("generated_by", "runs"),
    "repro-chaos/1": ("spec", "rows", "survived", "ok"),
    "repro-diff/1": ("a", "b", "execution_cycles", "identical"),
    "repro-inspect/1": ("run", "pages", "audit", "state"),
    "repro-serve/1": ("job",),
}


def validate_report(doc) -> List[str]:
    """Check a loaded report document; returns a list of problems.

    An empty list means the document is a structurally valid instance
    of a known schema.  Used by ``repro validate`` (and CI) to fail on
    malformed artifacts.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected an object"]
    schema = doc.get("schema")
    if schema not in KNOWN_SCHEMAS:
        return [f"unknown schema {schema!r} (known: "
                f"{', '.join(KNOWN_SCHEMAS)})"]
    for key in _REQUIRED_KEYS[schema]:
        if key not in doc:
            problems.append(f"{schema}: missing required key {key!r}")
    if schema.startswith("repro-run-report/"):
        run = doc.get("run")
        if run is not None:
            if not isinstance(run, dict):
                problems.append("'run' must be an object")
            elif "execution_cycles" not in run:
                problems.append("'run' missing 'execution_cycles'")
        if "trace" in doc and not isinstance(doc["trace"], dict):
            problems.append("'trace' must be an object")
        if "warnings" in doc and not isinstance(doc["warnings"], list):
            problems.append("'warnings' must be a list")
        if "execution" in doc and not isinstance(doc["execution"], dict):
            problems.append("'execution' must be an object")
    elif schema == "repro-chaos/1":
        rows = doc.get("rows")
        if rows is not None:
            if not isinstance(rows, list) or not rows:
                problems.append("'rows' must be a non-empty list")
            else:
                for i, entry in enumerate(rows):
                    if not isinstance(entry, dict):
                        problems.append(f"rows[{i}] must be an object")
                        continue
                    for key in ("app", "protocol", "seed", "survived",
                                "memory"):
                        if key not in entry:
                            problems.append(
                                f"rows[{i}] missing key {key!r}")
    elif schema == "repro-bench/1":
        runs = doc.get("runs")
        if runs is not None:
            if not isinstance(runs, list) or not runs:
                problems.append("'runs' must be a non-empty list")
            else:
                for i, entry in enumerate(runs):
                    if not isinstance(entry, dict):
                        problems.append(f"runs[{i}] must be an object")
                        continue
                    for key in ("app", "protocol", "execution_cycles",
                                "fractions"):
                        if key not in entry:
                            problems.append(
                                f"runs[{i}] missing key {key!r}")
    elif schema == "repro-diff/1":
        for side in ("a", "b"):
            if side in doc and not isinstance(doc[side], dict):
                problems.append(f"{side!r} must be an object")
        if "execution_cycles" in doc \
                and not isinstance(doc["execution_cycles"], dict):
            problems.append("'execution_cycles' must be an object")
    elif schema == "repro-serve/1":
        job = doc.get("job")
        if job is not None:
            if not isinstance(job, dict):
                problems.append("'job' must be an object")
            else:
                for key in ("id", "kind", "state", "tenant"):
                    if key not in job:
                        problems.append(
                            f"'job' missing key {key!r}")
                if job.get("kind") == "sweep" \
                        and not isinstance(job.get("members"), list):
                    problems.append(
                        "sweep job missing 'members' list")
                state = job.get("state")
                known_states = ("queued", "running", "done", "failed",
                                "cancelled", "timeout")
                if state is not None and state not in known_states:
                    problems.append(
                        f"unknown job state {state!r} (known: "
                        f"{', '.join(known_states)})")
        if "result" in doc and not isinstance(doc["result"], dict):
            problems.append("'result' must be an object")
    elif schema == "repro-inspect/1":
        run = doc.get("run")
        if run is not None and not isinstance(run, dict):
            problems.append("'run' must be an object")
        pages = doc.get("pages")
        if pages is not None:
            if not isinstance(pages, list):
                problems.append("'pages' must be a list")
            else:
                for i, entry in enumerate(pages):
                    if not isinstance(entry, dict) \
                            or "page" not in entry:
                        problems.append(
                            f"pages[{i}] must be an object with "
                            f"a 'page' key")
        audit = doc.get("audit")
        if audit is not None:
            if not isinstance(audit, dict):
                problems.append("'audit' must be an object")
            elif "violations" not in audit:
                problems.append("'audit' missing 'violations'")
        state = doc.get("state")
        if state is not None:
            if not isinstance(state, dict):
                problems.append("'state' must be an object")
            elif "digest" not in state:
                problems.append("'state' missing 'digest'")
    return problems


def speedup_table(serial_cycles: float,
                  parallel_results: Iterable) -> str:
    """Speedup rows for a set of runs against one serial time."""
    lines = [f"{'procs':>6s} {'Mcycles':>10s} {'speedup':>9s} "
             f"{'efficiency':>11s}"]
    for result in parallel_results:
        speedup = serial_cycles / result.execution_cycles
        eff = speedup / result.n_procs
        lines.append(f"{result.n_procs:6d} "
                     f"{result.execution_cycles / 1e6:10.2f} "
                     f"{speedup:9.2f} {100 * eff:10.1f}%")
    return "\n".join(lines)
