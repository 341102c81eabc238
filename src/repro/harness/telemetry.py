"""Fleet telemetry: the sweep log and the live renderer.

The sweep runner (:class:`~repro.harness.parallel.SweepRunner`) and the
chaos harness (:func:`~repro.harness.chaos.run_chaos`) each take one
optional ``on_event`` callable and hand it a dict per lifecycle edge
(job queued / started / cache-hit / finished / failed, per-job wall
seconds, simulated cycles, events-per-second, worker utilization, cache
hit-rate).  The events are built in the coordinating process from job
completions; pool workers and ``run_app`` emit nothing, so the
simulation kernel is byte-identical with telemetry on or off.  The two
consumers here are plain callables, and ``repro figure``/``scale``/
``chaos`` pass in one or both:

* :class:`SweepLogWriter` appends every event to a JSONL *sweep log*
  (``repro-sweep-log/1``): an append-only, replayable record of a whole
  sweep or chaos campaign.  The file opens with a header record and
  closes with a ``_meta`` record -- written even on abnormal
  termination, so an interrupted campaign still leaves a well-formed
  log behind.
* :class:`LiveRenderer` turns the same events into one-line progress
  output (``repro figure ... --watch``), and ``repro watch FILE``
  replays or tails a sweep log through it after the fact.

A consumer exception propagates to the emitter: telemetry consumers are
part of the harness, not untrusted plugins, and a silently broken log
writer would defeat the whole point of the layer.

``repro serve`` does not use these: a served job's events go from
``JobManager._publish`` (``repro.serve.jobs``) straight into its
history and the queues of the streams watching it.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "SWEEP_LOG_SCHEMA", "EventSink", "SweepLogWriter", "LiveRenderer",
    "read_sweep_log", "sweep_log_duration", "sweep_log_summary",
]

SWEEP_LOG_SCHEMA = "repro-sweep-log/1"

#: What ``SweepRunner`` and ``run_chaos`` accept as ``on_event``.
EventSink = Callable[[Dict[str, Any]], None]


class SweepLogWriter:
    """Append-only JSONL sweep log (``repro-sweep-log/1``).

    An event sink: call it with each event dict.  One JSON object per
    line: a header record first (schema, argv context), then every
    event in arrival order, then a ``_meta`` trailer with the event
    count and a closed/aborted marker.  Every record is stamped here
    with ``ts`` (host epoch seconds, for display) and ``mono``
    (``time.perf_counter()`` seconds, for duration math -- immune to
    wall-clock steps from NTP or a suspended laptop).  Lines are
    flushed as written so ``repro watch --follow`` can tail a live
    sweep.  Use as a context manager -- ``__exit__`` writes the trailer
    with ``aborted`` set when the sweep died on an exception, so even a
    crashed campaign leaves a well-formed, replayable log.
    """

    def __init__(self, path: str, context: Optional[dict] = None):
        self.path = path
        self.events_written = 0
        self.closed = False
        self._fh = open(path, "w")
        self._mono_open = time.perf_counter()
        header = {"schema": SWEEP_LOG_SCHEMA, "kind": "_open"}
        if context:
            header.update(context)
        self._write(header, self._mono_open)

    def __call__(self, event: Dict[str, Any]) -> None:
        if self.closed:
            return
        self._write(event, time.perf_counter())
        self.events_written += 1

    def _write(self, record: Dict[str, Any], mono: float) -> None:
        stamped = dict(record, ts=time.time(), mono=mono)
        self._fh.write(json.dumps(stamped, default=repr) + "\n")
        self._fh.flush()

    def close(self, aborted: Optional[str] = None) -> None:
        if self.closed:
            return
        self.closed = True
        mono = time.perf_counter()
        trailer = {"kind": "_meta",
                   "duration_seconds": mono - self._mono_open,
                   "events": self.events_written}
        if aborted is not None:
            trailer["aborted"] = aborted
        self._write(trailer, mono)
        self._fh.close()

    def __enter__(self) -> "SweepLogWriter":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.close(aborted=f"{exc_type.__name__}: {exc}"
                   if exc_type is not None else None)


def read_sweep_log(path: str) -> List[Dict[str, Any]]:
    """Parse a sweep log back into its records (header and trailer
    included).  Unparseable lines -- a torn final line from a killed
    process -- are skipped rather than fatal."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def sweep_log_duration(records: List[Dict[str, Any]]) -> float:
    """Elapsed seconds a sweep log covers: the span of its ``mono``
    (``time.perf_counter()``) stamps.  Epoch ``ts`` is display-only and
    steps with the host clock."""
    stamps = [record["mono"] for record in records
              if isinstance(record.get("mono"), (int, float))]
    return max(0.0, stamps[-1] - stamps[0]) if len(stamps) >= 2 else 0.0


def sweep_log_summary(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Roll a sweep log up into totals (the ``repro watch`` footer)."""
    counts: Dict[str, int] = {}
    compute_seconds = 0.0
    aborted = None
    closed = False
    for record in records:
        kind = record.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "job_finished":
            compute_seconds += record.get("wall_seconds", 0.0) or 0.0
        elif kind == "_meta":
            closed = True
            aborted = record.get("aborted")
    hits = counts.get("job_cached", 0)
    misses = counts.get("job_finished", 0)
    total = hits + misses
    return {
        "records": len(records),
        "kinds": dict(sorted(counts.items())),
        "jobs": total,
        "cache_hits": hits,
        "cache_hit_rate": hits / total if total else 0.0,
        "compute_seconds": compute_seconds,
        "duration_seconds": sweep_log_duration(records),
        "failures": counts.get("job_failed", 0),
        "closed": closed,
        "aborted": aborted,
    }


class LiveRenderer:
    """Render events as one-line progress output.

    An event sink like :class:`SweepLogWriter`; also reused by ``repro
    watch`` to replay a recorded sweep log.  Output goes through ``echo``
    (default ``print``) so tests can capture it.
    """

    def __init__(self, echo: Callable[[str], None] = print):
        self.echo = echo
        self._total: Optional[int] = None
        self._done = 0
        self._hits = 0

    def _progress(self) -> str:
        if self._total:
            return f"{self._done + self._hits}/{self._total}"
        return str(self._done + self._hits)

    def __call__(self, event: Dict[str, Any]) -> None:
        kind = event.get("kind", "?")
        if kind == "sweep_started":
            self._total = event.get("jobs")
            self._done = 0
            self._hits = 0
            self.echo(f"[watch] sweep started: {event.get('jobs', '?')} "
                      f"jobs ({event.get('unique', '?')} unique, "
                      f"jobs={event.get('workers', '?')})")
        elif kind == "job_queued":
            self.echo(f"[watch] queued   {event.get('run', '?')}")
        elif kind == "job_started":
            self.echo(f"[watch] started  {event.get('run', '?')}")
        elif kind == "job_cached":
            self._hits += 1
            self.echo(f"[watch] cache    {event.get('run', '?')} "
                      f"[{self._progress()}]")
        elif kind == "job_finished":
            self._done += 1
            rate = event.get("events_per_second", 0.0) or 0.0
            self.echo(f"[watch] finished {event.get('run', '?')} "
                      f"{event.get('wall_seconds', 0.0):.3f}s "
                      f"{event.get('events_processed', 0)} ev "
                      f"({rate:,.0f} ev/s) [{self._progress()}]")
        elif kind == "job_failed":
            self._done += 1
            self.echo(f"[watch] FAILED   {event.get('run', '?')}: "
                      f"{event.get('error', '?')} [{self._progress()}]")
        elif kind == "sweep_finished":
            util = event.get("worker_utilization")
            util_s = f", worker util {100 * util:.0f}%" \
                if util is not None else ""
            self.echo(f"[watch] sweep finished: "
                      f"{event.get('misses', 0)} simulated, "
                      f"{event.get('hits', 0)} cache hits "
                      f"(hit rate {100 * event.get('hit_rate', 0.0):.0f}%)"
                      f"{util_s}, "
                      f"{event.get('batch_seconds', 0.0):.2f}s wall")
        elif kind == "chaos_cell":
            cell = f"{event.get('app', '?')}/{event.get('protocol', '?')}"
            if event.get("error"):
                self.echo(f"[watch] chaos    {cell} FAILED -- "
                          f"{event['error']}")
            else:
                self.echo(f"[watch] chaos    {cell} baseline "
                          f"{event.get('baseline_cycles', 0) / 1e6:.2f} "
                          f"Mcycles")
        elif kind == "chaos_run":
            verdict = "survived" if event.get("survived") else "FAILED"
            overhead = event.get("overhead")
            extra = f" +{100 * overhead:.1f}%" if overhead is not None \
                else ""
            self.echo(f"[watch] chaos    {event.get('app', '?')}/"
                      f"{event.get('protocol', '?')} seed "
                      f"{event.get('seed', '?')}: {verdict}, "
                      f"{event.get('violations', '?')} violations{extra}")

    def replay(self, records: List[Dict[str, Any]]) -> None:
        for record in records:
            if record.get("kind") in ("_open", "_meta"):
                continue
            self(record)

