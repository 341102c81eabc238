"""Fleet telemetry: a process-local event bus for the harness layers.

The sweep runner, the chaos harness, and ``run_app`` itself publish
structured progress events (job queued / started / cache-hit / finished
/ failed, per-job wall seconds, simulated cycles, events-per-second,
worker utilization, cache hit-rate) to a :class:`TelemetryBus`.
Consumers subscribe callbacks:

* :class:`SweepLogWriter` appends every event to a JSONL *sweep log*
  (``repro-sweep-log/1``): an append-only, replayable record of a whole
  sweep or chaos campaign.  The file opens with a header record and
  closes with a ``_meta`` record -- written even on abnormal
  termination, so an interrupted campaign still leaves a well-formed
  log behind.
* :class:`LiveRenderer` turns the same events into one-line progress
  output (``repro figure ... --watch``), and ``repro watch FILE``
  replays or tails a sweep log through it after the fact.

Cost contract: publishing to a bus with no subscribers is a single
truthiness check, so instrumented code paths pay nothing when nobody is
watching.  The bus is process-local by design -- pool workers run with
an empty bus and all telemetry is derived in the coordinating process
from job completions, keeping the simulation kernel byte-identical
with telemetry on or off.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "SWEEP_LOG_SCHEMA", "TelemetryBus", "SweepLogWriter", "LiveRenderer",
    "AsyncBridge", "bus", "publish", "read_sweep_log",
    "sweep_log_duration", "sweep_log_summary",
]

SWEEP_LOG_SCHEMA = "repro-sweep-log/1"

Subscriber = Callable[[Dict[str, Any]], None]


class TelemetryBus:
    """Synchronous fan-out of event dicts to subscribed callbacks.

    Events are plain dicts with a ``kind`` key plus whatever fields the
    publisher attaches; ``ts`` (host epoch seconds, for display) and
    ``mono`` (``time.perf_counter()`` seconds, for duration math --
    immune to wall-clock steps from NTP or a suspended laptop) are
    stamped here so every subscriber sees the same timestamps.  A
    subscriber exception
    propagates to the publisher: telemetry consumers are part of the
    harness, not untrusted plugins, and a silently broken log writer
    would defeat the whole point of the layer.
    """

    def __init__(self):
        self._subscribers: List[Subscriber] = []

    @property
    def active(self) -> bool:
        return bool(self._subscribers)

    def subscribe(self, callback: Subscriber) -> Subscriber:
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Subscriber) -> None:
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def publish(self, kind: str, **fields: Any) -> None:
        if not self._subscribers:
            return
        event = {"kind": kind, "ts": time.time(),
                 "mono": time.perf_counter()}
        event.update(fields)
        for callback in list(self._subscribers):
            callback(event)


# The process-wide default bus.  Publishers (SweepRunner, run_app,
# run_chaos) default to this one; CLI commands attach their consumers
# here.  Pool workers inherit a fresh, subscriber-less bus.
_BUS = TelemetryBus()


def bus() -> TelemetryBus:
    """The process-wide default telemetry bus."""
    return _BUS


def publish(kind: str, **fields: Any) -> None:
    """Publish to the default bus (no-op without subscribers)."""
    _BUS.publish(kind, **fields)


class AsyncBridge:
    """Bridge bus events into ``asyncio`` queues for streaming servers.

    The bus is synchronous and may be published from any thread (the
    serve job manager publishes from executor callbacks); an event-loop
    consumer cannot subscribe a plain callback without racing the loop.
    The bridge is that adapter: it subscribes itself to a
    :class:`TelemetryBus`, hops every event onto the owning loop with
    ``call_soon_threadsafe``, and fans it out to per-consumer
    ``asyncio.Queue`` instances (one per open event stream).

    Queues are bounded; a consumer that stops draining (a stalled HTTP
    client) loses its *oldest* events rather than blocking the bus or
    growing without bound -- the stream stays live, which is what a
    progress watcher wants.  ``dropped`` counts those losses.
    """

    def __init__(self, loop, bus: Optional[TelemetryBus] = None,
                 maxsize: int = 1024):
        import asyncio

        self._asyncio = asyncio
        self._loop = loop
        self._bus = bus if bus is not None else _BUS
        self._queues: List = []
        self._maxsize = maxsize
        self.dropped = 0
        self.closed = False
        self._bus.subscribe(self)

    def __call__(self, event: Dict[str, Any]) -> None:
        # With no stream attached there is nobody to deliver to, and
        # the hop is a write to the loop's self-pipe per event.
        if self.closed or not self._queues:
            return
        try:
            self._loop.call_soon_threadsafe(self._dispatch, event)
        except RuntimeError:
            pass  # loop already closed mid-shutdown

    def _dispatch(self, event: Dict[str, Any]) -> None:
        for queue in list(self._queues):
            if queue.full():
                try:
                    queue.get_nowait()
                    self.dropped += 1
                except self._asyncio.QueueEmpty:  # pragma: no cover
                    pass
            queue.put_nowait(event)

    def stream(self):
        """A new bounded queue receiving every subsequent bus event.

        Call from the owning loop; detach with :meth:`unstream` when
        the consumer disconnects.
        """
        queue = self._asyncio.Queue(maxsize=self._maxsize)
        self._queues.append(queue)
        return queue

    def unstream(self, queue) -> None:
        try:
            self._queues.remove(queue)
        except ValueError:
            pass

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._bus.unsubscribe(self)
            self._queues.clear()


class SweepLogWriter:
    """Append-only JSONL sweep log (``repro-sweep-log/1``).

    One JSON object per line: a header record first (schema, argv
    context), then every bus event in arrival order, then a ``_meta``
    trailer with the event count and a closed/aborted marker.  Lines are
    flushed as written so ``repro watch --follow`` can tail a live
    sweep.  Use as a context manager -- ``__exit__`` writes the trailer
    with ``aborted`` set when the sweep died on an exception, so even a
    crashed campaign leaves a well-formed, replayable log.
    """

    def __init__(self, path: str, bus: Optional[TelemetryBus] = None,
                 context: Optional[dict] = None):
        self.path = path
        self.events_written = 0
        self.closed = False
        self._bus = bus if bus is not None else _BUS
        self._fh = open(path, "w")
        self._mono_open = time.perf_counter()
        header = {"schema": SWEEP_LOG_SCHEMA, "kind": "_open",
                  "ts": time.time(), "mono": self._mono_open}
        if context:
            header.update(context)
        self._write(header)
        self._bus.subscribe(self)

    def __call__(self, event: Dict[str, Any]) -> None:
        if self.closed:
            return
        self._write(event)
        self.events_written += 1

    def _write(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, default=repr) + "\n")
        self._fh.flush()

    def close(self, aborted: Optional[str] = None) -> None:
        if self.closed:
            return
        self.closed = True
        self._bus.unsubscribe(self)
        mono = time.perf_counter()
        trailer = {"kind": "_meta", "ts": time.time(), "mono": mono,
                   "duration_seconds": mono - self._mono_open,
                   "events": self.events_written}
        if aborted is not None:
            trailer["aborted"] = aborted
        self._write(trailer)
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
    """Elapsed seconds a sweep log covers, from the monotonic stamps.

    Prefers the ``mono`` (``time.perf_counter()``) span between the
    first and last stamped records; epoch ``ts`` is display-only and
    steps with the host clock, so it is used only as a fallback for
    logs written before ``mono`` existed.
    """
    for key in ("mono", "ts"):
        stamps = [record[key] for record in records
                  if isinstance(record.get(key), (int, float))]
        if len(stamps) >= 2:
            return max(0.0, stamps[-1] - stamps[0])
    return 0.0


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
    """Render bus events as one-line progress output.

    Subscribes like any other consumer; also reused by ``repro watch``
    to replay a recorded sweep log.  Output goes through ``echo``
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
        elif kind == "run_started":
            self.echo(f"[watch] run      {event.get('app', '?')}/"
                      f"{event.get('protocol', '?')}/"
                      f"{event.get('n_procs', '?')}p started")
        elif kind == "run_finished":
            self.echo(f"[watch] run      {event.get('app', '?')}/"
                      f"{event.get('protocol', '?')} done: "
                      f"{event.get('execution_cycles', 0) / 1e6:.2f} "
                      f"Mcycles in {event.get('wall_seconds', 0.0):.3f}s")
        elif kind == "chaos_cell":
            self.echo(f"[watch] chaos    {event.get('app', '?')}/"
                      f"{event.get('protocol', '?')} baseline "
                      f"{event.get('baseline_cycles', 0) / 1e6:.2f} Mcycles")
        elif kind == "chaos_run":
            verdict = "survived" if event.get("survived") else "FAILED"
            overhead = event.get("overhead")
            extra = f" +{100 * overhead:.1f}%" if overhead is not None \
                else ""
            self.echo(f"[watch] chaos    {event.get('app', '?')}/"
                      f"{event.get('protocol', '?')} seed "
                      f"{event.get('seed', '?')}: {verdict}, memory "
                      f"{event.get('memory', '?')}{extra}")

    def replay(self, records: List[Dict[str, Any]]) -> None:
        for record in records:
            if record.get("kind") in ("_open", "_meta"):
                continue
            self(record)

