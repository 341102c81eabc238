"""Job model and scheduler for ``repro serve``.

A *job* is one simulation request (or a sweep of them) addressed by its
PR-3 content fingerprint -- the job id IS the fingerprint, so identical
submissions from any client resolve to the same job.  Submissions are
deduplicated cheapest first:

1. **In-flight coalescing** -- an identical request already queued or
   running returns that live job (``dedupe: "coalesced"``); N clients
   asking for the same simulation share one worker future.
2. **Job-table hits** -- a fingerprint whose job finished in this
   process is answered from memory (``dedupe: "cached"``, event source
   ``memo``): no thread hop, no file.  The store is owed the hit's
   recency, which is stamped in batches (see ``_TOUCH_BATCH``).
3. **Store hits** -- a fingerprint already in the sharded result store
   (an earlier server, a figure run) materializes a completed job
   (``dedupe: "cached"``, event source ``store``) without touching
   the pool.
4. **Sweep-member dedupe** -- members of one sweep (and of concurrent
   sweeps) collapse onto shared member jobs by fingerprint.

Misses are queued FIFO *per tenant* and dispatched round-robin across
tenants onto a bounded ``ProcessPoolExecutor``, so one tenant's burst
cannot starve another's interactive request.  Every lifecycle edge is
one :meth:`JobManager._publish`: it lands in the job's bounded event
history (for replay) and in the queue of every stream watching that
job (:meth:`JobManager.watch`).  Everything here runs on the event
loop, so a stream's attach and its history snapshot are one step and
no edge is lost or shown twice.  Completions are committed to the
store and, when an :class:`~repro.harness.parallel.EvictionPolicy` is
configured, trigger a periodic background eviction pass.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Deque, Dict, List, Optional, Set

from repro.harness.bench import config_for
from repro.harness.parallel import (
    EvictionPolicy,
    ResultCache,
    SimRequest,
    execute_request,
)
from repro.stats.metrics import MetricsRegistry

__all__ = [
    "SERVE_SCHEMA", "Job", "JobManager", "SpecError",
    "request_from_spec",
]

SERVE_SCHEMA = "repro-serve/1"

# Terminal job states; everything else is live.
_TERMINAL = ("done", "failed", "cancelled", "timeout")

# Jobs retained for status queries after completion (per manager).
_JOB_HISTORY_MAX = 4096
# Per-job event-history bound (replayable via /events).
_EVENT_HISTORY_MAX = 256
# Per-stream queue bound: a stream that stops draining (a stalled
# client) loses its oldest events rather than blocking _publish.
_WATCH_QUEUE_MAX = 1024
# Job-table hits whose recency the store has not been told yet are
# stamped at this many distinct keys (and before every eviction and at
# close), so a crash loses the recency of at most this many entries --
# never an entry.
_TOUCH_BATCH = 256


class SpecError(ValueError):
    """A malformed run specification (HTTP 400)."""


def request_from_spec(spec: Any) -> SimRequest:
    """Validate a client run spec dict into a :class:`SimRequest`.

    Accepted keys: ``app`` (required), ``protocol`` (default Base),
    ``procs`` (default 4), ``quick`` (default True -- this is a
    service; full-size runs are opt-in), ``prefetch``, ``verify``.
    Anything else is rejected so typos fail loudly instead of silently
    fingerprinting a default run.
    """
    from repro.harness.experiments import APP_ORDER

    if not isinstance(spec, dict):
        raise SpecError(f"run spec must be an object, got "
                        f"{type(spec).__name__}")
    unknown = set(spec) - {"app", "protocol", "procs", "quick",
                           "prefetch", "verify"}
    if unknown:
        raise SpecError(f"unknown run-spec keys: {sorted(unknown)}")
    app = spec.get("app")
    if app not in APP_ORDER:
        raise SpecError(f"unknown app {app!r} (known: "
                        f"{', '.join(APP_ORDER)})")
    procs = spec.get("procs", 4)
    if not isinstance(procs, int) or not 1 <= procs <= 1024:
        raise SpecError(f"procs must be an int in [1, 1024], got "
                        f"{procs!r}")
    try:
        config = config_for(spec.get("protocol", "Base"),
                            prefetch=bool(spec.get("prefetch", False)))
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return SimRequest.for_app(app, procs, config,
                              quick=bool(spec.get("quick", True)),
                              verify=bool(spec.get("verify", False)))


class Job:
    """One unit of serve work: a run (leaf) or a sweep (aggregate)."""

    __slots__ = ("id", "kind", "request", "tenant", "state", "dedupe",
                 "run", "submitted_ts", "started_ts", "finished_ts",
                 "wall_seconds", "result", "error", "members",
                 "history", "spec")

    def __init__(self, job_id: str, kind: str, tenant: str,
                 request: Optional[SimRequest] = None,
                 spec: Optional[dict] = None):
        self.id = job_id
        self.kind = kind                 # "run" | "sweep"
        self.request = request
        self.spec = spec
        self.tenant = tenant
        self.state = "queued"
        self.dedupe: Optional[str] = None
        self.run = request.label if request is not None else None
        self.submitted_ts = time.time()
        self.started_ts: Optional[float] = None
        self.finished_ts: Optional[float] = None
        self.wall_seconds: Optional[float] = None
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self.members: Optional[List[str]] = None   # sweep member ids
        self.history: Deque[dict] = deque(maxlen=_EVENT_HISTORY_MAX)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def to_json(self, result: bool = True) -> dict:
        """The ``repro-serve/1`` job document."""
        doc = {
            "schema": SERVE_SCHEMA,
            "job": {
                "id": self.id,
                "kind": self.kind,
                "state": self.state,
                "dedupe": self.dedupe,
                "tenant": self.tenant,
                "run": self.run,
                "spec": self.spec,
                "submitted_ts": self.submitted_ts,
                "started_ts": self.started_ts,
                "finished_ts": self.finished_ts,
                "wall_seconds": self.wall_seconds,
                "error": self.error,
            },
        }
        if self.members is not None:
            doc["job"]["members"] = list(self.members)
        if result and self.result is not None:
            doc["result"] = self.result
        return doc


class JobManager:
    """Owns the job table, tenant queues, worker pool, and store.

    Single-threaded by construction: every public method runs on the
    event loop.  The only off-loop work is ``execute_request`` in pool
    worker processes and the blocking store/eviction I/O, which runs
    in ``asyncio.to_thread`` so the loop never stalls on disk.
    """

    def __init__(self, workers: int = 2,
                 cache: Optional[ResultCache] = None,
                 job_timeout: Optional[float] = None,
                 eviction: Optional[EvictionPolicy] = None,
                 evict_every: int = 32,
                 registry: Optional[MetricsRegistry] = None,
                 salt: Optional[str] = None):
        self.workers = max(1, workers)
        self.cache = cache
        self.job_timeout = job_timeout
        self.eviction = eviction
        self.evict_every = max(1, evict_every)
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.salt = salt
        self.jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._queues: Dict[str, Deque[Job]] = {}
        self._tenant_rr: Deque[str] = deque()
        # member job id -> {sweep id: sweep} for the sweeps still
        # waiting on that member.
        self._live_sweeps: Dict[str, Dict[str, Job]] = {}
        self._touched: Set[str] = set()
        # job id -> queues of the streams watching it.
        self._watchers: Dict[str, List[asyncio.Queue]] = {}
        self._running = 0
        self._puts_since_evict = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._draining = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)

    async def close(self) -> None:
        self._draining = True
        for queue in self._queues.values():
            while queue:
                job = queue.popleft()
                self._finish(job, "cancelled", error="server shutdown")
        await self._flush_touched()
        if self._pool is not None:
            pool, self._pool = self._pool, None
            await asyncio.to_thread(pool.shutdown, True,
                                    cancel_futures=True)

    # -- metrics helpers ---------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    # -- events ------------------------------------------------------------

    def _publish(self, job: Job, kind: str, **fields: Any) -> None:
        event = {"kind": kind, "job": job.id, "state": job.state,
                 "tenant": job.tenant, "ts": time.time()}
        if job.run is not None:
            event.setdefault("run", job.run)
        event.update(fields)
        job.history.append(event)
        for queue in self._watchers.get(job.id, ()):
            if queue.full():
                queue.get_nowait()
            queue.put_nowait(event)

    def replay(self, job: Job) -> List[dict]:
        """``job``'s recorded events in publish order; for a sweep, its
        own merged with each member's, so a stream opened late still
        shows every member edge.  The sort is stable and the members
        come first: a member edge and the sweep edge it triggered can
        share a ``ts``, and the member's was published first."""
        if job.members is None:
            return list(job.history)
        events = [event for mid in job.members if mid in self.jobs
                  for event in self.jobs[mid].history]
        events.extend(job.history)
        events.sort(key=lambda event: event["ts"])
        return events

    def watch(self, job: Job) -> "asyncio.Queue[dict]":
        """A queue receiving every event published from now on for
        ``job`` and, for a sweep, for each of its members.

        Take :meth:`replay` before the next ``await`` and nothing is
        missed or doubled; detach with :meth:`unwatch`.
        """
        queue: "asyncio.Queue[dict]" = asyncio.Queue(_WATCH_QUEUE_MAX)
        for job_id in (job.id, *(job.members or ())):
            self._watchers.setdefault(job_id, []).append(queue)
        return queue

    def unwatch(self, job: Job, queue: "asyncio.Queue[dict]") -> None:
        for job_id in (job.id, *(job.members or ())):
            queues = self._watchers[job_id]
            queues.remove(queue)
            if not queues:
                del self._watchers[job_id]

    # -- submission --------------------------------------------------------

    def _remember(self, job: Job) -> None:
        self.jobs[job.id] = job
        while len(self.jobs) > _JOB_HISTORY_MAX:
            # Evict the oldest *terminal* job; live jobs must survive.
            for job_id, old in self.jobs.items():
                if old.terminal:
                    del self.jobs[job_id]
                    break
            else:
                break

    async def submit_run(self, spec: dict, tenant: str) -> Job:
        """Admit one run spec; returns its (possibly shared) job."""
        request = request_from_spec(spec)
        key = request.fingerprint(self.salt)
        while True:
            job = self.jobs.get(key)
            if job is not None and not job.terminal:
                # In-flight coalescing: same fingerprint, one worker
                # future.
                self.registry.inc("serve_dedupe", source="coalesced")
                self._publish(job, "job_coalesced", tenant=tenant)
                return self._shared_view(job, "coalesced")
            if job is not None and job.state == "done" \
                    and job.result is not None:
                # The job table still holds the result (whatever has
                # happened to the store entry since): serve it.
                self.registry.inc("serve_dedupe", source="cached")
                job.dedupe = "cached"
                self._publish(job, "job_cached", source="memo",
                              tenant=tenant,
                              wall_seconds=job.result.get(
                                  "wall_seconds", 0.0))
                self._touched.add(key)
                if len(self._touched) >= _TOUCH_BATCH:
                    await self._flush_touched()
                return job
            if self.cache is None:
                break
            doc = await asyncio.to_thread(self.cache.get, key)
            if self.jobs.get(key) is not job:
                continue    # the table moved while the store was read
            if doc is None:
                break
            self.registry.inc("serve_dedupe", source="cached")
            job = Job(key, "run", tenant, request=request,
                      spec=dict(spec))
            job.dedupe = "cached"
            job.state = "done"
            job.finished_ts = time.time()
            job.wall_seconds = doc.get("wall_seconds")
            job.result = doc
            self._remember(job)
            self._publish(job, "job_cached", source="store",
                          wall_seconds=doc.get("wall_seconds", 0.0))
            return job
        job = Job(key, "run", tenant, request=request, spec=dict(spec))
        self._remember(job)
        self._enqueue(job)
        return job

    async def _flush_touched(self) -> None:
        """Stamp the recency of the hits served from the job table."""
        if self._touched and self.cache is not None:
            keys, self._touched = self._touched, set()
            await asyncio.to_thread(self.cache.touch_many, keys)

    def _shared_view(self, job: Job, dedupe: str) -> Job:
        """The coalesced caller sees the live job with its own dedupe
        marker; the underlying job object (and its fingerprint id) is
        shared, which is the whole point."""
        if job.dedupe is None and dedupe == "coalesced":
            job.dedupe = "coalesced"
        return job

    async def submit_sweep(self, specs: List[Any], tenant: str) -> Job:
        """Admit a sweep: one aggregate job over deduped member runs."""
        if not isinstance(specs, list) or not specs:
            raise SpecError("sweep needs a non-empty 'runs' list")
        members: List[Job] = []
        for spec in specs:
            members.append(await self.submit_run(spec, tenant))
        # Duplicate specs collapsed onto shared jobs above; the member
        # list is the unique fingerprints, submission order preserved.
        unique = list(dict.fromkeys(m.id for m in members))
        digest = hashlib.sha256(
            "\n".join(sorted(unique)).encode()).hexdigest()
        sweep_id = f"sweep-{digest[:32]}"
        sweep = self.jobs.get(sweep_id)
        if sweep is None:
            sweep = Job(sweep_id, "sweep", tenant)
            sweep.members = unique
            self._remember(sweep)
            self._publish(sweep, "sweep_submitted",
                          submitted=len(members),
                          members=len(unique))
            for member_id in unique:
                self._live_sweeps.setdefault(
                    member_id, {})[sweep_id] = sweep
        self._refresh_sweep(sweep)
        return sweep

    def _refresh_sweep(self, sweep: Job) -> None:
        states = [self.jobs[mid].state for mid in sweep.members or ()
                  if mid in self.jobs]
        if any(state in ("failed", "timeout") for state in states):
            sweep.state = "failed"
        elif any(state == "cancelled" for state in states):
            sweep.state = "cancelled"
        elif all(state == "done" for state in states) and states:
            sweep.state = "done"
        elif any(state == "running" for state in states):
            sweep.state = "running"
        else:
            sweep.state = "queued"
        if sweep.terminal and sweep.finished_ts is None:
            sweep.finished_ts = time.time()
            sweep.result = {
                "members": {mid: self.jobs[mid].to_json(result=False)
                            ["job"]["state"]
                            for mid in sweep.members or ()
                            if mid in self.jobs}}
            self._publish(sweep, "sweep_finished", state=sweep.state)
            for member_id in sweep.members or ():
                waiting = self._live_sweeps.get(member_id, {})
                waiting.pop(sweep.id, None)
                if not waiting:
                    self._live_sweeps.pop(member_id, None)

    # -- scheduling --------------------------------------------------------

    def _enqueue(self, job: Job) -> None:
        queue = self._queues.get(job.tenant)
        if queue is None:
            queue = self._queues[job.tenant] = deque()
        if job.tenant not in self._tenant_rr:
            self._tenant_rr.append(job.tenant)
        queue.append(job)
        self.registry.inc("serve_jobs_queued", tenant=job.tenant)
        self._publish(job, "job_queued",
                      queue_depth=self.queue_depth)
        self._pump()

    def _next_job(self) -> Optional[Job]:
        """Round-robin across tenants, FIFO within each tenant."""
        for _ in range(len(self._tenant_rr)):
            tenant = self._tenant_rr[0]
            self._tenant_rr.rotate(-1)
            queue = self._queues.get(tenant)
            if queue:
                return queue.popleft()
        return None

    def _pump(self) -> None:
        if self._draining or self._pool is None:
            return
        while self._running < self.workers:
            job = self._next_job()
            if job is None:
                break
            if job.state != "queued":   # cancelled while waiting
                continue
            self._running += 1
            asyncio.get_running_loop().create_task(self._drive(job))

    async def _drive(self, job: Job) -> None:
        job.state = "running"
        job.started_ts = time.time()
        self._publish(job, "job_started")
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._pool, execute_request,
                                      job.request)
        try:
            if self.job_timeout is not None:
                # shield: a timeout abandons the result but must not
                # cancel the worker-side computation mid-simulation --
                # the slot is released only when the worker returns.
                doc = await asyncio.wait_for(asyncio.shield(future),
                                             self.job_timeout)
            else:
                doc = await future
        except asyncio.TimeoutError:
            self._finish(job, "timeout",
                         error=f"job exceeded {self.job_timeout:.1f}s")
            future.add_done_callback(
                lambda _f: self._release_slot())
            return
        except asyncio.CancelledError:
            self._finish(job, "cancelled", error="cancelled")
            self._release_slot()
            raise
        except BaseException as exc:
            self._finish(job, "failed",
                         error=f"{type(exc).__name__}: {exc}")
            self._release_slot()
            return
        job.result = doc
        job.wall_seconds = doc.get("wall_seconds")
        if self.cache is not None:
            await asyncio.to_thread(self.cache.put, job.id, doc)
            await self._maybe_evict()
        self._finish(job, "done")
        self._release_slot()

    def _release_slot(self) -> None:
        self._running = max(0, self._running - 1)
        self._pump()

    def _finish(self, job: Job, state: str,
                error: Optional[str] = None) -> None:
        job.state = state
        job.error = error
        job.finished_ts = time.time()
        self.registry.inc("serve_jobs", state=state)
        fields: Dict[str, Any] = {}
        if state == "done" and job.result is not None:
            fields = {
                "wall_seconds": job.result.get("wall_seconds", 0.0),
                "execution_cycles":
                    job.result.get("execution_cycles"),
                "events_processed":
                    job.result.get("events_processed", 0),
            }
        elif error is not None:
            fields = {"error": error}
        self._publish(job, f"job_{'finished' if state == 'done' else state}",
                      **fields)
        for sweep in list(self._live_sweeps.get(job.id, {}).values()):
            self._refresh_sweep(sweep)

    async def _maybe_evict(self) -> None:
        if self.eviction is None or not self.eviction.bounded \
                or self.cache is None:
            return
        self._puts_since_evict += 1
        if self._puts_since_evict < self.evict_every:
            return
        self._puts_since_evict = 0
        # The LRU floor must see the hits served from memory.
        await self._flush_touched()
        stats = await asyncio.to_thread(self.cache.evict, self.eviction)
        if stats["evicted"]:
            self.registry.inc("serve_evictions", stats["evicted"])
            self.registry.inc("serve_evicted_bytes",
                              stats["evicted_bytes"])

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a queued job; running jobs are left to finish.

        Returns the job (state ``cancelled`` if the cancel landed,
        unchanged if it was already running/terminal), or None if
        unknown.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state == "queued":
            queue = self._queues.get(job.tenant)
            if queue is not None:
                try:
                    queue.remove(job)
                except ValueError:
                    pass
            self._finish(job, "cancelled", error="cancelled by client")
        return job

    def metrics_json(self) -> dict:
        self.registry.set_gauge("serve_queue_depth", self.queue_depth)
        self.registry.set_gauge("serve_inflight", self._running)
        return self.registry.to_json()
