"""Parallel sweep execution with content-addressed result caching.

Every paper figure is an app x protocol x machine-parameter matrix of
*independent* simulations, yet the original harness ran them strictly
serially and figures 13-16 each re-simulated the same default-parameter
baselines.  This module supplies the missing execution layer:

* :class:`SimRequest` -- a picklable, declarative description of one
  simulation (application + size knobs, :class:`ProtocolConfig`,
  :class:`MachineParams`, verify flag).  Its :meth:`~SimRequest
  .fingerprint` is a content-addressed key over every input that can
  change the simulated outcome, plus a *code salt* hashed from the
  package sources so any code change invalidates old entries.
* :class:`ResultCache` -- an on-disk store (``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro``) of :meth:`RunResult.to_json` documents keyed by
  fingerprint.  Corrupt or foreign entries read as misses.
* :class:`SweepRunner` -- executes batches of requests, deduplicating
  identical requests, consulting an in-memory memo plus the optional
  disk cache, and fanning cache misses out over a
  ``ProcessPoolExecutor`` (``jobs=1`` stays fully in-process for
  debugging).  Results come back as :class:`SimResult` views that are
  drop-in replacements for live :class:`RunResult` objects.  Its
  optional ``on_event`` sink sees each job's lifecycle edges, emitted
  here in the coordinating process -- never from a pool worker.

Determinism contract: the simulation kernel is single-threaded and
seed-free, so a request's result is a pure function of its fingerprint
inputs.  Serial, parallel, and cached executions of the same request
must therefore be bit-identical; ``tests/harness/test_parallel.py``
enforces this cycle-for-cycle.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.dsm.prefetch import PrefetchStats
from repro.harness.runner import ProtocolConfig, run_app
from repro.harness.telemetry import EventSink
from repro.hardware.params import MachineParams
from repro.stats.breakdown import Category, TimeBreakdown

__all__ = [
    "SimRequest", "SimResult", "ResultCache", "SweepRunner",
    "SweepStats", "EvictionPolicy", "code_salt", "default_cache_dir",
    "execute_request", "exit_with_parent", "CACHE_SCHEMA",
]

CACHE_SCHEMA = "repro-cache/1"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


_CODE_SALT: Optional[str] = None


def code_salt() -> str:
    """Digest of the package sources; part of every fingerprint.

    Hashing every ``.py`` file under ``repro`` means any change to the
    kernel, hardware models, protocols, applications, or harness
    invalidates previously cached results -- the cache can only ever
    return what the current code would recompute.
    """
    global _CODE_SALT
    if _CODE_SALT is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _CODE_SALT = digest.hexdigest()[:16]
    return _CODE_SALT


@dataclass(frozen=True)
class SimRequest:
    """Declarative description of one simulation run.

    ``size_kwargs`` is a sorted tuple of (name, value) pairs passed to
    the application factory, so requests hash and compare by value.
    ``params=None`` means the default :class:`MachineParams` (adjusted
    to ``nprocs``, exactly as ``run_app`` would).
    """

    app_name: str
    nprocs: int
    config: ProtocolConfig
    params: Optional[MachineParams] = None
    size_kwargs: Tuple[Tuple[str, object], ...] = ()
    verify: bool = False

    @staticmethod
    def for_app(app_name: str, nprocs: int, config: ProtocolConfig,
                params: Optional[MachineParams] = None,
                quick: bool = False, verify: bool = False) -> "SimRequest":
        """Build a request using the experiment layer's size registry."""
        from repro.harness.experiments import quick_sizes
        sizes = quick_sizes(app_name) if quick else {}
        return SimRequest(app_name=app_name, nprocs=nprocs, config=config,
                          params=params,
                          size_kwargs=tuple(sorted(sizes.items())),
                          verify=verify)

    @property
    def label(self) -> str:
        return f"{self.app_name}/{self.config.label}/{self.nprocs}p"

    def resolved_params(self) -> MachineParams:
        """The effective machine parameters (as ``run_app`` resolves them)."""
        params = self.params or MachineParams()
        if params.n_processors != self.nprocs:
            params = params.replace(n_processors=self.nprocs)
        return params

    def payload(self, salt: Optional[str] = None) -> dict:
        """The exact dict the fingerprint hashes (also archived in cache
        entries as provenance)."""
        mode = self.config.mode
        return {
            "schema": CACHE_SCHEMA,
            "salt": code_salt() if salt is None else salt,
            "app": self.app_name,
            "nprocs": self.nprocs,
            "sizes": dict(self.size_kwargs),
            "config": {
                "family": self.config.family,
                "mode": {
                    "name": mode.name,
                    "offload": mode.offload,
                    "hardware_diffs": mode.hardware_diffs,
                    "prefetch": mode.prefetch,
                },
                "prefetch": self.config.prefetch,
            },
            "params": dataclasses.asdict(self.resolved_params()),
            "verify": self.verify,
        }

    def fingerprint(self, salt: Optional[str] = None) -> str:
        """sha256 of :meth:`payload`, memoised per (request, salt).

        A server answers the same few requests over and over, and
        building the payload (``asdict`` of ~40 machine parameters, a
        JSON dump) costs two orders of magnitude more than looking the
        digest up.  Every value involved is frozen, so the digest
        cannot go stale.
        """
        if salt is None:
            salt = code_salt()
        leaves = [self.nprocs, self.verify, self.config.prefetch]
        leaves.extend(vars(self.config.mode).values())
        leaves.extend(value for _, value in self.size_kwargs)
        if self.params is not None:
            leaves.extend(vars(self.params).values())
        types = tuple(map(type, leaves))
        if not _MEMO_SAFE.issuperset(types):
            # An unhashable or exotic size value: just compute.
            return self._digest(salt)
        return _memoised_digest(self, salt, types)

    def _digest(self, salt: str) -> str:
        blob = json.dumps(self.payload(salt), sort_keys=True,
                          separators=(",", ":"), default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


# 1, 1.0 and True compare (and hash) equal but serialise differently,
# so requests that are == can still have different digests.  The memo
# key therefore carries the type of every leaf value, and only requests
# whose leaves are all of these plain types are memoised at all.
_MEMO_SAFE = frozenset((bool, int, float, str, type(None)))


@functools.lru_cache(maxsize=4096)
def _memoised_digest(request: SimRequest, salt: str,
                     _leaf_types: tuple) -> str:
    return request._digest(salt)


def execute_request(request: SimRequest) -> dict:
    """Run one simulation in the current process; returns its JSON doc.

    This is the process-pool worker: it must stay module-level (picklable
    by reference) and return only plain data.
    """
    from repro.harness.experiments import APP_FACTORIES
    app = APP_FACTORIES[request.app_name](request.nprocs,
                                          **dict(request.size_kwargs))
    start = time.perf_counter()
    result = run_app(app, request.config, params=request.params,
                     verify=request.verify)
    wall = time.perf_counter() - start
    doc = result.to_json()
    doc["wall_seconds"] = wall
    # Process-lifetime peak RSS, captured here so it survives caching.
    # run_app frees each run by refcount as it returns, so earlier runs'
    # garbage no longer adds to it; but the mark only rises, and in a
    # reused pool worker or a serial sweep it may still belong to an
    # earlier, larger run of the same process.
    try:
        import resource
        doc["peak_rss_kb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):  # non-POSIX host: omit the field
        pass
    return doc


def exit_with_parent() -> None:
    """Process-pool initializer: end this worker when its parent dies.

    A parent killed by SIGKILL never shuts its pool down, and the idle
    workers would block on the call queue forever.  A daemon thread
    waits on the parent's sentinel instead and exits the process.
    (Under ``fork`` a later worker inherits an earlier one's end of
    that pipe, so the workers exit in turn, the last forked first.)
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent",
                     daemon=True).start()


class _Namespace:
    """Attribute bag used to duck-type stats/network objects."""

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class SimResult:
    """A :class:`RunResult` look-alike reconstructed from its JSON doc.

    Exposes everything the figure functions and ``format_run`` consume
    (``execution_cycles``, ``merged_breakdown``, ``category_fraction``,
    ``diff_fraction``, ``protocol_stats`` with prefetch counters,
    ``network``), plus execution metadata: ``cached`` and
    ``wall_seconds`` (the *compute* wall time, preserved across cache
    hits).
    """

    def __init__(self, doc: dict, request: Optional[SimRequest] = None,
                 cached: bool = False):
        self.doc = doc
        self.request = request
        self.cached = cached
        self.app_name = doc["app"]
        self.protocol_label = doc["protocol"]
        self.n_procs = doc["n_procs"]
        self.execution_cycles = doc["execution_cycles"]
        self.finish_times = list(doc.get("finish_times", []))
        self.verified = bool(doc.get("verified", False))
        self.wall_seconds = float(doc.get("wall_seconds", 0.0))
        self.events_processed = int(doc.get("events_processed", 0))
        self.controller_diff_cycles = list(
            doc.get("controller_diff_cycles", []))

    @property
    def merged_breakdown(self) -> TimeBreakdown:
        merged = TimeBreakdown()
        data = self.doc.get("breakdown", {})
        for category in Category:
            merged.charge(category, data.get(category.value, 0.0))
        merged.charge_diff(data.get("diff", 0.0))
        return merged

    def category_fraction(self, category: Category) -> float:
        return self.merged_breakdown.fraction(category)

    def diff_fraction(self) -> float:
        return float(self.doc.get("diff_fraction", 0.0))

    @property
    def network(self):
        net = self.doc.get("network", {})
        mean = net.get("mean_latency", 0.0)
        return _Namespace(
            messages=net.get("messages", 0),
            bytes=net.get("bytes", 0),
            per_class_bytes=dict(net.get("per_class_bytes", {})),
            mean_latency=lambda: mean,
        )

    @property
    def protocol_stats(self):
        counters = dict(self.doc.get("protocol_counters", {}))
        prefetch = PrefetchStats(**self.doc.get("prefetch", {}))
        return _Namespace(prefetch=prefetch, **counters)

    def to_json(self) -> dict:
        return dict(self.doc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        origin = "cached" if self.cached else "computed"
        return (f"<SimResult {self.app_name}/{self.protocol_label}/"
                f"{self.n_procs}p {origin}>")


@dataclass(frozen=True)
class EvictionPolicy:
    """Size/age bounds for :meth:`ResultCache.evict`.

    ``max_bytes`` / ``max_entries`` are the post-eviction budgets
    (``None`` = unbounded); ``max_age_seconds`` additionally evicts
    entries idle longer than that regardless of budget.
    ``floor_seconds`` is the safety floor: an entry used more recently
    than this is *never* evicted, even if the byte budget cannot be met
    without it -- a cache under live serve traffic must not evict the
    entry a coalesced request is about to read.
    """

    max_bytes: Optional[int] = None
    max_entries: Optional[int] = None
    max_age_seconds: Optional[float] = None
    floor_seconds: float = 60.0

    @property
    def bounded(self) -> bool:
        return (self.max_bytes is not None
                or self.max_entries is not None
                or self.max_age_seconds is not None)


class ResultCache:
    """Content-addressed on-disk store of serialized run results.

    Entries are sharded by the first two key hex digits
    (``ab/abcdef....json``) and written via an ``mkstemp`` + atomic
    ``os.replace``, so concurrent writers -- pool workers, serve
    executor threads, or two figure invocations racing on the *same*
    fingerprint -- can never expose a torn entry.  Any unreadable,
    foreign-schema, or structurally incomplete entry is treated as a
    miss and recomputed.

    The shard files are the store's only state: an entry's size is its
    file size and its last use is its mtime, which ``put`` sets by
    writing and ``get``/:meth:`touch_many` by ``os.utime``.
    :meth:`load_index` is one walk of the shards, and :meth:`evict`
    applies an :class:`EvictionPolicy` to that walk, so a crash at any
    point leaves nothing to repair.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_cache_dir()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- read/write --------------------------------------------------------

    @staticmethod
    def _load_entry(path: str) -> Optional[dict]:
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) \
                or entry.get("schema") != CACHE_SCHEMA:
            return None
        doc = entry.get("result")
        if not isinstance(doc, dict) or "execution_cycles" not in doc:
            return None
        return doc

    @staticmethod
    def _stamp(path: str) -> None:
        """Mark the entry at ``path`` used now (best effort)."""
        try:
            os.utime(path)
        except OSError:
            pass

    def get(self, key: str) -> Optional[dict]:
        path = self.path_for(key)
        doc = self._load_entry(path)
        if doc is not None:
            self._stamp(path)
        return doc

    def put(self, key: str, doc: dict) -> None:
        entry = {"schema": CACHE_SCHEMA, "key": key, "result": doc}
        path = self.path_for(key)
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            # mkstemp gives every writer -- across processes *and*
            # threads -- a unique temp name; a shared pid-derived name
            # would let two threads finishing the same fingerprint
            # interleave writes and publish a torn entry.
            fd, tmp = tempfile.mkstemp(
                prefix=f".{key[:16]}.", suffix=".tmp",
                dir=os.path.dirname(path))
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
            tmp = None
        except OSError:
            # A read-only or full cache directory must never fail a run.
            pass
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def delete(self, key: str) -> bool:
        """Remove one entry; True if its file went."""
        try:
            os.unlink(self.path_for(key))
        except OSError:
            return False
        return True

    def touch_many(self, keys: Iterable[str]) -> None:
        """Mark ``keys`` used now.

        For a caller that serves hits from its own memory (the serve
        job table) and owes the store their recency.  A key with no
        entry stays absent.
        """
        for key in keys:
            self._stamp(self.path_for(key))

    # -- the shard walk ----------------------------------------------------

    def _walk(self) -> Iterator[Tuple[str, str, os.stat_result]]:
        """Yield ``(name, path, stat)`` for every file in a shard dir."""
        try:
            shards = os.scandir(self.root)
        except OSError:
            return
        with shards:
            for shard in shards:
                if len(shard.name) != 2 or not shard.is_dir():
                    continue
                try:
                    files = os.scandir(shard.path)
                except OSError:
                    continue
                with files:
                    for file in files:
                        try:
                            stat = file.stat()
                        except OSError:
                            continue    # removed since the listing
                        yield file.name, file.path, stat

    def load_index(self) -> Dict[str, Tuple[int, float]]:
        """``{key: (bytes, last_used_ts)}`` for every entry on disk,
        read off one walk of the shards (the mtime is the last use)."""
        return {name[:-len(".json")]: (stat.st_size, stat.st_mtime)
                for name, _path, stat in self._walk()
                if name.endswith(".json")}

    # -- eviction ----------------------------------------------------------

    def evict(self, policy: EvictionPolicy,
              now: Optional[float] = None) -> dict:
        """Apply ``policy``, oldest-idle entries first; returns stats.

        Entries idle less than ``policy.floor_seconds`` are never
        removed, so the returned ``live_bytes`` may exceed
        ``max_bytes`` when the whole overshoot is recent -- the stats
        report it rather than violating the floor.  The same walk
        removes temp files a crashed or failed ``put`` left behind once
        they are older than the floor; a live writer's is younger.
        """
        stats = {"scanned": 0, "evicted": 0, "evicted_bytes": 0,
                 "live": 0, "live_bytes": 0}
        if not policy.bounded:
            return stats
        now = time.time() if now is None else now
        entries: List[Tuple[float, str, int]] = []
        for name, path, stat in self._walk():
            if name.endswith(".json"):
                entries.append((stat.st_mtime, name[:-len(".json")],
                                stat.st_size))
            elif name.endswith(".tmp") \
                    and now - stat.st_mtime >= policy.floor_seconds:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        entries.sort()
        stats["scanned"] = total = len(entries)
        total_bytes = sum(nbytes for _ts, _key, nbytes in entries)
        for ts, key, nbytes in entries:
            age = now - ts
            if age < policy.floor_seconds:
                continue
            over_bytes = (policy.max_bytes is not None
                          and total_bytes > policy.max_bytes)
            over_count = (policy.max_entries is not None
                          and total > policy.max_entries)
            too_old = (policy.max_age_seconds is not None
                       and age > policy.max_age_seconds)
            if not (over_bytes or over_count or too_old):
                if policy.max_age_seconds is None:
                    break  # sorted by idle time: the rest is newer
                continue
            self.delete(key)
            total_bytes -= nbytes
            total -= 1
            stats["evicted"] += 1
            stats["evicted_bytes"] += nbytes
        stats["live"] = total
        stats["live_bytes"] = total_bytes
        return stats


@dataclass
class SweepStats:
    """Cumulative hit/miss and wall-time counters for one runner."""

    hits: int = 0            # served from memo or disk (incl. in-batch dups)
    misses: int = 0          # simulations actually executed
    compute_seconds: float = 0.0   # total simulate wall across misses
    batch_seconds: float = 0.0     # wall spent inside run_batch calls
    per_run: List[dict] = field(default_factory=list)

    def note_run(self, request: SimRequest, cached: bool,
                 wall_seconds: float) -> None:
        self.per_run.append({"run": request.label, "cached": cached,
                             "wall_seconds": wall_seconds})

    def as_metadata(self) -> dict:
        """Summary dict for RunReport metadata / CLI footers."""
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "compute_seconds": round(self.compute_seconds, 3),
            "batch_seconds": round(self.batch_seconds, 3),
        }

    def summary(self) -> str:
        return (f"{self.hits} cache hits, {self.misses} misses, "
                f"{self.compute_seconds:.2f}s simulated compute in "
                f"{self.batch_seconds:.2f}s wall")


class SweepRunner:
    """Executes batches of :class:`SimRequest` with memoized results.

    ``jobs=1`` (the default for library callers) runs every miss
    in-process and serially -- the debugging-friendly mode.  ``jobs=N``
    fans misses out over a ``ProcessPoolExecutor``; ``jobs=None`` means
    ``os.cpu_count()``.  ``cache`` is an optional :class:`ResultCache`;
    without one the runner still deduplicates within its own lifetime
    via the in-memory memo (so e.g. figure 13's sweep point that equals
    the default parameters is simulated once).

    ``on_event`` (e.g. a :class:`~repro.harness.telemetry
    .SweepLogWriter`) is called with one dict per lifecycle edge:
    ``sweep_started``, ``job_queued`` (pooled) or ``job_started``
    (in-process), ``job_cached``, ``job_finished`` / ``job_failed`` and
    ``sweep_finished``.  Every event is built here, in the coordinating
    process, as the edge is seen.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[ResultCache] = None,
                 salt: Optional[str] = None,
                 on_event: Optional[EventSink] = None):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.salt = code_salt() if salt is None else salt
        self.stats = SweepStats()
        self.on_event = on_event
        self._memo: Dict[str, dict] = {}

    # -- execution ---------------------------------------------------------

    def run(self, request: SimRequest) -> SimResult:
        return self.run_batch([request])[0]

    def run_batch(self, requests: Sequence[SimRequest]) -> List[SimResult]:
        """Execute ``requests``; returns results in request order.

        Identical requests (same fingerprint) are simulated at most
        once.  Results for executed requests are committed to the disk
        cache (when attached) before returning.
        """
        batch_start = time.perf_counter()
        keys = [request.fingerprint(self.salt) for request in requests]
        plan: List[Tuple[str, str]] = []     # (kind, key) per occurrence
        to_run: Dict[str, SimRequest] = {}   # insertion-ordered
        for key, request in zip(keys, requests):
            doc = self._memo.get(key)
            if doc is None and key not in to_run and self.cache is not None:
                doc = self.cache.get(key)
                if doc is not None:
                    self._memo[key] = doc
            if doc is not None:
                plan.append(("hit", key))
            elif key in to_run:
                plan.append(("dup", key))
            else:
                to_run[key] = request
                plan.append(("run", key))
        emit = self.on_event
        if emit is not None:
            emit({"kind": "sweep_started", "jobs": len(requests),
                  "unique": len(to_run),
                  "cached": len(requests) - len(to_run),
                  "workers": min(self.jobs, max(1, len(to_run)))})
            # Same-batch duplicates ("dup") are not in the memo yet --
            # their event is emitted after compute fills it in.
            for (kind, key), request in zip(plan, requests):
                if kind == "hit":
                    emit(_cached_event(request, "cache", self._memo[key]))
        compute = self._execute(to_run)
        if emit is not None:
            for (kind, key), request in zip(plan, requests):
                if kind == "dup":
                    emit(_cached_event(request, "memo", self._memo[key]))
        elapsed = time.perf_counter() - batch_start
        self.stats.batch_seconds += elapsed

        results: List[SimResult] = []
        for (kind, key), request in zip(plan, requests):
            cached = kind != "run"
            result = SimResult(self._memo[key], request=request,
                               cached=cached)
            if cached:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                self.stats.compute_seconds += result.wall_seconds
            self.stats.note_run(request, cached, result.wall_seconds)
            results.append(result)
        if emit is not None:
            hits = len(requests) - len(to_run)
            workers = min(self.jobs, max(1, len(to_run)))
            emit({"kind": "sweep_finished", "jobs": len(requests),
                  "hits": hits, "misses": len(to_run),
                  "hit_rate": hits / len(requests) if requests else 0.0,
                  "batch_seconds": elapsed, "compute_seconds": compute,
                  "worker_utilization": (compute / (workers * elapsed)
                                         if elapsed > 0 else None)})
        return results

    def _execute(self, to_run: Dict[str, SimRequest]) -> float:
        """Run the cache misses; returns their summed compute seconds.

        Completions reach ``on_event`` as they happen (the
        pooled path consumes futures with ``as_completed``), so a live
        watcher sees per-job progress rather than one burst at the end
        of the batch.  Result order -- and therefore every cached or
        returned document -- is unaffected.
        """
        if not to_run:
            return 0.0
        items = list(to_run.items())
        emit = self.on_event
        docs: Dict[str, dict] = {}
        failure: Optional[BaseException] = None
        if self.jobs > 1 and len(items) > 1:
            workers = min(self.jobs, len(items))
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=exit_with_parent) as pool:
                futures = {}
                for key, request in items:
                    if emit is not None:
                        emit({"kind": "job_queued", "run": request.label})
                    futures[pool.submit(execute_request, request)] = \
                        (key, request)
                for future in as_completed(futures):
                    key, request = futures[future]
                    try:
                        doc = future.result()
                    except BaseException as exc:
                        if emit is not None:
                            emit(_failed_event(request, exc))
                        if failure is None:
                            failure = exc
                        continue
                    docs[key] = doc
                    if emit is not None:
                        emit(_finished_event(request, doc))
        else:
            for key, request in items:
                if emit is not None:
                    emit({"kind": "job_started", "run": request.label})
                try:
                    doc = execute_request(request)
                except BaseException as exc:
                    if emit is not None:
                        emit(_failed_event(request, exc))
                    raise
                docs[key] = doc
                if emit is not None:
                    emit(_finished_event(request, doc))
        if failure is not None:
            raise failure
        compute = 0.0
        for key in to_run:
            doc = docs[key]
            compute += doc.get("wall_seconds", 0.0)
            self._memo[key] = doc
            if self.cache is not None:
                self.cache.put(key, doc)
        return compute


def _cached_event(request: SimRequest, source: str, doc: dict) -> dict:
    return {"kind": "job_cached", "run": request.label, "source": source,
            "wall_seconds": doc.get("wall_seconds", 0.0)}


def _failed_event(request: SimRequest, exc: BaseException) -> dict:
    return {"kind": "job_failed", "run": request.label,
            "error": f"{type(exc).__name__}: {exc}"}


def _finished_event(request: SimRequest, doc: dict) -> dict:
    wall = doc.get("wall_seconds", 0.0)
    events = doc.get("events_processed", 0)
    return {"kind": "job_finished", "run": request.label,
            "wall_seconds": wall,
            "execution_cycles": doc.get("execution_cycles"),
            "events_processed": events,
            "events_per_second": events / wall if wall else 0.0}
