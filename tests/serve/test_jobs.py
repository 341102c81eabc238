"""JobManager scheduling: dedupe, sweeps, timeouts, fairness.

These tests swap the process pool for a thread pool and stub the
worker function, so scheduling semantics are exercised without
spawning simulator processes; the full stack (real pool, real runs)
is covered by test_serve_api.py.
"""

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.harness.parallel import EvictionPolicy, ResultCache
from repro.serve import jobs as jobs_module
from repro.serve.jobs import (
    Job,
    JobManager,
    SpecError,
    request_from_spec,
)


def _spec(protocol="Base", procs=2):
    return {"app": "Em3d", "protocol": protocol, "procs": procs,
            "quick": True}


def _result(i=0):
    return {"execution_cycles": 1000 + i, "wall_seconds": 0.01,
            "events_processed": 10}


def _manager(monkeypatch, worker=None, workers=2, **kwargs):
    """A JobManager on a thread pool with a stubbed worker function."""
    manager = JobManager(workers=workers, **kwargs)
    manager._pool = ThreadPoolExecutor(max_workers=workers)
    monkeypatch.setattr(jobs_module, "execute_request",
                        worker or (lambda request: _result()))
    return manager


async def _wait_terminal(job, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not job.terminal:
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(
                f"job {job.id[:12]} stuck in {job.state}")
        await asyncio.sleep(0.01)
    return job


# -- spec validation -------------------------------------------------------

def test_request_from_spec_defaults_and_rejections():
    request = request_from_spec({"app": "Em3d"})
    assert request.nprocs == 4
    assert request.size_kwargs            # quick defaults on
    with pytest.raises(SpecError):
        request_from_spec({"app": "NoSuchApp"})
    with pytest.raises(SpecError):
        request_from_spec({"app": "Em3d", "procs": 0})
    with pytest.raises(SpecError):
        request_from_spec({"app": "Em3d", "protocol": "bogus"})
    with pytest.raises(SpecError):
        request_from_spec({"app": "Em3d", "typo_key": 1})
    with pytest.raises(SpecError):
        request_from_spec(["not", "an", "object"])


def test_spec_fingerprint_is_job_identity():
    a = request_from_spec(_spec()).fingerprint()
    b = request_from_spec(_spec()).fingerprint()
    c = request_from_spec(_spec(protocol="I+D")).fingerprint()
    assert a == b != c


# -- dedupe ----------------------------------------------------------------

def test_store_hit_resolves_without_pool(tmp_path, monkeypatch):
    async def scenario():
        cache = ResultCache(str(tmp_path))
        key = request_from_spec(_spec()).fingerprint()
        cache.put(key, _result(7))
        def boom(request):
            raise AssertionError("pool must not run")

        manager = _manager(monkeypatch, worker=boom, cache=cache)
        job = await manager.submit_run(_spec(), "alice")
        assert job.id == key
        assert job.state == "done" and job.dedupe == "cached"
        assert job.result["execution_cycles"] == 1007
        await manager.close()

    asyncio.run(scenario())


def test_inflight_duplicates_coalesce_onto_one_future(monkeypatch):
    release = threading.Event()
    calls = []

    def slow_worker(request):
        calls.append(request.fingerprint())
        release.wait(5.0)
        return _result()

    async def scenario():
        manager = _manager(monkeypatch, worker=slow_worker)
        first = await manager.submit_run(_spec(), "alice")
        # Give the worker thread time to pick the job up.
        await asyncio.sleep(0.05)
        second = await manager.submit_run(_spec(), "bob")
        assert second is first               # shared job object
        assert second.dedupe == "coalesced"
        release.set()
        await _wait_terminal(first)
        assert first.state == "done"
        assert len(calls) == 1               # one worker execution
        await manager.close()

    asyncio.run(scenario())


def test_sweep_members_dedupe_by_fingerprint(monkeypatch):
    async def scenario():
        manager = _manager(monkeypatch)
        sweep = await manager.submit_sweep(
            [_spec(), _spec(), _spec(protocol="I+D")], "alice")
        assert sweep.kind == "sweep"
        assert len(sweep.members) == 2       # duplicate collapsed
        for member_id in sweep.members:
            await _wait_terminal(manager.get(member_id))
        await _wait_terminal(sweep)
        assert sweep.state == "done"
        assert set(sweep.result["members"].values()) == {"done"}
        # Resubmitting the same member set returns the same sweep id.
        again = await manager.submit_sweep([_spec(protocol="I+D"),
                                            _spec()], "bob")
        assert again.id == sweep.id
        await manager.close()

    asyncio.run(scenario())


# -- lifecycle -------------------------------------------------------------

def test_job_timeout_marks_timeout_and_frees_slot(monkeypatch):
    release = threading.Event()

    def stuck_worker(request):
        release.wait(5.0)
        return _result()

    async def scenario():
        manager = _manager(monkeypatch, worker=stuck_worker,
                           workers=1, job_timeout=0.1)
        job = await manager.submit_run(_spec(), "alice")
        await _wait_terminal(job)
        assert job.state == "timeout"
        assert "0.1" in job.error
        # The slot is released once the worker actually returns, so a
        # fresh fast job still runs afterwards.
        release.set()
        monkeypatch.setattr(jobs_module, "execute_request",
                            lambda request: _result())
        job2 = await manager.submit_run(_spec(procs=3), "alice")
        await _wait_terminal(job2)
        assert job2.state == "done"
        await manager.close()

    asyncio.run(scenario())


def test_worker_exception_fails_job(monkeypatch):
    def broken_worker(request):
        raise RuntimeError("simulator exploded")

    async def scenario():
        manager = _manager(monkeypatch, worker=broken_worker)
        job = await manager.submit_run(_spec(), "alice")
        await _wait_terminal(job)
        assert job.state == "failed"
        assert "simulator exploded" in job.error
        await manager.close()

    asyncio.run(scenario())


def test_cancel_queued_job_only(monkeypatch):
    release = threading.Event()

    def slow_worker(request):
        release.wait(5.0)
        return _result()

    async def scenario():
        manager = _manager(monkeypatch, worker=slow_worker, workers=1)
        running = await manager.submit_run(_spec(), "alice")
        await asyncio.sleep(0.05)
        queued = await manager.submit_run(_spec(procs=3), "alice")
        assert queued.state == "queued"

        cancelled = manager.cancel(queued.id)
        assert cancelled.state == "cancelled"
        # Cancelling the running job is a no-op.
        assert manager.cancel(running.id).state == "running"
        assert manager.cancel("no-such-job") is None
        release.set()
        await _wait_terminal(running)
        await manager.close()

    asyncio.run(scenario())


def test_round_robin_interleaves_tenants(monkeypatch):
    order = []
    lock = threading.Lock()

    def recording_worker(request):
        with lock:
            order.append(request.nprocs)
        return _result()

    async def scenario():
        manager = _manager(monkeypatch, worker=recording_worker,
                           workers=1)
        # Block the single slot so queues build up behind it.
        gate = threading.Event()
        monkeypatch.setattr(jobs_module, "execute_request",
                            lambda request: (gate.wait(5.0),
                                             _result())[1])
        blocker = await manager.submit_run(_spec(procs=9), "alice")
        await asyncio.sleep(0.05)
        monkeypatch.setattr(jobs_module, "execute_request",
                            recording_worker)
        # alice queues three jobs, then bob queues three.
        jobs = []
        for procs in (2, 3, 4):
            jobs.append(await manager.submit_run(_spec(procs=procs),
                                                 "alice"))
        for procs in (6, 8, 12):
            jobs.append(await manager.submit_run(_spec(procs=procs),
                                                 "bob"))
        gate.set()
        for job in jobs:
            await _wait_terminal(job)
        # FIFO within a tenant; interleaved across tenants -- bob's
        # first job must not wait behind all of alice's.
        assert order.index(6) < order.index(4)
        assert [p for p in order if p in (2, 3, 4)] == [2, 3, 4]
        assert [p for p in order if p in (6, 8, 12)] == [6, 8, 12]
        await manager.close()

    asyncio.run(scenario())


def test_close_cancels_queued_jobs(monkeypatch):
    release = threading.Event()

    async def scenario():
        manager = _manager(
            monkeypatch, workers=1,
            worker=lambda request: (release.wait(5.0), _result())[1])
        running = await manager.submit_run(_spec(), "alice")
        await asyncio.sleep(0.05)
        queued = await manager.submit_run(_spec(procs=3), "alice")
        release.set()
        await manager.close()
        assert queued.state == "cancelled"
        assert "shutdown" in queued.error
        assert running.terminal

    asyncio.run(scenario())


# -- the job table answers before the store --------------------------------

def _kinds(job):
    return [event["kind"] for event in job.history]


def test_hits_reuse_the_job_and_keep_its_history(tmp_path, monkeypatch):
    """A hit used to build a fresh Job over the table entry, so the
    replayable history of a computed job shrank to ``job_cached``."""
    async def scenario():
        cache = ResultCache(str(tmp_path))
        manager = _manager(monkeypatch, cache=cache)
        first = await manager.submit_run(_spec(), "alice")
        await _wait_terminal(first)
        reads = []
        monkeypatch.setattr(cache, "get",
                            lambda key: reads.append(key))
        for _ in range(2):
            hit = await manager.submit_run(_spec(), "bob")
            assert hit is first
            assert hit.state == "done" and hit.dedupe == "cached"
        assert reads == []                 # answered from memory
        assert _kinds(first) == ["job_queued", "job_started",
                                 "job_finished", "job_cached",
                                 "job_cached"]
        cached = [e for e in first.history if e["kind"] == "job_cached"]
        assert {e["source"] for e in cached} == {"memo"}
        assert {e["tenant"] for e in cached} == {"bob"}
        counters = manager.registry.to_json()["counters"]
        assert [c["value"] for c in counters
                if c["name"] == "serve_dedupe"
                and c["labels"] == {"source": "cached"}] == [2.0]
        await manager.close()

    asyncio.run(scenario())


def test_first_hit_after_a_restart_is_the_store_then_the_table(
        tmp_path, monkeypatch):
    async def scenario():
        cache = ResultCache(str(tmp_path))
        before = _manager(monkeypatch, cache=cache)
        await _wait_terminal(await before.submit_run(_spec(), "alice"))
        await before.close()

        def boom(request):
            raise AssertionError("pool must not run")

        after = _manager(monkeypatch, worker=boom, cache=cache)
        docs = []
        for _ in range(3):
            job = await after.submit_run(_spec(), "alice")
            docs.append(job.to_json())
        assert [e["source"] for e in job.history] == \
            ["store", "memo", "memo"]
        for doc in docs:
            assert doc["job"]["state"] == "done"
            assert doc["job"]["dedupe"] == "cached"
            assert doc["result"] == _result()
            assert doc.keys() == docs[0].keys()
            assert doc["job"].keys() == docs[0]["job"].keys()
        await after.close()

    asyncio.run(scenario())


def test_a_result_outlives_its_store_entry(tmp_path, monkeypatch):
    async def scenario():
        cache = ResultCache(str(tmp_path))
        manager = _manager(monkeypatch, cache=cache)
        job = await manager.submit_run(_spec(), "alice")
        await _wait_terminal(job)
        assert cache.delete(job.id)          # evicted behind our back
        monkeypatch.setattr(jobs_module, "execute_request",
                            lambda request: 1 / 0)
        again = await manager.submit_run(_spec(), "alice")
        assert again is job and again.dedupe == "cached"
        manager.cache = None                 # store detached
        again = await manager.submit_run(_spec(), "alice")
        assert again is job
        await manager.close()

    asyncio.run(scenario())


def test_table_is_looked_at_again_after_the_store_read(tmp_path,
                                                      monkeypatch):
    """Two submissions of one unknown fingerprint both go to the store
    and both miss; the second must find the first's job when it comes
    back, not start a second simulation."""
    calls = []
    release = threading.Event()

    def worker(request):
        calls.append(request.label)
        release.wait(5.0)
        return _result()

    async def scenario():
        cache = ResultCache(str(tmp_path))
        manager = _manager(monkeypatch, worker=worker, cache=cache)
        first, second = await asyncio.gather(
            manager.submit_run(_spec(), "alice"),
            manager.submit_run(_spec(), "bob"))
        assert first is second
        assert second.dedupe == "coalesced"
        release.set()
        await _wait_terminal(first)
        assert len(calls) == 1
        await manager.close()

    asyncio.run(scenario())


# -- recency of hits served from memory ------------------------------------

def _age(cache, seconds):
    """Backdate every entry's last use by ``seconds``."""
    for key, (_nbytes, ts) in cache.load_index().items():
        os.utime(cache.path_for(key), (ts - seconds, ts - seconds))


def test_touch_many_replays_like_touching_one_by_one(tmp_path):
    keys = [f"{i:02x}" * 32 for i in range(6)]
    order = [keys[4], keys[1], keys[5], keys[1], keys[0]]
    one_by_one = ResultCache(str(tmp_path / "a"))
    batched = ResultCache(str(tmp_path / "b"))
    for cache in (one_by_one, batched):
        for key in keys:
            cache.put(key, _result())
        _age(cache, 3600.0)
    aged = batched.load_index()
    for key in order:
        one_by_one.get(key)
    batched.touch_many(order)
    batched.touch_many([])                     # no-op

    def used(cache):
        index = cache.load_index()
        assert set(index) == set(keys)
        return {key for key, (_nbytes, ts) in index.items()
                if ts > time.time() - 60}

    assert used(batched) == used(one_by_one) == set(order)
    index = batched.load_index()
    for key in (keys[2], keys[3]):
        assert index[key] == aged[key]         # never touched
    # A key the store has never seen stays unknown, as with one touch.
    batched.touch_many(["ff" * 32])
    assert "ff" * 32 not in batched.load_index()


def test_memory_hits_reach_the_index_by_close(tmp_path, monkeypatch):
    async def scenario():
        cache = ResultCache(str(tmp_path))
        manager = _manager(monkeypatch, cache=cache)
        jobs = [await manager.submit_run(_spec(procs=p), "alice")
                for p in (2, 3, 4)]
        for job in jobs:
            await _wait_terminal(job)
        _age(cache, 3600.0)
        put = cache.load_index()
        for i in range(1000):
            hit = await manager.submit_run(_spec(procs=2 + i % 2),
                                           "alice")
            assert hit.dedupe == "cached"
        await manager.close()
        index = cache.load_index()
        for job in jobs[:2]:
            assert index[job.id][1] > put[job.id][1]
        assert index[jobs[2].id] == put[jobs[2].id]    # never hit

    asyncio.run(scenario())


def test_pending_touches_flush_at_the_batch_size(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "_TOUCH_BATCH", 3)

    async def scenario():
        cache = ResultCache(str(tmp_path))
        manager = _manager(monkeypatch, cache=cache)
        flushed = []
        touch_many = cache.touch_many
        monkeypatch.setattr(
            cache, "touch_many",
            lambda keys: (flushed.append(set(keys)),
                          touch_many(keys))[1])
        jobs = [await manager.submit_run(_spec(procs=p), "alice")
                for p in (2, 3, 4, 6)]
        for job in jobs:
            await _wait_terminal(job)
        for procs in (2, 3, 2, 3):
            await manager.submit_run(_spec(procs=procs), "alice")
        assert flushed == []                   # two keys pending
        await manager.submit_run(_spec(procs=4), "alice")
        assert flushed == [{jobs[0].id, jobs[1].id, jobs[2].id}]
        assert manager._touched == set()
        await manager.submit_run(_spec(procs=6), "alice")
        await manager.close()
        assert flushed[1:] == [{jobs[3].id}]

    asyncio.run(scenario())


def test_eviction_sees_the_hits_served_from_memory(tmp_path,
                                                   monkeypatch):
    """Bounded to one entry with a 60 s floor: the entries hit from
    the job table were used just now and must survive; the one that
    was not hit is the only candidate."""
    async def scenario():
        cache = ResultCache(str(tmp_path))
        manager = _manager(
            monkeypatch, cache=cache, evict_every=1,
            eviction=EvictionPolicy(max_entries=1, floor_seconds=60.0))
        jobs = [await manager.submit_run(_spec(procs=p), "alice")
                for p in (2, 3, 4)]
        for job in jobs:
            await _wait_terminal(job)
        # Age every entry past the floor, as if put long ago.
        _age(cache, 3600.0)
        for procs in (2, 3):
            await manager.submit_run(_spec(procs=procs), "alice")
        assert manager._touched == {jobs[0].id, jobs[1].id}
        # The next completion runs the eviction pass.
        await _wait_terminal(
            await manager.submit_run(_spec(procs=6), "alice"))
        for _ in range(200):
            if manager._puts_since_evict == 0 and not manager._touched:
                break
            await asyncio.sleep(0.01)
        live = set(cache.load_index())
        assert jobs[0].id in live and jobs[1].id in live
        assert jobs[2].id not in live          # idle for an hour
        await manager.close()

    asyncio.run(scenario())


# -- sweeps waiting on a member --------------------------------------------

def test_live_sweep_map_follows_sweep_lifetimes(monkeypatch):
    release = threading.Event()

    def worker(request):
        release.wait(5.0)
        if request.nprocs == 3:
            raise RuntimeError("boom")
        return _result()

    async def scenario():
        manager = _manager(monkeypatch, worker=worker, workers=4)
        a = await manager.submit_sweep(
            [_spec(procs=2), _spec(procs=4)], "alice")
        b = await manager.submit_sweep(
            [_spec(procs=2), _spec(procs=3)], "bob")
        shared = request_from_spec(_spec(procs=2)).fingerprint()
        assert set(manager._live_sweeps[shared]) == {a.id, b.id}
        assert set(manager._live_sweeps) == set(a.members + b.members)
        release.set()
        for sweep in (a, b):
            await _wait_terminal(sweep)
        assert a.state == "done" and b.state == "failed"
        assert _kinds(a).count("sweep_finished") == 1
        assert _kinds(b).count("sweep_finished") == 1
        for member_id in a.members + b.members:
            await _wait_terminal(manager.get(member_id))
        assert manager._live_sweeps == {}
        # A sweep whose members are all done already is born terminal
        # and never enters the map.
        again = await manager.submit_sweep(
            [_spec(procs=4), _spec(procs=2)], "carol")
        assert again is a and manager._live_sweeps == {}
        fresh = await manager.submit_sweep([_spec(procs=4)], "carol")
        assert fresh.state == "done" and manager._live_sweeps == {}
        await manager.close()

    asyncio.run(scenario())


# -- watchers --------------------------------------------------------------

def test_a_watcher_that_never_drains_keeps_the_newest_events():
    bound = jobs_module._WATCH_QUEUE_MAX

    async def scenario():
        manager = JobManager(workers=1)
        job = Job("a" * 64, "run", "alice")
        other = Job("b" * 64, "run", "bob")
        queue = manager.watch(job)
        for i in range(bound + 10):
            manager._publish(job, "tick", i=i)     # never blocks
            manager._publish(other, "tick", i=i)
        assert queue.qsize() == bound
        events = [queue.get_nowait() for _ in range(bound)]
        assert [event["i"] for event in events] == \
            list(range(10, bound + 10))
        assert {event["job"] for event in events} == {job.id}
        manager.unwatch(job, queue)
        manager._publish(job, "tick", i=-1)
        assert queue.empty() and manager._watchers == {}
        await manager.close()

    asyncio.run(scenario())


def test_a_sweep_watcher_sees_its_members_in_publish_order(monkeypatch):
    release = threading.Event()

    def worker(request):
        release.wait(5.0)
        return _result()

    async def scenario():
        manager = _manager(monkeypatch, worker=worker)
        sweep = await manager.submit_sweep(
            [_spec(), _spec(protocol="I+D")], "alice")
        queue = manager.watch(sweep)
        release.set()
        await _wait_terminal(sweep)
        events = [queue.get_nowait() for _ in range(queue.qsize())]
        manager.unwatch(sweep, queue)
        for member_id in sweep.members:
            mine = [event for event in events
                    if event["job"] == member_id]
            # The tail of the member's history, in publish order.
            history = list(manager.get(member_id).history)
            assert mine == history[len(history) - len(mine):]
            assert [event["kind"] for event in mine].count(
                "job_finished") == 1
        assert events[-1]["kind"] == "sweep_finished"
        assert events[-1] is sweep.history[-1]
        await manager.close()

    asyncio.run(scenario())
