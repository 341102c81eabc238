"""The serve HTTP API end to end: real sockets, real worker pool.

Each test boots a :class:`ReproServer` on an ephemeral port inside a
background thread running its own event loop, then drives it with the
blocking :class:`ServeClient` -- the same path the ``repro submit``
CLI takes, so the client is under test too.
"""

import asyncio
import http.client
import json
import threading

import pytest

from repro.harness.parallel import EvictionPolicy
from repro.serve import (
    QuotaConfig,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.stats.report import validate_report


class _Server:
    """A live server on an ephemeral port, torn down on exit."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.addr = None
        self.error = None
        self._started = threading.Event()
        self._loop = None
        self._stop_event = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._clients = []

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as exc:   # surface boot failures
            self.error = exc
            self._started.set()

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = ReproServer(self.config)
        self.addr = await server.start()
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            await server.stop()

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(10.0), "server did not start"
        if self.error is not None:
            raise self.error
        return self

    def __exit__(self, *_exc):
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(15.0)
        for client in self._clients:    # each keeps a connection open
            client.close()

    def client(self, tenant="anon", timeout=60.0):
        host, port = self.addr
        client = ServeClient(f"http://{host}:{port}", tenant=tenant,
                             timeout=timeout)
        self._clients.append(client)
        return client


def _config(tmp_path, **overrides):
    options = dict(port=0, workers=2,
                   cache_dir=str(tmp_path / "store"),
                   quota=QuotaConfig(rate=1000.0, burst=1000.0))
    options.update(overrides)
    return ServeConfig(**options)


def _spec(protocol="Base", procs=2):
    return {"app": "Em3d", "protocol": protocol, "procs": procs,
            "quick": True}


# -- dedupe and documents --------------------------------------------------

def test_duplicate_run_same_fingerprint_dedupe_cached(tmp_path):
    with _Server(_config(tmp_path)) as server:
        client = server.client()
        assert client.health() == {"ok": True}

        first = client.submit_run(_spec())
        job_id = first["job"]["id"]
        assert first["job"]["state"] in ("queued", "running")
        done = client.wait(job_id)
        assert done["job"]["state"] == "done"
        assert done["result"]["execution_cycles"] > 0

        # The duplicate resolves to the SAME fingerprint, served from
        # the store without a second execution.
        again = client.submit_run(_spec())
        assert again["job"]["id"] == job_id
        assert again["job"]["state"] == "done"
        assert again["job"]["dedupe"] in ("cached", "coalesced")
        assert not validate_report(again)       # repro-serve/1 valid

        counters = client.metrics()["metrics"]["counters"]
        dedupe = {tuple(sorted(c["labels"].items())): c["value"]
                  for c in counters if c["name"] == "serve_dedupe"}
        assert sum(dedupe.values()) >= 1


def test_sweep_dedupes_members_and_aggregates(tmp_path):
    with _Server(_config(tmp_path)) as server:
        client = server.client()
        doc = client.submit_sweep([_spec(), _spec(),
                                   _spec(protocol="I+D")])
        sweep_id = doc["job"]["id"]
        assert doc["job"]["kind"] == "sweep"
        assert sweep_id.startswith("sweep-")
        assert len(doc["job"]["members"]) == 2   # duplicate collapsed
        assert not validate_report(doc)

        final = client.wait(sweep_id)
        assert final["job"]["state"] == "done"
        assert set(final["result"]["members"].values()) == {"done"}
        # Member jobs are individually addressable.
        for member_id in final["job"]["members"]:
            member = client.job(member_id)
            assert member["job"]["state"] == "done"


def test_event_stream_replays_and_ends(tmp_path):
    with _Server(_config(tmp_path)) as server:
        client = server.client()
        job_id = client.submit_run(_spec())["job"]["id"]
        events = list(client.events(job_id))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "job_queued"
        assert "job_started" in kinds
        assert "job_finished" in kinds
        assert kinds[-1] == "_end"
        assert events[-1]["state"] == "done"
        # Every event carries the job id; no cross-job traffic leaks.
        assert all(event["job"] == job_id
                   for event in events[:-1])

        # A second stream on the now-terminal job replays history and
        # ends immediately, without duplicate edges.
        replay = [event["kind"] for event in client.events(job_id)]
        assert replay.count("job_finished") == 1
        assert replay[-1] == "_end"


def test_live_sweep_stream_shows_each_member_edge_once(tmp_path):
    """A stream opened while the members wait: every member's start
    and finish arrive once, in publish order, and ``_end`` comes after
    ``sweep_finished``."""
    with _Server(_config(tmp_path, workers=1)) as server:
        client = server.client()
        # A full-size run holds the one worker while the stream opens.
        blocker = client.submit_run(dict(_spec(procs=8), quick=False))
        sweep = client.submit_sweep([_spec(procs=3),
                                     _spec(protocol="I+D", procs=3)])
        members = sweep["job"]["members"]
        assert sweep["job"]["state"] == "queued"
        events = list(client.events(sweep["job"]["id"]))
        assert client.job(blocker["job"]["id"])["job"]["state"] == "done"
    edges = [(event["kind"], event["job"]) for event in events]
    sweep_id = sweep["job"]["id"]
    assert edges == [("sweep_submitted", sweep_id),
                     ("job_started", members[0]),
                     ("job_finished", members[0]),
                     ("job_started", members[1]),
                     ("job_finished", members[1]),
                     ("sweep_finished", sweep_id),
                     ("_end", sweep_id)]
    stamps = [event["ts"] for event in events[:-1]]
    assert stamps == sorted(stamps)
    assert events[-1]["state"] == "done"
    assert not any("mono" in event for event in events)


def test_hits_do_not_erase_the_replayable_history(tmp_path):
    """Compute, hit twice, replay: the hits used to replace the job
    with a fresh one whose history was a lone ``job_cached``."""
    with _Server(_config(tmp_path)) as server:
        client = server.client()
        job_id = client.submit_run(_spec())["job"]["id"]
        client.wait(job_id)
        for _ in range(2):
            hit = client.submit_run(_spec())
            assert hit["job"]["dedupe"] == "cached"
            assert hit["job"]["state"] == "done"
            assert hit["result"]["execution_cycles"] > 0
            assert not validate_report(hit)
        replay = [event["kind"] for event in client.events(job_id)]
        assert replay == ["job_queued", "job_started", "job_finished",
                          "job_cached", "job_cached", "_end"]


def test_sse_stream_formats_data_frames(tmp_path):
    with _Server(_config(tmp_path)) as server:
        client = server.client()
        job_id = client.submit_run(_spec())["job"]["id"]
        client.wait(job_id)

        host, port = server.addr
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("GET", f"/v1/jobs/{job_id}/events",
                     headers={"Accept": "text/event-stream"})
        response = conn.getresponse()
        assert response.getheader("Content-Type") == "text/event-stream"
        body = response.read().decode()
        conn.close()
        frames = [line[len("data: "):] for line in body.splitlines()
                  if line.startswith("data: ")]
        assert frames, body
        assert json.loads(frames[-1])["kind"] == "_end"


# -- admission -------------------------------------------------------------

def test_quota_breach_gets_429_with_retry_after(tmp_path):
    config = _config(
        tmp_path,
        tenant_quotas={"limited": QuotaConfig(rate=0.01, burst=2.0)})
    with _Server(config) as server:
        limited = server.client(tenant="limited")
        limited.submit_run(_spec())
        limited.submit_run(_spec())           # dedupe, but still costs
        with pytest.raises(ServeError) as excinfo:
            limited.submit_run(_spec(protocol="I+D"))
        assert excinfo.value.status == 429
        assert excinfo.value.doc["reason"] == "quota"
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after >= 1.0

        # Other tenants are unaffected.
        server.client(tenant="spacious").submit_run(_spec(procs=3))

        admission = limited.metrics()["admission"]
        assert admission["limited"]["rejected_quota"] == 1


def test_saturated_queue_gets_503_with_depth(tmp_path):
    with _Server(_config(tmp_path, max_queue_depth=0)) as server:
        client = server.client()
        with pytest.raises(ServeError) as excinfo:
            client.submit_run(_spec())
        assert excinfo.value.status == 503
        assert excinfo.value.doc["reason"] == "saturated"
        assert excinfo.value.doc["queue_depth"] == 0
        assert excinfo.value.retry_after is not None


# -- error handling --------------------------------------------------------

def test_bad_requests_get_400s_and_404s(tmp_path):
    with _Server(_config(tmp_path)) as server:
        client = server.client()
        with pytest.raises(ServeError) as excinfo:
            client.submit_run({"app": "NoSuchApp"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit_run({"app": "Em3d", "bogus_key": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit_sweep([])
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.job("not-a-job")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/nowhere")
        assert excinfo.value.status == 404


# -- load ------------------------------------------------------------------

def test_two_tenant_burst_loses_no_jobs(tmp_path):
    """50 submissions from 2 tenants on a 4-worker pool: every job
    the server acknowledged reaches ``done``; nothing is lost."""
    protocols = ("Base", "I", "I+D", "P", "I+P+D")
    with _Server(_config(tmp_path, workers=4)) as server:
        clients = {"alice": server.client(tenant="alice"),
                   "bob": server.client(tenant="bob")}
        acknowledged = {}
        for i in range(50):
            tenant = "alice" if i % 2 == 0 else "bob"
            spec = _spec(protocol=protocols[i % len(protocols)],
                         procs=2 if i % 10 < 5 else 4)
            doc = clients[tenant].submit_run(spec)
            acknowledged[doc["job"]["id"]] = doc["job"]["state"]

        # 5 protocols x 2 proc counts = 10 unique simulations.
        assert len(acknowledged) == 10
        for job_id in acknowledged:
            final = clients["alice"].wait(job_id)
            assert final["job"]["state"] == "done", job_id
            assert final["result"]["execution_cycles"] > 0

        counters = clients["bob"].metrics()["metrics"]["counters"]
        done = sum(c["value"] for c in counters
                   if c["name"] == "serve_jobs"
                   and c["labels"].get("state") == "done")
        lost = sum(c["value"] for c in counters
                   if c["name"] == "serve_jobs"
                   and c["labels"].get("state") in ("failed",
                                                    "timeout",
                                                    "cancelled"))
        assert done == 10 and lost == 0
        dedupe = sum(c["value"] for c in counters
                     if c["name"] == "serve_dedupe")
        assert dedupe == 40                    # 50 submits, 10 runs


# -- eviction under serve traffic ------------------------------------------

def test_server_evicts_store_on_put_cadence(tmp_path):
    eviction = EvictionPolicy(max_entries=2, floor_seconds=0.0)
    config = _config(tmp_path, eviction=eviction, evict_every=1)
    with _Server(config) as server:
        client = server.client()
        for protocol in ("Base", "I", "I+D", "P"):
            client.wait(client.submit_run(
                _spec(protocol=protocol))["job"]["id"])
        counters = client.metrics()["metrics"]["counters"]
        evicted = sum(c["value"] for c in counters
                      if c["name"] == "serve_evictions")
        assert evicted >= 1
