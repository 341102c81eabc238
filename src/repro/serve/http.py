"""Minimal asyncio HTTP/1.1 front end for ``repro serve``.

Deliberately stdlib-only: an ``asyncio.start_server`` stream handler
with just enough HTTP to serve a JSON job API and long-lived event
streams.  Connections are persistent (HTTP/1.1 keep-alive, pipelined
requests answered in order): a store hit is a ~1.6 KB reply, and what
it costs is the fixed per-request work, of which a TCP handshake and a
handler task per request used to be the largest part.  A connection
closes when the client asks (``Connection: close``, HTTP/1.0), after
any reply >= 400, after an event stream, when it has sat idle for
``_IDLE_TIMEOUT`` and when the server stops.  The request head is read
with one ``readuntil`` and parsed in place; head and body share one
deadline.  Line ends are CRLF: a bare LF in the head is a 400, not a
second way to end a header.

Routes::

    POST   /v1/runs              submit one run spec
    POST   /v1/sweeps            submit {"runs": [spec, ...]}
    GET    /v1/jobs/{id}         repro-serve/1 job document
    GET    /v1/jobs/{id}/events  NDJSON event stream (history replay,
                                 then the job's live events; SSE with
                                 Accept: text/event-stream)
    DELETE /v1/jobs/{id}         cancel a queued job
    GET    /v1/metrics           server metrics registry + admission
    GET    /healthz              liveness probe

Tenancy is the ``X-Repro-Tenant`` header (default ``anon``).  Admission
control runs before any job is created: quota breaches get 429 with
``Retry-After``, a saturated queue gets 503 with the current depth.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.harness.parallel import EvictionPolicy, ResultCache
from repro.serve.admission import AdmissionController, QuotaConfig
from repro.serve.jobs import JobManager, SpecError

__all__ = ["ServeConfig", "ReproServer", "run_server"]

_MAX_BODY = 4 << 20          # 4 MiB of JSON specs is plenty
_MAX_HEADER_LINES = 100
_IDLE_TIMEOUT = 30.0         # between requests on a kept connection
_READ_DEADLINE = 30.0        # first byte of a request to its last
_STREAM_IDLE_HEARTBEAT = 15.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can tune, in one place."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral
    workers: int = 2
    job_timeout: Optional[float] = None
    cache_dir: Optional[str] = None     # None = default resolution
    no_cache: bool = False
    quota: QuotaConfig = field(default_factory=QuotaConfig)
    tenant_quotas: Dict[str, QuotaConfig] = field(default_factory=dict)
    max_queue_depth: int = 256
    eviction: Optional[EvictionPolicy] = None
    evict_every: int = 32


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None,
                 extra: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.extra = extra or {}


class ReproServer:
    """The serve front end: sockets, routing, and streaming."""

    def __init__(self, config: ServeConfig):
        self.config = config
        cache = None if config.no_cache \
            else ResultCache(config.cache_dir)
        self.jobs = JobManager(
            workers=config.workers, cache=cache,
            job_timeout=config.job_timeout,
            eviction=config.eviction, evict_every=config.evict_every)
        self.admission = AdmissionController(
            default_quota=config.quota,
            tenant_quotas=dict(config.tenant_quotas),
            max_queue_depth=config.max_queue_depth)
        self.registry = self.jobs.registry
        self._server: Optional[asyncio.base_events.Server] = None
        # Connections waiting for their next request; stop() closes them.
        self._idle: Set[asyncio.StreamWriter] = set()
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        self.jobs.start()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        self._stopping = True
        if self._server is not None:
            self._server.close()
            # Kept-alive connections with no request in flight would
            # otherwise sit out their idle timeout -- and hold up
            # wait_closed(), which from Python 3.12 on waits for every
            # connection.  Busy ones close after their reply.
            for writer in list(self._idle):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        await self.jobs.close()

    # -- request plumbing --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection: requests in turn until it closes.

        Both time limits are plain timers that end the pending read
        from outside (close the connection; fail the reader) rather
        than ``wait_for`` around it, which costs a task and two turns
        of the loop per request.
        """
        self.registry.inc("serve_connections")
        loop = asyncio.get_running_loop()
        try:
            keep_alive = True
            while keep_alive and not self._stopping:
                self._idle.add(writer)
                reaper = loop.call_later(_IDLE_TIMEOUT, writer.close)
                try:
                    first = await reader.read(1)
                finally:
                    reaper.cancel()
                    self._idle.discard(writer)
                if not first:          # closed: by the client, the
                    return             # reaper or stop()
                keep_alive = await self._serve_request(first, reader,
                                                       writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_request(self, first: bytes,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> bool:
        """Read, route and answer one request; True to keep the
        connection open for another."""
        deadline = asyncio.get_running_loop().call_later(
            _READ_DEADLINE, reader.set_exception,
            _HttpError(408, "timed out reading the request"))
        try:
            try:
                method, path, headers, body, keep_alive = \
                    await self._read_request(first, reader)
            finally:
                deadline.cancel()
            self.registry.inc("serve_requests", method=method)
            reply = await self._route(method, path, headers, body,
                                      writer)
        except _HttpError as exc:
            await self._send_error(writer, exc)
            return False
        except SpecError as exc:
            await self._send_error(writer, _HttpError(400, str(exc)))
            return False
        except (ConnectionResetError, BrokenPipeError):
            return False
        except Exception as exc:       # a handler bug must not kill
            self.registry.inc("serve_errors")      # the accept loop
            await self._send_error(writer, _HttpError(
                500, f"{type(exc).__name__}: {exc}"))
            return False
        if reply is None:              # an event stream: close-delimited
            return False
        keep_alive = keep_alive and not self._stopping
        status, doc = reply
        await self._send_json(writer, status, doc, close=not keep_alive)
        return keep_alive

    @staticmethod
    async def _read_request(first: bytes, reader: asyncio.StreamReader):
        """Parse one request whose first byte has already arrived.

        Returns ``(method, path, headers, body, keep_alive)``.  Header
        names are lower-cased, values stripped, a repeated header keeps
        its last value.
        """
        try:
            head = first + await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(400, "request head too large")
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "connection closed inside the "
                                  "request head")
        lines = head[:-4].decode("latin-1").split("\r\n")
        if head.count(b"\n") != len(lines) + 1:
            raise _HttpError(400, "bare LF in the request head")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, path, version = parts
        if len(lines) > _MAX_HEADER_LINES:
            raise _HttpError(400, "too many headers")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_s = headers.get("content-length", "0")
        try:
            length = int(length_s)
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpError(400, f"bad Content-Length {length_s!r}")
        if length > _MAX_BODY:
            raise _HttpError(413, f"body over {_MAX_BODY} bytes")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _HttpError(400, "connection closed inside the "
                                      "request body")
        keep_alive = version == "HTTP/1.1" and "close" not in \
            headers.get("connection", "").lower()
        return method.upper(), path, headers, body, keep_alive

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            raise _HttpError(400, "empty body; JSON object expected")
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}")
        if not isinstance(doc, dict):
            raise _HttpError(400, "JSON body must be an object")
        return doc

    async def _send_json(self, writer: asyncio.StreamWriter,
                         status: int, doc: dict,
                         headers: Optional[Dict[str, str]] = None,
                         close: bool = True) -> None:
        payload = json.dumps(doc, sort_keys=True).encode()
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}"]
        if close:                  # HTTP/1.1 keeps alive by default
            head.append("Connection: close")
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode()
                     + payload)
        await writer.drain()

    async def _send_error(self, writer: asyncio.StreamWriter,
                          exc: _HttpError) -> None:
        doc = {"error": exc.message, "status": exc.status}
        doc.update(exc.extra)
        try:
            await self._send_json(writer, exc.status, doc,
                                  headers=exc.headers)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # -- routing -----------------------------------------------------------

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes,
                     writer: asyncio.StreamWriter
                     ) -> Optional[Tuple[int, dict]]:
        """The reply as ``(status, document)``; None when the route
        wrote its own (an event stream)."""
        path = path.split("?", 1)[0]
        tenant = headers.get("x-repro-tenant", "anon") or "anon"
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True}
        if path == "/v1/metrics" and method == "GET":
            return 200, {"metrics": self.jobs.metrics_json(),
                         "admission": self.admission.stats_json(),
                         "queue_depth": self.jobs.queue_depth}
        if path == "/v1/runs" and method == "POST":
            spec = self._json_body(body)
            self._admit(tenant, cost=1.0)
            job = await self.jobs.submit_run(spec, tenant)
            return (200 if job.terminal else 202), job.to_json()
        if path == "/v1/sweeps" and method == "POST":
            doc = self._json_body(body)
            runs = doc.get("runs")
            if not isinstance(runs, list) or not runs:
                raise _HttpError(400,
                                 "sweep needs a non-empty 'runs' list")
            self._admit(tenant, cost=float(len(runs)))
            sweep = await self.jobs.submit_sweep(runs, tenant)
            return (200 if sweep.terminal else 202), sweep.to_json()
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                job_id = rest[:-len("/events")].rstrip("/")
                if method != "GET":
                    raise _HttpError(405, "events is GET-only")
                await self._stream_events(job_id, headers, writer)
                return None
            job = self.jobs.get(rest)
            if job is None:
                raise _HttpError(404, f"unknown job {rest!r}")
            if method == "GET":
                return 200, job.to_json()
            if method == "DELETE":
                return 200, self.jobs.cancel(rest).to_json()
            raise _HttpError(405, f"{method} not allowed on jobs")
        raise _HttpError(404, f"no route for {method} {path}")

    def _admit(self, tenant: str, cost: float) -> None:
        verdict = self.admission.admit(
            tenant, cost=cost, queue_depth=self.jobs.queue_depth)
        if verdict.admitted:
            self.registry.inc("serve_admitted", tenant=tenant)
            return
        self.registry.inc("serve_rejected", tenant=tenant,
                          reason=verdict.reason)
        retry = max(1, int(verdict.retry_after + 0.999))
        if verdict.reason == "quota":
            raise _HttpError(
                429, f"tenant {tenant!r} is over quota",
                headers={"Retry-After": str(retry)},
                extra={"retry_after": verdict.retry_after,
                       "reason": "quota"})
        raise _HttpError(
            503, "job queue is saturated",
            headers={"Retry-After": str(retry)},
            extra={"queue_depth": verdict.queue_depth,
                   "reason": "saturated"})

    # -- event streaming ---------------------------------------------------

    async def _stream_events(self, job_id: str,
                             headers: Dict[str, str],
                             writer: asyncio.StreamWriter) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        sse = "text/event-stream" in headers.get("accept", "")
        content_type = ("text/event-stream" if sse
                        else "application/x-ndjson")
        head = ["HTTP/1.1 200 OK",
                f"Content-Type: {content_type}",
                "Cache-Control: no-store",
                "Connection: close"]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode())

        def encode(event: dict) -> bytes:
            line = json.dumps(event, default=repr, sort_keys=True)
            if sse:
                return f"data: {line}\n\n".encode()
            return (line + "\n").encode()

        # No await between attach and snapshot: every event lands in
        # exactly one of the replay or the queue.
        queue = self.jobs.watch(job)
        try:
            for event in self.jobs.replay(job):
                writer.write(encode(event))
            while not job.terminal or not queue.empty():
                await writer.drain()
                try:
                    event = await asyncio.wait_for(
                        queue.get(), _STREAM_IDLE_HEARTBEAT)
                except asyncio.TimeoutError:
                    # Heartbeat keeps proxies from reaping the idle
                    # stream and lets a dead client surface as a
                    # write error instead of a leaked task.
                    writer.write(b":\n\n" if sse else b"\n")
                    continue
                writer.write(encode(event))
            writer.write(encode({"kind": "_end", "job": job.id,
                                 "state": job.state}))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            self.jobs.unwatch(job, queue)


async def _run_and_block(config: ServeConfig,
                         ready=None, port_file: Optional[str] = None
                         ) -> None:
    server = ReproServer(config)
    host, port = await server.start()
    # A plain ``kill`` (SIGTERM) takes Ctrl-C's path: asyncio.run
    # cancels this task on SIGINT, and so does this handler, so the
    # ``finally`` below closes the job manager and joins the worker
    # pool.  A second SIGTERM during the drain kills outright.
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
    if port_file:
        with open(port_file, "w") as fh:
            fh.write(f"{host} {port}\n")
    if ready is not None:
        ready(host, port)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        loop.remove_signal_handler(signal.SIGTERM)
        await server.stop()


def run_server(config: ServeConfig, ready=None,
               port_file: Optional[str] = None) -> None:
    """Blocking entry point for the ``repro serve`` CLI."""
    try:
        asyncio.run(_run_and_block(config, ready=ready,
                                   port_file=port_file))
    except KeyboardInterrupt:
        pass
