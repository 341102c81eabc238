"""Blocking HTTP client for the serve API (CLI and test harness).

Plain ``http.client`` on purpose: the client must work anywhere the
repo does (no new deps).  A :class:`ServeClient` keeps one connection
open across calls -- a store hit costs its fixed per-request work, and
a TCP handshake per call was most of it -- so it is not thread-safe;
give each thread its own.  :class:`ServeError` carries the HTTP status
plus the server's JSON error document, so callers can branch on
429/503 and honor ``Retry-After``.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection
from typing import Dict, Iterator, List, Optional
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServeError", "DEFAULT_URL"]

DEFAULT_URL = "http://127.0.0.1:8642"


class ServeError(Exception):
    """Non-2xx response from the serve API."""

    def __init__(self, status: int, doc: dict,
                 retry_after: Optional[float] = None):
        self.status = status
        self.doc = doc
        self.retry_after = retry_after
        super().__init__(
            f"HTTP {status}: {doc.get('error', 'request failed')}")


class ServeClient:
    """One serve endpoint + tenant identity, over one kept connection.

    Use as a context manager, or call :meth:`close`, to drop the
    connection before the object goes away.
    """

    def __init__(self, url: str = DEFAULT_URL, tenant: str = "anon",
                 timeout: float = 60.0):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme in {url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.tenant = tenant
        self.timeout = timeout
        # Opens its socket on first use, and again after a close.
        self._conn = HTTPConnection(self.host, self.port,
                                    timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        return {"X-Repro-Tenant": self.tenant,
                "Content-Type": "application/json"}

    def _exchange(self, method: str, path: str,
                  payload: Optional[bytes]):
        try:
            self._conn.request(method, path, body=payload,
                               headers=self._headers())
            response = self._conn.getresponse()
            return response, response.read()
        except BaseException:
            self._conn.close()      # never reuse a half-used socket
            raise

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> dict:
        payload = None if body is None else json.dumps(body).encode()
        reused = self._conn.sock is not None
        try:
            response, raw = self._exchange(method, path, payload)
        except ConnectionError:
            # That the server has closed a kept connection (idle
            # timeout, restart) only shows on the next use.  Every call
            # is idempotent -- submissions are addressed by fingerprint
            # -- so one retry on a fresh connection is safe; a fresh
            # connection that fails is a real error.
            if not reused:
                raise
            response, raw = self._exchange(method, path, payload)
        try:
            doc = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            doc = {"error": raw.decode("utf-8", "replace")}
        if response.status >= 400:
            retry = response.getheader("Retry-After")
            raise ServeError(
                response.status, doc,
                retry_after=float(retry) if retry else None)
        return doc

    # -- API ---------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit_run(self, spec: dict) -> dict:
        """POST one run spec; returns the repro-serve/1 job doc."""
        return self._request("POST", "/v1/runs", body=spec)

    def submit_sweep(self, specs: List[dict]) -> dict:
        return self._request("POST", "/v1/sweeps",
                             body={"runs": specs})

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def events(self, job_id: str,
               timeout: Optional[float] = None) -> Iterator[dict]:
        """Stream a job's NDJSON events until its ``_end`` marker.

        Yields each event dict (heartbeat blank lines are skipped);
        the terminal ``_end`` record is yielded last.
        """
        # A stream ends when the server closes it, so it cannot share
        # the kept connection.
        conn = HTTPConnection(self.host, self.port,
                              timeout=timeout or self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events",
                         headers=self._headers())
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    doc = json.loads(raw) if raw else {}
                except json.JSONDecodeError:
                    doc = {"error": raw.decode("utf-8", "replace")}
                raise ServeError(response.status, doc)
            buffer = b""
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    yield event
                    if event.get("kind") == "_end":
                        return
        finally:
            conn.close()

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> dict:
        """Follow the event stream until terminal; returns the final
        job document (with its result, when there is one)."""
        for event in self.events(job_id, timeout=timeout):
            if event.get("kind") == "_end":
                break
        return self.job(job_id)
