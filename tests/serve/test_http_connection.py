"""Persistent connections, the one-read request parser, time limits
and shutdown of the serve front end, over raw sockets.

The framing is under test here, so these tests speak HTTP by hand
instead of through :class:`ServeClient`.
"""

import asyncio
import contextlib
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServeClient, http as http_module
from repro.serve.http import ReproServer, _HttpError

from tests.serve.test_serve_api import _Server, _config


def _connect(server, timeout=10.0):
    sock = socket.create_connection(server.addr, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_reply(sock, buffered=b""):
    """One framed reply off ``sock``: (status, headers, body, rest)."""
    data = buffered
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed inside a reply head: {data!r}"
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside a reply body"
        rest += chunk
    return status, headers, rest[:length], rest[length:]


def _closed(sock, timeout=5.0):
    """True when the peer has closed (EOF) within ``timeout``."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


def _counter(server, name):
    with server.client() as client:
        counters = client.metrics()["metrics"]["counters"]
    return sum(c["value"] for c in counters if c["name"] == name)


HEALTH = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


# -- persistent connections ------------------------------------------------

def test_twenty_requests_share_one_connection(tmp_path):
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            rest = b""
            for _ in range(20):
                sock.sendall(HEALTH)
                status, headers, body, rest = _read_reply(sock, rest)
                assert status == 200 and body == b'{"ok": true}'
                assert "connection" not in headers   # stays open
            assert rest == b""
            # Read on the same socket, so exactly one connection so far.
            sock.sendall(b"GET /v1/metrics HTTP/1.1\r\n\r\n")
            status, _, body, _ = _read_reply(sock)
            counters = json.loads(body)["metrics"]["counters"]
            assert [c["value"] for c in counters
                    if c["name"] == "serve_connections"] == [1.0]
            assert sum(c["value"] for c in counters
                       if c["name"] == "serve_requests") == 21


def test_pipelined_requests_are_answered_in_order(tmp_path):
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            sock.sendall(HEALTH
                         + b"GET /v1/jobs/nope HTTP/1.1\r\n\r\n")
            status, _, body, rest = _read_reply(sock)
            assert status == 200 and body == b'{"ok": true}'
            status, headers, body, rest = _read_reply(sock, rest)
            assert status == 404 and b"nope" in body
            assert headers["connection"] == "close"
            assert rest == b"" and _closed(sock)


@pytest.mark.parametrize("request_bytes", [
    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nCONNECTION: Close\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
])
def test_close_requested_by_the_client(tmp_path, request_bytes):
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            sock.sendall(request_bytes)
            status, headers, _, rest = _read_reply(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert rest == b"" and _closed(sock)


@pytest.mark.parametrize("request_bytes, status", [
    (b"GARBAGE\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nA: b\nEvil: x\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\n" + b"H: v\r\n" * 100 + b"\r\n", 400),
    (b"POST /v1/runs HTTP/1.1\r\nContent-Length: 4194305\r\n\r\n", 413),
    (b"POST /v1/runs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 400),
    (b"GET /v1/nowhere HTTP/1.1\r\n\r\n", 404),
    (b"PUT /v1/jobs/x/events HTTP/1.1\r\n\r\n", 405),
])
def test_an_error_reply_closes_the_connection(tmp_path, request_bytes,
                                              status):
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            # A second request rides along: it must not be answered.
            sock.sendall(request_bytes + HEALTH)
            got, headers, _, rest = _read_reply(sock)
            assert got == status
            assert headers["connection"] == "close"
            assert rest == b"" and _closed(sock)
        assert _counter(server, "serve_errors") == 0


def test_a_head_over_the_reader_limit_gets_400(tmp_path):
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            # No terminator: the parser must give up at the limit, not
            # buffer for ever.  (Nothing is sent after the refusal, so
            # the close is a clean FIN and the 400 arrives.)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nH: "
                         + b"v" * (66 << 10))
            status, _, body, _ = _read_reply(sock)
            assert status == 400 and b"too large" in body
            assert _closed(sock)
        assert _counter(server, "serve_errors") == 0


def test_ninety_nine_headers_are_accepted(tmp_path):
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n" + b"H: v\r\n" * 99
                         + b"\r\n")
            assert _read_reply(sock)[0] == 200


def test_half_closed_client_with_an_incomplete_head_gets_400(tmp_path):
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            sock.shutdown(socket.SHUT_WR)
            assert _read_reply(sock)[0] == 400
            assert _closed(sock)


# -- time limits -----------------------------------------------------------

def test_stalled_body_gets_408_and_the_connection_closes(
        tmp_path, monkeypatch):
    monkeypatch.setattr(http_module, "_READ_DEADLINE", 0.3)
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            start = time.monotonic()
            sock.sendall(b"POST /v1/runs HTTP/1.1\r\n"
                         b"Content-Length: 10\r\n\r\nabc")
            status, headers, body, _ = _read_reply(sock)
            assert status == 408 and b"timed out" in body
            assert headers["connection"] == "close"
            assert _closed(sock)
            assert 0.25 < time.monotonic() - start < 5.0


def test_stalled_head_gets_408(tmp_path, monkeypatch):
    monkeypatch.setattr(http_module, "_READ_DEADLINE", 0.3)
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost:")
            assert _read_reply(sock)[0] == 408
            assert _closed(sock)


def test_the_deadline_covers_head_and_body_together(
        tmp_path, monkeypatch):
    """A client trickling bytes never gets a fresh allowance."""
    monkeypatch.setattr(http_module, "_READ_DEADLINE", 0.6)
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            start = time.monotonic()
            sock.sendall(b"POST /v1/runs HTTP/1.1\r\n")
            time.sleep(0.25)
            sock.sendall(b"Content-Length: 10\r\n\r\n")
            time.sleep(0.25)
            sock.sendall(b"abc")
            assert _read_reply(sock)[0] == 408
            assert time.monotonic() - start < 1.2


def test_idle_connection_is_closed_silently(tmp_path, monkeypatch):
    monkeypatch.setattr(http_module, "_IDLE_TIMEOUT", 0.3)
    with _Server(_config(tmp_path)) as server:
        # Never used, and used once: neither gets a 408.
        with _connect(server) as fresh, _connect(server) as kept:
            kept.sendall(HEALTH)
            assert _read_reply(kept)[0] == 200
            fresh.settimeout(5.0)
            kept.settimeout(5.0)
            assert fresh.recv(100) == b""
            assert kept.recv(100) == b""


def test_a_request_in_time_resets_the_idle_clock(tmp_path, monkeypatch):
    monkeypatch.setattr(http_module, "_IDLE_TIMEOUT", 0.5)
    with _Server(_config(tmp_path)) as server:
        with _connect(server) as sock:
            for _ in range(4):
                time.sleep(0.3)
                sock.sendall(HEALTH)
                assert _read_reply(sock)[0] == 200


# -- the client ------------------------------------------------------------

def test_client_reconnects_once_when_its_connection_went_stale(
        tmp_path, monkeypatch):
    monkeypatch.setattr(http_module, "_IDLE_TIMEOUT", 0.2)
    with _Server(_config(tmp_path)) as server:
        host, port = server.addr
        client = ServeClient(f"http://{host}:{port}")
        assert client.health() == {"ok": True}
        assert client._conn.sock is not None        # kept
        time.sleep(0.6)                 # the server reaps it
        assert client.health() == {"ok": True}      # transparent
        assert client.health() == {"ok": True}
        # Two from this client, one from _counter's own; more only if
        # the host stalled long enough for another reaping.
        assert _counter(server, "serve_connections") >= 3
        assert client._conn.sock is not None
    # Server gone: the kept connection is stale AND the reconnect
    # fails -- that one raises.
    with pytest.raises(OSError):
        client.health()
    assert client._conn.sock is None


def test_client_is_a_context_manager_over_one_connection(tmp_path):
    with _Server(_config(tmp_path)) as server:
        with server.client() as client:
            for _ in range(5):
                client.health()
            counters = client.metrics()["metrics"]["counters"]
            assert [c["value"] for c in counters
                    if c["name"] == "serve_connections"] == [1.0]
        assert client._conn.sock is None


# -- shutdown --------------------------------------------------------------

def test_idle_connections_do_not_delay_stop(tmp_path, caplog):
    caplog.set_level(logging.WARNING)
    server = _Server(_config(tmp_path))
    with server:
        first, second = _connect(server), _connect(server)
        second.sendall(HEALTH)
        assert _read_reply(second)[0] == 200
        start = time.monotonic()
    elapsed = time.monotonic() - start
    assert not server._thread.is_alive()
    assert elapsed < 2.0, f"stop() took {elapsed:.2f}s"
    assert _closed(first) and _closed(second)
    first.close()
    second.close()
    assert not [r for r in caplog.records if r.name == "asyncio"], \
        caplog.text


def _children(pid):
    """Pids of ``pid``'s live child processes (the pool's workers)."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid and fields[0] != "Z":
                kids.append(int(entry))
    return kids


def _alive(pid):
    """True while ``pid`` runs (a zombie awaiting its reaper has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_sigint_with_idle_clients_exits_promptly_and_cleanly(tmp_path):
    _exits_promptly_and_cleanly(tmp_path, signal.SIGINT)


def test_sigterm_with_idle_clients_exits_promptly_and_cleanly(tmp_path):
    # A plain ``kill`` must drain as Ctrl-C does: dying at -15 would
    # leave the pool's workers running.
    _exits_promptly_and_cleanly(tmp_path, signal.SIGTERM)


@contextlib.contextmanager
def _serving_with_pool(tmp_path):
    """Boot ``repro serve`` with two workers and run one job on it.
    Yields the server process, two connected clients and the log path;
    kills the server on the way out if it still runs."""
    port_file = tmp_path / "port"
    log_path = tmp_path / "serve.log"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
        + env.get("PYTHONPATH", "")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file), "--workers", "2",
             "--cache-dir", str(tmp_path / "store")],
            stdout=log, stderr=subprocess.STDOUT, env=env)
    clients = []
    try:
        deadline = time.monotonic() + 30.0
        while not (port_file.exists()
                   and port_file.read_text().endswith("\n")):
            assert proc.poll() is None, log_path.read_text()
            assert time.monotonic() < deadline, "server did not boot"
            time.sleep(0.02)
        host, port = port_file.read_text().split()
        clients = [ServeClient(f"http://{host}:{port}")
                   for _ in range(2)]
        spec = {"app": "Em3d", "procs": 2, "quick": True}
        done = clients[0].wait(
            clients[0].submit_run(spec)["job"]["id"])
        assert done["job"]["state"] == "done"      # the pool is up
        assert clients[1].submit_run(spec)["job"]["dedupe"] == "cached"
        yield proc, clients, log_path
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for client in clients:
            client.close()


def _survivors(workers, timeout):
    """The ``workers`` still alive after up to ``timeout`` seconds;
    kills them, so no test leaks a worker whatever its verdict."""
    deadline = time.monotonic() + timeout
    left = [pid for pid in workers if _alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [pid for pid in left if _alive(pid)]
    for pid in left:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    return left


def _exits_promptly_and_cleanly(tmp_path, signum):
    """Boot ``repro serve``, run a job, keep two clients idle, send
    ``signum``: the server exits 0 within 2 s, logs no traceback and
    takes its pool's workers with it."""
    with _serving_with_pool(tmp_path) as (proc, clients, log_path):
        assert all(c._conn.sock is not None for c in clients)
        workers = _children(proc.pid)
        assert workers
        start = time.monotonic()
        proc.send_signal(signum)
        proc.wait(timeout=10.0)
        elapsed = time.monotonic() - start
    left = _survivors(workers, 0.0)
    assert proc.returncode == 0
    assert elapsed < 2.0, f"exit took {elapsed:.2f}s"
    assert "Traceback" not in log_path.read_text()
    assert not left, f"pool workers {left} outlived the server"


def test_sigkilled_server_leaves_no_pool_worker_behind(tmp_path):
    # SIGKILL runs no shutdown: the workers must notice on their own
    # that their parent is gone, not block on the call queue forever.
    with _serving_with_pool(tmp_path) as (proc, _clients, _log):
        workers = _children(proc.pid)
        assert workers
        proc.kill()
        proc.wait()
    left = _survivors(workers, 10.0)
    assert not left, f"pool workers {left} outlived the killed server"


# -- the parser against the one it replaced --------------------------------

async def _old_read_request(reader):
    """The line-by-line parser the one-read parser replaced, verbatim
    but for the timeout: the oracle."""
    request_line = await reader.readline()
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed request line")
    method, path, _version = parts
    headers = {}
    for _ in range(http_module._MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "too many headers")
    body = b""
    length_s = headers.get("content-length", "0")
    try:
        length = int(length_s)
    except ValueError:
        raise _HttpError(400, f"bad Content-Length {length_s!r}")
    if length > http_module._MAX_BODY:
        raise _HttpError(413, "body too large")
    if length:
        body = await reader.readexactly(length)
    return method.upper(), path, headers, body


def _parse_both(data: bytes):
    async def run(parser):
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        try:
            return await parser(reader)
        except _HttpError as exc:
            return exc.status

    async def new(reader):
        first = await reader.read(1)
        return (await ReproServer._read_request(first, reader))[:4]

    async def both():
        return await run(_old_read_request), await run(new)

    return asyncio.run(both())


_TOKEN = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "0123456789-_", min_size=1, max_size=12)
_VALUE = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF,
                  blacklist_characters="\x7f\x85"), max_size=30)
_PAD = st.sampled_from(["", " ", "  ", "\t"])
_HEADER = st.one_of(
    st.tuples(_TOKEN, _PAD, _VALUE, _PAD).map(
        lambda t: f"{t[0]}:{t[1]}{t[2]}{t[3]}"),
    _TOKEN,                                     # no colon at all
    st.tuples(_PAD, _TOKEN).map(lambda t: f" {t[0]}{t[1]}: folded"),
)
_REQUEST_LINE = st.one_of(
    st.tuples(st.sampled_from(["GET", "post", "Delete", "PUT"]),
              st.sampled_from(["/", "/healthz", "/v1/runs?x=1"]),
              st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2"])
              ).map(" ".join),
    st.sampled_from(["GET /", "GET  /  HTTP/1.1", "a b c d", "x"]),
)
_LENGTH = st.one_of(
    st.none(), st.integers(0, 64).map(str),
    st.sampled_from(["ten", "", "1e3", " 7 ", "4194305", "+5"]))


@settings(max_examples=300, deadline=None)
@given(_REQUEST_LINE, st.lists(_HEADER, max_size=8),
       st.integers(0, 110), _LENGTH, st.sampled_from(["first", "last"]),
       st.binary(max_size=64))
def test_one_read_parser_agrees_with_the_line_parser(
        request_line, headers, padding, length, where, tail):
    headers = headers + [f"X-Pad-{i}: {i}"
                         for i in range(padding if padding > 90 else 0)]
    if length is not None:
        declared = f"cOnTent-LENGTH: {length}"
        headers = [declared] + headers if where == "first" \
            else headers + [declared]
    head = "\r\n".join([request_line] + headers) + "\r\n\r\n"
    try:
        body = b"b" * int(length)
    except (TypeError, ValueError):
        body = b""
    if len(body) > 1024:
        body = b""               # 413: refused before any of it is read
    # Whatever follows the body belongs to the next request: neither
    # parser may touch it.
    old, new = _parse_both(head.encode("latin-1") + body + tail)
    assert new == old
    if isinstance(new, tuple):
        method, _path, parsed, got = new
        assert method == request_line.split()[0].upper()
        assert got == body
        assert all(name == name.lower().strip() for name in parsed)


@settings(max_examples=100, deadline=None)
@given(st.lists(_HEADER, min_size=1, max_size=6), st.data())
def test_a_bare_lf_in_the_head_is_refused(headers, data):
    """The one deliberate divergence.  The line parser took a bare LF
    for a line end, so ``A: b\\nEvil: x`` smuggled a second header past
    anything in front that reads CRLF only (and a bare-LF blank line
    ended the head early).  The one-read parser answers 400."""
    head = "\r\n".join(["GET / HTTP/1.1"] + headers) + "\r\n\r\n"
    at = data.draw(st.integers(1, len(head) - 4))
    spoiled = head[:at] + "\n" + head[at:]
    if spoiled[at - 1] == "\r":
        spoiled = head[:at] + "\nx" + head[at:]    # keep the LF bare
    _old, new = _parse_both(spoiled.encode("latin-1"))
    assert new == 400
