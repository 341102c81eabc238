"""``serve``: a ``repro serve`` subprocess driven by one client.

Closed loop, one connection at a time.  Every pass boots a fresh server
on a fresh store, so the cold sweep is cold every time and server boot
is sampled as often as the rest:

1. ``cold``: one sweep of quick 16-proc specs, submit to terminal
   (simulator-bound, through the pool; the slowest spec sets its tail);
2. ``hit``: sequential store hits cycling those specs in seeded order
   (pure service path);
3. ``coalesce``: a spec not yet stored, then duplicates while it is in
   flight;
4. ``loaded``: store hits from one tenant while another tenant's cold
   sweep runs -- where blocking the event loop during puts would show.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from benchmarks.e2e.core import Pass, Workload
from repro.harness.parallel import execute_request
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import request_from_spec

__all__ = ["Serve"]

APPS = ("Radix", "TSP", "Water", "Ocean", "Em3d", "Barnes")  # slow first
COLD_PROTOCOLS = ("I+P+D", "aurc")
HITS = 1000
LOADED_HITS = 200
DUPLICATES = 40
HEALTH_PROBES = 50
BOOT_TIMEOUT = 60.0


def _specs(procs: int) -> List[dict]:
    return [{"app": app, "protocol": protocol, "procs": procs,
             "quick": True, "verify": True}
            for protocol in COLD_PROTOCOLS for app in APPS]


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


class _Server:
    """The server subprocess, its store and its log."""

    def __init__(self, root: str, workers: int):
        port_file = os.path.join(root, "port")
        self.log = open(os.path.join(root, "server.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", port_file, "--workers", str(workers),
             "--cache-dir", os.path.join(root, "store"),
             "--quota-rate", "1e9", "--quota-burst", "1e9",
             "--max-queue", "100000"],
            stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            deadline = time.monotonic() + BOOT_TIMEOUT
            while not _read(port_file).endswith("\n"):
                if self.proc.poll() is not None \
                        or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"repro serve did not start; see {self.log.name}")
                time.sleep(0.005)
            host, port = _read(port_file).split()
            self.url = f"http://{host}:{port}"
            ServeClient(self.url).health()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGINT drains the pool; the whole process group is killed
        if that takes too long, so no worker outlives the pass."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        finally:
            self.log.close()


class Serve(Workload):
    name = "serve"
    imports = ("repro.serve",)

    def __init__(self, ctx):
        super().__init__(ctx)
        small = ctx.smoke
        self.cold_specs = _specs(4 if small else 16)
        self.loaded_specs = _specs(2 if small else 8)
        self.coalesce_spec = {"app": "Radix", "protocol": "Base",
                              "procs": 4 if small else 8,
                              "quick": True, "verify": True}
        self.hits = 50 if small else HITS
        self.loaded_hits = 50 if small else LOADED_HITS
        self.duplicates = 10 if small else DUPLICATES
        order = list(range(len(self.cold_specs)))
        random.Random(ctx.seed).shuffle(order)
        self.hit_order = order

    def prepare(self) -> _Server:
        return _Server(self.ctx.mkdtemp("serve-"), self.ctx.workers)

    def cleanup(self, server: _Server) -> None:
        server.stop()

    # -- phases ------------------------------------------------------------

    def _sweep(self, client: ServeClient, specs: List[dict],
               out: Pass) -> str:
        out.attempted += len(specs)
        try:
            return client.submit_sweep(specs)["job"]["id"]
        except (ServeError, OSError) as exc:
            out.fail(f"sweep submit: {exc}")
            return ""

    def _finish_sweep(self, client: ServeClient, sweep_id: str,
                      out: Pass) -> List[dict]:
        """Wait for a sweep; return its members' result documents."""
        if not sweep_id:
            return []
        docs = []
        try:
            final = client.wait(sweep_id)
            for member in final["job"]["members"]:
                job = client.job(member)
                doc = job.get("result")
                if job["job"]["state"] != "done" or not doc \
                        or not doc.get("verified"):
                    out.fail(f"job {job['job']['run']}: state "
                             f"{job['job']['state']}, "
                             f"{job['job']['error']}")
                else:
                    docs.append(doc)
        except (ServeError, OSError) as exc:
            out.fail(f"sweep {sweep_id}: {exc}")
        return docs

    def _hit(self, client: ServeClient, spec: dict, out: Pass,
             latencies: List[float]) -> None:
        out.attempted += 1
        start = time.perf_counter()
        try:
            reply = client.submit_run(spec)
        except (ServeError, OSError) as exc:
            out.fail(f"hit: {exc}")
            return
        latencies.append(time.perf_counter() - start)
        job = reply["job"]
        if job["state"] != "done" or job["dedupe"] != "cached":
            out.fail(f"hit on {job['run']} answered state "
                     f"{job['state']}, dedupe {job['dedupe']}")

    def run_pass(self, server: _Server) -> Pass:
        out = Pass()
        spans = self.ctx.spans
        client = ServeClient(server.url, tenant="tenant-a")
        other = ServeClient(server.url, tenant="tenant-b")

        health: List[float] = []
        for _ in range(HEALTH_PROBES):
            start = time.perf_counter()
            client.health()
            health.append(time.perf_counter() - start)

        start = time.perf_counter()
        with spans.span("serve.cold", request="cold"):
            sweep = self._sweep(client, self.cold_specs, out)
            cold_docs = self._finish_sweep(client, sweep, out)
        cold = time.perf_counter() - start
        out.docs = list(cold_docs)

        latencies: List[float] = []
        start = time.perf_counter()
        with spans.span("serve.hit", request="hit"):
            for i in range(self.hits):
                spec = self.cold_specs[
                    self.hit_order[i % len(self.hit_order)]]
                self._hit(client, spec, out, latencies)
        hit = time.perf_counter() - start

        coalesced: List[float] = []
        answered = 0
        start = time.perf_counter()
        with spans.span("serve.coalesce", request="coalesce"):
            out.attempted += 1 + self.duplicates
            try:
                first = client.submit_run(self.coalesce_spec)
                for _ in range(self.duplicates):
                    sent = time.perf_counter()
                    reply = client.submit_run(self.coalesce_spec)
                    coalesced.append(time.perf_counter() - sent)
                    answered += reply["job"]["dedupe"] == "coalesced"
                final = client.wait(first["job"]["id"])
                if final["job"]["state"] != "done":
                    out.fail(f"coalesced job ended "
                             f"{final['job']['state']}")
                else:
                    out.docs.append(final["result"])
            except (ServeError, OSError) as exc:
                out.fail(f"coalesce: {exc}")
        coalesce = time.perf_counter() - start

        loaded: List[float] = []
        start = time.perf_counter()
        with spans.span("serve.loaded", request="loaded"):
            sweep = self._sweep(other, self.loaded_specs, out)
            for i in range(self.loaded_hits):
                self._hit(client, self.cold_specs[i % len(
                    self.cold_specs)], out, loaded)
            out.docs += self._finish_sweep(other, sweep, out)
        under_load = time.perf_counter() - start

        counters = self._server_counters(client, out)
        aurc = sum(d["wall_seconds"] for d in cold_docs
                   if d["protocol"].startswith("AURC"))
        tm = sum(d["wall_seconds"] for d in cold_docs) - aurc
        out.exact = {d["app"] + "/" + d["protocol"] + f"/{d['n_procs']}":
                     d["execution_cycles"] for d in out.docs}
        out.samples = {"cold_s": cold, "hit_s": hit,
                       "coalesce_s": coalesce, "loaded_s": under_load,
                       "tm_s": tm, "aurc_s": aurc}
        if latencies and loaded and coalesced:
            out.layer = {
                "serve.http.healthz_p50_ms":
                    1e3 * statistics.median(health),
                "serve.jobs.cold_sweep_s": cold,
                # What the sweep cost beyond the simulations themselves,
                # had they been spread evenly over the workers.
                "serve.jobs.cold_overhead_s":
                    cold - (tm + aurc) / self.ctx.workers,
                "serve.jobs.hit_p50_ms":
                    1e3 * statistics.median(latencies),
                "serve.jobs.hit_p99_ms":
                    1e3 * _percentile(latencies, 0.99),
                "serve.jobs.hit_rps": len(latencies) / hit,
                "serve.jobs.coalesced_p50_ms":
                    1e3 * statistics.median(coalesced),
                "serve.jobs.coalesce_share": answered / len(coalesced),
                "serve.jobs.hit_under_load_p50_ms":
                    1e3 * statistics.median(loaded),
            }
            out.layer.update(counters)
        return out

    def _server_counters(self, client: ServeClient,
                         out: Pass) -> Dict[str, float]:
        try:
            doc = client.metrics()
        except (ServeError, OSError) as exc:
            out.fail(f"metrics: {exc}")
            return {}
        dedupe = {c["labels"].get("source"): c["value"]
                  for c in doc["metrics"]["counters"]
                  if c["name"] == "serve_dedupe"}
        rejected = sum(t["rejected_quota"] + t["rejected_saturated"]
                       for t in doc["admission"].values())
        if rejected:
            out.fail(f"{rejected} submissions were refused admission")
        return {"serve.jobs.dedupe_cached": dedupe.get("cached", 0.0),
                "serve.jobs.dedupe_coalesced":
                    dedupe.get("coalesced", 0.0),
                "serve.admission.rejected": float(rejected)}

    def end_to_end(self, best: Dict[str, float]) -> Dict[str, float]:
        return {"wall_s": best["cold_s"] + best["hit_s"]
                + best["coalesce_s"] + best["loaded_s"],
                "tm_wall_s": best["tm_s"], "aurc_wall_s": best["aurc_s"]}

    def trace_set(self, first: Pass):
        # The server is another process; what can be profiled from here
        # is the work its pool does for the cold sweep, spec by spec.
        # Radix/I+P+D, the sweep's slowest member, is left out for
        # time: paper16 profiles the same configuration.
        keep = (("Water", "I+P+D"), ("Em3d", "I+P+D"),
                ("Radix", "aurc"), ("Water", "aurc"))
        requests = [request_from_spec(spec) for spec in self.cold_specs
                    if (spec["app"], spec["protocol"]) in keep]
        return [(r.label, lambda r=r: execute_request(r), None)
                for r in requests]
