"""Isolated probes of single layers, and the host context.

Each probe calls one public function in a loop sized to run for at
least ``min_seconds``, so a reading is well above timer noise.  They do
not depend on the workload; every traced run repeats them so a result
always carries the host's speed at that moment.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Callable, Dict, Tuple

from benchmarks.microbench import BENCHES
from repro.dsm.compact import NodeIntMap
from repro.hardware.params import MachineParams
from repro.hardware.topology import make_topology
from repro.harness.parallel import EvictionPolicy, ResultCache, SimRequest
from repro.harness.runner import ProtocolConfig
from repro.serve.admission import AdmissionController, QuotaConfig
from repro.serve.jobs import request_from_spec

__all__ = ["host_context", "run_probes", "store_probe"]

# microbench row -> metric.  The 20 ms ``app-run`` row is left out: the
# workloads time whole runs far longer than that.
_KERNEL_PROBES = {
    "timeout-chain": "sim.engine.timeout_chain_ev_per_s",
    "resource-fastpath": "sim.resources.fastpath_ev_per_s",
    "resource-contended": "sim.resources.contended_ev_per_s",
    "hold-loop": "hardware.node.hold_loop_ev_per_s",
}


def _calibration_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += (i * i) % 7
    return total


def host_context() -> Dict[str, float]:
    """Speed of a fixed pure-python loop, core count and 1-min load."""
    n = 200_000
    best = None
    for _ in range(5):
        start = time.perf_counter()
        _calibration_loop(n)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return {"host.calib_ops_per_s": n / best,
            "host.cpus": float(os.cpu_count() or 1),
            "host.load1": os.getloadavg()[0]}


def _rate(run: Callable[[int], Tuple[float, float]],
          min_seconds: float) -> float:
    """Operations per second of ``run(n) -> (operations, seconds)``;
    ``n`` grows until one call lasts long enough to be a reading."""
    n = 1
    while True:
        operations, seconds = run(n)
        if seconds >= min_seconds:
            return operations / seconds
        n = int(n * max(2.0, 1.2 * min_seconds / max(seconds, 1e-6))) + 1


def _per_call(loop: Callable[[int], None], min_seconds: float) -> float:
    """Seconds per iteration of ``loop(iterations)``."""
    def run(n: int) -> Tuple[float, float]:
        start = time.perf_counter()
        loop(1000 * n)
        return 1000 * n, time.perf_counter() - start

    return 1.0 / _rate(run, min_seconds)


def _kernel_probes(min_seconds: float) -> Dict[str, float]:
    return {_KERNEL_PROBES[name]: _rate(fn, min_seconds)
            for name, fn in BENCHES if name in _KERNEL_PROBES}


def _compact_get(n_nodes: int, min_seconds: float) -> float:
    table = NodeIntMap()
    for node in range(n_nodes):
        table[node] = node
    get = table.get

    def loop(n: int) -> None:
        node = 0
        for _ in range(n):
            get(node)
            node = (node + 7) % n_nodes

    return _per_call(loop, min_seconds)


def _route(min_seconds: float) -> float:
    """``compute_route`` over the four topologies at 256 nodes, above
    ``ROUTE_MEMO_MAX_NODES``, where the network computes every route."""
    n_nodes = 256
    topologies = [
        make_topology(MachineParams(n_processors=n_nodes, topology=name))
        for name in ("mesh", "torus", "fattree", "dragonfly")]

    def loop(n: int) -> None:
        src, dst = 0, 1
        for i in range(n):
            topologies[i & 3].compute_route(src, dst)
            src = (src + 37) % n_nodes
            dst = (dst + 101) % n_nodes

    return _per_call(loop, min_seconds)


def _small_calls(min_seconds: float) -> Dict[str, float]:
    request = SimRequest.for_app(
        "Em3d", 16, ProtocolConfig.treadmarks("I+D"), quick=True)
    salt = "probe"
    spec = {"app": "Radix", "protocol": "I+P+D", "procs": 16,
            "quick": True, "verify": True}
    admission = AdmissionController(
        default_quota=QuotaConfig(rate=1e9, burst=1e9))

    def fingerprint(n: int) -> None:
        for _ in range(n):
            request.fingerprint(salt)

    def parse(n: int) -> None:
        for _ in range(n):
            request_from_spec(spec)

    def admit(n: int) -> None:
        for _ in range(n):
            admission.admit("probe")

    return {
        "harness.parallel.fingerprint_us":
            1e6 * _per_call(fingerprint, min_seconds),
        "serve.jobs.spec_parse_us": 1e6 * _per_call(parse, min_seconds),
        "serve.admission.admit_us": 1e6 * _per_call(admit, min_seconds),
    }


def store_probe(root: str, doc: dict, entries: int) -> Dict[str, float]:
    """``ResultCache`` called directly on copies of a real result doc:
    puts, gets, an index replay and one eviction down to a quarter.
    Writes sit beside reads so a faster ``get`` bought with a slower
    ``put`` or ``evict`` shows."""
    cache = ResultCache(root)
    keys = [f"{i:064x}" for i in range(entries)]
    try:
        start = time.perf_counter()
        for key in keys:
            cache.put(key, doc)
        put = time.perf_counter() - start
        start = time.perf_counter()
        hits = sum(cache.get(key) is not None for key in keys)
        get = time.perf_counter() - start
        start = time.perf_counter()
        index = cache.load_index()
        load = time.perf_counter() - start
        nbytes = sum(size for size, _ in index.values())
        start = time.perf_counter()
        stats = cache.evict(EvictionPolicy(max_entries=entries // 4,
                                           floor_seconds=0.0))
        evict = time.perf_counter() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if hits != entries or len(index) != entries \
            or stats["live"] != entries // 4:
        raise RuntimeError(
            f"store probe: {hits} hits, {len(index)} indexed, "
            f"{stats['live']} live after evict, of {entries}")
    return {"store.put_us": 1e6 * put / entries,
            "store.get_us": 1e6 * get / entries,
            "store.load_index_ms": 1e3 * load,
            "store.evict_ms": 1e3 * evict,
            "store.bytes_per_entry": nbytes / entries}


def run_probes(min_seconds: float) -> Dict[str, float]:
    out = _kernel_probes(min_seconds)
    out["dsm.compact.get_ns_n64"] = 1e9 * _compact_get(64, min_seconds)
    out["dsm.compact.get_ns_n256"] = 1e9 * _compact_get(256, min_seconds)
    out["hardware.topology.route_us_n256"] = 1e6 * _route(min_seconds)
    out.update(_small_calls(min_seconds))
    return out
