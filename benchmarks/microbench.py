"""Kernel microbenchmarks: event throughput of the simulation engine.

Each entry of :data:`BENCHES` runs one hot path of :mod:`repro.sim` in
isolation -- the bare timeout chain, resource acquire/release (fast
path vs. contended) and the interruptible hold loop -- and returns
``(events processed, wall seconds)`` for a size multiplier.
``benchmarks/e2e/probes.py`` times them as the benchmark's kernel
probes.
"""

from __future__ import annotations

import time

from repro.hardware.node import ComputeProcessor
from repro.hardware.params import MachineParams
from repro.sim import Resource, Simulator
from repro.stats.breakdown import Category

__all__ = ["BENCHES"]


def _timed(sim: Simulator):
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return sim.events_processed, wall


def bench_timeout_chain(scale: int):
    """Serial pooled-timeout chain: the minimal schedule/pop/resume loop."""
    sim = Simulator()

    def chain(n):
        for _ in range(n):
            yield sim.pooled_timeout(1)

    sim.process(chain(10_000 * scale))
    return _timed(sim)


def bench_resource_uncontended(scale: int):
    """Single user acquiring an idle resource: the try_acquire fast path."""
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(n):
        for _ in range(n):
            req = yield from res.acquire()
            yield sim.pooled_timeout(5)
            res.release(req)

    sim.process(worker(5_000 * scale))
    return _timed(sim)


def bench_resource_contended(scale: int):
    """Four users fighting over one slot: the request/grant slow path."""
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(n):
        for _ in range(n):
            req = yield from res.acquire()
            yield sim.pooled_timeout(5)
            res.release(req)

    for _ in range(4):
        sim.process(worker(1_500 * scale))
    return _timed(sim)


def bench_hold_loop(scale: int):
    """Interruptible holds racing periodic service posts (the node model)."""
    sim = Simulator()
    params = MachineParams(n_processors=4)
    cpu = ComputeProcessor(sim, params, node_id=0)

    def body(n):
        for _ in range(n):
            yield from cpu.hold(100, Category.BUSY)

    def poster(n):
        for _ in range(n):
            yield sim.pooled_timeout(350)
            cpu.post_service("svc", lambda: iter(()))

    sim.process(body(2_000 * scale))
    sim.process(poster(500 * scale))
    return _timed(sim)


BENCHES = (
    ("timeout-chain", bench_timeout_chain),
    ("resource-fastpath", bench_resource_uncontended),
    ("resource-contended", bench_resource_contended),
    ("hold-loop", bench_hold_loop),
)
