"""Correctness under the ablation knobs (they change timing, not data)."""

import numpy as np

from repro.dsm.aurc import HOME, Aurc
from repro.dsm.overlap import mode_by_name
from repro.dsm.shmem import DsmApi, SharedSegment
from repro.dsm.treadmarks import TreadMarks
from repro.hardware.node import Cluster
from repro.hardware.params import MachineParams
from repro.sim import AllOf, Simulator


def _run(protocol_builder, with_controller, n=4):
    params = MachineParams(n_processors=n)
    sim = Simulator()
    cluster = Cluster(sim, params, with_controller=with_controller)
    segment = SharedSegment(params)
    base = segment.alloc("data", 2048)
    protocol = protocol_builder(sim, cluster, params, segment)

    def worker(pid):
        api = DsmApi(protocol, pid)
        lo = pid * 512
        for it in range(3):
            yield from api.acquire(pid)
            yield from api.write(base + lo, np.full(512, float(it)))
            yield from api.release(pid)
            yield from api.barrier(it)
            total = 0.0
            for other in range(n):
                values = yield from api.read(base + other * 512, 512)
                total += float(values.sum())
            yield from api.barrier(100 + it)
        return total

    done = [cluster[pid].cpu.start(worker(pid)) for pid in range(n)]
    sim.run(until=AllOf(sim, done))
    protocol.finalize()
    return [event.value for event in done], protocol


def test_aurc_without_pairwise_is_correct():
    results, protocol = _run(
        lambda sim, cl, pa, seg: Aurc(sim, cl, pa, seg,
                                      pairwise_enabled=False),
        with_controller=False)
    assert all(r == 2.0 * 2048 for r in results)
    assert protocol.stats.pairwise_formations == 0
    # Every shared page went straight to home mode.
    assert all(entry.mode == HOME
               for entry in protocol.directory.values())


def test_aurc_with_pairwise_same_answers():
    results, protocol = _run(
        lambda sim, cl, pa, seg: Aurc(sim, cl, pa, seg),
        with_controller=False)
    assert all(r == 2.0 * 2048 for r in results)


def test_tm_aggressive_prefetch_is_correct():
    results, protocol = _run(
        lambda sim, cl, pa, seg: TreadMarks(
            sim, cl, pa, seg, mode=mode_by_name("I+P"),
            prefetch_all_invalid=True),
        with_controller=True)
    assert all(r == 2.0 * 2048 for r in results)
    assert protocol.stats.prefetch.issued > 0


def test_tm_urgent_prefetch_priority_is_correct():
    results, protocol = _run(
        lambda sim, cl, pa, seg: TreadMarks(
            sim, cl, pa, seg, mode=mode_by_name("I+P+D"),
            prefetch_low_priority=False),
        with_controller=True)
    assert all(r == 2.0 * 2048 for r in results)


def test_aggressive_issues_at_least_as_many_prefetches():
    def count(aggressive):
        _results, protocol = _run(
            lambda sim, cl, pa, seg: TreadMarks(
                sim, cl, pa, seg, mode=mode_by_name("I+P"),
                prefetch_all_invalid=aggressive),
            with_controller=True)
        return protocol.stats.prefetch.issued

    assert count(True) >= count(False)
