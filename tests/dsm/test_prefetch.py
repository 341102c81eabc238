"""Prefetching behaviour in the P / I+P / I+P+D TreadMarks modes."""

import numpy as np
import pytest

from repro.harness.experiments import scaled_app
from repro.harness.runner import ProtocolConfig, run_app


def _prefetch_workload(rig, iterations=3):
    """Producer/consumer ping-pong that makes pages prefetch candidates:
    the consumer caches and references pages that the producer keeps
    invalidating."""
    base = rig.alloc("data", 2048)  # 2 pages

    def producer(api):
        for it in range(iterations):
            yield from api.acquire(0)
            yield from api.write(base, np.full(512, float(it + 1)))
            yield from api.write(base + 1024, np.full(512, float(it + 10)))
            yield from api.release(0)
            yield from api.barrier(2 * it)
            yield from api.barrier(2 * it + 1)  # consumer reads in between
        yield from api.barrier(99)

    def consumer(api):
        seen = []
        for it in range(iterations):
            yield from api.barrier(2 * it)
            yield from api.acquire(0)
            a = yield from api.read1(base)
            b = yield from api.read1(base + 1024)
            yield from api.release(0)
            seen.append((a, b))
            yield from api.barrier(2 * it + 1)
        yield from api.barrier(99)
        return seen

    return producer, consumer


@pytest.mark.parametrize("mode", ["P", "I+P", "I+P+D"])
def test_prefetch_modes_issue_and_stay_correct(make_rig, mode):
    rig = make_rig(mode=mode, n=2)
    producer, consumer = _prefetch_workload(rig)
    results = rig.run_workers(producer(rig.apis[0]), consumer(rig.apis[1]))
    assert results[1] == [(1.0, 10.0), (2.0, 11.0), (3.0, 12.0)]
    stats = rig.protocol.stats.prefetch
    assert stats.issued > 0
    assert stats.diff_requests > 0


@pytest.mark.parametrize("mode", ["Base", "I", "I+D"])
def test_non_prefetch_modes_issue_nothing(make_rig, mode):
    rig = make_rig(mode=mode, n=2)
    producer, consumer = _prefetch_workload(rig)
    rig.run_workers(producer(rig.apis[0]), consumer(rig.apis[1]))
    assert rig.protocol.stats.prefetch.issued == 0


def test_prefetch_usefulness_accounting(make_rig):
    rig = make_rig(mode="P", n=2)
    producer, consumer = _prefetch_workload(rig, iterations=4)
    rig.run_workers(producer(rig.apis[0]), consumer(rig.apis[1]))
    stats = rig.protocol.stats.prefetch
    # Every issued prefetch must eventually be classified.
    assert stats.useful + stats.useless + stats.late >= 1
    assert stats.useless_fraction() <= 1.0


def test_useless_prefetch_counted_when_never_referenced(make_rig):
    """Consumer touches a page once, then never again: its prefetches
    (triggered by later invalidations) end up useless."""
    rig = make_rig(mode="P", n=2)
    base = rig.alloc("data", 1024)

    def producer(api):
        for it in range(3):
            yield from api.acquire(0)
            yield from api.write(base, float(it))
            yield from api.release(0)
            yield from api.barrier(it)
        yield from api.barrier(99)

    def consumer(api):
        yield from api.barrier(0)
        yield from api.acquire(0)
        yield from api.read1(base)   # cache + reference once
        yield from api.release(0)
        yield from api.barrier(1)
        yield from api.acquire(0)    # invalidation arrives -> prefetch
        yield from api.release(0)
        yield from api.barrier(2)
        yield from api.barrier(99)   # page never referenced again

    rig.run_workers(producer(rig.apis[0]), consumer(rig.apis[1]))
    stats = rig.protocol.stats.prefetch
    assert stats.issued >= 1
    assert stats.useless >= 1


def test_prefetch_lead_time_tracked_for_useful(make_rig):
    rig = make_rig(mode="P", n=2)
    producer, consumer = _prefetch_workload(rig, iterations=4)
    rig.run_workers(producer(rig.apis[0]), consumer(rig.apis[1]))
    stats = rig.protocol.stats.prefetch
    if stats.useful:
        assert stats.mean_lead_cycles() > 0


@pytest.mark.parametrize("app_name,label", [
    ("TSP", "AURC+P"),   # prefetches re-invalidated or dropped in flight
    ("Em3d", "P"),       # in flight at finalize(), landing in the epilogue
    ("Em3d", "AURC+P"),
])
def test_every_issued_prefetch_is_classified_once(app_name, label):
    """After ``finalize`` each issued prefetch is useful or useless,
    including one whose page was still invalid when its replies landed,
    and the verify epilogue classifies none of them again."""
    config = (ProtocolConfig.aurc(prefetch=True) if label == "AURC+P"
              else ProtocolConfig.treadmarks(label))
    result = run_app(scaled_app(app_name, 4, quick=True), config,
                     audit=True)
    stats = result.protocol_stats.prefetch
    assert stats.issued > 0
    assert stats.useful + stats.useless == stats.issued
    audit = result.audit
    assert (audit.prefetch_useful, audit.prefetch_useless) \
        == (stats.useful, stats.useless)
