"""The parallel sweep runner and its content-addressed result cache.

The determinism contract under test: the simulation kernel is
single-threaded and seed-free, so a request's result is a pure function
of its fingerprint inputs -- serial, process-pool, and cache-served
executions must be cycle-for-cycle identical.
"""

import dataclasses
import hashlib
import json
import types

import pytest

from repro.harness.experiments import (
    fig13_messaging_overhead,
    fig14_network_bandwidth,
    fig15_memory_latency,
    fig16_memory_bandwidth,
    fig_overlap_modes,
)
from repro.harness.parallel import (
    ResultCache,
    SimRequest,
    SweepRunner,
    code_salt,
)
from repro.harness.runner import ProtocolConfig
from repro.hardware.params import MachineParams
from repro.stats.breakdown import Category


def _em3d(nprocs=2, config=None, params=None, verify=False):
    return SimRequest.for_app("Em3d", nprocs,
                              config or ProtocolConfig.treadmarks("Base"),
                              params=params, quick=True, verify=verify)


def _strip_wall(doc):
    doc = dict(doc)
    doc.pop("wall_seconds", None)
    # Process-lifetime max RSS legitimately differs between serial,
    # pooled, and cache-replay executions of the same simulation.
    doc.pop("peak_rss_kb", None)
    return doc


# -- fingerprints ----------------------------------------------------------

def test_fingerprint_stable_across_instances():
    assert _em3d().fingerprint() == _em3d().fingerprint()


def test_fingerprint_covers_every_simulation_input():
    base = _em3d().fingerprint()
    # Machine parameters.
    slower = MachineParams().with_memory_latency(200)
    assert _em3d(params=slower).fingerprint() != base
    # Application size.
    request = _em3d()
    bigger = SimRequest(
        app_name=request.app_name, nprocs=request.nprocs,
        config=request.config,
        size_kwargs=tuple(sorted(dict(request.size_kwargs,
                                      n_nodes=4096).items())))
    assert bigger.fingerprint() != base
    # Protocol, processor count, verify flag, code salt.
    assert _em3d(config=ProtocolConfig.treadmarks("I+D")).fingerprint() \
        != base
    assert _em3d(nprocs=4).fingerprint() != base
    assert _em3d(verify=True).fingerprint() != base
    assert _em3d().fingerprint(salt="deadbeef") != base
    assert _em3d().fingerprint(salt=code_salt()) == base


def _uncached(request, salt=None):
    """The digest as it was computed before the memo: the oracle."""
    blob = json.dumps(request.payload(salt), sort_keys=True,
                      separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class _Recorder:
    """A runner that collects the requests of a sweep and runs none."""

    def __init__(self):
        self.requests = []

    def run_batch(self, requests):
        self.requests.extend(requests)
        return [types.SimpleNamespace(execution_cycles=1.0)
                for _ in requests]


def test_fingerprint_memo_returns_the_uncached_digest():
    recorder = _Recorder()
    for figure in (fig13_messaging_overhead, fig14_network_bandwidth,
                   fig15_memory_latency, fig16_memory_bandwidth):
        figure(quick=True, runner=recorder)
    fig13_messaging_overhead(quick=True, runner=recorder,
                             aurc_full_update_overhead=True)
    assert len(recorder.requests) > 40
    assert len(set(recorder.requests)) > 25
    for salt in (None, "salt-a", "salt-b"):
        for _ in range(2):           # fill, then hit
            for request in recorder.requests:
                assert request.fingerprint(salt) == \
                    _uncached(request, salt)
    # Equal to the memoised request, but a new object: still a hit.
    rebuilt = dataclasses.replace(recorder.requests[5])
    assert rebuilt is not recorder.requests[5]
    assert rebuilt.fingerprint("salt-a") == _uncached(rebuilt, "salt-a")


def test_fingerprint_memo_keeps_equal_but_differently_typed_apart():
    """3 == 3.0 == True, and they hash alike, but they serialise
    differently: requests that compare equal can have different
    digests, in whichever order they are first seen."""
    config = ProtocolConfig.aurc()

    def variants():
        yield [SimRequest("Em3d", 4, config,
                          params=MachineParams(memory_cycles_per_word=v))
               for v in (3.0, 3)]
        yield [SimRequest("Em3d", 4, config,
                          size_kwargs=(("n_nodes", v),))
               for v in (1, 1.0, True)]
        yield [SimRequest("Em3d", 4, config, verify=v) for v in (0, False)]
        yield [SimRequest("Em3d", v, config) for v in (1, True)]
        yield [SimRequest("Em3d", 4, ProtocolConfig.aurc(prefetch=v))
               for v in (True, 1)]

    for salt in ("fwd", "rev"):
        for group in variants():
            assert len(set(group)) == 1            # all equal...
            if salt == "rev":
                group.reverse()
            digests = [request.fingerprint(salt) for request in group]
            assert digests == [_uncached(r, salt) for r in group]
            assert len(set(digests)) == len(group)   # ...none shared


def test_fingerprint_falls_back_for_values_it_cannot_memoise():
    config = ProtocolConfig.aurc()
    for value in ([1, 2], {"a": 1}, (1, 2), 1.5 + 2j, object):
        request = SimRequest("Em3d", 4, config,
                             size_kwargs=(("shape", value),))
        for _ in range(2):
            assert request.fingerprint("s") == _uncached(request, "s")


# -- the disk cache --------------------------------------------------------

def test_cache_round_trip_is_identical(tmp_path):
    cache = ResultCache(str(tmp_path))
    request = _em3d(verify=True)

    first = SweepRunner(jobs=1, cache=cache).run(request)
    assert not first.cached and first.verified and first.wall_seconds > 0

    # A fresh runner (empty memo) must hit the disk entry and
    # reconstruct the exact same document, original wall time included.
    second = SweepRunner(jobs=1, cache=cache).run(request)
    assert second.cached
    assert second.to_json() == first.to_json()
    assert second.execution_cycles == first.execution_cycles
    assert second.wall_seconds == first.wall_seconds


def test_changed_salt_misses(tmp_path):
    cache = ResultCache(str(tmp_path))
    request = _em3d()
    SweepRunner(jobs=1, cache=cache, salt="aaaa").run(request)
    rerun = SweepRunner(jobs=1, cache=cache, salt="bbbb").run(request)
    assert not rerun.cached


def test_corrupted_entry_recomputes(tmp_path):
    cache = ResultCache(str(tmp_path))
    request = _em3d()
    first = SweepRunner(jobs=1, cache=cache).run(request)
    key = request.fingerprint()

    path = cache.path_for(key)
    with open(path, "w") as fh:
        fh.write("{ not json")
    redone = SweepRunner(jobs=1, cache=cache).run(request)
    assert not redone.cached
    assert redone.execution_cycles == first.execution_cycles

    # Foreign schema and structurally incomplete entries also read as
    # misses rather than crashing or serving bad data.
    with open(path, "w") as fh:
        json.dump({"schema": "other-tool/9", "result": {}}, fh)
    assert cache.get(key) is None
    with open(path, "w") as fh:
        json.dump({"schema": "repro-cache/1", "result": {"app": "Em3d"}},
                  fh)
    assert cache.get(key) is None


def test_unwritable_cache_never_fails_the_run(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("a file where the cache directory should be")
    cache = ResultCache(str(blocker))
    result = SweepRunner(jobs=1, cache=cache).run(_em3d())
    assert result.execution_cycles > 0 and not result.cached


def test_in_batch_duplicates_simulated_once():
    runner = SweepRunner(jobs=1)  # no disk cache: memo only
    results = runner.run_batch([_em3d(), _em3d()])
    assert [r.cached for r in results] == [False, True]
    assert runner.stats.misses == 1 and runner.stats.hits == 1
    assert results[0].to_json() == results[1].to_json()


def test_rejects_bad_job_count():
    with pytest.raises(ValueError):
        SweepRunner(jobs=0)


# -- determinism: serial == parallel == cached -----------------------------

def test_process_pool_matches_serial_cycle_for_cycle(tmp_path):
    requests = [
        _em3d(),
        _em3d(config=ProtocolConfig.treadmarks("I+P+D")),
        SimRequest.for_app("Water", 2, ProtocolConfig.aurc(), quick=True),
    ]
    serial = SweepRunner(jobs=1).run_batch(requests)
    pooled = SweepRunner(jobs=2).run_batch(requests)
    cache = ResultCache(str(tmp_path))
    SweepRunner(jobs=1, cache=cache).run_batch(requests)
    cached = SweepRunner(jobs=1, cache=cache).run_batch(requests)
    assert all(r.cached for r in cached)

    for s, p, c in zip(serial, pooled, cached):
        assert _strip_wall(s.to_json()) == _strip_wall(p.to_json())
        assert _strip_wall(s.to_json()) == _strip_wall(c.to_json())
        assert s.execution_cycles == p.execution_cycles
        for category in Category:
            assert s.category_fraction(category) == \
                p.category_fraction(category)


def test_figure_matrices_match_serial_with_jobs_4():
    """The acceptance matrix: fig_overlap_modes + fig13 under --jobs 4
    must reproduce the serial tables exactly (they are dicts of
    normalized times and category fractions, compared bit-for-bit)."""
    serial = fig_overlap_modes("Em3d", nprocs=2, quick=True,
                               runner=SweepRunner(jobs=1))
    pooled = fig_overlap_modes("Em3d", nprocs=2, quick=True,
                               runner=SweepRunner(jobs=4))
    assert pooled == serial

    serial13 = fig13_messaging_overhead(nprocs=2, microseconds=(1.0, 3.0),
                                        quick=True,
                                        runner=SweepRunner(jobs=1))
    pooled13 = fig13_messaging_overhead(nprocs=2, microseconds=(1.0, 3.0),
                                        quick=True,
                                        runner=SweepRunner(jobs=4))
    assert pooled13 == serial13


# -- cross-figure baseline sharing -----------------------------------------

def test_sensitivity_figures_share_cached_baselines(tmp_path):
    cache = ResultCache(str(tmp_path))
    runner = SweepRunner(jobs=1, cache=cache)
    fig13_messaging_overhead(nprocs=2, microseconds=(1.0,), quick=True,
                             runner=runner)
    after_fig13 = (runner.stats.hits, runner.stats.misses)

    fig14_network_bandwidth(nprocs=2, bandwidths_mbs=(50,), quick=True,
                            runner=runner)
    # Figure 14 re-requests the same default-parameter TM/I+D and AURC
    # baselines figure 13 already simulated; only its own sweep points
    # are new work.
    assert runner.stats.hits >= after_fig13[0] + 2
    assert runner.stats.misses == after_fig13[1] + 2

    # A brand-new runner over the same disk cache recomputes nothing.
    rerun = SweepRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    fig13_messaging_overhead(nprocs=2, microseconds=(1.0,), quick=True,
                             runner=rerun)
    assert rerun.stats.misses == 0
