"""The result store's layout, index journal, and eviction paths.

Covers the serving-layer store contract: the JSONL index journal stays
consistent with the shard directories through eviction, crashes that
tear a journal line or strand an unlink, and concurrent same-fingerprint
writers.
"""

import json
import os
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.parallel import (
    CACHE_SCHEMA,
    EvictionPolicy,
    ResultCache,
)


def _doc(i=0):
    return {"execution_cycles": 1000 + i, "wall_seconds": 0.01,
            "events_processed": 10}


def _key(i):
    """A deterministic 64-hex-digit fingerprint-shaped key."""
    return f"{i:064x}"


def _fill(cache, n, start=0):
    for i in range(start, start + n):
        cache.put(_key(i), _doc(i))


def _scan_keys(cache):
    return {key for key, _path in cache._scan_files()}


# -- layout -----------------------------------------------------------------

def test_put_writes_sharded_layout(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = _key(0xAB << 248)   # key starting with "ab"
    cache.put(key, _doc())
    assert os.path.exists(tmp_path / "ab" / f"{key}.json")
    assert not os.path.exists(tmp_path / f"{key}.json")
    assert cache.get(key) == _doc()


def test_index_rebuilt_by_scan_when_missing(tmp_path):
    cache = ResultCache(str(tmp_path))
    _fill(cache, 5)
    os.unlink(cache.index_path)

    index = cache.load_index()
    assert set(index) == {_key(i) for i in range(5)}
    # The rebuild also rewrote the journal on disk.
    assert os.path.exists(cache.index_path)
    sizes = {key: nbytes for key, (nbytes, _ts) in index.items()}
    for key, nbytes in sizes.items():
        assert nbytes == os.path.getsize(cache.path_for(key))


# -- concurrent writers ----------------------------------------------------

def test_same_fingerprint_thread_hammer(tmp_path):
    """Many threads writing ONE fingerprint never publish a torn entry.

    The old pid-derived temp name let two threads in one process share
    a temp file and interleave writes; mkstemp makes the race benign.
    """
    cache = ResultCache(str(tmp_path))
    key = _key(42)
    start = threading.Barrier(8)
    torn = []

    def hammer(seed):
        start.wait()
        for i in range(25):
            cache.put(key, _doc(seed * 1000 + i))
            doc = cache.get(key)
            # Any readable state must be SOME writer's complete doc.
            if doc is not None and "execution_cycles" not in doc:
                torn.append(doc)

    threads = [threading.Thread(target=hammer, args=(seed,))
               for seed in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not torn
    final = cache.get(key)
    assert final is not None and "execution_cycles" in final
    # No stranded temp files from the race.
    shard = tmp_path / key[:2]
    assert [name for name in os.listdir(shard)
            if name.endswith(".tmp")] == []
    assert set(cache.load_index()) == {key}


# -- eviction --------------------------------------------------------------

def test_evict_10k_entries_to_byte_budget(tmp_path):
    cache = ResultCache(str(tmp_path))
    _fill(cache, 10_000)
    index = cache.load_index()
    assert len(index) == 10_000
    entry_bytes = index[_key(0)][0]
    budget = entry_bytes * 1000   # keep ~1000 of 10k

    stats = cache.evict(
        EvictionPolicy(max_bytes=budget, floor_seconds=0.0),
        now=time.time() + 3600)

    assert stats["scanned"] == 10_000
    assert stats["evicted"] + stats["live"] == 10_000
    assert stats["live_bytes"] <= budget
    # Index and directory agree exactly after the evict compaction.
    survivors = set(cache.load_index())
    assert _scan_keys(cache) == survivors
    assert len(survivors) == stats["live"]
    # Oldest-first: the survivors are the most recently written keys.
    assert survivors == {_key(i) for i in
                         range(10_000 - stats["live"], 10_000)}


def test_evict_respects_floor_even_over_budget(tmp_path):
    cache = ResultCache(str(tmp_path))
    _fill(cache, 10)

    # Everything was written "just now": with a 1h floor, a zero-byte
    # budget must evict nothing and report the overshoot instead.
    stats = cache.evict(EvictionPolicy(max_bytes=0,
                                       floor_seconds=3600.0))
    assert stats["evicted"] == 0
    assert stats["live"] == 10
    assert stats["live_bytes"] > 0
    assert _scan_keys(cache) == {_key(i) for i in range(10)}


@settings(max_examples=25, deadline=None)
@given(ages=st.lists(st.floats(min_value=0.0, max_value=1000.0),
                     min_size=1, max_size=12),
       max_entries=st.integers(min_value=0, max_value=12),
       floor=st.floats(min_value=0.0, max_value=1000.0))
def test_evict_never_removes_entry_newer_than_floor(
        tmp_path_factory, ages, max_entries, floor):
    """Property: whatever the budget, entries idle < floor survive."""
    root = tmp_path_factory.mktemp("store")
    cache = ResultCache(str(root))
    now = 2_000_000.0
    entries = {}
    for i in range(len(ages)):
        cache.put(_key(i), _doc(i))
        entries[_key(i)] = (os.path.getsize(cache.path_for(_key(i))),
                            now - ages[i])
    # Rewrite the journal with controlled last-used stamps.
    cache._rewrite_index(entries)

    cache.evict(EvictionPolicy(max_entries=max_entries,
                               floor_seconds=floor), now=now)

    survivors = _scan_keys(cache)
    protected = {_key(i) for i, age in enumerate(ages) if age < floor}
    assert protected <= survivors
    # Nothing below the budget was evicted needlessly.
    assert len(survivors) >= min(len(ages), max_entries)
    assert set(cache.load_index()) == survivors


def test_torn_index_line_and_stranded_unlink_self_heal(tmp_path):
    """Crash-mid-evict recovery: a partial journal line is skipped and
    a file unlinked without its ``del`` record drops out on the next
    eviction pass, after which index and directory agree."""
    cache = ResultCache(str(tmp_path))
    _fill(cache, 6)

    # Crash artifact 1: a torn trailing journal line.
    with open(cache.index_path, "a") as fh:
        fh.write('{"op": "put", "key": "deadbeef", "byt')
    # Crash artifact 2: an unlink that never journaled its del.
    os.unlink(cache.path_for(_key(3)))

    index = cache.load_index()
    assert "deadbeef" not in index          # torn line skipped
    assert _key(3) in index                 # stale until verified

    stats = cache.evict(
        EvictionPolicy(max_entries=100, floor_seconds=0.0),
        now=time.time() + 3600)
    assert stats["scanned"] == 5            # stale entry verified out
    assert stats["evicted"] == 0
    survivors = {_key(i) for i in range(6)} - {_key(3)}
    assert set(cache.load_index()) == survivors
    assert _scan_keys(cache) == survivors
    # The compaction rewrote a fully-parseable journal.
    with open(cache.index_path) as fh:
        for line in fh:
            json.loads(line)


def test_max_age_evicts_idle_entries_only(tmp_path):
    cache = ResultCache(str(tmp_path))
    now = 2_000_000.0
    entries = {}
    for i in range(6):
        cache.put(_key(i), _doc(i))
        # Even keys idle 500s, odd keys idle 5s.
        entries[_key(i)] = (
            os.path.getsize(cache.path_for(_key(i))),
            now - (500.0 if i % 2 == 0 else 5.0))
    cache._rewrite_index(entries)

    stats = cache.evict(EvictionPolicy(max_age_seconds=60.0,
                                       floor_seconds=0.0), now=now)
    assert stats["evicted"] == 3
    assert _scan_keys(cache) == {_key(i) for i in (1, 3, 5)}


def test_delete_removes_both_layouts(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = _key(9)
    cache.put(key, _doc())
    entry = {"schema": CACHE_SCHEMA, "key": key, "result": _doc()}
    with open(tmp_path / f"{key}.json", "w") as fh:
        json.dump(entry, fh)

    assert cache.delete(key)
    assert cache.get(key) is None
    assert key not in cache.load_index()
    assert not cache.delete(key)
