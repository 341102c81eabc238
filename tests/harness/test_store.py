"""The result store's layout, shard-walk index, and eviction paths.

Covers the serving-layer store contract: the shard files are the only
state (size = file size, recency = mtime), eviction follows them, a
failed or killed writer leaves no stray temp file behind for good, and
concurrent same-fingerprint writers never publish a torn entry.
"""

import glob
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.parallel import EvictionPolicy, ResultCache


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
    """Entry keys on disk, listed independently of ``load_index``."""
    return {os.path.basename(path)[:-len(".json")]
            for path in glob.glob(os.path.join(cache.root, "??", "*.json"))}


def _stamp(cache, key, ts):
    """Set ``key``'s last use to ``ts``; returns the stamp as stored."""
    path = cache.path_for(key)
    os.utime(path, (ts, ts))
    return os.stat(path).st_mtime


def _temp_files(root):
    return glob.glob(os.path.join(str(root), "??", ".*.tmp"))


# -- layout -----------------------------------------------------------------

def test_put_writes_sharded_layout(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = _key(0xAB << 248)   # key starting with "ab"
    cache.put(key, _doc())
    assert os.path.exists(tmp_path / "ab" / f"{key}.json")
    assert not os.path.exists(tmp_path / f"{key}.json")
    assert cache.get(key) == _doc()


def test_index_is_the_shard_files(tmp_path):
    cache = ResultCache(str(tmp_path))
    _fill(cache, 5)
    ts = _stamp(cache, _key(2), 1_000_000.0)

    index = cache.load_index()
    assert set(index) == {_key(i) for i in range(5)}
    for key, (nbytes, _ts) in index.items():
        assert nbytes == os.path.getsize(cache.path_for(key))
    assert index[_key(2)][1] == ts
    assert os.listdir(tmp_path) == ["00"]     # no state beside shards
    assert ResultCache(str(tmp_path / "absent")).load_index() == {}


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
    # One second apart in write order, so recency has no ties.
    base = time.time() - 10_000
    for i in range(10_000):
        _stamp(cache, _key(i), base + i)
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
    stamps = {}
    for i, age in enumerate(ages):
        cache.put(_key(i), _doc(i))
        stamps[_key(i)] = _stamp(cache, _key(i), now - age)

    cache.evict(EvictionPolicy(max_entries=max_entries,
                               floor_seconds=floor), now=now)

    survivors = _scan_keys(cache)
    # Idle time as the store sees it: the stamp as the file holds it.
    protected = {key for key, ts in stamps.items() if now - ts < floor}
    assert protected <= survivors
    # Nothing below the budget was evicted needlessly.
    assert len(survivors) >= min(len(ages), max_entries)
    assert set(cache.load_index()) == survivors


def test_max_age_evicts_idle_entries_only(tmp_path):
    cache = ResultCache(str(tmp_path))
    now = 2_000_000.0
    for i in range(6):
        cache.put(_key(i), _doc(i))
        # Even keys idle 500s, odd keys idle 5s.
        _stamp(cache, _key(i), now - (500.0 if i % 2 == 0 else 5.0))

    stats = cache.evict(EvictionPolicy(max_age_seconds=60.0,
                                       floor_seconds=0.0), now=now)
    assert stats["evicted"] == 3
    assert _scan_keys(cache) == {_key(i) for i in (1, 3, 5)}


def test_delete_removes_the_entry(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = _key(9)
    cache.put(key, _doc())

    assert cache.delete(key)
    assert cache.get(key) is None
    assert key not in cache.load_index()
    assert not cache.delete(key)


# -- temp files and killed writers -----------------------------------------

def test_put_that_cannot_serialize_leaves_no_temp_file(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = "ab" * 32
    with pytest.raises(TypeError):
        cache.put(key, {"execution_cycles": 1, "x": object()})
    assert _temp_files(tmp_path) == []
    assert cache.get(key) is None


def test_evict_removes_temp_files_older_than_the_floor(tmp_path):
    cache = ResultCache(str(tmp_path))
    _fill(cache, 2)
    shard = tmp_path / "00"
    stale, fresh = shard / ".stale.x.tmp", shard / ".fresh.x.tmp"
    stale.write_text('{"schema": ')
    fresh.write_text('{"schema": ')
    old = time.time() - 3600
    os.utime(stale, (old, old))

    cache.evict(EvictionPolicy(max_entries=100, floor_seconds=60.0))
    assert not stale.exists()
    assert fresh.exists()                     # a live writer's, perhaps
    assert set(cache.load_index()) == {_key(0), _key(1)}


_WRITER = """
import sys
from repro.harness.parallel import ResultCache
cache = ResultCache(sys.argv[1])
doc = {"execution_cycles": 1, "pad": "x" * 200_000}
i = 0
while True:
    cache.put(f"{i % 64:064x}", dict(doc, execution_cycles=i))
    i += 1
"""


def test_kill_9_mid_put_leaves_a_store_that_reads_and_evicts_clean(
        tmp_path):
    """A writer SIGKILLed while looping ``put``: every listed entry is
    a whole document, and one eviction pass leaves no file behind."""
    root = tmp_path / "store"
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
        + env.get("PYTHONPATH", "")
    proc = subprocess.Popen([sys.executable, "-c", _WRITER, str(root)],
                            env=env)
    try:
        cache = ResultCache(str(root))
        deadline = time.monotonic() + 10.0
        while len(cache.load_index()) < 16 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGKILL

    index = cache.load_index()
    assert len(index) >= 16
    for key in index:
        doc = cache.get(key)
        assert doc is not None and len(doc["pad"]) == 200_000
    cache.evict(EvictionPolicy(max_entries=0, floor_seconds=0.0))
    assert glob.glob(os.path.join(str(root), "??", "*.json")) == []
    assert _temp_files(root) == []
