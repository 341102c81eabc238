"""Cache, write-buffer, and TLB model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import DirectMappedCache, WriteBuffer
from repro.hardware.params import MachineParams
from repro.hardware.tlb import Tlb


@pytest.fixture
def params():
    return MachineParams()


# -- cache ------------------------------------------------------------------

def test_cold_access_misses_then_hits(params):
    cache = DirectMappedCache(params)
    first = cache.access_range(0, 8)
    assert (first.hits, first.misses) == (0, 1)
    again = cache.access_range(0, 8)
    assert (again.hits, again.misses) == (1, 0)
    assert again.fill_cycles == 0


def test_range_spans_multiple_lines(params):
    cache = DirectMappedCache(params)
    res = cache.access_range(0, 64)  # 64 words = 8 lines of 8 words
    assert res.misses == 8
    assert res.hits == 0
    res2 = cache.access_range(4, 32)  # straddles lines 0..4
    assert res2.hits == 5
    assert res2.misses == 0


def test_fill_cycles_model(params):
    cache = DirectMappedCache(params)
    res = cache.access_range(0, 16)  # two lines miss
    expected = 2 * (10 + 8 * 3)  # per-miss setup + line stream
    assert res.fill_cycles == expected


def test_conflict_eviction(params):
    cache = DirectMappedCache(params)
    cache.access_range(0, 8)
    # Same index, different tag: cache_lines * words_per_line words away.
    conflict_addr = params.cache_lines * params.words_per_line
    cache.access_range(conflict_addr, 8)
    res = cache.access_range(0, 8)
    assert res.misses == 1  # original line was evicted


def test_invalidate_range(params):
    cache = DirectMappedCache(params)
    cache.access_range(0, 1024)
    dropped = cache.invalidate_range(0, 1024)
    assert dropped == 128  # 4KB page = 128 lines
    res = cache.access_range(0, 8)
    assert res.misses == 1


def test_invalidate_only_matching_tags(params):
    cache = DirectMappedCache(params)
    cache.access_range(0, 8)
    dropped = cache.invalidate_range(params.cache_lines * 8, 8)
    assert dropped == 0
    assert cache.access_range(0, 8).hits == 1


def test_zero_word_access(params):
    cache = DirectMappedCache(params)
    res = cache.access_range(0, 0)
    assert (res.hits, res.misses, res.fill_cycles) == (0, 0, 0.0)


def test_miss_rate_statistics(params):
    cache = DirectMappedCache(params)
    cache.access_range(0, 8)
    cache.access_range(0, 8)
    assert cache.miss_rate() == pytest.approx(0.5)
    cache.flush()
    assert cache.access_range(0, 8).misses == 1


class DenseCache:
    """The tag model the on-demand list replaced: one full-size list."""

    def __init__(self, params):
        self.n_lines = params.cache_lines
        self.wpl = params.words_per_line
        self.tags = [-1] * self.n_lines
        self.hits = self.misses = self.invalidations = 0

    def lines(self, word_addr, nwords):
        if nwords <= 0:
            return range(0)
        return range(word_addr // self.wpl,
                     (word_addr + nwords - 1) // self.wpl + 1)

    def access_range(self, word_addr, nwords):
        misses = 0
        lines = self.lines(word_addr, nwords)
        for line in lines:
            if self.tags[line % self.n_lines] != line:
                misses += 1
                self.tags[line % self.n_lines] = line
        self.hits += len(lines) - misses
        self.misses += misses
        return len(lines) - misses, misses

    def invalidate_range(self, word_addr, nwords):
        count = 0
        for line in self.lines(word_addr, nwords):
            if self.tags[line % self.n_lines] == line:
                count += 1
                self.tags[line % self.n_lines] = -1
        self.invalidations += count
        return count


# A 64-line cache, so ranges wrap past ``cache_lines`` and invalidations
# reach past the grown list; addresses run to three cache sizes.
SMALL = MachineParams(cache_size_bytes=64 * 32)
cache_ops = st.lists(st.tuples(
    st.sampled_from(["access", "invalidate"]),
    st.integers(0, 3 * 64 * 8), st.integers(0, 100)), max_size=40)


@given(ops=cache_ops)
@settings(max_examples=300, deadline=None)
def test_grown_tags_match_the_dense_list(ops):
    cache, dense = DirectMappedCache(SMALL), DenseCache(SMALL)
    assert cache.n_lines == 64
    highest = -1
    for kind, addr, nwords in ops:
        if kind == "access":
            res = cache.access_range(addr, nwords)
            assert (res.hits, res.misses) == dense.access_range(addr, nwords)
            assert res.fill_cycles == res.misses * cache._fill_per_miss
            if nwords > 0:
                highest = max(highest, (addr + nwords - 1) // 8)
        else:
            assert (cache.invalidate_range(addr, nwords)
                    == dense.invalidate_range(addr, nwords))
        assert len(cache._tags) == min(cache.n_lines, highest + 1)
        assert cache._tags == dense.tags[:len(cache._tags)]
        assert set(dense.tags[len(cache._tags):]) <= {-1}
    assert ((cache.hits, cache.misses, cache.invalidations)
            == (dense.hits, dense.misses, dense.invalidations))


# -- write buffer -------------------------------------------------------------

def test_small_burst_absorbed(params):
    wb = WriteBuffer(params)
    assert wb.write_burst(4) == 0.0


def test_long_burst_stalls(params):
    wb = WriteBuffer(params)
    stall = wb.write_burst(100)
    # (100 - 4) words * (3 - 1) cycles behind
    assert stall == pytest.approx(96 * 2)
    assert wb.stall_cycles_total == stall
    assert wb.words_written == 100


def test_zero_write_burst(params):
    wb = WriteBuffer(params)
    assert wb.write_burst(0) == 0.0


# -- TLB ----------------------------------------------------------------------

def test_tlb_hit_after_fill(params):
    tlb = Tlb(params)
    assert tlb.touch(5) is False
    assert tlb.touch(5) is True
    assert tlb.misses == 1
    assert tlb.hits == 1


def test_tlb_lru_eviction(params):
    tlb = Tlb(params)
    for page in range(params.tlb_entries):
        tlb.touch(page)
    tlb.touch(0)  # refresh page 0
    tlb.touch(9999)  # evicts page 1 (LRU)
    assert tlb.touch(0) is True
    assert tlb.touch(1) is False


def test_tlb_invalidate(params):
    tlb = Tlb(params)
    tlb.touch(7)
    tlb.invalidate(7)
    assert tlb.touch(7) is False


def test_tlb_miss_rate(params):
    tlb = Tlb(params)
    tlb.touch(1)
    tlb.touch(1)
    tlb.touch(2)
    assert tlb.miss_rate() == pytest.approx(2 / 3)
