"""Unit tests for vector clocks, the interval store, diffs, and page state."""

import numpy as np
import pytest

from repro.dsm.diffs import DiffRecord, apply_diff, apply_order, \
    diff_from_mask
from repro.dsm.overlap import ALL_MODES, BASE, ID, OverlapMode, mode_by_name
from repro.dsm.page import TmPage
from repro.dsm.shmem import SharedSegment
from repro.dsm.timestamps import (IntervalLog, IntervalRecord, IntervalStore,
                                   VectorClock)
from repro.hardware.params import MachineParams


# -- vector clocks -----------------------------------------------------------

def test_vector_clock_advance_and_merge():
    a = VectorClock(3)
    b = VectorClock(3)
    a.advance(0)
    a.advance(0)
    b.advance(1)
    a.merge(b)
    assert a.as_tuple() == (2, 1, 0)


def test_vector_clock_merges_a_message_tuple():
    a = VectorClock(values=[2, 0, 1])
    a.merge((1, 3, 1))
    assert a.as_tuple() == (2, 3, 1)
    assert list(a) == [2, 3, 1]


def test_vector_clock_dominates():
    a = VectorClock(values=[2, 1, 0])
    b = VectorClock(values=[1, 1, 0])
    assert a.dominates(b)
    assert not b.dominates(a)
    assert a.dominates(a.copy())


def test_vector_clock_never_decreases():
    a = VectorClock(3)
    a[1] = 5
    with pytest.raises(ValueError):
        a[1] = 3


def test_vector_clock_equality():
    assert VectorClock(values=[1, 2]) == VectorClock(values=[1, 2])
    assert VectorClock(values=[1, 2]) != VectorClock(values=[2, 1])


# -- interval store and per-node logs ----------------------------------------

def _rec(writer, iid, pages=(1,), vc=()):
    return IntervalRecord(writer=writer, interval_id=iid,
                          pages=tuple(pages), vc=vc)


def _store(n, *records):
    """A store filled as writers close intervals: in id order."""
    store = IntervalStore(n)
    for record in records:
        store.add(record)
    return store


def test_interval_log_add_is_idempotent():
    record = _rec(0, 1)
    log = IntervalLog(_store(2, record))
    assert log.count() == 0
    assert log.add(record)
    assert not log.add(record)
    assert log.count() == 1


def test_records_after_sorted_and_filtered():
    # Ids may skip (an interval that wrote nothing has no record); a log
    # knows a prefix of each writer, so learning id 4 covers 1, 2, 4.
    records = [_rec(0, iid) for iid in (1, 2, 4, 5)]
    store = _store(2, *records)
    log = IntervalLog(store)
    log.add(records[2])
    assert [r.interval_id for r in log.records_after(0, 1)] == [2, 4]
    assert log.records_after(0, 4) == []
    assert log.records_after(1, 0) == []
    assert log.count() == 3
    with pytest.raises(ValueError):
        store.add(_rec(0, 3))  # a writer closes intervals in order


def test_records_behind_vector_clock():
    store = _store(2, _rec(0, 1), _rec(0, 2), _rec(1, 1))
    log = IntervalLog(store)
    log.add(_rec(0, 2))
    log.add(_rec(1, 1))
    for clock in ((1, 0), VectorClock(values=[1, 0])):
        behind = log.records_behind(clock)
        assert {(r.writer, r.interval_id) for r in behind} == {(0, 2),
                                                               (1, 1)}


def test_publish_appends_to_the_one_store():
    store = IntervalStore(2)
    writer, reader = IntervalLog(store), IntervalLog(store)
    record = _rec(1, 3)
    writer.publish(record)
    assert store.records[1] == [record] and writer.known == [0, 3]
    assert reader.records_behind((0, 0)) == []  # not learned yet
    assert reader.add(record)
    assert reader.records_behind((0, 0)) == [record]


# -- diffs --------------------------------------------------------------------

def test_diff_from_mask_captures_dirty_words():
    frame = np.arange(16, dtype=np.float64)
    mask = np.zeros(16, dtype=bool)
    mask[[3, 7]] = True
    diff = diff_from_mask(0, 5, 0, 1, mask, frame)
    assert list(diff.indices) == [3, 7]
    assert list(diff.values) == [3.0, 7.0]
    assert diff.dirty_words == 2


def test_apply_diff_scatters():
    frame = np.zeros(16)
    diff = DiffRecord(writer=1, page=0, from_id=0, to_id=1,
                      indices=np.array([2, 5], dtype=np.int32),
                      values=np.array([9.0, 8.0]))
    apply_diff(frame, diff)
    assert frame[2] == 9.0 and frame[5] == 8.0
    assert frame.sum() == 17.0


def test_diff_size_bytes_includes_bitvector():
    diff = DiffRecord(writer=0, page=0, from_id=0, to_id=1,
                      indices=np.arange(10, dtype=np.int32),
                      values=np.zeros(10))
    # 1024-word page -> 128-byte bit vector + 10 words of 4 bytes.
    assert diff.size_bytes(4, 1024) == 128 + 40


def test_apply_order_respects_dominance():
    early = DiffRecord(writer=0, page=0, from_id=0, to_id=1,
                       indices=np.array([0], dtype=np.int32),
                       values=np.array([1.0]), to_vc=(1, 0))
    late = DiffRecord(writer=1, page=0, from_id=0, to_id=1,
                      indices=np.array([0], dtype=np.int32),
                      values=np.array([2.0]), to_vc=(1, 1))
    assert apply_order([late, early]) == [early, late]


# -- TmPage -------------------------------------------------------------------

@pytest.fixture
def page():
    return TmPage(page=0, words=64)


def test_page_invalid_until_framed(page):
    assert not page.is_valid()
    page.ensure_frame()
    assert page.is_valid()


def test_notice_invalidates_until_applied(page):
    page.ensure_frame()
    assert page.record_notice(writer=1, interval_id=3) is True
    assert page.pending_writers() == [1]
    page.mark_applied(1, 3)
    assert page.is_valid()


def test_notice_for_already_applied_interval_keeps_valid(page):
    page.ensure_frame()
    page.mark_applied(1, 5)
    assert page.record_notice(1, 4) is False
    assert page.is_valid()


def test_close_interval_pins_exact_diff(page):
    page.arm_write_collection()
    page.record_write(0, 2, np.array([1.0, 2.0]))
    assert page.close_interval(1, writer=0, vc=(1,)) is True
    # Later writes must not leak into the pinned diff.
    page.arm_write_collection()
    page.record_write(0, 1, np.array([99.0]))
    diff = page.diff_store[0]
    assert list(diff.values) == [1.0, 2.0]
    assert diff.to_id == 1


def test_close_interval_without_writes_is_noop(page):
    assert page.close_interval(1, writer=0) is False
    assert page.diff_store == []


def test_materialize_charges_each_diff_once(page):
    page.arm_write_collection()
    page.record_write(0, 1, np.array([1.0]))
    page.close_interval(1, writer=0)
    diffs = page.diffs_after(0)
    assert page.materialize(diffs) == diffs
    assert page.materialize(diffs) == []


def test_diffs_after_filters_by_to_id(page):
    for interval in (1, 2, 3):
        page.arm_write_collection()
        page.record_write(interval, 1, np.array([float(interval)]))
        page.close_interval(interval, writer=0)
    assert len(page.diffs_after(0)) == 3
    assert len(page.diffs_after(2)) == 1
    assert page.diffs_after(3) == []


def test_apply_incoming_protects_local_dirty_words(page):
    page.ensure_frame()
    page.arm_write_collection()
    page.record_write(0, 1, np.array([42.0]))  # local open write to word 0
    diff = DiffRecord(writer=1, page=0, from_id=0, to_id=1,
                      indices=np.array([0, 1], dtype=np.int32),
                      values=np.array([-1.0, -2.0]))
    page.apply_incoming(diff)
    assert page.frame[0] == 42.0   # local write survives
    assert page.frame[1] == -2.0   # non-conflicting word applied
    assert page.applied[1] == 1


def test_applied_snapshot_adoption(page):
    page.mark_applied(2, 7)
    other = TmPage(page=0, words=64)
    other.adopt_snapshot(page.applied_snapshot())
    assert other.applied[2] == 7


# -- overlap modes ------------------------------------------------------------

def test_mode_catalog():
    assert len(ALL_MODES) == 6
    assert mode_by_name("I+P+D").prefetch
    assert mode_by_name("I+P+D").hardware_diffs
    assert not BASE.uses_controller
    assert ID.uses_controller and not ID.uses_twins
    assert BASE.uses_twins


def test_hardware_diffs_require_offload():
    with pytest.raises(ValueError):
        OverlapMode("bad", offload=False, hardware_diffs=True)


def test_unknown_mode_name():
    with pytest.raises(ValueError):
        mode_by_name("Turbo")


# -- shared segment -----------------------------------------------------------

def test_segment_page_aligned_allocation():
    seg = SharedSegment(MachineParams())
    a = seg.alloc("a", 10)
    b = seg.alloc("b", 10)
    assert a == 0
    assert b == 1024  # next page
    assert seg.n_pages == 2
    assert seg.base_of("b") == 1024


def test_segment_unaligned_allocation():
    seg = SharedSegment(MachineParams())
    seg.alloc("a", 10, page_align=False)
    b = seg.alloc("b", 10, page_align=False)
    assert b == 10


def test_segment_rejects_duplicates_and_empty():
    seg = SharedSegment(MachineParams())
    seg.alloc("a", 1)
    with pytest.raises(ValueError):
        seg.alloc("a", 1)
    with pytest.raises(ValueError):
        seg.alloc("b", 0)
