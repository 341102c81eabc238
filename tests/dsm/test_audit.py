"""Unit tests for the coherence-state auditor (repro.dsm.audit).

The value check is driven with synthetic writes and reads: a stale read
must be reported with its node, page, word, value read and value
expected, and carry the recent-transition ring; a read whose last write
does not happen-before it must be skipped.  A corrupted read going
*undetected* is the failure mode these tests exist to catch.
"""

import numpy as np
import pytest

from repro.dsm.audit import (
    MAX_VIOLATIONS,
    RING_DEPTH,
    CoherenceAuditor,
    timeline_char,
)
from repro.dsm.timestamps import VectorClock

WORDS = 8  # words per page of the synthetic segment


def _auditor(n=2, pages=4):
    audit = CoherenceAuditor(sim=None)
    audit.track_words(pages * WORDS, WORDS)
    for node in range(n):
        audit.node_view(node).vc = VectorClock(n)
    return audit


def _stale_read(audit, node=1, page=2):
    """Node 0 writes 5.0 to word 3 of ``page`` and releases; ``node``
    acquires (its clock covers the interval) but reads 0.0."""
    audit.node_view(0).store(page, 3, np.array([5.0]))
    audit.nodes[0].vc.advance(0)
    audit.nodes[node].vc.merge(audit.nodes[0].vc)
    audit.node_view(node).read(page, 2, np.array([0.0, 0.0]))


# -- clean sequences stay clean -------------------------------------------


def test_legal_sequence_has_no_violations():
    audit = _auditor()
    w, r = audit.node_view(0), audit.node_view(1)
    w.store(1, 0, np.array([1.0, 2.0]))
    w.vc.advance(0)
    r.vc.merge(w.vc)
    r.read(1, 0, np.array([1.0, 2.0]))
    # A never-written word reads 0.0.
    r.read(1, 2, np.array([0.0]))
    assert audit.ok
    assert audit.compared == 3


def test_read_without_happens_before_write_is_skipped():
    audit = _auditor()
    w, r = audit.node_view(0), audit.node_view(1)
    w.store(1, 0, np.array([7.0]))
    r.read(1, 0, np.array([0.0]))  # interval still open: concurrent
    w.vc.advance(0)
    r.read(1, 0, np.array([0.0]))  # released, but not acquired by r
    assert audit.ok
    assert audit.compared == 0


def test_writer_own_read_is_always_compared():
    audit = _auditor()
    w = audit.node_view(0)
    w.store(3, 4, np.array([9.0]))
    w.read(3, 4, np.array([9.0]))
    assert audit.ok and audit.compared == 1
    w.read(3, 4, np.array([1.0]))
    assert audit.violation_count == 1
    assert audit.violations[0].writer == 0


# -- a stale read is detected and attributed -------------------------------


def test_stale_read_detected_with_word_attribution():
    audit = _auditor()
    audit.node_view(1).notice(2, 0, 1, newly_invalid=True)
    _stale_read(audit)
    assert audit.violation_count == 1
    v = audit.violations[0]
    assert (v.node, v.page, v.word) == (1, 2, 2 * WORDS + 3)
    assert (v.value, v.expected) == (0.0, 5.0)
    assert (v.writer, v.interval_id) == (0, 1)
    # The ring attached to the violation shows the preceding history.
    assert any("notice w0 i1" in entry for entry in v.recent)
    assert audit.compared == 2  # word 2 (never written) and word 3


# -- ring buffer, cap, timeline -------------------------------------------


def test_ring_holds_last_k_transitions():
    audit = _auditor()
    na = audit.node_view(1)
    for i in range(RING_DEPTH + 10):
        na.notice(2, 0, i + 1, newly_invalid=False)
    _stale_read(audit)
    v = audit.violations[0]
    assert len(v.recent) == RING_DEPTH
    # Oldest entries fell off; the newest notice is present.
    assert any(f"i{RING_DEPTH + 10}" in entry for entry in v.recent)
    assert not any("i1 " in entry for entry in v.recent)


def test_violation_records_capped_but_counted():
    audit = _auditor()
    for _ in range(MAX_VIOLATIONS + 20):
        _stale_read(audit)
    assert audit.violation_count == MAX_VIOLATIONS + 20
    assert len(audit.violations) == MAX_VIOLATIONS
    assert "more violations" in audit.format_summary()


def test_timeline_cells_and_glyph_priority():
    audit = _auditor()
    na = audit.node_view(1)
    na.notice(2, 0, 1, newly_invalid=False)
    audit.barrier_done(1)
    audit.barrier_release(1, 100)
    na.diff_applied(2, 0, 0, 1)
    cells = na.timeline[2]
    assert timeline_char(cells[0]) == "n"
    assert timeline_char(cells[1]) == "D"
    assert timeline_char(0) == "."
    # Violations outrank everything else in the same cell.
    _stale_read(audit)
    assert timeline_char(na.timeline[2][1]) == "!"
    assert audit.barrier_releases == [(1, 100)]


# -- state digests --------------------------------------------------------


def test_state_digest_is_deterministic_and_sensitive():
    def build(extra_applied):
        audit = _auditor()
        na = audit.node_view(0)
        na.notice(1, 1, 1, newly_invalid=False)
        na.applied_through(1, 1, 1 + extra_applied)
        return audit

    a, b, c = build(0), build(0), build(1)
    assert a.state_digest() == b.state_digest()
    assert a.state_digest() != c.state_digest()
    assert a.applied_digest() != c.applied_digest()


def test_freeze_pins_digests_against_epilogue_events():
    audit = _auditor()
    na = audit.node_view(0)
    na.applied_through(1, 1, 1)
    audit.freeze()
    pinned = audit.final_digest()
    na.applied_through(1, 1, 5)  # post-freeze (epilogue) traffic
    assert audit.final_digest() == pinned
    assert audit.state_digest() != pinned


# -- prefetch classification ----------------------------------------------


def test_prefetch_token_classification():
    audit = _auditor()
    audit.prefetch(0, "issue", 5, tokens=[101, 102])
    audit.prefetch(0, "useless", 5)
    audit.prefetch(1, "issue", 5, tokens=[103])
    audit.prefetch(1, "hit", 5)
    audit.prefetch(2, "issue", 6, tokens=[104])
    audit.prefetch(2, "late", 6)
    assert audit.useless_prefetch_tokens == {101, 102}
    assert audit.useful_prefetch_tokens == {103}
    assert audit.late_prefetch_tokens == {104}
    assert (audit.prefetch_issued, audit.prefetch_useful,
            audit.prefetch_useless, audit.prefetch_late) == (3, 1, 1, 1)
    summary = audit.summary()
    assert summary["prefetch"]["useless_tokens"] == [101, 102]


def test_summary_and_format_summary_roundtrip():
    audit = _auditor()
    _stale_read(audit)
    summary = audit.summary()
    assert summary["violations"] == 1
    assert summary["violations_detail"][0]["word"] == 2 * WORDS + 3
    assert summary["compared_words"] == 2
    text = audit.format_summary()
    assert "FAILED" in text and "stale read" in text
    assert "(page 2) on node 1" in text
    assert "read 0.0, expected 5.0" in text


@pytest.mark.parametrize("kind", ["read", "write", "access"])
def test_fault_kinds_counted_in_page_table(kind):
    audit = _auditor()
    audit.node_view(0).fault(2, kind)
    table = audit.page_table()
    assert table[0]["page"] == 2
    assert table[0]["faults"] == 1
