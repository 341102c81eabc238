"""Maintained invalidation state must equal what a rescan would compute.

``PageView.pending`` (bit w set iff ``notified[w] > applied[w]``)
replaced per-query recomputation, and the run's one ``IntervalStore``
replaced each node's own copy of the records it learned.  These
tests pin the replacement to the old from-scratch definitions -- in
order, since ``pending_writers()`` order feeds diff-request issue order
-- and make the O(writers) rescan impossible to reintroduce unnoticed.
"""

import collections
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.aurc import AurcPage
from repro.dsm.compact import NodeIntMap
from repro.dsm.diffs import DiffRecord
from repro.dsm.page import TmPage
from repro.dsm.timestamps import IntervalLog, IntervalRecord, IntervalStore
from repro.faults import FaultPlan, FaultSpec
from repro.harness import runner
from repro.harness.bench import config_for
from repro.harness.experiments import APP_FACTORIES, quick_sizes, scaled_app

WORDS = 8


def rescan(page):
    """The definition the maintained state replaced."""
    return [w for w, n in page.notified.items()
            if n > page.applied.get(w, 0)]


def assert_matches_rescan(page):
    expected = rescan(page)
    assert page.pending_writers() == expected
    assert page.is_valid() == (page.frame is not None and not expected)
    assert page.pending == sum(1 << w for w in expected)


def _diff(writer, from_id, to_id):
    return DiffRecord(writer=writer, page=0, from_id=from_id, to_id=to_id,
                      indices=np.array([1], dtype=np.int32),
                      values=np.array([float(to_id)]))


# Few distinct writers and small ids, so sequences revisit a writer with
# equal and decreasing ids; 300 exercises multi-word bitsets.
writers = st.sampled_from([0, 1, 2, 63, 64, 65, 255, 300])
ids = st.integers(0, 6)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("notice"), writers, ids),
        st.tuples(st.just("applied"), writers, ids),
        st.tuples(st.just("incoming"), writers, ids),
        st.tuples(st.just("snapshot"),
                  st.dictionaries(writers, ids, max_size=4)),
        st.tuples(st.just("frame"), st.booleans()),
    ),
    max_size=40)


@pytest.mark.parametrize("cls", [TmPage, AurcPage])
@given(steps=steps)
@settings(max_examples=150, deadline=None)
def test_pending_matches_rescan_after_every_step(cls, steps):
    page = cls(0, WORDS)
    for step in steps:
        kind = step[0]
        if kind == "notice":
            was_valid = page.is_valid()
            extra = (step[1], 1) if cls is AurcPage else ()
            newly = page.record_notice(step[1], step[2], *extra)
            assert newly == (was_valid and bool(rescan(page)))
        elif kind == "applied":
            page.mark_applied(step[1], step[2])
        elif kind == "incoming" and cls is TmPage:
            page.apply_incoming(_diff(step[1], 0, step[2]))
        elif kind == "snapshot":
            page.adopt_snapshot(step[1])
        elif kind == "frame":
            # AURC drops a replaced node's copy; both install fetched ones.
            page.frame = np.zeros(WORDS) if step[1] else None
        assert_matches_rescan(page)


def test_aurc_notice_stamps_follow_the_notified_watermark():
    page = AurcPage(0, WORDS)
    page.record_notice(5, 3, 9, 40)
    page.record_notice(5, 2, 9, 99)  # stale: must not replace the stamp
    assert page.pending_stamps == {5: (3, 9, 40)}
    page.record_notice(5, 4, 7, 41)
    assert page.pending_stamps == {5: (4, 7, 41)}


@pytest.mark.parametrize("cls", [TmPage, AurcPage])
def test_hot_path_never_iterates_the_watermark_maps(cls, monkeypatch):
    """record_notice / mark_applied / is_valid on a page with 200
    notified writers touch one writer's entries, never the whole map."""
    page = cls(0, WORDS)
    page.ensure_frame()
    extra = (0, 1) if cls is AurcPage else ()
    for w in range(200):
        page.record_notice(w, 1, *extra)

    def boom(self):
        raise AssertionError("watermark map rescanned on the hot path")

    for name in ("items", "keys", "values", "__iter__", "as_dict"):
        monkeypatch.setattr(NodeIntMap, name, boom)
    assert not page.is_valid()
    assert page.record_notice(7, 2, *extra) is False
    for w in range(200):
        page.mark_applied(w, 2)
        assert page.is_valid() == (w == 199)
    assert page.record_notice(3, 5, *extra) is True
    assert not page.is_valid()
    monkeypatch.undo()
    assert page.pending_writers() == [3]


def test_state_nbytes_counts_the_pending_word():
    page = TmPage(0, WORDS)
    page.record_notice(300, 1)
    assert page.state_nbytes() == (
        page.applied.nbytes() + page.notified.nbytes()
        + page.copyset.nbytes() + sys.getsizeof(page.pending))
    assert sys.getsizeof(page.pending) > sys.getsizeof(0)


# -- the interval store against the per-node dict log it replaced ----------

class _DictLog:
    """One node's own copy of every record it learned: the oracle."""

    def __init__(self, n_procs):
        self.n_procs = n_procs
        self.by_writer = [{} for _ in range(n_procs)]

    def add(self, record):
        slot = self.by_writer[record.writer]
        if record.interval_id in slot:
            return False
        slot[record.interval_id] = record
        return True

    def records_after(self, writer, after_id):
        slot = self.by_writer[writer]
        return [slot[i] for i in sorted(slot) if i > after_id]

    def records_behind(self, clock):
        out = []
        for writer in range(self.n_procs):
            out.extend(self.records_after(writer, clock[writer]))
        return out

    def count(self):
        return sum(len(slot) for slot in self.by_writer)


def _same_records(got, want):
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


N_LOG = 4
nodes = st.integers(0, N_LOG - 1)
lags = st.lists(st.integers(0, 3), min_size=N_LOG, max_size=N_LOG)
log_ops = st.lists(
    st.one_of(
        # node closes an interval, ``gap`` ids past its last one (ids
        # skip where an interval wrote nothing)
        st.tuples(st.just("close"), nodes, st.integers(1, 3)),
        # sender ships its records behind the receiver's knowledge,
        # backed off by ``lag`` per writer, as grants and barriers do
        st.tuples(st.just("ship"), nodes, nodes, lags),
        st.tuples(st.just("after"), nodes, nodes, st.integers(0, 13)),
        st.tuples(st.just("behind"), nodes,
                  st.lists(st.integers(0, 13), min_size=N_LOG,
                           max_size=N_LOG)),
    ),
    max_size=60)


@given(ops=log_ops)
@settings(max_examples=150, deadline=None)
def test_interval_log_matches_dict_model(ops):
    """Writers fill the one store at interval close and nodes learn
    per-writer prefixes; every node's view answers exactly as its own
    dict of learned records would (same record objects, same order)."""
    store = IntervalStore(N_LOG)
    logs = [IntervalLog(store) for _ in range(N_LOG)]
    models = [_DictLog(N_LOG) for _ in range(N_LOG)]
    last_id = [0] * N_LOG
    for op in ops:
        if op[0] == "close":
            node, gap = op[1], op[2]
            last_id[node] += gap
            record = IntervalRecord(writer=node, interval_id=last_id[node],
                                    pages=(0,))
            logs[node].publish(record)
            assert models[node].add(record)
        elif op[0] == "ship":
            src, dst, lag = op[1], op[2], op[3]
            clock = [max(0, known - back)
                     for known, back in zip(logs[dst].known, lag)]
            payload = logs[src].records_behind(clock)
            _same_records(payload, models[src].records_behind(clock))
            for record in payload:
                assert logs[dst].add(record) == models[dst].add(record)
        elif op[0] == "after":
            node, writer, after_id = op[1], op[2], op[3]
            _same_records(logs[node].records_after(writer, after_id),
                          models[node].records_after(writer, after_id))
        else:
            node, clock = op[1], op[2]
            _same_records(logs[node].records_behind(clock),
                          models[node].records_behind(clock))
    for log, model in zip(logs, models):
        assert log.count() == model.count()


def test_interval_log_queries_return_fresh_lists():
    store = IntervalStore(2)
    log = IntervalLog(store)
    log.publish(IntervalRecord(writer=0, interval_id=1, pages=(0,)))
    log.records_after(0, 0).clear()
    log.records_after(1, 0).append(None)
    log.records_behind((0, 0)).clear()
    assert len(log.records_after(0, 0)) == 1
    assert log.records_after(1, 0) == []
    assert len(store.records[0]) == 1


# One reference dict log per node, fed every ``publish``/``add`` the
# protocol makes; each store-backed answer is checked against it.
RECORDED_RUNS = [
    ("Water", "Base", None),
    ("Water", "I+P+D", None),
    ("Water", "aurc", None),
    ("Water", "aurc+prefetch", None),
    ("Em3d", "I+P+D", None),
    ("Em3d", "aurc", None),
    ("Water", "I+P+D", 1),   # under the chaos fault spec, seed 1
]


@pytest.mark.parametrize("app_name,protocol,fault_seed", RECORDED_RUNS)
def test_store_matches_per_node_logs_in_a_run(app_name, protocol,
                                              fault_seed, monkeypatch):
    models = {}
    calls = collections.Counter()

    def model_of(log):
        if log not in models:
            models[log] = _DictLog(len(log.known))
        return models[log]

    def recorded(name, model_name, check):
        original = getattr(IntervalLog, name)

        def wrapper(self, *args):
            got = original(self, *args)
            calls[name] += 1
            check(got, getattr(model_of(self), model_name)(*args))
            return got
        monkeypatch.setattr(IntervalLog, name, wrapper)

    def published(got, want):
        assert want  # a closed interval is new to its writer

    def learned(got, want):
        assert got == want

    recorded("publish", "add", published)
    recorded("add", "add", learned)
    recorded("records_after", "records_after", _same_records)
    recorded("records_behind", "records_behind", _same_records)
    faults = (FaultPlan(seed=fault_seed, spec=FaultSpec.chaos())
              if fault_seed is not None else None)
    result = runner.run_app(scaled_app(app_name, 8, quick=True),
                            config_for(protocol), verify=True,
                            faults=faults)
    assert result.verified
    assert calls["publish"] and calls["add"] and calls["records_behind"]
    # Every close goes to the one store and every learned record is in it.
    (store,) = {log.store for log in models}
    assert sum(map(len, store.records)) == calls["publish"]
    for log, model in models.items():
        assert log.count() == model.count()


# -- whole runs ---------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["I+P+D", "aurc+prefetch"])
def test_pending_matches_rescan_after_a_16_node_run(protocol, monkeypatch):
    built = []
    build = runner._build_protocol

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner, "_build_protocol", spy)
    app = APP_FACTORIES["Em3d"](16, **quick_sizes("Em3d"))
    result = runner.run_app(app, config_for(protocol), verify=True)
    assert result.verified
    (proto,) = built
    pages = [page for state in proto.states
             for page in state.pages.values()]
    assert len(pages) > 16
    assert any(page.notified for page in pages)
    for page in pages:
        assert_matches_rescan(page)
