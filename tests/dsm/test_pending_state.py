"""Maintained invalidation state must equal what a rescan would compute.

``PageView.pending`` (bit w set iff ``notified[w] > applied[w]``)
replaced per-query recomputation, the run's one ``IntervalStore``
replaced each node's own copy of the records it learned, and AURC's
fetches read flush stamps from that store instead of a per-page stamp
dict.  These tests pin each replacement to the old definitions -- in
order, since ``pending_writers()`` order feeds diff-request issue order
-- and make the O(writers) rescan impossible to reintroduce unnoticed.
"""

import collections
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.audit import CoherenceAuditor
from repro.dsm.aurc import PAIRWISE, AurcIntervalRecord, AurcPage
from repro.dsm.compact import NodeIntMap
from repro.dsm.diffs import DiffRecord
from repro.dsm.page import PageView, TmPage
from repro.dsm.timestamps import IntervalLog, IntervalRecord, IntervalStore
from repro.faults import FaultPlan, FaultSpec
from repro.harness import runner
from repro.harness.bench import config_for
from repro.harness.experiments import (
    APP_FACTORIES,
    APP_ORDER,
    quick_sizes,
    scaled_app,
)

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
            newly = page.record_notice(step[1], step[2])
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


class _CallLog:
    """A stand-in audit adapter recording every call in order."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, args))


def _page_state(page):
    return (list(page.applied.items()), list(page.notified.items()),
            page.pending, page.is_valid(), page.audit.calls)


@pytest.mark.parametrize("cls", [TmPage, AurcPage])
@given(history=st.lists(st.tuples(st.sampled_from(["notice", "applied"]),
                                  writers, ids), max_size=30),
       pairs=st.lists(st.tuples(writers, ids), max_size=30),
       framed=st.booleans(), snapshot=st.booleans())
@settings(max_examples=200, deadline=None)
def test_bulk_merge_equals_a_mark_applied_loop(cls, history, pairs,
                                               framed, snapshot):
    """``mark_applied_many`` (and ``adopt_snapshot`` with covered pairs,
    which goes through it) leaves the same id order, watermarks,
    pending bits and audit call sequence as one ``mark_applied`` per
    pair -- including repeated writers, falling ids and writers no
    notice named."""
    pages = []
    for _ in range(2):
        page = cls(0, WORDS, audit=_CallLog())
        if framed:
            page.ensure_frame()
        for kind, writer, interval_id in history:
            if kind == "notice":
                page.record_notice(writer, interval_id)
            else:
                page.mark_applied(writer, interval_id)
        pages.append(page)
    bulk, loop = pages
    if snapshot:
        # A snapshot's keys are unique; the rest of the pairs are the
        # install's covered notices.
        versions = dict(pairs[:len(pairs) // 2])
        covered = pairs[len(pairs) // 2:]
        bulk.adopt_snapshot(versions, covered)
        loop.audit.installed(0, versions)
        for writer, through_id in [*versions.items(), *covered]:
            loop.mark_applied(writer, through_id)
    else:
        bulk.mark_applied_many(pairs)
        for writer, through_id in pairs:
            loop.mark_applied(writer, through_id)
    assert _page_state(bulk) == _page_state(loop)
    assert_matches_rescan(bulk)


def _stamped(writer, interval_id, dst, seq, page=0):
    return AurcIntervalRecord(writer=writer, interval_id=interval_id,
                              pages=(page,), stamps={page: (dst, seq)})


def test_aurc_notice_stamps_follow_the_notified_watermark():
    """A fetch reads each pending writer's stamp from the record of its
    newest notice: a stale notice never wins over a newer one."""
    store = IntervalStore(10)
    for record in (_stamped(5, 2, 9, 99), _stamped(5, 3, 9, 40),
                   _stamped(5, 4, 7, 41), _stamped(6, 1, 9, 0)):
        store.add(record)
    page = AurcPage(0, WORDS)
    page.record_notice(5, 3)
    page.record_notice(5, 2)  # stale: the watermark stays at 3
    assert page.begin_fetch(9, store) == ({5: 40}, {5: 3})
    assert page.landed is not None and not page.landed.any()
    page.record_notice(5, 4)
    page.record_notice(6, 1)  # seq 0: nothing to drain
    assert page.begin_fetch(9, store) == ({}, {5: 4, 6: 1})
    assert page.begin_fetch(7, store) == ({5: 41}, {5: 4, 6: 1})
    page.mark_applied(5, 4)  # covered writers are not asked for
    assert page.begin_fetch(7, store) == ({}, {6: 1})


def test_own_update_notice_never_invalidates(make_rig, monkeypatch):
    """A notice whose updates flow to the merging node (here its pair
    partner's writes) is applied before it is recorded: the page stays
    valid and the audit counts no invalidation."""
    rig = make_rig(protocol_kind="aurc", n=2)
    auditor = CoherenceAuditor(rig.sim)
    rig.protocol.attach_audit(auditor)
    base = rig.alloc("a", 8)
    page = base // rig.params.words_per_page
    store = rig.protocol.intervals
    seen = []
    record_notice = PageView.record_notice

    def spy(self, writer, interval_id):
        dst, _seq = store.record(writer, interval_id).stamps[self.page]
        before = auditor.page_stats(self.page).get("invalidations", 0)
        was_valid = self.is_valid()
        newly = record_notice(self, writer, interval_id)
        if dst == self.audit.node:
            after = auditor.page_stats(self.page).get("invalidations", 0)
            seen.append((was_valid, newly, self.is_valid(), after - before))
        return newly

    monkeypatch.setattr(PageView, "record_notice", spy)

    def w0(api):
        for i in range(5):
            yield from api.acquire(0)
            yield from api.write(base, float(i + 1))
            yield from api.release(0)
        yield from api.barrier(0)

    def w1(api):
        yield from api.read1(base)  # joins sharing -> pairwise
        for _ in range(5):
            yield from api.acquire(0)
            yield from api.read1(base)
            yield from api.release(0)
        yield from api.barrier(0)

    rig.run_workers(w0(rig.apis[0]), w1(rig.apis[1]))
    assert rig.protocol.directory[page].mode == PAIRWISE
    assert auditor.ok
    assert seen and any(was_valid for was_valid, *_ in seen)
    for was_valid, newly, valid, added in seen:
        assert not newly and added == 0 and valid == was_valid


@pytest.mark.parametrize("cls", [TmPage, AurcPage])
def test_hot_path_never_iterates_the_watermark_maps(cls, monkeypatch):
    """record_notice / mark_applied / is_valid on a page with 200
    notified writers touch one writer's entries, never the whole map."""
    page = cls(0, WORDS)
    page.ensure_frame()
    for w in range(200):
        page.record_notice(w, 1)

    def boom(self):
        raise AssertionError("watermark map rescanned on the hot path")

    for name in ("items", "keys", "values", "__iter__", "as_dict"):
        monkeypatch.setattr(NodeIntMap, name, boom)
    assert not page.is_valid()
    assert page.record_notice(7, 2) is False
    for w in range(200):
        page.mark_applied(w, 2)
        assert page.is_valid() == (w == 199)
    assert page.record_notice(3, 5) is True
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
        st.tuples(st.just("record"), nodes, st.integers(0, 13)),
    ),
    max_size=60)


@given(ops=log_ops)
@settings(max_examples=150, deadline=None)
def test_interval_log_matches_dict_model(ops):
    """Writers fill the one store at interval close and nodes learn
    per-writer prefixes; every node's view answers exactly as its own
    dict of learned records would (same record objects, same order),
    and the store finds each writer's record by id."""
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
        elif op[0] == "record":
            # A writer's own model holds every record it closed.
            writer, interval_id = op[1], op[2]
            want = models[writer].by_writer[writer].get(interval_id)
            if want is None:
                with pytest.raises(KeyError):
                    store.record(writer, interval_id)
            else:
                assert store.record(writer, interval_id) is want
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


# The deleted per-page stamp dict, ``pending_stamps``, as the model of
# every ``begin_fetch`` answer: writer -> (interval, dst, seq) of the
# notice that last raised ``notified``, stamps copied at interval close.
@pytest.mark.parametrize("protocol", ["aurc", "aurc+prefetch"])
@pytest.mark.parametrize("app_name", APP_ORDER)
def test_begin_fetch_matches_the_stamp_dict_in_a_run(app_name, protocol,
                                                     monkeypatch):
    stamps_of = {}
    models = collections.defaultdict(dict)
    answers = collections.Counter()
    publish = IntervalLog.publish
    record_notice = PageView.record_notice
    begin_fetch = AurcPage.begin_fetch

    def published(self, record):
        stamps_of[record.writer, record.interval_id] = dict(record.stamps)
        publish(self, record)

    def noticed(self, writer, interval_id):
        raised = interval_id > self.notified.get(writer, 0)
        newly = record_notice(self, writer, interval_id)
        if raised:
            dst, seq = stamps_of[writer, interval_id][self.page]
            models[self][writer] = (interval_id, dst, seq)
        return newly

    def fetching(self, authority, store):
        got = begin_fetch(self, authority, store)
        pending = {w: stamp for w, stamp in models[self].items()
                   if (self.pending >> w) & 1}
        assert got == (
            {w: seq for w, (_i, dst, seq) in pending.items()
             if dst == authority and seq},
            {w: interval for w, (interval, _d, _s) in pending.items()})
        answers["fetch"] += 1
        answers["covers"] += bool(got[1])
        answers["waits"] += bool(got[0])
        return got

    monkeypatch.setattr(IntervalLog, "publish", published)
    monkeypatch.setattr(PageView, "record_notice", noticed)
    monkeypatch.setattr(AurcPage, "begin_fetch", fetching)
    result = runner.run_app(scaled_app(app_name, 4, quick=True),
                            config_for(protocol), verify=True)
    assert result.verified
    assert answers["fetch"] and answers["covers"] and answers["waits"]


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
