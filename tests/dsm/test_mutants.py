"""Mutation score of the coherence sanitizer's value check.

Each mutant breaks one rule of LRC or AURC (paper sections 2-3) and is
applied by monkeypatch: either a wrapper, or a one-site edit of a
protocol method's source, recompiled in its module's namespace (the
edit asserts that its site still exists, so a refactor that moves the
site fails here instead of silently testing nothing).

A killable mutant comes with a minimal reproducer program in
``test_properties.py``'s op format; under the mutant, the value check
(:class:`~repro.dsm.audit.CoherenceAuditor`) must report a stale read.
The program first runs clean without the mutant, so the finding is the
mutant's.  A mutant no check kills is a strict xfail with its reason:
once a change lets the check see it (a timed AURC data plane for the
three AURC timing mutants), the test XPASSes and this table must be
updated, with DESIGN.md section 10's score table.
"""

import inspect
import itertools
import textwrap

import pytest

from repro.dsm import diffs, treadmarks
from repro.dsm.aurc import Aurc, AurcPage
from repro.dsm.page import TmPage
from repro.dsm.treadmarks import TreadMarks
from tests.dsm.test_properties import STALE_READ_PROGRAMS, execute_program


def _edit(monkeypatch, owner, name, old, new):
    """Install ``owner.name`` with ``old`` replaced by ``new`` in its
    (dedented) source."""
    fn = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{owner.__name__}.{name}: site moved"
    namespace = dict(fn.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn),
                 "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def _drop_every_third_notice(*classes):
    def apply(monkeypatch):
        calls = itertools.count(1)
        for cls in classes:
            def dropping(self, *args, _original=cls.record_notice):
                if next(calls) % 3 == 0:
                    return False
                return _original(self, *args)
            monkeypatch.setattr(cls, "record_notice", dropping)
    return apply


def _edit_site(owner, name, old, new):
    return lambda monkeypatch: _edit(monkeypatch, owner, name, old, new)


def _reverse_apply_order(monkeypatch):
    monkeypatch.setattr(treadmarks, "apply_order",
                        lambda ds: diffs.apply_order(ds)[::-1])


_AU_WAIT = "yield from node.nic.au_engine.wait_for(writer, seq)"

#: name -> how to apply it.
MUTANTS = {
    "drop-notice": _drop_every_third_notice(TmPage, AurcPage),
    "drop-notice-aurc": _drop_every_third_notice(AurcPage),
    "skip-earliest-diff": _edit_site(
        TreadMarks, "_serve_diff_request",
        "    fresh = tp.materialize(diffs)\n",
        "    diffs = diffs[1:] if len(diffs) > 1 else diffs\n"
        "    fresh = tp.materialize(diffs)\n"),
    "reverse-apply-order": _reverse_apply_order,
    "twin-unarmed": _edit_site(
        TmPage, "arm_write_collection",
        "self.write_active = True",
        "self.write_active = self.last_closed_id == 0"),
    "whole-frame-install": _edit_site(
        Aurc, "_install",
        "if ap.has_frame and ap.landed is not None:", "if False:"),
    "no-au-store": _edit_site(
        Aurc, "proc_write", ").write(offset, chunk)", ")"),
    "skip-fetch-drain": _edit_site(Aurc, "_serve_fetch", _AU_WAIT, "pass"),
    "skip-merge-wait": _edit_site(
        Aurc, "_merge_coherence_info", _AU_WAIT, "pass"),
    "install-marks-late-notices": _edit_site(
        Aurc, "_install", "ap.adopt_snapshot(reply.versions, covered.items())",
        "ap.adopt_snapshot(reply.versions, ap.notified.items())"),
    "flush-stamp-short": _edit_site(
        Aurc, "proc_write", "st.current_writes[page] = (dst, seq)",
        "st.current_writes[page] = (dst, seq - 1)"),
    "ignore-through-id": _edit_site(
        TreadMarks, "_serve_diff_request",
        "if d.to_id <= msg.through_id]", "if True]"),
    "apply-through-notified": _edit_site(
        TmPage, "apply_incoming",
        "self.mark_applied(diff.writer, diff.to_id)",
        "self.mark_applied(diff.writer, max(\n"
        "        diff.to_id, self.notified.get(diff.writer, 0)))"),
}


TM_BASE = ("tm", "Base", False)
AURC = ("aurc", "Base", False)

#: Killable mutant -> [(reproducer, config)], each killed by the value
#: check.  Ops as in ``test_properties.py``: ``("cs", lock, offset,
#: length, write)`` reads the lock's region word(s), then maybe writes;
#: all three regions share page 0.
REPRODUCERS = {
    # Two writers, one reader, one lock: the dropped third notice is
    # the reader's notice for the second writer's interval.
    "drop-notice": [([
        [("cs", 0, 0, 1, True)],
        [("cs", 0, 0, 1, True)],
        [("cs", 0, 0, 1, False)],
    ], TM_BASE)],
    # The dropped third notice is P2's for P3's second interval, whose
    # update went to the home (P0): P2's copy stays valid and stale.
    "drop-notice-aurc": [([
        [("cs", 0, 0, 1, True)],
        [("cs", 0, 0, 1, True)],
        [("cs", 1, 0, 1, True), ("cs", 2, 0, 1, True)],
        [("cs", 2, 0, 1, True), ("compute", 550), ("cs", 2, 0, 1, True)],
    ], AURC)],
    # P1's two intervals both wrote page 0; after the barrier P0 needs
    # both diffs, and the skipped first one held region 2's word.
    "skip-earliest-diff": [([
        [("barrier",), ("cs", 2, 0, 1, False)],
        [("cs", 2, 0, 1, True), ("cs", 0, 0, 1, True)],
    ], TM_BASE)],
    # P1 writes the same word in two intervals; applied newest-first,
    # the older diff wins.
    "reverse-apply-order": [([
        [("barrier",), ("cs", 0, 0, 1, False)],
        [("cs", 0, 0, 1, True), ("cs", 0, 0, 1, True)],
    ], TM_BASE)],
    # P1's second-interval write is never collected into a diff.
    "twin-unarmed": [([
        [("barrier",), ("cs", 2, 0, 1, True)],
        [("cs", 0, 0, 1, True), ("cs", 2, 0, 1, True)],
    ], TM_BASE)],
    # The pair partner's write never reaches P0's frame, which the
    # automatic update keeps valid.
    "no-au-store": [([
        [("cs", 0, 0, 1, True), ("cs", 0, 0, 1, True)],
        [("cs", 0, 0, 1, True)],
    ], AURC)],
    # The stale-read reproducers: a fetched copy overwrites an update
    # that landed while the fetch was in flight.
    "whole-frame-install": [
        (STALE_READ_PROGRAMS["pair-replaced-then-home"], AURC),
        (STALE_READ_PROGRAMS["four-procs"], AURC),
    ],
    # P3 faults on page 0 holding P2's notice for interval 1 only; the
    # reply also ships P2's interval 2, so P1's interval, which happens
    # before it, applies later and rolls region 1 back.
    "ignore-through-id": [([
        [],
        [("cs", 1, 0, 1, True)],
        [("cs", 0, 0, 1, True), ("cs", 1, 0, 1, True)],
        [("cs", 0, 0, 1, True), ("cs", 1, 0, 1, True)],
    ], ("tm", "I+D", False))],
    # A prefetch in flight across the barrier: its install marks the
    # barrier's newer notice applied without that interval's data.
    "install-marks-late-notices": [([
        [("cs", 0, 0, 1, False), ("cs", 0, 0, 1, True)],
        [("cs", 0, 0, 1, False), ("barrier",), ("cs", 1, 0, 1, False)],
        [("cs", 0, 0, 1, True), ("barrier",), ("cs", 1, 0, 1, True)],
    ], ("aurc", "Base", True))],
    # Likewise for a TreadMarks prefetch: the diff marks the barrier's
    # newer notice of P1 applied.
    "apply-through-notified": [([
        [("cs", 0, 0, 1, True), ("barrier",), ("cs", 2, 0, 1, False)],
        [("cs", 2, 0, 1, True), ("barrier",), ("cs", 2, 0, 1, True)],
    ], ("tm", "I+P", False))],
}

_TIMING = ("the instant data plane lands every automatic update in its "
           "destination frame at the write, so {} changes no value a "
           "read can see")

#: Mutants no check kills, with the reason.
SURVIVORS = {
    "skip-fetch-drain": _TIMING.format("the home's stamp drain"),
    "skip-merge-wait": _TIMING.format("the merging node's update wait"),
    "flush-stamp-short": _TIMING.format("waiting for one update fewer"),
}


def _cases():
    for name in MUTANTS:
        if name in SURVIVORS:
            yield pytest.param(name, marks=pytest.mark.xfail(
                strict=True, reason=SURVIVORS[name]))
        else:
            yield name


def test_table_covers_every_mutant():
    assert set(REPRODUCERS) | set(SURVIVORS) == set(MUTANTS)
    assert not set(REPRODUCERS) & set(SURVIVORS)


@pytest.mark.parametrize("name", list(_cases()))
def test_value_check_kills_mutant(name, monkeypatch):
    """Each reproducer runs clean; under the mutant the value check
    reports a stale read.  A survivor (all are AURC's) is tried on
    every AURC reproducer, with and without prefetching."""
    if name in REPRODUCERS:
        runs = REPRODUCERS[name]
    else:
        runs = [(program, (kind, mode, prefetch))
                for reproducers in REPRODUCERS.values()
                for program, (kind, mode, _) in reproducers
                if kind == "aurc" for prefetch in (False, True)]
    for program, config in runs:
        mismatches, audit = execute_program(program, *config, audit=True)
        assert not mismatches and audit.ok, (name, config)
    MUTANTS[name](monkeypatch)
    killed = [config for program, config in runs
              if not execute_program(program, *config, audit=True)[1].ok]
    assert killed, f"{name} survived {len(runs)} runs"
