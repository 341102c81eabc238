"""The TreadMarks lazy-release-consistency engine, all six overlap modes.

This module is the paper's section 2 (the protocol) plus section 3.2
(how the protocol uses the controller).  One :class:`TreadMarks`
instance runs the whole cluster; per-node protocol state lives in
:class:`NodeTmState`.

The overlap mode decides **where** each protocol action executes:

====================  ==================  ==================  ===========
action                Base / P            I / I+P             I+D / I+P+D
====================  ==================  ==================  ===========
twin at write fault   processor           controller          (no twins)
diff creation         proc (IPC, 7c/w)    ctrl (sw, 7c/w)     ctrl DMA
diff application      processor           controller (sw)     ctrl DMA
page request service  processor (IPC)     controller          controller
request/reply sends   processor           controller          controller
interval processing   processor           processor           processor
lock/barrier msgs     processor           processor           processor
====================  ==================  ==================  ===========

Charging conventions are described in :mod:`repro.dsm.locks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.dsm.diffs import DiffRecord, apply_order
from repro.dsm.overlap import BASE, OverlapMode
from repro.dsm.page import TmPage
from repro.dsm.prefetch import (
    PrefetchStats,
    note_prefetch,
    should_prefetch,
    should_prefetch_adaptive,
)
from repro.dsm.protocol import (
    DiffReply,
    DiffRequest,
    DsmProtocol,
    Message,
    NodeState,
    PageReply,
    PageRequest,
)
from repro.dsm.shmem import SharedSegment
from repro.dsm.timestamps import IntervalRecord
from repro.hardware.controller import (
    PRIORITY_PREFETCH,
    PRIORITY_REMOTE,
    PRIORITY_URGENT,
)
from repro.hardware.node import Cluster, Node
from repro.hardware.params import MachineParams
from repro.sim import AllOf, Simulator
from repro.stats.breakdown import Category

__all__ = ["TreadMarks", "TmStats", "NodeTmState"]


@dataclass
class TmStats:
    """Cluster-wide protocol event counters."""

    read_faults: int = 0
    write_faults: int = 0
    cold_fetches: int = 0
    diff_requests: int = 0
    diffs_created: int = 0
    diffs_applied: int = 0
    diff_words_created: int = 0
    diff_words_applied: int = 0
    twins_created: int = 0
    write_notices_sent: int = 0
    hybrid_diffs_sent: int = 0
    hybrid_diffs_applied: int = 0
    prefetch: PrefetchStats = field(default_factory=PrefetchStats)


class _DiffGather:
    """Collects the replies of one multi-writer diff fetch.

    Data is committed to the page only when the last reply arrives, in
    happens-before order -- arrival order across writers is arbitrary.
    """

    __slots__ = ("tp", "remaining", "diffs")

    def __init__(self, tp: TmPage, n_replies: int):
        self.tp = tp
        self.remaining = n_replies
        self.diffs: List[DiffRecord] = []

    def add(self, diffs: List[DiffRecord]) -> bool:
        """Record one reply; returns True when the gather is complete."""
        self.diffs.extend(diffs)
        self.remaining -= 1
        if self.remaining < 0:
            raise RuntimeError("diff gather got more replies than requests")
        return self.remaining == 0


class NodeTmState(NodeState):
    """One node's TreadMarks protocol state."""

    page_class = TmPage


class TreadMarks(DsmProtocol):
    """TreadMarks on a cluster, in a given overlap mode."""

    family = "treadmarks"
    state_class = NodeTmState

    def __init__(self, sim: Simulator, cluster: Cluster,
                 params: MachineParams, segment: SharedSegment,
                 mode: OverlapMode = BASE,
                 prefetch_low_priority: bool = True,
                 prefetch_all_invalid: bool = False,
                 prefetch_adaptive: bool = False,
                 hybrid_updates: bool = False):
        """``prefetch_low_priority`` and ``prefetch_all_invalid`` are
        ablation knobs: the paper's design deprioritizes prefetch
        commands in the controller queue (section 3.1, footnote 2) and
        only prefetches cached-and-referenced pages; the ablation
        benches flip these to show why.  ``prefetch_adaptive`` enables
        the future-work refinement: stop prefetching a page after
        repeated useless prefetches.  ``hybrid_updates`` enables the
        Lazy Hybrid variant of Dwarkadas et al. (the paper's related
        work [11]): lock grants piggyback the grantor's own diffs for
        pages the requester is known to cache, trading larger grant
        messages for fewer diff-request round trips."""
        super().__init__(sim, cluster, params, segment)
        if mode.uses_controller and cluster[0].controller is None:
            raise ValueError(
                f"mode {mode.name} needs a cluster built with controllers")
        self.mode = mode
        self.prefetch_low_priority = prefetch_low_priority
        self.prefetch_all_invalid = prefetch_all_invalid
        self.prefetch_adaptive = prefetch_adaptive
        self.hybrid_updates = hybrid_updates
        self.stats = TmStats()
        # Diff-op time executed on each node's controller (the processor
        # side is tracked by TimeBreakdown.diff_cycles).
        self.controller_diff_cycles = [0.0] * self.n

    @property
    def name(self) -> str:
        return f"TreadMarks/{self.mode.name}"

    @property
    def _prefetch_priority(self) -> int:
        return (PRIORITY_PREFETCH if self.prefetch_low_priority
                else PRIORITY_URGENT)

    # ------------------------------------------------------------------
    # message dispatch (NIC handler context: never blocks)
    # ------------------------------------------------------------------

    def _handle_data_message(self, node: Node, msg: Message) -> None:
        if isinstance(msg, PageRequest):
            self._data_service(node, "page-req",
                               lambda: self._serve_page_request(node, msg),
                               req=msg.token)
        elif isinstance(msg, DiffRequest):
            self._data_service(node, "diff-req",
                               lambda: self._serve_diff_request(node, msg),
                               req=msg.token)
        elif isinstance(msg, PageReply):
            self._handle_page_reply(node, msg)
        elif isinstance(msg, DiffReply):
            self._handle_diff_reply(node, msg)
        else:
            raise TypeError(f"unhandled message {msg!r}")

    def _data_service(self, node: Node, name: str, work, req: int = 0) -> None:
        """Run a data-plane service on the controller (I modes) or the
        computation processor (Base/P).

        Remote service runs at middle priority so commands the local
        processor is stalled on (twin creation, demand sends, reply
        installs) overtake it in the queue (paper footnote 2).
        """
        if self.mode.offload:
            node.controller.submit(name, work, priority=PRIORITY_REMOTE,
                                   req=req)
        else:
            node.cpu.post_service(name, work, req=req)

    # ------------------------------------------------------------------
    # shared-memory writes (processor context)
    # ------------------------------------------------------------------

    def proc_write(self, pid: int, addr: int, values):
        node = self.cluster[pid]
        st = self.states[pid]
        values = np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel()
        cursor = 0
        for page, offset, count in self.split_by_page(addr, len(values)):
            tp = st.page(page, self.params.words_per_page)
            if not tp.is_valid():
                yield from self._fault(node, st, tp, True)
            if not tp.write_active:
                yield from self._write_fault(node, st, tp)
            self._note_use(node, tp)
            tp.record_write(offset, count, values[cursor:cursor + count])
            busy, others = node.access_cost_cycles(
                page, page * self.params.words_per_page + offset, count,
                write=True)
            yield from node.cpu.hold_split(busy, others)
            cursor += count

    # ------------------------------------------------------------------
    # intervals
    # ------------------------------------------------------------------

    def _end_interval(self, node: Node):
        """Raw generator: close the current interval (release point)."""
        st = self.states[node.node_id]
        pid = node.node_id
        new_id = st.vc[pid] + 1
        written = [page for page, tp in st.pages.items() if tp.write_active]
        st.vc.advance(pid)
        vc_tuple = st.vc.as_tuple()
        for page in written:
            st.pages[page].close_interval(new_id, pid, vc_tuple)
        if written:
            record = IntervalRecord(writer=pid, interval_id=new_id,
                                    pages=tuple(sorted(written)),
                                    vc=vc_tuple)
            st.log.publish(record)
            if self.audit is not None:
                self.audit.vc_advance(pid, pid, new_id,
                                      record.pages, vc_tuple)
            yield self.sim.pooled_timeout(
                len(written)
                * self.params.list_processing_cycles_per_element)

    # ------------------------------------------------------------------
    # lock / barrier protocol hooks (see locks.py / barriers.py)
    # ------------------------------------------------------------------

    def lock_grant_payload(self, node: Node, requester: int, req_payload):
        """Raw generator: the write notices the requester lacks, plus
        (Lazy Hybrid) the grantor's own diffs for pages it caches."""
        payload = yield from super().lock_grant_payload(node, requester,
                                                        req_payload)
        self.stats.write_notices_sent += sum(r.notice_count
                                             for r in payload[1])
        if self.hybrid_updates:
            piggybacked = yield from self._collect_hybrid_diffs(
                node, requester, req_payload)
            payload += (piggybacked,)
        return payload

    def _collect_hybrid_diffs(self, node: Node, requester: int,
                              req_vc: Tuple[int, ...]):
        """Raw generator (Lazy Hybrid): materialize the grantor's own
        recent diffs for pages the requester is known to cache."""
        pid = node.node_id
        st = self.states[pid]
        piggybacked: List[DiffRecord] = []
        pages = set()
        for record in st.log.records_after(pid, req_vc[pid]):
            pages.update(record.pages)
        for page in sorted(pages):
            tp = st.pages.get(page)
            if tp is None or requester not in tp.copyset:
                continue
            since = tp.copyset[requester]
            fresh_diffs = tp.diffs_after(since)
            piggybacked.extend(fresh_diffs)
            if fresh_diffs:
                tp.copyset[requester] = max(d.to_id for d in fresh_diffs)
        if piggybacked:
            fresh = None
            for diff in piggybacked:
                tp = st.pages[diff.page]
                fresh = tp.materialize([diff]) or fresh
            dirty = sum(d.dirty_words for d in piggybacked)
            self.stats.hybrid_diffs_sent += len(piggybacked)
            # Creation cost for anything not yet materialized.
            if fresh:
                yield from self._charge_diff_creation(node, dirty)
        return piggybacked

    def lock_process_grant(self, node: Node, payload):
        """Raw generator: merge notices, invalidate, maybe prefetch.

        Under the Lazy Hybrid variant the payload carries piggybacked
        diffs, applied right here (in contiguous per-writer interval
        order, never past the applied watermark) so the pages are warm
        before the critical section touches them."""
        yield from super().lock_process_grant(node, payload)
        if len(payload) > 2 and payload[2]:
            yield from self._apply_hybrid_diffs(node, payload[2])

    def _apply_hybrid_diffs(self, node: Node, diffs):
        """Raw generator: apply grant-piggybacked diffs where possible."""
        st = self.states[node.node_id]
        start = self.sim.now
        applied_words = 0
        for diff in sorted(diffs, key=lambda d: d.to_id):
            tp = st.pages.get(diff.page)
            if tp is None or not tp.has_frame:
                continue  # no local copy: a demand fault will fetch
            applied = tp.applied.get(diff.writer, 0)
            if diff.to_id <= applied or diff.from_id > applied:
                continue  # stale, or a gap in the interval chain
            if tp.pending & ~(1 << diff.writer):
                # Another writer's hb-earlier intervals are still
                # unapplied; applying this diff now and theirs later
                # would roll shared words backwards.  Let the demand
                # fault gather and order everything.
                continue
            yield self.sim.pooled_timeout(
                diff.dirty_words * self.params.diff_cycles_per_word)
            burst = node.memory.access(diff.dirty_words, scattered=True)
            if burst is not None:
                yield burst
            tp.apply_incoming(diff)
            self._invalidate_cached(node, tp)
            self.stats.hybrid_diffs_applied += 1
            self.stats.diffs_applied += 1
            self.stats.diff_words_applied += diff.dirty_words
            applied_words += diff.dirty_words
        if applied_words:
            self._note_diff(node, "apply", applied_words, start,
                            where="hybrid")

    def _merge_coherence_info(self, node: Node, vc_tuple, records):
        """Raw generator: record notices, invalidate, maybe prefetch."""
        pid = node.node_id
        st = self.states[pid]
        views = st.pages
        words = self.params.words_per_page
        invalidated: List[TmPage] = []
        notices = 0
        for record in records:
            writer = record.writer
            if writer == pid:
                continue
            st.log.add(record)
            interval_id = record.interval_id
            pages = record.pages
            notices += len(pages)
            for page in pages:
                tp = views.get(page)
                if tp is None:
                    tp = st.page(page, words)
                newly_invalid = tp.record_notice(writer, interval_id)
                if tp.prefetch_ready:
                    # A prefetched page re-invalidated before any use.
                    self._prefetch_wasted(pid, tp)
                if newly_invalid:
                    invalidated.append(tp)
        yield from self._merge_clock(node, st, vc_tuple, notices,
                                     len(invalidated))
        for tp in invalidated:
            self._invalidate_cached(node, tp)
        if self.mode.prefetch:
            yield from self._issue_prefetches(node, st)

    # ------------------------------------------------------------------
    # prefetch streaks (the adaptive strategy's history)
    # ------------------------------------------------------------------

    def _note_use(self, node: Node, tp: TmPage) -> None:
        tp.pf_useless_streak = 0
        # A plain base call, not super(): this runs once per access.
        DsmProtocol._note_use(self, node, tp)

    def _prefetch_wasted(self, pid: int, tp: TmPage) -> None:
        tp.pf_useless_streak += 1
        DsmProtocol._prefetch_wasted(self, pid, tp)

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------

    def _count_fault(self, write: bool) -> str:
        if write:
            self.stats.write_faults += 1
            return "write"
        self.stats.read_faults += 1
        return "read"

    def _make_valid(self, node: Node, st: NodeTmState, tp: TmPage):
        """Processor-context generator: cold fetch, then the diffs."""
        while True:
            if not tp.has_frame:
                yield from self._cold_fetch(node, st, tp)
            writers = tp.pending_writers()
            if not writers:
                break
            yield from self._fetch_diffs(node, st, tp, writers)

    def _cold_fetch(self, node: Node, st: NodeTmState, tp: TmPage):
        """Processor-context generator: install a first page copy."""
        self.stats.cold_fetches += 1
        manager = self.page_manager(tp.page)
        if manager == node.node_id:
            # First touch at the manager: map a zero page locally.
            tp.ensure_frame()
            yield from node.cpu.hold(self.params.page_state_change_cycles,
                                     Category.DATA)
            return
        token = self.new_token()
        done = self.register_pending(token, tp)
        request = PageRequest(requester=node.node_id, page=tp.page,
                              token=token)
        yield from self._request_send(node, manager, request, Category.DATA)
        reply: PageReply = yield from node.cpu.wait(done, Category.DATA)
        if not self.mode.offload:
            # The faulting processor itself copies the page into place.
            yield from node.cpu.wait(
                node.memory.access(self.params.words_per_page),
                Category.DATA, interruptible=False)
            self._install_page(node, tp, reply)

    def _install_page(self, node: Node, tp: TmPage, reply: PageReply) -> None:
        tp.frame = reply.frame.copy()  # type: ignore[attr-defined]
        tp.adopt_snapshot(reply.snapshot)
        self._invalidate_cached(node, tp)

    def _fetch_diffs(self, node: Node, st: NodeTmState, tp: TmPage,
                     writers: List[int]):
        """Processor-context generator: collect and apply missing diffs."""
        events = []
        gather = _DiffGather(tp, len(writers))
        for writer in writers:
            token = self.new_token()
            done = self.register_pending(token, gather)
            request = DiffRequest(requester=node.node_id, page=tp.page,
                                  after_id=tp.applied.get(writer, 0),
                                  through_id=tp.notified.get(writer, 0),
                                  token=token)
            self.stats.diff_requests += 1
            yield from self._request_send(node, writer, request,
                                          Category.DATA)
            events.append(done)
        yield from node.cpu.wait(AllOf(self.sim, events), Category.DATA)
        if not self.mode.offload:
            yield from node.cpu.run_generator(
                self._apply_diffs_processor(node, tp, gather.diffs),
                Category.DATA)

    def _apply_diffs_processor(self, node: Node, tp: TmPage,
                               diffs: List[DiffRecord]):
        """Raw generator: software diff application on the processor."""
        start = self.sim.now
        applied_words = 0
        for diff in apply_order(diffs):
            yield self.sim.pooled_timeout(
                diff.dirty_words * self.params.diff_cycles_per_word)
            burst = node.memory.access(diff.dirty_words, scattered=True)
            if burst is not None:
                yield burst
            tp.apply_incoming(diff)
            self.stats.diffs_applied += 1
            self.stats.diff_words_applied += diff.dirty_words
            applied_words += diff.dirty_words
        self._invalidate_cached(node, tp)
        node.cpu.breakdown.charge_diff(self.sim.now - start)
        if diffs:
            self._note_diff(node, "apply", applied_words, start,
                            where="processor", page=tp.page)

    def _write_fault(self, node: Node, st: NodeTmState, tp: TmPage):
        """Processor-context generator: arm write collection (twin)."""
        arm_start = self.sim.now
        sid = self.new_span_id()
        prev_stall = self.set_stall(node.node_id, sid) if sid else 0
        if self.mode.uses_twins:
            self.stats.twins_created += 1
            if self.mode.offload:
                done = node.controller.submit(
                    "twin", lambda: self._controller_twin(node), req=sid)
                yield from node.cpu.wait(done, Category.DATA)
            else:
                start = self.sim.now
                yield from node.cpu.hold(
                    self.params.words_per_page
                    * self.params.twin_cycles_per_word,
                    Category.DATA, interruptible=False)
                yield from node.cpu.wait(
                    node.memory.access(2 * self.params.words_per_page),
                    Category.DATA, interruptible=False)
                node.cpu.breakdown.charge_diff(self.sim.now - start)
        else:
            # Hardware bit vectors: just flip the page writable.
            yield from node.cpu.hold(self.params.page_state_change_cycles,
                                     Category.DATA)
        if sid:
            self.set_stall(node.node_id, prev_stall)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("fault", node=node.node_id, action="write-arm",
                        page=tp.page, begin=arm_start,
                        dur=self.sim.now - arm_start,
                        **({"req": sid} if sid else {}))
        tp.arm_write_collection()

    def _controller_twin(self, node: Node):
        start = self.sim.now
        yield from node.controller.twin_create()
        self.controller_diff_cycles[node.node_id] += self.sim.now - start

    # ------------------------------------------------------------------
    # request sending (processor -> local controller -> network in I modes)
    # ------------------------------------------------------------------

    def _request_send(self, node: Node, dst: int, msg: Message,
                      category: Category, priority: int = PRIORITY_URGENT):
        """Processor-context generator: emit a request message."""
        self.note_issue(node, dst, msg)
        if self.mode.offload:
            yield from node.cpu.hold(
                self.params.controller_command_issue_cycles, category)
            node.controller.submit(
                "send", lambda: self.send(node, dst, msg), priority=priority,
                req=self.request_id_of(msg))
        else:
            yield from node.cpu.run_generator(
                self.send(node, dst, msg), category)

    # ------------------------------------------------------------------
    # data-plane services (run on controller in I modes, processor in Base/P)
    # ------------------------------------------------------------------

    def _serve_page_request(self, node: Node, msg: PageRequest):
        """Raw generator: the page manager answers a cold fetch."""
        st = self.states[node.node_id]
        tp = st.page(msg.page, self.params.words_per_page)
        tp.ensure_frame()
        tp.copyset[msg.requester] = tp.last_closed_id
        yield self.sim.pooled_timeout(self.params.message_handler_cycles)
        yield node.memory.access(self.params.words_per_page)
        reply = PageReply(page=msg.page, token=msg.token,
                          snapshot=tp.applied_snapshot(),
                          frame=tp.frame.copy())
        yield from self.send(node, msg.requester, reply,
                             traffic_class="page")

    def _serve_diff_request(self, node: Node, msg: DiffRequest):
        """Raw generator: a writer answers a diff request.

        Interval processing always interrupts the computation processor
        (paper section 3.2); diff creation runs wherever the mode says.
        """
        pid = node.node_id
        st = self.states[pid]
        tp = st.page(msg.page, self.params.words_per_page)
        yield self.sim.pooled_timeout(self.params.message_handler_cycles)
        interval_done = None
        if self.mode.offload:
            # Delegate interval processing to the computation processor;
            # it runs concurrently with the controller generating the
            # diffs (section 3.2: "remote diff requests must interrupt
            # the processor so that it can perform interval processing,
            # but the diffs themselves are generated by the controller").
            pending = len(tp.diff_store) + 1
            interval_done = node.cpu.post_service(
                "interval-proc",
                lambda: self._interval_processing(pending),
                req=msg.token)
        else:
            yield from self._interval_processing(len(tp.diff_store) + 1)
        diffs = [d for d in tp.diffs_after(msg.after_id)
                 if d.to_id <= msg.through_id]
        if diffs:
            tp.copyset[msg.requester] = max(
                tp.copyset.get(msg.requester, 0),
                max(d.to_id for d in diffs))
        fresh = tp.materialize(diffs)
        if fresh:
            dirty = sum(d.dirty_words for d in fresh)
            self.stats.diffs_created += len(fresh)
            self.stats.diff_words_created += dirty
            yield from self._charge_diff_creation(node, dirty)
        if interval_done is not None:
            yield interval_done
        reply = DiffReply(page=msg.page, token=msg.token, diffs=diffs,
                          prefetch=msg.prefetch)
        yield from self.send(node, msg.requester, reply,
                             traffic_class="diff")

    def _interval_processing(self, n_elements: int):
        """Raw generator: write-notice/interval list traversal."""
        yield self.sim.pooled_timeout(
            (n_elements + 1) * self.params.list_processing_cycles_per_element)

    def _charge_diff_creation(self, node: Node, dirty_words: int):
        """Raw generator: the time cost of one diff materialization pass.

        ``dirty_words`` is the total across the diffs being materialized;
        they share a single twin comparison (software) or bit-vector scan
        (DMA), like TreadMarks' consolidated creation.
        """
        start = self.sim.now
        if self.mode.hardware_diffs:
            yield from node.controller.dma_diff_create(dirty_words)
            self.controller_diff_cycles[node.node_id] += self.sim.now - start
            where = "dma"
        elif self.mode.offload:
            yield from node.controller.software_diff_create()
            self.controller_diff_cycles[node.node_id] += self.sim.now - start
            where = "controller"
        else:
            # On the computation processor: full-page scan against the twin.
            yield self.sim.pooled_timeout(self.params.words_per_page
                                   * self.params.diff_cycles_per_word)
            yield node.memory.access(self.params.words_per_page)
            node.cpu.breakdown.charge_diff(self.sim.now - start)
            where = "processor"
        self._note_diff(node, "create", dirty_words, start, where=where)

    def _note_diff(self, node: Node, action: str, dirty_words: int,
                   start: float, **extra) -> None:
        """Guarded emission for one diff create/apply span."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("diff", node=node.node_id, action=action,
                        words=dirty_words, begin=start,
                        dur=self.sim.now - start, **extra)

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------

    def _handle_page_reply(self, node: Node, msg: PageReply) -> None:
        if self.mode.offload:
            tp = self.pending_context(msg.token)

            def install():
                yield from node.controller.page_copy()
                self._install_page(node, tp, msg)
                self.complete_pending(msg.token, msg)

            node.controller.submit("page-install", install, req=msg.token)
        else:
            self.complete_pending(msg.token, msg)

    def _handle_diff_reply(self, node: Node, msg: DiffReply) -> None:
        gather = self.pending_context(msg.token)
        if gather is None:
            return
        if self.mode.offload:
            priority = (self._prefetch_priority if msg.prefetch
                        else PRIORITY_URGENT)
            node.controller.submit(
                "diff-apply",
                lambda: self._controller_apply(node, gather, msg),
                priority=priority, req=msg.token)
        elif msg.prefetch:
            node.cpu.post_service(
                "pf-apply", lambda: self._processor_prefetch_apply(
                    node, gather, msg), category=Category.DATA,
                req=msg.token)
        else:
            # Base/P demand fetch: the faulting processor applies all the
            # gathered diffs itself once every reply is in.
            gather.add(msg.diffs)
            self.complete_pending(msg.token, msg.diffs)

    def _controller_apply(self, node: Node, gather: "_DiffGather",
                          msg: DiffReply):
        """Raw generator (controller): apply arriving diffs to memory.

        Timing is charged per arriving reply (the DMA engine runs as
        data lands); the *data* is committed in happens-before order once
        the last reply of the gather is in, mirroring TreadMarks applying
        a fault's diffs in vector-timestamp order.
        """
        start = self.sim.now
        applied_words = 0
        for diff in msg.diffs:
            if self.mode.hardware_diffs:
                yield from node.controller.dma_diff_apply(diff.dirty_words)
            else:
                yield from node.controller.software_diff_apply(
                    diff.dirty_words)
            self.stats.diffs_applied += 1
            self.stats.diff_words_applied += diff.dirty_words
            applied_words += diff.dirty_words
        if gather.add(msg.diffs):
            for diff in apply_order(gather.diffs):
                gather.tp.apply_incoming(diff)
            self._invalidate_cached(node, gather.tp)
        self.controller_diff_cycles[node.node_id] += self.sim.now - start
        if msg.diffs:
            self._note_diff(node, "apply", applied_words, start,
                            where="controller", page=msg.page)
        self.complete_pending(msg.token)

    def _processor_prefetch_apply(self, node: Node, gather: "_DiffGather",
                                  msg: DiffReply):
        """Raw generator (P mode): the processor applies a prefetched diff."""
        start = self.sim.now
        applied_words = 0
        for diff in msg.diffs:
            yield self.sim.pooled_timeout(
                diff.dirty_words * self.params.diff_cycles_per_word)
            burst = node.memory.access(diff.dirty_words, scattered=True)
            if burst is not None:
                yield burst
            self.stats.diffs_applied += 1
            self.stats.diff_words_applied += diff.dirty_words
            applied_words += diff.dirty_words
        if msg.diffs:
            self._note_diff(node, "apply", applied_words, start,
                            where="processor", page=msg.page)
        if gather.add(msg.diffs):
            for diff in apply_order(gather.diffs):
                gather.tp.apply_incoming(diff)
            self._invalidate_cached(node, gather.tp)
        node.cpu.breakdown.charge_diff(self.sim.now - start)
        self.complete_pending(msg.token)

    # ------------------------------------------------------------------
    # prefetching
    # ------------------------------------------------------------------

    def _issue_prefetches(self, node: Node, st: NodeTmState):
        """Raw generator: request diffs for cached-and-invalidated pages."""
        if self.prefetch_all_invalid:
            candidates = [tp for tp in st.pages.values()
                          if (tp.has_frame and not tp.is_valid()
                              and tp.prefetch_event is None)]
        elif self.prefetch_adaptive:
            candidates = [tp for tp in st.pages.values()
                          if should_prefetch_adaptive(tp)]
        else:
            candidates = [tp for tp in st.pages.values()
                          if should_prefetch(tp)]
        for tp in candidates:
            writers = tp.pending_writers()
            if not writers:
                continue
            events = []
            tokens = []
            gather = _DiffGather(tp, len(writers))
            for writer in writers:
                token = self.new_token()
                tokens.append(token)
                done = self.register_pending(token, gather)
                request = DiffRequest(requester=node.node_id, page=tp.page,
                                      after_id=tp.applied.get(writer, 0),
                                      through_id=tp.notified.get(writer, 0),
                                      token=token, prefetch=True)
                self.stats.prefetch.diff_requests += 1
                self.note_issue(node, writer, request)
                if self.mode.offload:
                    yield self.sim.pooled_timeout(
                        self.params.controller_command_issue_cycles)
                    node.controller.submit(
                        "pf-send", lambda w=writer, r=request:
                        self.send(node, w, r),
                        priority=self._prefetch_priority, req=token)
                else:
                    yield from self.send(node, writer, request)
                events.append(done)
            self.stats.prefetch.issued += 1
            note_prefetch(self.sim, node.node_id, "issue", tp.page,
                          writers=len(writers), tokens=tokens)
            self._track_prefetch(node.node_id, tp, AllOf(self.sim, events))
