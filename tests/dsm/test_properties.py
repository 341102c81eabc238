"""Property-based coherence tests (hypothesis).

A random data-race-free program is generated: every word belongs to a
lock's region and is only accessed inside that lock's critical section,
plus occasional global barriers.  Because critical sections on one lock
are totally ordered, a plain-Python **oracle** updated inside each
critical section gives the exact values every read must return under
*any* correct release-consistent protocol.  Any staleness, lost update,
or misordered diff application shows up as an oracle mismatch.

The same program is executed under TreadMarks (all six overlap modes)
and AURC (with and without prefetching).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dsm.aurc import Aurc
from repro.dsm.overlap import ALL_MODES, mode_by_name
from repro.dsm.shmem import DsmApi, SharedSegment
from repro.dsm.treadmarks import TreadMarks
from repro.hardware.node import Cluster
from repro.hardware.params import MachineParams
from repro.sim import AllOf, Simulator

N_LOCKS = 3
REGION_WORDS = 96  # spans page boundaries relative to 1024-word pages


@st.composite
def programs(draw):
    """A random DRF program: per-proc op lists over lock regions."""
    n_procs = draw(st.integers(min_value=2, max_value=4))
    n_rounds = draw(st.integers(min_value=2, max_value=5))
    per_proc = []
    for _pid in range(n_procs):
        ops = []
        for _round in range(n_rounds):
            kind = draw(st.sampled_from(["cs", "cs", "cs", "barrier",
                                         "compute"]))
            if kind == "cs":
                lock = draw(st.integers(0, N_LOCKS - 1))
                offset = draw(st.integers(0, REGION_WORDS - 8))
                length = draw(st.integers(1, 8))
                do_write = draw(st.booleans())
                ops.append(("cs", lock, offset, length, do_write))
            elif kind == "compute":
                ops.append(("compute", draw(st.integers(100, 20000))))
            else:
                ops.append(("barrier",))
        per_proc.append(ops)
    return per_proc


def _build(protocol_kind, mode_name, n_procs, prefetch=False):
    params = MachineParams(n_processors=n_procs)
    sim = Simulator()
    needs_controller = (protocol_kind == "tm"
                        and mode_by_name(mode_name).uses_controller)
    cluster = Cluster(sim, params, with_controller=needs_controller)
    segment = SharedSegment(params)
    base = segment.alloc("regions", N_LOCKS * REGION_WORDS)
    if protocol_kind == "tm":
        protocol = TreadMarks(sim, cluster, params, segment,
                              mode=mode_by_name(mode_name))
    else:
        protocol = Aurc(sim, cluster, params, segment, prefetch=prefetch)
    return sim, cluster, protocol, base


def _run_program(program, protocol_kind, mode_name, prefetch=False):
    n_procs = len(program)
    sim, cluster, protocol, base = _build(protocol_kind, mode_name,
                                          n_procs, prefetch)
    oracle = np.zeros(N_LOCKS * REGION_WORDS)
    counter = [1.0]
    barrier_epochs = [0] * n_procs
    mismatches = []

    def worker(pid):
        api = DsmApi(protocol, pid)
        for op in program[pid]:
            if op[0] == "compute":
                yield from api.compute(op[1])
            elif op[0] == "barrier":
                barrier_epochs[pid] += 1
                yield from api.barrier(1000 + barrier_epochs[pid])
            else:
                _kind, lock, offset, length, do_write = op
                addr = base + lock * REGION_WORDS + offset
                yield from api.acquire(lock)
                seen = yield from api.read(addr, length)
                expected = oracle[lock * REGION_WORDS + offset:
                                  lock * REGION_WORDS + offset + length]
                if not np.array_equal(seen, expected):
                    mismatches.append((pid, lock, offset,
                                       seen.tolist(),
                                       expected.tolist()))
                if do_write:
                    fresh = np.arange(length) + counter[0]
                    counter[0] += length
                    oracle[lock * REGION_WORDS + offset:
                           lock * REGION_WORDS + offset + length] = fresh
                    yield from api.write(addr, fresh)
                yield from api.release(lock)
        # Everyone meets at a final barrier so barrier counts align.
        yield from api.barrier(9999)

    # Pad barrier counts: every proc must hit the same barrier ids.
    max_barriers = max(sum(1 for op in ops if op[0] == "barrier")
                       for ops in program)
    padded = []
    for pid, ops in enumerate(program):
        have = sum(1 for op in ops if op[0] == "barrier")
        padded.append(list(ops) + [("barrier",)] * (max_barriers - have))
    program = padded

    done = [cluster[pid].cpu.start(worker(pid)) for pid in range(n_procs)]
    sim.run(until=AllOf(sim, done))
    assert not mismatches, f"oracle mismatches: {mismatches[:3]}"


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs(),
       mode=st.sampled_from([m.name for m in ALL_MODES]))
def test_treadmarks_modes_respect_lock_order(program, mode):
    _run_program(program, "tm", mode)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs(), prefetch=st.booleans())
def test_aurc_respects_lock_order(program, prefetch):
    _run_program(program, "aurc", "Base", prefetch=prefetch)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs())
def test_protocols_agree_on_final_state(program):
    """All protocols must produce identical final region contents."""
    finals = []
    for kind, mode, pf in (("tm", "Base", False), ("tm", "I+P+D", False),
                           ("aurc", "Base", False)):
        n_procs = len(program)
        sim, cluster, protocol, base = _build(kind, mode, n_procs, pf)

        def worker(pid):
            api = DsmApi(protocol, pid)
            epoch = 0
            for op in program[pid]:
                if op[0] == "compute":
                    yield from api.compute(op[1])
                elif op[0] == "barrier":
                    epoch += 1
                    yield from api.barrier(1000 + epoch)
                else:
                    _kind, lock, offset, length, do_write = op
                    addr = base + lock * REGION_WORDS + offset
                    yield from api.acquire(lock)
                    values = yield from api.read(addr, length)
                    if do_write:
                        yield from api.write(addr, values + 1.0)
                    yield from api.release(lock)

        max_barriers = max(sum(1 for op in ops if op[0] == "barrier")
                           for ops in program)
        padded = []
        for ops in program:
            have = sum(1 for op in ops if op[0] == "barrier")
            padded.append(list(ops) + [("barrier",)] * (max_barriers - have))
        program_local, program_save = padded, program
        program = program_local

        def final_reader():
            api = DsmApi(protocol, 0)
            for lock in range(N_LOCKS):
                yield from api.acquire(lock)
            values = yield from api.read(base, N_LOCKS * REGION_WORDS)
            for lock in range(N_LOCKS):
                yield from api.release(lock)
            return values

        done = [cluster[pid].cpu.start(worker(pid))
                for pid in range(n_procs)]
        sim.run(until=AllOf(sim, done))
        reader_done = sim.process(final_reader())
        finals.append(np.asarray(sim.run(until=reader_done)))
        program = program_save
    assert np.array_equal(finals[0], finals[1])
    assert np.array_equal(finals[0], finals[2])


# AURC stale-read reproducers.  In the first, all three lock regions
# share one page, so AURC walks SOLO -> PAIRWISE -> a third sharer
# replaces the first -> the replaced node returns -> HOME.  P1's page
# fetch is issued while P1 is P2's pair partner; P2's write lands in
# P1's frame while the fetch is in flight, and the fetched copy
# predates it.  The second reaches the same race with four procs.
# Both read 0.0 where the oracle says 1.0 when the install overwrites
# the whole frame.  The third is the other direction: P0's write
# reaches P1 only through the fetched copy, so keeping P1's whole
# frame would lose it.  Installing the copy into every word not
# written since the request holds all three.
STALE_READ_PROGRAMS = {
    "pair-replaced-then-home": [
        [("cs", 0, 0, 1, False), ("compute", 100), ("cs", 1, 0, 1, False),
         ("compute", 100), ("cs", 0, 0, 1, False)],
        [("compute", 100), ("compute", 451), ("cs", 0, 0, 1, False),
         ("cs", 1, 0, 1, True), ("cs", 0, 0, 1, False)],
        [("compute", 100), ("cs", 1, 0, 1, True),
         ("barrier",), ("barrier",), ("barrier",)],
    ],
    "four-procs": [
        [("cs", 0, 0, 1, False), ("compute", 1450), ("cs", 1, 0, 1, True)],
        [("cs", 2, 0, 1, True), ("compute", 100), ("barrier",)],
        [("compute", 599), ("cs", 0, 0, 1, True), ("cs", 2, 0, 1, True)],
        [("barrier",), ("cs", 0, 0, 1, False), ("cs", 1, 0, 1, False)],
    ],
    "update-only-in-copy": [
        [("cs", 0, 0, 1, True), ("barrier",), ("compute", 100)],
        [("cs", 1, 0, 1, False), ("compute", 100), ("cs", 0, 0, 1, False)],
        [("compute", 100), ("cs", 2, 9, 5, True), ("barrier",)],
    ],
}


@pytest.mark.parametrize("program", list(STALE_READ_PROGRAMS))
@pytest.mark.parametrize("kind, mode, prefetch", [
    ("tm", "Base", False),
    ("tm", "I+P+D", False),
    ("aurc", "Base", False),
    ("aurc", "Base", True),
])
def test_stale_read_reproducer(program, kind, mode, prefetch):
    _run_program(STALE_READ_PROGRAMS[program], kind, mode,
                 prefetch=prefetch)
