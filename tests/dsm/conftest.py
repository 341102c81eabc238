"""Shared fixtures for DSM protocol tests: tiny inline workloads."""

import numpy as np
import pytest

from repro.dsm.aurc import Aurc
from repro.dsm.overlap import mode_by_name
from repro.dsm.shmem import DsmApi, SharedSegment
from repro.dsm.treadmarks import TreadMarks
from repro.hardware.node import Cluster
from repro.hardware.params import MachineParams
from repro.sim import AllOf, Simulator


class Rig:
    """A cluster + protocol + per-process APIs, ready to run workers."""

    def __init__(self, protocol_kind="tm", mode="Base", n=4,
                 prefetch=False, params=None):
        self.params = (params or MachineParams()).replace(n_processors=n)
        self.sim = Simulator()
        needs_controller = protocol_kind == "tm" and mode_by_name(
            mode).uses_controller
        self.cluster = Cluster(self.sim, self.params,
                               with_controller=needs_controller)
        self.segment = SharedSegment(self.params)
        if protocol_kind == "tm":
            self.protocol = TreadMarks(self.sim, self.cluster, self.params,
                                       self.segment,
                                       mode=mode_by_name(mode))
        else:
            self.protocol = Aurc(self.sim, self.cluster, self.params,
                                 self.segment, prefetch=prefetch)
        self.apis = [DsmApi(self.protocol, pid) for pid in range(n)]
        self.n = n

    def alloc(self, name, nwords):
        return self.segment.alloc(name, nwords)

    def run_workers(self, *worker_gens):
        """Start one worker per processor (padded with no-ops); run all.

        Like the production harness, each worker is wrapped so trailing
        buffered compute cycles are charged before it reports finished.
        """
        done = []
        for pid in range(self.n):
            body = worker_gens[pid] if pid < len(worker_gens) else _idle()
            done.append(self.cluster[pid].cpu.start(
                self._flushed(pid, body)))
        self.sim.run(until=AllOf(self.sim, done))
        self.protocol.finalize()
        return [event.value for event in done]

    def _flushed(self, pid, body):
        result = yield from body
        yield from self.apis[pid].flush_compute()
        return result

    def run_process(self, gen):
        """Run one extra generator to completion (post-run verification)."""
        done = self.sim.process(gen)
        return self.sim.run(until=done)


def _idle():
    return iter(())


@pytest.fixture
def make_rig():
    return Rig
