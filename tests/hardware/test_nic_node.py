"""NIC messaging, automatic updates, and node/processor execution tests."""

import pytest

from repro.hardware.node import Cluster
from repro.hardware.params import MachineParams
from repro.sim import Event, Simulator
from repro.stats.breakdown import Category


def make_cluster(n=4, with_controller=True, **kw):
    sim = Simulator()
    params = MachineParams(n_processors=n, **kw)
    return sim, params, Cluster(sim, params, with_controller)


# -- explicit messaging -------------------------------------------------------

def test_message_delivery_invokes_handler():
    sim, params, cluster = make_cluster()
    received = []
    cluster[1].nic.handler = lambda msg: received.append((msg, sim.now))

    def sender():
        yield from cluster[0].nic.send(1, "hello", 64)
        return sim.now

    p = sim.process(sender())
    sim.run()
    assert received and received[0][0] == "hello"
    # Sender returns after overhead + local PCI injection only.
    inject = 200 + params.pci_transfer_cycles(64)
    assert p.value == inject
    # Delivery happens strictly later (flight + remote PCI).
    assert received[0][1] > p.value


def test_message_to_self_skips_mesh():
    sim, params, cluster = make_cluster()
    received = []
    cluster[0].nic.handler = lambda msg: received.append(sim.now)

    def sender():
        yield from cluster[0].nic.send(0, "loop", 64)

    sim.process(sender())
    sim.run()
    assert received


def test_send_without_overhead_flag():
    sim, params, cluster = make_cluster()
    cluster[1].nic.handler = lambda msg: None

    def sender():
        yield from cluster[0].nic.send(1, "x", 64, overhead=False)
        return sim.now

    p = sim.process(sender())
    sim.run()
    assert p.value == params.pci_transfer_cycles(64)


def test_missing_handler_raises():
    sim, params, cluster = make_cluster()

    def sender():
        yield from cluster[0].nic.send(1, "x", 64)

    sim.process(sender())
    with pytest.raises(RuntimeError, match="no message handler"):
        sim.run()


# -- automatic updates --------------------------------------------------------

def test_automatic_update_delivered_and_sequenced():
    sim, params, cluster = make_cluster()
    engine0 = cluster[0].nic.au_engine
    seen = []
    cluster[1].nic.au_handler = (
        lambda src, page, nbytes, seq: seen.append((src, page, nbytes, seq)))

    seq = engine0.post_write(dst=1, page=7, nwords=16)
    assert seq == 1
    sim.run()
    assert seen == [(0, 7, 64, 1)]
    assert cluster[1].nic.au_engine.received_seq[0] == 1


def test_update_combining_same_page():
    sim, params, cluster = make_cluster()
    engine = cluster[0].nic.au_engine
    cluster[1].nic.au_handler = lambda *a: None
    s1 = engine.post_write(1, page=7, nwords=8)
    s2 = engine.post_write(1, page=7, nwords=8)
    # Second write combined into the first queued batch.
    assert s1 == s2
    assert engine.updates_combined == 1


def test_updates_to_different_pages_not_combined():
    sim, params, cluster = make_cluster()
    engine = cluster[0].nic.au_engine
    s1 = engine.post_write(1, page=7, nwords=8)
    s2 = engine.post_write(1, page=8, nwords=8)
    assert s2 == s1 + 1


def test_flush_waits_for_all_updates():
    sim, params, cluster = make_cluster()
    engine = cluster[0].nic.au_engine
    cluster[1].nic.au_handler = lambda *a: None
    delivered = []
    cluster[1].nic.au_handler = lambda *a: delivered.append(sim.now)

    def writer():
        for i in range(4):
            engine.post_write(1, page=i, nwords=64)
        yield from engine.flush()
        return sim.now

    p = sim.process(writer())
    sim.run()
    # 64 words per page exceed one write-cache flush (32 words), so each
    # page's burst splits into two update messages.
    assert len(delivered) == 8
    assert p.value >= max(delivered)


def test_wait_for_seq_blocks_until_arrival():
    sim, params, cluster = make_cluster()
    engine0 = cluster[0].nic.au_engine
    engine1 = cluster[1].nic.au_engine

    def writer():
        yield sim.timeout(100)
        engine0.post_write(1, page=3, nwords=32)

    def reader():
        yield from engine1.wait_for(src=0, seq=1)
        return sim.now

    sim.process(writer())
    p = sim.process(reader())
    sim.run()
    assert p.value > 100


def test_wait_for_already_arrived_returns_immediately():
    sim, params, cluster = make_cluster()
    engine0 = cluster[0].nic.au_engine
    engine1 = cluster[1].nic.au_engine
    engine0.post_write(1, page=3, nwords=32)
    sim.run()
    t = sim.now

    def reader():
        yield from engine1.wait_for(src=0, seq=1)
        return sim.now

    p = sim.process(reader())
    sim.run()
    assert p.value == t


# -- compute processor --------------------------------------------------------

def test_hold_charges_category():
    sim, params, cluster = make_cluster()
    cpu = cluster[0].cpu

    def body():
        yield from cpu.hold(500, Category.BUSY)

    done = cpu.start(body())
    sim.run(until=done)
    assert cpu.breakdown.get(Category.BUSY) == 500
    assert cpu.breakdown.total == 500


def test_service_preempts_interruptible_hold():
    sim, params, cluster = make_cluster()
    cpu = cluster[0].cpu

    def service_work():
        yield sim.timeout(100)
        return "served"

    def body():
        yield from cpu.hold(1000, Category.BUSY)

    def requester():
        yield sim.timeout(300)
        done = cpu.post_service("req", service_work)
        value = yield done
        return (value, sim.now)

    app_done = cpu.start(body())
    rp = sim.process(requester())
    sim.run(until=app_done)
    # Service took interrupt (400) + work (100), so app finished late.
    assert sim.now == 1000 + 400 + 100
    assert rp.value == ("served", 300 + 400 + 100)
    assert cpu.breakdown.get(Category.BUSY) == 1000
    assert cpu.breakdown.get(Category.IPC) == 500
    assert cpu.services_handled == 1


def test_noninterruptible_hold_defers_service():
    sim, params, cluster = make_cluster()
    cpu = cluster[0].cpu

    def service_work():
        yield sim.timeout(0)

    def body():
        yield from cpu.hold(1000, Category.DATA, interruptible=False)
        yield from cpu.hold(100, Category.BUSY)

    def requester():
        yield sim.timeout(10)
        done = cpu.post_service("req", service_work)
        yield done
        return sim.now

    app_done = cpu.start(body())
    rp = sim.process(requester())
    sim.run(until=app_done)
    assert rp.value == 1000 + 400  # serviced only after the hold


def test_wait_charges_category_and_services():
    sim, params, cluster = make_cluster()
    cpu = cluster[0].cpu
    gate = Event(sim)

    def body():
        yield from cpu.wait(gate, Category.SYNC)

    def trigger():
        yield sim.timeout(250)
        gate.succeed()

    done = cpu.start(body())
    sim.process(trigger())
    sim.run(until=done)
    assert cpu.breakdown.get(Category.SYNC) == 250


def test_processor_services_after_app_completes():
    sim, params, cluster = make_cluster()
    cpu = cluster[0].cpu

    def body():
        yield from cpu.hold(10, Category.BUSY)

    def late_request():
        yield sim.timeout(500)
        done = cpu.post_service("late", lambda: iter(()))
        yield done
        return sim.now

    cpu.start(body())
    rp = sim.process(late_request())
    sim.run(until=rp)
    assert rp.value == 900  # 500 + 400 interrupt
    assert cpu.finished_at == 10


def test_access_cost_accounts_tlb_cache_wb():
    sim, params, cluster = make_cluster()
    node = cluster[0]
    busy, others = node.access_cost_cycles(page=0, word_addr=0, nwords=8,
                                           write=False)
    assert busy == 8
    # TLB miss (100) + one line fill (10 + 24)
    assert others == 100 + 34
    busy2, others2 = node.access_cost_cycles(page=0, word_addr=0, nwords=8,
                                             write=True)
    assert busy2 == 8
    # TLB and cache hit now; write buffer stalls (8-4)*(3-1) cycles.
    assert others2 == 8.0


def test_cluster_indexing():
    sim, params, cluster = make_cluster(n=4)
    assert len(cluster) == 4
    assert cluster[2].node_id == 2
    assert cluster[0].controller is not None
    _, _, bare = make_cluster(n=4, with_controller=False)
    assert bare[0].controller is None
