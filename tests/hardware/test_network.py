"""Mesh network routing, timing, and contention tests."""

import pytest

from repro.hardware.network import MeshNetwork
from repro.hardware.params import MachineParams
from repro.sim import Simulator


def make_net(n=16, **kw):
    sim = Simulator()
    params = MachineParams(n_processors=n, **kw)
    return sim, MeshNetwork(sim, params)


def test_coords_roundtrip():
    _, net = make_net(16)
    for node in range(16):
        x, y = net.coords(node)
        assert net.node_at(x, y) == node
        assert 0 <= x < 4 and 0 <= y < 4


def test_route_is_xy_ordered():
    _, net = make_net(16)
    links = net.route(0, 15)  # (0,0) -> (3,3)
    assert len(links) == 6
    # First the x moves along row 0: 0->1->2->3, then y moves 3->7->11->15.
    assert links == [(0, 1), (1, 2), (2, 3), (3, 7), (7, 11), (11, 15)]


def test_route_to_self_is_empty():
    _, net = make_net(16)
    assert net.route(5, 5) == []
    assert net.hops(5, 5) == 0


def test_hops_manhattan():
    _, net = make_net(16)
    assert net.hops(0, 15) == 6
    assert net.hops(0, 1) == 1
    assert net.hops(3, 12) == 6


def test_all_routes_use_existing_links():
    for n in (1, 2, 4, 8, 9, 16):
        _, net = make_net(n)
        for src in range(n):
            for dst in range(n):
                for link in net.route(src, dst):
                    assert link in net._links, (n, src, dst, link)


def test_uncontended_transfer_timing():
    sim, net = make_net(16)

    def proc():
        yield from sim.await_k(net.transfer, 0, 1, 100)
        return sim.now

    p = sim.process(proc())
    sim.run()
    # 1 hop * (4+2) + 100 bytes * 2 cycles/byte
    assert p.value == 6 + 200
    assert p.value == net.uncontended_cycles(0, 1, 100)


def test_transfer_respects_bandwidth_knob():
    sim = Simulator()
    params = MachineParams().with_network_bandwidth(200)
    net = MeshNetwork(sim, params)

    def proc():
        yield from sim.await_k(net.transfer, 0, 1, 100)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == pytest.approx(6 + 100 * 0.5)


def test_link_contention_serializes_same_link():
    sim, net = make_net(16)
    done = []

    def proc(tag):
        yield from sim.await_k(net.transfer, 0, 1, 100)
        done.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert done[0] == ("a", 206)
    assert done[1][1] > 206 * 1.9  # b waited for a


def test_disjoint_paths_proceed_in_parallel():
    sim, net = make_net(16)
    done = []

    def proc(tag, src, dst):
        yield from sim.await_k(net.transfer, src, dst, 100)
        done.append((tag, sim.now))

    sim.process(proc("a", 0, 1))
    sim.process(proc("b", 14, 15))
    sim.run()
    assert done[0][1] == done[1][1] == 206


def test_stats_accumulate():
    sim, net = make_net(16)

    def proc():
        yield from sim.await_k(net.transfer, 0, 3, 10, "page")
        yield from sim.await_k(net.transfer, 0, 3, 20, "update")

    sim.process(proc())
    sim.run()
    assert net.stats.messages == 2
    assert net.stats.bytes == 30
    assert net.stats.per_class_bytes == {"page": 10, "update": 20}
    assert net.stats.mean_latency() > 0


def test_wormhole_path_holding_blocks_crossing_traffic():
    sim, net = make_net(16)
    order = []

    def long_haul():
        # Holds the row-0 links a while.
        yield from sim.await_k(net.transfer, 0, 3, 1000)
        order.append(("long", sim.now))

    def crosser():
        yield sim.timeout(10)
        # Needs link (1, 2), held by the long haul.
        yield from sim.await_k(net.transfer, 1, 2, 10)
        order.append(("cross", sim.now))

    sim.process(long_haul())
    sim.process(crosser())
    sim.run()
    assert order[0][0] == "long"
    assert order[1][1] > order[0][1]


def test_single_node_network_degenerates():
    sim, net = make_net(1)

    def proc():
        yield from sim.await_k(net.transfer, 0, 0, 100)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 0  # no links, no serialization charged


def test_utilization_reporting():
    sim, net = make_net(4)

    def proc():
        yield from sim.await_k(net.transfer, 0, 3, 1000)

    sim.process(proc())
    sim.run()
    assert 0 < net.link_utilization() <= 1
    assert net.max_link_utilization() <= 1
