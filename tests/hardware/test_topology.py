"""Unit tests for the pluggable topology layer and machine presets."""

import pytest

from repro.hardware.network import ROUTE_MEMO_MAX_NODES, MeshNetwork
from repro.hardware.params import PRESETS, MachineParams
from repro.hardware.topology import (
    TOPOLOGIES,
    Dragonfly,
    FatTree,
    Mesh2D,
    Torus2D,
    make_topology,
    square_factor,
)
from repro.sim import Simulator


# -- square_factor -----------------------------------------------------------

def test_square_factor():
    assert square_factor(1) == 1
    assert square_factor(12) == 3
    assert square_factor(16) == 4
    assert square_factor(64) == 8
    assert square_factor(17) == 1  # prime
    assert square_factor(256) == 16


# -- Mesh2D: must match the historical MeshNetwork internals -----------------

def test_mesh_links_match_historical_enumeration():
    mesh = Mesh2D(16, 4, 4)
    expected = []
    for node in range(16):
        x, y = node % 4, node // 4
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < 4 and 0 <= ny < 4:
                expected.append((node, ny * 4 + nx))
    assert list(mesh.links()) == expected


def test_mesh_routes_are_x_then_y():
    mesh = Mesh2D(16, 4, 4)
    # 0 = (0,0) -> 15 = (3,3): x hops first, then y hops.
    assert mesh.compute_route(0, 15) == [
        (0, 1), (1, 2), (2, 3), (3, 7), (7, 11), (11, 15)]
    assert mesh.compute_route(5, 5) == []
    assert mesh.hops(0, 15) == 6 == len(mesh.compute_route(0, 15))
    assert mesh.diameter() == 6


def test_mesh_rejects_bad_geometry():
    with pytest.raises(ValueError):
        Mesh2D(16, 3, 4)
    with pytest.raises(ValueError):
        Mesh2D(0, 0, 0)


# -- Torus2D -----------------------------------------------------------------

def test_torus_wrap_routes_are_shorter():
    torus = Torus2D(16, 4, 4)
    mesh = Mesh2D(16, 4, 4)
    # (0,0) -> (3,0): 3 mesh hops, 1 torus hop through the wrap.
    assert mesh.hops(0, 3) == 3
    assert torus.hops(0, 3) == 1
    assert torus.diameter() == 4
    route = torus.compute_route(0, 3)
    assert len(route) == 1


def test_torus_dateline_vc_switch():
    # On a 5-wide ring, (4,0) -> (1,0) goes + through the wrap: the
    # 4->0 hop crosses the dateline, so the next hop must ride VC 1.
    wide = Torus2D(25, 5, 5)
    assert wide.compute_route(4, 1) == [(4, 0, 0), (0, 1, 1)]
    torus = Torus2D(16, 4, 4)
    # Every route hop must name an existing channel.
    channels = set(torus.links())
    for n in range(16):
        for m in range(16):
            for key in torus.compute_route(n, m):
                assert key in channels


def test_torus_hops_is_min_wrap_manhattan():
    torus = Torus2D(16, 4, 4)
    for src in range(16):
        for dst in range(16):
            assert torus.hops(src, dst) == \
                len(torus.compute_route(src, dst))
            assert torus.hops(src, dst) <= torus.diameter()


# -- FatTree -----------------------------------------------------------------

def test_fattree_up_down_routing():
    ft = FatTree(16, 4)
    # Same edge switch: host -> edge -> host.
    assert ft.hops(0, 1) == 2
    assert ft.compute_route(0, 1) == [(0, 16), (16, 1)]
    # Cross edge: host -> edge -> spine -> edge -> host.
    assert ft.hops(0, 15) == 4
    route = ft.compute_route(0, 15)
    assert len(route) == 4
    assert route[0][0] == 0 and route[-1][1] == 15
    # Switch vertices live above the host id space.
    for a, b in route:
        assert a == 0 or a >= 16
        assert b == 15 or b >= 16
    assert ft.diameter() == 4


def test_fattree_rejects_bad_arity():
    with pytest.raises(ValueError):
        FatTree(16, 3)
    with pytest.raises(ValueError):
        FatTree(16, 0)


# -- Dragonfly ---------------------------------------------------------------

def test_dragonfly_minimal_routing():
    df = Dragonfly(16, 4)
    # Intra-group: one local hop on VC 0.
    assert df.compute_route(0, 3) == [(0, 3, 0)]
    # Inter-group: local VC0, global, local VC1.
    route = df.compute_route(0, 7)  # group 0 -> group 1
    assert len(route) == 3
    assert route[0][2] == 0 and route[-1][2] == 1
    assert route[0][0] == 0 and route[-1][1] == 7
    assert df.diameter() == 3
    channels = set(df.links())
    for n in range(16):
        for m in range(16):
            for key in df.compute_route(n, m):
                assert key in channels


def test_dragonfly_rejects_bad_group_size():
    with pytest.raises(ValueError):
        Dragonfly(16, 3)


# -- factory + geometry validation -------------------------------------------

def test_make_topology_all_names():
    for name in TOPOLOGIES:
        params = MachineParams(n_processors=16, topology=name)
        topo = make_topology(params)
        assert topo.name == name
        assert topo.n_nodes == 16


def test_params_reject_unknown_topology():
    with pytest.raises(ValueError, match="unknown topology"):
        MachineParams(n_processors=16, topology="hypercube")


def test_params_reject_prime_mesh():
    with pytest.raises(ValueError, match="prime"):
        MachineParams(n_processors=17, topology="mesh")
    with pytest.raises(ValueError, match="prime"):
        MachineParams(n_processors=101, topology="torus")
    # Tiny prime counts stay legal (1xN ribbons up to 4 nodes).
    MachineParams(n_processors=3, topology="mesh")


def test_params_reject_indivisible_fattree_and_dragonfly():
    with pytest.raises(ValueError, match="divisible"):
        MachineParams(n_processors=16, topology="fattree",
                      fattree_arity=3)
    with pytest.raises(ValueError, match="divisible"):
        MachineParams(n_processors=16, topology="dragonfly",
                      dragonfly_group_size=5)


# -- machine presets ---------------------------------------------------------

def test_presets_all_construct():
    for name in PRESETS:
        params = MachineParams.preset(name, n_processors=64)
        assert params.n_processors == 64


def test_preset_defaults_match_paper():
    assert MachineParams.preset("paper1996") == MachineParams()


def test_preset_overrides_win():
    params = MachineParams.preset("rdma", n_processors=256,
                                  topology="torus")
    assert params.n_processors == 256
    assert params.topology == "torus"
    assert params.messaging_overhead_cycles < \
        MachineParams().messaging_overhead_cycles


def test_unknown_preset_raises():
    with pytest.raises(ValueError, match="unknown machine preset"):
        MachineParams.preset("infiniband")


# -- bounded route memo ------------------------------------------------------

def test_route_memo_bounded_by_node_count():
    small = MeshNetwork(Simulator(), MachineParams(n_processors=16))
    assert small._routes is not None
    route = small.route(0, 15)
    assert len(small._routes) == 1
    # The memo holds the link dict's own key tuples, one per channel.
    keys = {id(key) for key in small._links}
    assert route and all(id(key) in keys for key in route)
    assert small.route(0, 15) is route

    big = MeshNetwork(
        Simulator(),
        MachineParams(n_processors=ROUTE_MEMO_MAX_NODES + 36))
    assert big._routes is None
    # Routes still work -- computed O(path) per call, never memoized,
    # so route-cache memory cannot grow with node count.
    n = big.params.n_processors
    for src in range(0, n, 7):
        for dst in range(0, n, 11):
            route = big.route(src, dst)
            assert len(route) == big.hops(src, dst)
    assert big._routes is None
