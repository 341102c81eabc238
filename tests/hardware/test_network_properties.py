"""Property-based tests for interconnect routing, mesh-transfer parity,
and timestamp algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.timestamps import (IntervalLog, IntervalRecord, IntervalStore,
                                   VectorClock)
from repro.faults import FaultPlan, FaultSpec
from repro.hardware.bus import PciBus
from repro.hardware.network import MeshNetwork
from repro.hardware.params import MachineParams
from repro.hardware.topology import TOPOLOGIES, make_topology
from repro.sim import Simulator
from tests.hardware import oracles

_PROC_COUNTS = [1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 25]


@given(n=st.sampled_from(_PROC_COUNTS),
       src=st.integers(0, 24), dst=st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_routes_reach_destination_in_hops_steps(n, src, dst):
    src, dst = src % n, dst % n
    net = MeshNetwork(Simulator(), MachineParams(n_processors=n))
    route = net.route(src, dst)
    assert len(route) == net.hops(src, dst)
    here = src
    for a, b in route:
        assert a == here
        assert b in range(n)
        assert (a, b) in net._links
        here = b
    assert here == dst


@given(n=st.sampled_from(_PROC_COUNTS), src=st.integers(0, 24),
       dst=st.integers(0, 24), nbytes=st.integers(1, 8192))
@settings(max_examples=40, deadline=None)
def test_uncontended_cycles_monotone_in_size(n, src, dst, nbytes):
    src, dst = src % n, dst % n
    net = MeshNetwork(Simulator(), MachineParams(n_processors=n))
    small = net.uncontended_cycles(src, dst, nbytes)
    bigger = net.uncontended_cycles(src, dst, nbytes + 64)
    assert bigger >= small


@given(n=st.sampled_from(_PROC_COUNTS))
@settings(max_examples=20, deadline=None)
def test_mesh_is_strongly_connected(n):
    net = MeshNetwork(Simulator(), MachineParams(n_processors=n))
    for src in range(n):
        for dst in range(n):
            route = net.route(src, dst)
            assert (len(route) == 0) == (src == dst)


# -- all topologies: routing invariants --------------------------------------
#
# Channel keys are (from, to) pairs on the mesh and (from, to, vc)
# triples on VC-split topologies; these helpers treat both uniformly.

def _endpoints(key):
    return key[0], key[1]


@given(topo=st.sampled_from(TOPOLOGIES),
       n=st.sampled_from(_PROC_COUNTS),
       src=st.integers(0, 24), dst=st.integers(0, 24))
@settings(max_examples=120, deadline=None)
def test_topology_routes_connect_over_existing_links(topo, n, src, dst):
    src, dst = src % n, dst % n
    net = MeshNetwork(Simulator(),
                      MachineParams(n_processors=n, topology=topo))
    route = net.route(src, dst)
    assert len(route) == net.hops(src, dst)
    assert len(route) <= net.topology.diameter()
    assert (len(route) == 0) == (src == dst)
    visited = set()
    here = src
    for key in route:
        a, b = _endpoints(key)
        assert a == here
        assert key in net._links  # a real Resource backs every hop
        assert b not in visited   # routes never revisit a vertex
        visited.add(a)
        here = b
    assert here == dst


@given(topo=st.sampled_from(TOPOLOGIES), n=st.sampled_from(_PROC_COUNTS))
@settings(max_examples=30, deadline=None)
def test_topology_channel_dependency_graph_is_acyclic(topo, n):
    """Deadlock safety: wormhole worms hold channels while acquiring the
    next one, so a cycle in the channel dependency graph (channel ->
    possible next channel, over all minimal routes) would allow
    deadlock.  XY meshes, dateline-VC tori, up-down fat-trees, and
    VC-split dragonflies must all come out acyclic."""
    topology = make_topology(
        MachineParams(n_processors=n, topology=topo))
    deps = {}
    for src in range(n):
        for dst in range(n):
            route = topology.compute_route(src, dst)
            for c1, c2 in zip(route, route[1:]):
                deps.setdefault(c1, set()).add(c2)
    # Iterative DFS three-color cycle detection.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {c: WHITE for c in deps}
    for start in deps:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(deps.get(start, ())))]
        color[start] = GRAY
        while stack:
            node, children = stack[-1]
            for child in children:
                state = color.get(child, WHITE)
                assert state != GRAY, (
                    f"channel dependency cycle through {child} on "
                    f"{topo} n={n}")
                if state == WHITE:
                    color[child] = GRAY
                    stack.append((child, iter(deps.get(child, ()))))
                    break
            else:
                color[node] = BLACK
                stack.pop()


# -- mesh transfer parity -----------------------------------------------------
#
# The continuation ``MeshNetwork.transfer`` driven through ``sim.await_k``
# must be indistinguishable from the generator form it replaced
# (``tests/hardware/oracles.py``): same finish times, same statistics,
# same fault draws, same event sequence numbers.

# Round sizes and delays make exact time ties likely (a one-hop 100-byte
# flight ends at 6 + 200 = 206), so same-cycle ordering is exercised.
_nbytes = st.sampled_from([0, 1, 100]) | st.integers(0, 4096)
_delays = st.sampled_from([0, 6, 206, 212]) | st.integers(0, 400)
_transfers = st.tuples(
    st.integers(0, 15), st.integers(0, 15),        # src, dst (mod n)
    _nbytes,
    st.booleans(),                                 # then eject over PCI
    st.sampled_from(["protocol", "page", "update"]))


@st.composite
def mesh_schedules(draw):
    return {
        "topology": draw(st.sampled_from(TOPOLOGIES)),
        "n": draw(st.sampled_from([c for c in _PROC_COUNTS
                                   if 4 <= c <= 16])),
        "procs": draw(st.lists(
            st.tuples(_delays,
                      st.lists(_transfers, min_size=1, max_size=4)),
            min_size=1, max_size=12)),
        # Processes that hold a node's PCI port, so ejections sometimes
        # find it busy.
        "hogs": draw(st.lists(
            st.tuples(st.integers(0, 15), _delays, st.integers(1, 2048)),
            max_size=4)),
        # (seed, spike_prob, only the first transfer's route armed)
        "spikes": draw(st.none() | st.tuples(
            st.integers(0, 2**16), st.sampled_from([0.2, 0.5, 1.0]),
            st.booleans())),
    }


def _drive_mesh(schedule, via_oracle):
    n = schedule["n"]
    sim = Simulator()
    params = MachineParams(n_processors=n, topology=schedule["topology"])
    net = MeshNetwork(sim, params)
    pcis = [PciBus(sim, params, node) for node in range(n)]
    plan = None
    if schedule["spikes"] is not None:
        seed, prob, first_route_only = schedule["spikes"]
        src, dst = (x % n for x in schedule["procs"][0][1][0][:2])
        links = tuple(net.route(src, dst)) if first_route_only else ()
        plan = FaultPlan(seed=seed, spec=FaultSpec(spike_prob=prob,
                                                   spike_links=links))
        plan.sim = sim
        net.faults = plan
    finished = []

    def eject(node, nbytes):
        hop = pcis[node].transfer(nbytes)
        if hop is not None:
            yield hop

    def flight(pid, delay, transfers):
        yield sim.timeout(delay)
        for idx, (src, dst, nbytes, to_pci, tclass) in enumerate(transfers):
            src, dst = src % n, dst % n
            args = (src, dst, nbytes, tclass, pid)
            if via_oracle:
                yield from oracles.transfer(net, *args)
            else:
                yield from sim.await_k(net.transfer, *args)
            finished.append((pid, idx, sim.now))
            if to_pci:
                yield from eject(dst, nbytes)

    def hog(node, delay, nbytes):
        yield sim.timeout(delay)
        yield from eject(node % n, nbytes)

    for node, delay, nbytes in schedule["hogs"]:
        sim.process(hog(node, delay, nbytes))
    for pid, (delay, transfers) in enumerate(schedule["procs"]):
        sim.process(flight(pid, delay, transfers))
    sim.run()
    resources = [link for _key, link in net.iter_links()]
    resources += [pci.port for pci in pcis]
    return {
        "finished": finished,
        "stats": net.stats,
        "resources": [(r.busy_time, r.wait_time, r.total_requests)
                      for r in resources],
        "rng": plan.rng.getstate() if plan is not None else None,
        "injected": plan.injected if plan is not None else None,
        "seq": sim._seq,
        "events": sim.events_processed,
        "now": sim.now,
    }


@given(schedule=mesh_schedules())
@settings(max_examples=80, deadline=None)
def test_mesh_transfer_matches_generator_oracle(schedule):
    assert _drive_mesh(schedule, via_oracle=False) \
        == _drive_mesh(schedule, via_oracle=True)


# -- vector clocks -----------------------------------------------------------

vectors = st.lists(st.integers(0, 50), min_size=3, max_size=3)


@given(a=vectors, b=vectors)
@settings(max_examples=60, deadline=None)
def test_merge_is_least_upper_bound(a, b):
    va, vb = VectorClock(values=a), VectorClock(values=b)
    merged = va.copy()
    merged.merge(vb)
    assert merged.dominates(va)
    assert merged.dominates(vb)
    assert merged.as_tuple() == tuple(max(x, y) for x, y in zip(a, b))


@given(a=vectors, b=vectors, c=vectors)
@settings(max_examples=40, deadline=None)
def test_dominance_is_transitive(a, b, c):
    va, vb, vc = (VectorClock(values=v) for v in (a, b, c))
    if va.dominates(vb) and vb.dominates(vc):
        assert va.dominates(vc)


@given(records=st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 20)),
    min_size=0, max_size=30),
    cuts=st.lists(st.integers(0, 20), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_interval_log_records_behind_complement(records, cuts):
    """records_behind(vc) returns exactly the known records not covered
    by vc: writers fill the store in id order, and the node has learned
    each writer's records through ``cuts[w]``."""
    store = IntervalStore(3)
    inserted = set(records)
    for writer, iid in sorted(inserted):
        store.add(IntervalRecord(writer=writer, interval_id=iid,
                                 pages=(0,)))
    log = IntervalLog(store)
    for writer, cut in enumerate(cuts):
        for record in store.records[writer]:
            if record.interval_id <= cut:
                log.add(record)
    clock = VectorClock(values=[5, 10, 0])
    behind = {(r.writer, r.interval_id)
              for r in log.records_behind(clock)}
    expected = {(w, i) for w, i in inserted if clock[w] < i <= cuts[w]}
    assert behind == expected
