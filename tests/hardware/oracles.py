"""Reference mesh transfer the continuation ``MeshNetwork.transfer`` is
tested against.

:func:`transfer` is the generator form of ``MeshNetwork.transfer`` that
``src/repro/hardware/network.py`` carried beside the continuation form,
kept verbatim except for the fused quiet-window branch the network no
longer has (``self`` is the :class:`MeshNetwork`): same fault-spike
draw and accounting, links looked up by channel key, one ``yield`` per
hop.  Driving a schedule through it and through
``sim.await_k(net.transfer, ...)`` must land every event on the same
``(time, seq)`` slot.
"""


def transfer(self, src: int, dst: int, nbytes: int,
             traffic_class: str = "protocol", req: int = 0):
    """Generator: move ``nbytes`` from ``src`` to ``dst`` with contention.

    The caller (NIC) blocks for the full transfer; asynchronous sends
    wrap this in their own process.  ``req`` tags the trace event
    with the request id riding this transfer (0 = untracked).
    """
    if src == dst:
        return  # local loopback: no mesh traversal
    sim = self.sim
    start = sim.now
    path = self.route(src, dst)
    metrics = sim.metrics
    head = len(path) * self._head_per_hop
    serialization = nbytes * self.params.link_cycles_per_byte
    duration = head + serialization
    links = self._links
    faults = self.faults
    if faults is not None and faults.route_armed(path):
        spike = faults.link_spike(path)
        if spike > 0.0:
            duration += spike
            if metrics is not None:
                metrics.inc("net_spike_cycles", spike,
                            traffic_class=traffic_class)
    held = []
    try:
        for link_key in path:
            link = links[link_key]
            link_req = link.try_acquire()
            if link_req is None:
                link_req = link.request()
                yield link_req
            held.append((link_key, link_req))
        blocked = sim.now - start
        yield sim.pooled_timeout(duration)
    finally:
        for link_key, link_req in held:
            links[link_key].release(link_req)
    latency = sim.now - start
    self._account(src, dst, nbytes, latency, blocked, traffic_class,
                  start, len(path), req)
