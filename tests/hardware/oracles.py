"""Reference mesh transfer the continuation ``MeshNetwork.transfer`` is
tested against.

:func:`transfer` is the generator form of ``MeshNetwork.transfer`` that
``src/repro/hardware/network.py`` carried beside the continuation form,
kept verbatim (``self`` is the :class:`MeshNetwork`): same fuse check,
fault-spike draw and accounting, one ``yield`` per hop.  Driving a
schedule through it and through ``sim.await_k(net.transfer, ...)`` must
land every event on the same ``(time, seq)`` slot.
"""


def transfer(self, src: int, dst: int, nbytes: int,
             traffic_class: str = "protocol", req: int = 0,
             tail_cycles: float = 0.0, tail_accounts=()):
    """Generator: move ``nbytes`` from ``src`` to ``dst`` with contention.

    The caller (NIC) blocks for the full transfer; asynchronous sends
    wrap this in their own process.  ``req`` tags the trace event
    with the request id riding this transfer (0 = untracked).

    ``tail_cycles``/``tail_accounts`` let the caller fold its
    immediately-following delivery bursts (destination PCI / DRAM)
    into the transfer's fused timeout: when all links and tail
    resources are idle and nothing else is scheduled strictly inside
    the combined window, the whole flight collapses to one event,
    with every resource accounted exactly as held/released bursts.
    Returns True when the tail was folded in (the caller must skip
    its own tail bursts), else False.
    """
    if src == dst:
        return False  # local loopback: no mesh traversal
    sim = self.sim
    start = sim.now
    path = self.route(src, dst)
    metrics = sim.metrics
    head = len(path) * self._head_per_hop
    serialization = nbytes * self.params.link_cycles_per_byte
    duration = head + serialization
    links = self._links
    folded = False
    fuse = True
    faults = self.faults
    if faults is not None and faults.route_armed(path):
        # Armed routes must never take the fused quiet window: the
        # spike draw has to happen at this transfer's position in
        # event order, and its extra cycles must not be silently
        # folded into a pooled timeout sized before the draw.
        fuse = False
        spike = faults.link_spike(path)
        if spike > 0.0:
            duration += spike
            if metrics is not None:
                metrics.inc("net_spike_cycles", spike,
                            traffic_class=traffic_class)
    if fuse:
        for link_key in path:
            link = links[link_key]
            if link.users or link._queue:
                fuse = False
                break
    if fuse:
        for resource, _cycles in tail_accounts:
            if resource.users or resource.queue_length:
                fuse = False
                break
    if fuse:
        window = duration + tail_cycles
        heap = sim._heap
        if not sim._nowq and (not heap or heap[0][0] > start + window):
            for link_key in path:
                links[link_key].account_uncontended(duration)
            for resource, cycles in tail_accounts:
                resource.account_uncontended(cycles)
            yield sim.pooled_timeout(window)
            folded = tail_cycles > 0
            blocked = 0.0
            latency = duration
        else:
            fuse = False
    if not fuse:
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
    return folded
