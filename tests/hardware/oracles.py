"""Reference hop implementations the hardware's hops are tested against.

:func:`transfer` is the generator form of ``MeshNetwork.transfer`` that
``src/repro/hardware/network.py`` carried beside the continuation form,
kept verbatim except for the fused quiet-window branch the network no
longer has (``self`` is the :class:`MeshNetwork`): same fault-spike
draw and accounting, links looked up by channel key, one ``yield`` per
hop.  Driving a schedule through it and through
``sim.await_k(net.transfer, ...)`` must land every event on the same
``(time, seq)`` slot.

:func:`pci_transfer`/:func:`pci_transfer_k` and
:func:`memory_access`/:func:`memory_access_k` are the two forms each of
``PciBus.transfer`` and ``MainMemory.access`` had before both became
one method returning the event a burst ends on: the generator form for
generator callers and the continuation form for state structs, kept
verbatim except for the byte/word counters the classes no longer carry
(``self`` is the :class:`PciBus` or :class:`MainMemory`).  A generator
yielding the new hop must resume where ``yield from`` the generator
form did, and a state struct appending to its callbacks where the
continuation form called ``k``.
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


def pci_transfer(self, nbytes: int):
    """Generator: move ``nbytes`` across the bus as one burst."""
    if nbytes <= 0:
        return
    cycles = self.params.pci_transfer_cycles(nbytes)
    port = self.port
    req = port.try_acquire()
    if req is None:
        req = port.request()
        yield req
    try:
        yield self.sim.pooled_timeout(cycles)
    finally:
        port.release(req)


def pci_transfer_k(self, nbytes: int, k) -> None:
    """Continuation form of :func:`pci_transfer`: call ``k()`` when done."""
    if nbytes <= 0:
        k()
        return
    cycles = self.params.pci_transfer_cycles(nbytes)
    port = self.port
    req = port.try_acquire()
    if req is not None:
        self.sim.call_in(cycles, _finish_k, self, req, k)
        return
    req = port.request()
    req.callbacks.append(
        lambda _evt, s=self, c=cycles, r=req, kk=k:
        s.sim.call_in(c, _finish_k, s, r, kk))


def memory_access(self, nwords: int, scattered: bool = False):
    """Generator: occupy the memory port for one burst of ``nwords``."""
    if nwords <= 0:
        return
    cycles = self._cycles(nwords, scattered)
    port = self.port
    req = port.try_acquire()
    if req is None:
        req = port.request()
        yield req
    try:
        yield self.sim.pooled_timeout(cycles)
    finally:
        port.release(req)


def memory_access_k(self, nwords: int, k) -> None:
    """Continuation form of :func:`memory_access`: call ``k()`` when done."""
    if nwords <= 0:
        k()
        return
    cycles = self._cycles(nwords, False)
    port = self.port
    req = port.try_acquire()
    if req is not None:
        self.sim.call_in(cycles, _finish_k, self, req, k)
        return
    req = port.request()
    req.callbacks.append(
        lambda _evt, s=self, c=cycles, r=req, kk=k:
        s.sim.call_in(c, _finish_k, s, r, kk))


def _finish_k(self, req, k) -> None:
    self.port.release(req)
    k()
