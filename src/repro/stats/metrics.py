"""Labeled metrics registry: counters, gauges, histograms, time series.

The registry is the quantitative consumer of the model's one emission
call, :meth:`~repro.sim.trace.Tracer.emit`.  A run with metrics on
attaches a registry to its tracer, and :meth:`MetricsRegistry.fold`
turns each emitted event into counter and histogram updates through
:data:`FOLDS`, the one table that names every metric the model
produces, its labels and its buckets.  Model code never calls the
registry itself; a run without a tracer pays one ``is not None``
check per site, so simulation timing and results are bit-identical
with instrumentation off.

Metric families:

* :class:`Counter` -- monotonically increasing totals (faults, diffs,
  messages, bytes).
* :class:`Gauge` -- last-value-wins instantaneous readings.
* :class:`Histogram` -- fixed-boundary bucketed distributions
  (lock-acquire latency, diff size in dirty words, controller
  command-queue wait by priority).
* :class:`Series` -- explicit (time, value) pairs appended by the
  :class:`~repro.stats.sampler.Sampler`, giving occupancy and queue
  depths a time dimension instead of end-of-run scalars.

Every metric is keyed by ``(name, labels)`` where labels are sorted
key=value pairs, so ``registry.counter("faults", node=3)`` and
``registry.counter("faults", node=5)`` are distinct instruments.
``to_json()`` renders the whole registry as plain data for the run
report and the ``repro metrics`` CLI.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.hardware.controller import PRIORITY_PREFETCH

__all__ = [
    "Counter", "Gauge", "Histogram", "Series", "MetricsRegistry",
    "FOLDS", "LATENCY_BUCKETS", "DIFF_WORDS_BUCKETS", "QUEUE_WAIT_BUCKETS",
]

# Default bucket boundaries (cycles / words).  A value lands in the
# first bucket whose boundary is >= the value; one overflow bucket
# catches everything past the last boundary.
LATENCY_BUCKETS: Tuple[float, ...] = (
    100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
    100_000, 200_000, 500_000, 1_000_000)
QUEUE_WAIT_BUCKETS: Tuple[float, ...] = (
    0, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
    100_000)
DIFF_WORDS_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

LabelItems = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted(labels.items()))


class _Metric:
    """Common identity bits of one instrument."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels

    def _json_head(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels)}


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems):
        super().__init__(name, labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter decrement: {amount}")
        self.value += amount

    def to_json(self) -> Dict[str, Any]:
        out = self._json_head()
        out["value"] = self.value
        return out


class Gauge(_Metric):
    """A last-value-wins instantaneous reading."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems):
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_json(self) -> Dict[str, Any]:
        out = self._json_head()
        out["value"] = self.value
        return out


class Histogram(_Metric):
    """Fixed-boundary bucketed distribution with sum/count/min/max."""

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems,
                 buckets: Iterable[float] = LATENCY_BUCKETS):
        super().__init__(name, labels)
        bounds = tuple(buckets)
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket boundaries not sorted: {bounds}")
        if not bounds:
            raise ValueError("histogram needs at least one boundary")
        self.bounds = bounds
        # One count per boundary plus an overflow bucket.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-boundary approximation of the ``q`` quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max if self.max is not None else 0.0
        return self.max if self.max is not None else 0.0

    def to_json(self) -> Dict[str, Any]:
        out = self._json_head()
        out.update(buckets=list(self.bounds), counts=list(self.counts),
                   count=self.count, sum=self.sum,
                   min=self.min, max=self.max)
        return out


class Series(_Metric):
    """An explicit (time, value) sequence recorded by the sampler."""

    kind = "series"

    def __init__(self, name: str, labels: LabelItems):
        super().__init__(name, labels)
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def to_json(self) -> Dict[str, Any]:
        out = self._json_head()
        out.update(times=list(self.times), values=list(self.values))
        return out


class MetricsRegistry:
    """Get-or-create home for every instrument of one simulation run."""

    def __init__(self):
        self._metrics: Dict[Tuple[str, str, LabelItems], _Metric] = {}

    # -- get-or-create accessors ------------------------------------------

    def _get(self, cls, name: str, labels: Dict[str, Any], **kwargs):
        key = (cls.kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[2], **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Iterable[float] = LATENCY_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def series(self, name: str, **labels: Any) -> Series:
        return self._get(Series, name, labels)

    # -- convenience recorders ----------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float,
                buckets: Iterable[float] = LATENCY_BUCKETS,
                **labels: Any) -> None:
        self.histogram(name, buckets=buckets, **labels).observe(value)

    def sample(self, name: str, time: float, value: float,
               **labels: Any) -> None:
        self.series(name, **labels).append(time, value)

    def fold(self, category: str, event: Dict[str, Any]) -> None:
        """Apply the :data:`FOLDS` entry of one emitted event, if any."""
        fold = FOLDS.get((category, event.get("action")))
        if fold is None:
            fold = FOLDS.get((category, None))
        if fold is not None:
            fold(self, event)

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def all(self, kind: Optional[str] = None,
            name: Optional[str] = None) -> List[_Metric]:
        """Instruments filtered by kind and/or name, in insertion order."""
        return [m for m in self._metrics.values()
                if (kind is None or m.kind == kind)
                and (name is None or m.name == name)]

    def to_json(self) -> Dict[str, Any]:
        keys = {"counter": "counters", "gauge": "gauges",
                "histogram": "histograms", "series": "series"}
        out: Dict[str, Any] = {key: [] for key in keys.values()}
        for metric in self._metrics.values():
            out[keys[metric.kind]].append(metric.to_json())
        return out


# -- the fold table: emitted event -> metrics -------------------------------
#
# ``ev`` is the payload a site passed to ``Tracer.emit``; each fold reads
# only fields its site supplies.


def _fault(reg, ev):
    reg.inc("faults", node=ev["node"], kind=ev["action"])
    reg.observe("fault_stall_cycles", ev["dur"], kind=ev["action"])


def _diff(reg, ev):
    reg.inc(f"diff_{ev['action']}s", node=ev["node"])
    reg.observe("diff_size_words", ev["words"],
                buckets=DIFF_WORDS_BUCKETS, action=ev["action"])


def _notice(reg, ev):
    reg.inc("write_notices", ev["notices"], node=ev["node"])
    reg.inc("notice_invalidations", ev["invalidated"], node=ev["node"])


def _prefetch(reg, ev):
    reg.inc("prefetch_events", node=ev["node"], action=ev["action"])


def _lock_acquire(reg, ev):
    reg.inc("lock_acquires", node=ev["node"], cached=ev["cached"])
    reg.observe("lock_acquire_cycles", ev["dur"], cached=ev["cached"])


def _dequeue(reg, ev):
    priority = "low" if ev["priority"] >= PRIORITY_PREFETCH else "high"
    reg.observe("ctrl_queue_wait", ev["wait"], buckets=QUEUE_WAIT_BUCKETS,
                node=ev["node"], priority=priority)
    if ev["stall"] > 0.0:
        reg.inc("ctrl_stall_cycles", ev["stall"], node=ev["node"])


def _ctrl(reg, ev):
    reg.inc("ctrl_commands", node=ev["node"], command=ev["action"])
    reg.inc("ctrl_busy_cycles", ev["dur"], node=ev["node"])


def _msg(reg, ev):
    node, traffic_class = ev["node"], ev["traffic_class"]
    reg.inc("nic_messages", node=node, traffic_class=traffic_class)
    reg.inc("nic_bytes", ev["bytes"], node=node, traffic_class=traffic_class)


def _retransmit(reg, ev):
    reg.inc("nic_retransmits", node=ev["node"], dst=ev["dst"])
    reg.inc("nic_retx_timeouts", node=ev["node"])
    reg.observe("nic_backoff_cycles", ev["backoff"], node=ev["node"])


def _net(reg, ev):
    traffic_class = ev["action"]
    reg.inc("net_transfers", traffic_class=traffic_class)
    reg.inc("net_bytes", ev["bytes"], traffic_class=traffic_class)
    reg.inc("net_blocked_cycles", ev["blocked"],
            traffic_class=traffic_class)


#: ``(category, action) -> fold(registry, event)``.  An action of
#: ``None`` matches every action of its category without an entry of its
#: own (and events that carry no action).  Events without an entry --
#: ``req`` legs, ``fault`` ``write-arm``, ``lock`` ``forward``/``grant``/
#: ``release``, ``barrier`` ``interval`` -- feed no metric.  The
#: categories ``dequeue``, ``dup``, ``ack``, ``spike``, ``au-wait`` and
#: ``inject`` exist only for this table: a tracer never records them.
FOLDS: Dict[Tuple[str, Optional[str]],
            Callable[[MetricsRegistry, Dict[str, Any]], None]] = {
    ("fault", "read"): _fault,
    ("fault", "write"): _fault,
    ("fault", "access"): _fault,
    ("diff", "create"): _diff,
    ("diff", "apply"): _diff,
    ("notice", "process"): _notice,
    ("prefetch", "issue"): _prefetch,
    ("prefetch", "hit"): _prefetch,
    ("prefetch", "useless"): _prefetch,
    ("prefetch", "late"): _prefetch,
    ("lock", "acquire"): _lock_acquire,
    ("barrier", "wait"): lambda reg, ev: reg.observe(
        "barrier_wait_cycles", ev["dur"], node=ev["node"]),
    ("barrier", "release"): lambda reg, ev: reg.inc(
        "barrier_episodes", barrier=ev["barrier"]),
    ("dequeue", None): _dequeue,
    ("ctrl", None): _ctrl,
    ("msg", None): _msg,
    ("retx", "retransmit"): _retransmit,
    ("dup", None): lambda reg, ev: reg.inc(
        "nic_dups_dropped", node=ev["node"], src=ev["src"]),
    ("ack", None): lambda reg, ev: reg.inc(
        "nic_acks", node=ev["node"], dst=ev["dst"]),
    # One update batch per delivery, labeled with its sender.
    ("au", "deliver"): lambda reg, ev: reg.inc(
        "au_update_batches", node=ev["src"]),
    ("au-wait", None): lambda reg, ev: reg.inc(
        "au_local_wait_cycles", ev["dur"], node=ev["node"]),
    ("net", None): _net,
    ("spike", None): lambda reg, ev: reg.inc(
        "net_spike_cycles", ev["spike"], traffic_class=ev["traffic_class"]),
    ("inject", None): lambda reg, ev: reg.inc("faults_injected", **ev),
}
