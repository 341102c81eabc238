"""MetricsRegistry instruments and serialization."""

import pytest

from repro.stats.metrics import (
    DIFF_WORDS_BUCKETS,
    QUEUE_WAIT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)


def test_counter_labels_are_distinct_instruments():
    reg = MetricsRegistry()
    reg.inc("faults", node=0)
    reg.inc("faults", node=0)
    reg.inc("faults", node=1)
    assert reg.counter("faults", node=0).value == 2
    assert reg.counter("faults", node=1).value == 1
    assert len(reg.all("counter", "faults")) == 2


def test_counter_rejects_decrement():
    counter = Counter("x", ())
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_last_value_wins():
    reg = MetricsRegistry()
    reg.set_gauge("depth", 4, node=2)
    reg.set_gauge("depth", 7, node=2)
    assert reg.gauge("depth", node=2).value == 7


def test_histogram_bucketing_and_stats():
    hist = Histogram("lat", (), buckets=(10, 100, 1000))
    for value in (5, 10, 50, 5000):
        hist.observe(value)
    # bisect_left: 5->b0, 10->b0 (boundary inclusive), 50->b1, 5000->overflow
    assert hist.counts == [2, 1, 0, 1]
    assert hist.count == 4
    assert hist.sum == 5065
    assert hist.min == 5 and hist.max == 5000
    assert hist.mean == pytest.approx(5065 / 4)
    assert hist.quantile(0.5) == 10
    assert hist.quantile(1.0) == 5000


def test_histogram_rejects_unsorted_or_empty_bounds():
    with pytest.raises(ValueError):
        Histogram("x", (), buckets=(10, 5))
    with pytest.raises(ValueError):
        Histogram("x", (), buckets=())


def test_histogram_quantile_range_check():
    hist = Histogram("x", (), buckets=(1,))
    with pytest.raises(ValueError):
        hist.quantile(1.5)
    assert hist.quantile(0.5) == 0.0  # empty histogram


def test_series_appends_in_order():
    reg = MetricsRegistry()
    reg.sample("occ", 10.0, 0.5, node=0)
    reg.sample("occ", 20.0, 0.7, node=0)
    series = reg.series("occ", node=0)
    assert series.times == [10.0, 20.0]
    assert series.values == [0.5, 0.7]
    assert len(series) == 2


def test_to_json_round_trip_shape():
    reg = MetricsRegistry()
    reg.inc("faults", 3, node=0)
    reg.set_gauge("depth", 2, node=1)
    reg.observe("words", 17, buckets=DIFF_WORDS_BUCKETS, action="create")
    reg.sample("occ", 10.0, 0.25, node=0)
    doc = reg.to_json()
    assert {c["name"]: c["value"] for c in doc["counters"]} == {"faults": 3}
    assert doc["counters"][0]["labels"] == {"node": 0}
    assert doc["gauges"][0]["value"] == 2
    hist = doc["histograms"][0]
    assert hist["count"] == 1 and hist["sum"] == 17
    assert hist["buckets"] == list(DIFF_WORDS_BUCKETS)
    assert sum(hist["counts"]) == 1
    series = doc["series"][0]
    assert series["times"] == [10.0] and series["values"] == [0.25]


def test_all_filters_by_kind_and_name():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.inc("b")
    reg.observe("a", 1)
    assert len(reg.all()) == 3
    assert len(reg.all("counter")) == 2
    assert len(reg.all("counter", "a")) == 1
    assert len(reg.all("histogram", "a")) == 1


@pytest.mark.parametrize("category,event", [
    ("fault", {"node": 0, "action": "write-arm", "page": 1, "dur": 5.0}),
    ("lock", {"node": 0, "action": "forward", "lock": 1}),
    ("lock", {"node": 0, "action": "grant", "lock": 1}),
    ("lock", {"node": 0, "action": "release", "lock": 1, "dur": 5.0}),
    ("barrier", {"node": 0, "action": "interval", "dur": 5.0}),
    ("req", {"leg": "done", "req": 7}),
    ("custom", {"node": 0}),
])
def test_fold_ignores_events_that_feed_no_metric(category, event):
    reg = MetricsRegistry()
    reg.fold(category, event)
    assert len(reg) == 0


def test_fold_dequeue_labels_priority_and_counts_only_real_stalls():
    reg = MetricsRegistry()
    reg.fold("dequeue", {"node": 1, "priority": 0, "wait": 30.0,
                         "stall": 0.0})
    reg.fold("dequeue", {"node": 1, "priority": 2, "wait": 70.0,
                         "stall": 400.0})
    assert reg.histogram("ctrl_queue_wait", buckets=QUEUE_WAIT_BUCKETS,
                         node=1, priority="high").sum == 30.0
    low = reg.histogram("ctrl_queue_wait", buckets=QUEUE_WAIT_BUCKETS,
                        node=1, priority="low")
    assert low.sum == 70.0 and low.bounds == QUEUE_WAIT_BUCKETS
    assert [c.value for c in reg.all("counter", "ctrl_stall_cycles")] \
        == [400.0]


def test_fold_names_diff_metrics_by_action():
    reg = MetricsRegistry()
    reg.fold("diff", {"node": 2, "action": "create", "words": 17,
                      "begin": 0.0, "dur": 9.0})
    assert reg.counter("diff_creates", node=2).value == 1
    hist = reg.histogram("diff_size_words", buckets=DIFF_WORDS_BUCKETS,
                         action="create")
    assert hist.count == 1 and hist.bounds == DIFF_WORDS_BUCKETS


def test_fold_inject_keeps_fault_labels():
    reg = MetricsRegistry()
    reg.fold("inject", {"kind": "drop", "src": 0, "dst": 3})
    assert reg.counter("faults_injected", kind="drop", src=0,
                       dst=3).value == 1
