"""Unit tests for the metrics registry.

Covers each primitive (counter, gauge, histogram, windowed rate), the
registry's get-or-create and namespacing behaviour, and the read-only
views the classic ``Instrumentation`` exposes on top of the registry.
"""

import json

import pytest

from repro.instrumentation import Instrumentation, MetricsRegistry
from repro.instrumentation.metrics import (
    Counter,
    Gauge,
    Histogram,
    WindowedRate,
)


def test_counter_increments_and_rejects_negative():
    counter = Counter("messages")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_gauge_tracks_high_water_mark():
    gauge = Gauge("queue")
    gauge.set(3.0)
    gauge.set(9.0)
    gauge.set(4.0)
    assert gauge.value == 4.0
    assert gauge.max_value == 9.0


def test_histogram_bucketing_and_stats():
    histogram = Histogram("lat", buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        histogram.observe(value)
    assert histogram.counts == [1, 1, 1, 1]  # one per bucket + overflow
    assert histogram.total == 4
    assert histogram.mean() == pytest.approx((0.5 + 5.0 + 50.0 + 500.0) / 4)
    assert histogram.min == 0.5 and histogram.max == 500.0
    assert histogram.quantile(0.25) == 1.0
    assert histogram.quantile(1.0) is None  # overflow bucket
    with pytest.raises(ValueError):
        histogram.quantile(1.5)
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("bad", buckets=())


def test_windowed_rate_evicts_old_samples():
    rate = WindowedRate("blocks", window=10.0)
    rate.record(0.0)
    rate.record(5.0)
    rate.record(9.0, occurrences=2)
    assert rate.count == 4
    # The window is half-open (now - window, now]: the t=0 sample has
    # just aged out at t=10.
    assert rate.rate(10.0) == pytest.approx(3 / 10.0)
    assert rate.rate(25.0) == pytest.approx(0.0)
    assert rate.count == 4  # lifetime count is not windowed


def test_registry_get_or_create_and_namespacing():
    registry = MetricsRegistry()
    assert registry.counter("a.x") is registry.counter("a.x")
    registry.inc("a.x")
    registry.inc("a.y", 2.0)
    registry.inc("b.z", 5.0)
    assert registry.value("a.x") == 1.0
    assert registry.value("missing") == 0.0
    assert registry.with_prefix("a.") == {"x": 1.0, "y": 2.0}
    document = registry.snapshot()
    json.dumps(document)  # must be JSON-serialisable as-is
    assert document["counters"]["b.z"] == 5.0
    assert "a.x" in registry.render()


def test_instrumentation_compatibility_views():
    # messages_sent / messages_received / fault_counters survived the
    # move onto the registry as thin views over the same counters.
    instrumentation = Instrumentation()
    instrumentation.on_fault(1.0, "loss")
    instrumentation.on_fault(2.0, "loss")
    instrumentation.on_fault(3.0, "crash")
    assert instrumentation.fault_counters == {"loss": 2, "crash": 1}
    assert instrumentation.metrics.value("fault.loss") == 2.0
    assert instrumentation.messages_sent == 0
    instrumentation.metrics.inc("messages.sent", 5)
    assert instrumentation.messages_sent == 5
