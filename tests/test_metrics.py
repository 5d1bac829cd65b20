"""Unit tests for the metrics registry.

Covers the counter, the registry's get-or-create and namespacing
behaviour, and the read-only views the classic ``Instrumentation``
exposes on top of the registry.
"""

import json

import pytest

from repro.instrumentation import Instrumentation, MetricsRegistry
from repro.instrumentation.metrics import Counter


def test_counter_increments_and_rejects_negative():
    counter = Counter("messages")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1.0)


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
