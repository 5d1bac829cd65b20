"""Execute the library's docstring examples as tests."""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro.analysis.experiments",
    "repro.analysis.stats",
    "repro.core.rate_estimator",
    "repro.instrumentation.metrics",
    "repro.instrumentation.trace",
    "repro.protocol.bencode",
    "repro.protocol.peer_id",
    "repro.protocol.stream",
    "repro.reporting.render",
]


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    failures, tests = doctest.testmod(module, verbose=False)
    assert tests > 0, "expected at least one example in %s" % module_name
    assert failures == 0
