"""Tests for the max-min fair bandwidth allocator."""

from random import Random

import pytest
from hypothesis import given, strategies as st

from repro.sim.bandwidth import Flow, max_min_allocation


class TestMaxMin:
    def test_empty(self):
        max_min_allocation([], {}, {})  # must not raise

    def test_single_flow_upload_limited(self):
        flows = [Flow("a", "b")]
        max_min_allocation(flows, {"a": 100.0}, {"b": 1000.0})
        assert flows[0].rate == pytest.approx(100.0)

    def test_single_flow_download_limited(self):
        flows = [Flow("a", "b")]
        max_min_allocation(flows, {"a": 1000.0}, {"b": 100.0})
        assert flows[0].rate == pytest.approx(100.0)

    def test_uploader_splits_equally(self):
        flows = [Flow("a", "b"), Flow("a", "c")]
        max_min_allocation(flows, {"a": 100.0}, {})
        assert flows[0].rate == pytest.approx(50.0)
        assert flows[1].rate == pytest.approx(50.0)

    def test_slow_downloader_frees_capacity_for_other(self):
        # a (100) -> b (capped 10) and a -> c (uncapped): max-min gives
        # b its 10 and the rest (90) to c.
        flows = [Flow("a", "b"), Flow("a", "c")]
        max_min_allocation(flows, {"a": 100.0}, {"b": 10.0})
        rates = {f.downloader: f.rate for f in flows}
        assert rates["b"] == pytest.approx(10.0)
        assert rates["c"] == pytest.approx(90.0)

    def test_download_contention(self):
        flows = [Flow("a", "x"), Flow("b", "x")]
        max_min_allocation(flows, {"a": 100.0, "b": 100.0}, {"x": 60.0})
        assert flows[0].rate == pytest.approx(30.0)
        assert flows[1].rate == pytest.approx(30.0)

    def test_zero_capacity_uploader(self):
        flows = [Flow("a", "b")]
        max_min_allocation(flows, {"a": 0.0}, {})
        assert flows[0].rate == 0.0

    def test_unconstrained_downloader_default(self):
        # Missing download capacity means unconstrained (the paper's
        # monitored client has no download limit).
        flows = [Flow("a", "b")]
        max_min_allocation(flows, {"a": 42.0}, {})
        assert flows[0].rate == pytest.approx(42.0)

    def test_classic_three_flow_example(self):
        # Textbook max-min: sources a,b,c with caps 10, 100, 100 sharing a
        # downloader capped at 150: a gets 10, b and c get 70 each.
        flows = [Flow("a", "x"), Flow("b", "x"), Flow("c", "x")]
        max_min_allocation(
            flows, {"a": 10.0, "b": 100.0, "c": 100.0}, {"x": 150.0}
        )
        rates = {f.uploader: f.rate for f in flows}
        assert rates["a"] == pytest.approx(10.0)
        assert rates["b"] == pytest.approx(70.0)
        assert rates["c"] == pytest.approx(70.0)

    def test_allocation_summary(self):
        flows = [Flow("a", "b"), Flow("a", "c"), Flow("d", "b")]
        max_min_allocation(flows, {"a": 100.0, "d": 30.0}, {})
        totals = {}
        for flow in flows:
            totals[flow.uploader] = totals.get(flow.uploader, 0.0) + flow.rate
        assert totals["a"] == pytest.approx(100.0)
        assert totals["d"] == pytest.approx(30.0)


@st.composite
def _random_network(draw):
    num_up = draw(st.integers(1, 6))
    num_down = draw(st.integers(1, 6))
    uploads = {
        "u%d" % i: draw(st.floats(0.0, 1000.0)) for i in range(num_up)
    }
    downloads = {
        "d%d" % i: draw(st.floats(1.0, 1000.0)) for i in range(num_down)
    }
    flows = []
    for __ in range(draw(st.integers(1, 12))):
        up = draw(st.sampled_from(sorted(uploads)))
        down = draw(st.sampled_from(sorted(downloads)))
        flows.append(Flow(up, down))
    return flows, uploads, downloads


@given(_random_network())
def test_property_maxmin_feasible(network):
    """No node's capacity is ever exceeded (within float tolerance)."""
    flows, uploads, downloads = network
    max_min_allocation(flows, uploads, downloads)
    up_totals = {}
    down_totals = {}
    for flow in flows:
        assert flow.rate >= 0.0
        up_totals[flow.uploader] = up_totals.get(flow.uploader, 0.0) + flow.rate
        down_totals[flow.downloader] = (
            down_totals.get(flow.downloader, 0.0) + flow.rate
        )
    for node, total in up_totals.items():
        assert total <= uploads[node] + 1e-6 * max(1.0, uploads[node])
    for node, total in down_totals.items():
        assert total <= downloads[node] + 1e-6 * max(1.0, downloads[node])


@given(_random_network())
def test_property_maxmin_is_maximal(network):
    """No flow can be increased without violating some capacity: every
    flow traverses at least one saturated node."""
    flows, uploads, downloads = network
    max_min_allocation(flows, uploads, downloads)
    up_totals = {}
    down_totals = {}
    for flow in flows:
        up_totals[flow.uploader] = up_totals.get(flow.uploader, 0.0) + flow.rate
        down_totals[flow.downloader] = (
            down_totals.get(flow.downloader, 0.0) + flow.rate
        )
    for flow in flows:
        up_cap = uploads[flow.uploader]
        down_cap = downloads[flow.downloader]
        up_saturated = up_totals[flow.uploader] >= up_cap - 1e-6 * max(1.0, up_cap)
        down_saturated = down_totals[flow.downloader] >= down_cap - 1e-6 * max(
            1.0, down_cap
        )
        assert up_saturated or down_saturated


@pytest.mark.parametrize("seed", range(20))
def test_maxmin_is_an_equal_split_when_upload_constrained(seed):
    """In the paper's regime — upload caps far below download caps —
    only uploader links ever saturate, so progressive filling must give
    every flow an equal share of its uploader's capacity."""
    rng = Random(seed)
    num_up = rng.randint(1, 6)
    num_down = rng.randint(1, 6)
    # Uploads of a few units vs downloads of thousands: the downloader
    # cap can never bind (at most 6 uploaders x 10 units inbound).
    uploads = {"u%d" % i: rng.uniform(1.0, 10.0) for i in range(num_up)}
    downloads = {"d%d" % i: rng.uniform(1000.0, 2000.0) for i in range(num_down)}
    flows = [
        Flow(
            rng.choice(sorted(uploads)),
            rng.choice(sorted(downloads)),
        )
        for __ in range(rng.randint(1, 12))
    ]
    max_min_allocation(flows, uploads, downloads)
    fan_out = {}
    for flow in flows:
        fan_out[flow.uploader] = fan_out.get(flow.uploader, 0) + 1
    for flow in flows:
        assert flow.rate == pytest.approx(
            uploads[flow.uploader] / fan_out[flow.uploader], rel=1e-6
        )


class TestUnconstrainedFlows:
    def test_fully_unconstrained_flow_is_infinitely_fast(self):
        # Neither endpoint has a capacity entry: the model treats the
        # flow as infinitely fast rather than stalling or raising.
        flows = [Flow("a", "b")]
        max_min_allocation(flows, {}, {})
        assert flows[0].rate == float("inf")

    def test_unconstrained_flow_does_not_starve_constrained_one(self):
        flows = [Flow("a", "x"), Flow("b", "y")]
        max_min_allocation(flows, {"a": 10.0}, {})
        rates = {f.uploader: f.rate for f in flows}
        assert rates["a"] == pytest.approx(10.0)
        assert rates["b"] == float("inf")
