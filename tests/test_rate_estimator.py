"""Tests for the sliding-window rate estimator."""

import pytest
from hypothesis import given, strategies as st

from repro.core.rate_estimator import ByteCounter, RateEstimator

from tests.probes import total_in_window


class TestRateEstimator:
    def test_empty_rate_is_zero(self):
        assert RateEstimator(20.0).rate(100.0) == 0.0

    def test_single_sample(self):
        estimator = RateEstimator(20.0)
        estimator.add(0.0, 2000.0)
        assert estimator.rate(0.0) == pytest.approx(100.0)

    def test_rate_divides_by_full_window(self):
        estimator = RateEstimator(10.0)
        estimator.add(0.0, 100.0)
        # Half way through the window the sample still counts fully.
        assert estimator.rate(5.0) == pytest.approx(10.0)

    def test_samples_expire(self):
        estimator = RateEstimator(10.0)
        estimator.add(0.0, 100.0)
        assert estimator.rate(10.1) == 0.0

    def test_expiry_boundary_is_exclusive(self):
        estimator = RateEstimator(10.0)
        estimator.add(0.0, 100.0)
        # A sample exactly window-old has aged out (t - window >= t0).
        assert estimator.rate(10.0) == 0.0

    def test_steady_stream(self):
        estimator = RateEstimator(20.0)
        for t in range(0, 100):
            estimator.add(float(t), 50.0)
        assert estimator.rate(99.0) == pytest.approx(50.0, rel=0.05)

    def test_rate_decays_after_burst(self):
        estimator = RateEstimator(20.0)
        estimator.add(0.0, 1000.0)
        early = estimator.rate(1.0)
        late = estimator.rate(19.0)
        gone = estimator.rate(21.0)
        assert early == late  # constant while inside the window
        assert gone == 0.0

    def test_out_of_order_rejected(self):
        estimator = RateEstimator(20.0)
        estimator.add(5.0, 1.0)
        with pytest.raises(ValueError):
            estimator.add(4.0, 1.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            RateEstimator(20.0).add(0.0, -1.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            RateEstimator(0.0)

    @pytest.mark.parametrize("cls", [RateEstimator, ByteCounter])
    @pytest.mark.parametrize("window", [float("nan"), float("inf"), 0.0])
    def test_window_must_be_finite_and_positive(self, cls, window):
        with pytest.raises(ValueError, match="finite and positive"):
            cls(window)

    def test_reset(self):
        estimator = RateEstimator(20.0)
        estimator.add(0.0, 100.0)
        estimator.reset()
        assert estimator.rate(0.0) == 0.0

    def test_total_in_window(self):
        estimator = RateEstimator(10.0)
        estimator.add(0.0, 30.0)
        estimator.add(5.0, 70.0)
        assert total_in_window(estimator, 5.0) == pytest.approx(100.0)
        assert total_in_window(estimator, 12.0) == pytest.approx(70.0)


class TestByteCounter:
    def test_total_is_monotonic_and_unwindowed(self):
        counter = ByteCounter(10.0)
        counter.add(0.0, 100.0)
        counter.add(50.0, 100.0)
        assert counter.total == 200.0
        assert counter.rate(50.0) == pytest.approx(10.0)

    def test_rate_matches_estimator(self):
        counter = ByteCounter(20.0)
        counter.add(0.0, 200.0)
        assert counter.rate(0.0) == pytest.approx(10.0)


@given(
    st.lists(
        st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1e6)),
        min_size=1,
        max_size=50,
    )
)
def test_property_total_never_negative(samples):
    estimator = RateEstimator(20.0)
    samples = sorted(samples, key=lambda pair: pair[0])
    for t, num_bytes in samples:
        estimator.add(t, num_bytes)
        assert estimator.rate(t) >= 0.0
    last_t = samples[-1][0]
    assert estimator.rate(last_t + 100.0) == 0.0


@given(
    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
    st.floats(1.0, 50.0),
)
def test_property_window_sum_bound(amounts, window):
    """The windowed total never exceeds the sum of everything added."""
    estimator = RateEstimator(window)
    t = 0.0
    total_added = 0.0
    for amount in amounts:
        estimator.add(t, amount)
        total_added += amount
        assert total_in_window(estimator, t) <= total_added + 1e-9
        t += 1.0
