"""Tests for the figure-analysis modules, on synthetic traces and on
small real swarm runs."""

import math

import pytest

from repro.analysis.entropy import entropy_ratios, summarize_entropy
from repro.analysis.fairness import (
    leecher_contribution,
    seed_contribution,
    seed_service_bytes,
    unchoke_interest_correlation,
)
from repro.analysis.interarrival import interarrival_summary, interarrival_times
from repro.analysis.peerset import peer_set_series
from repro.analysis.replication import (
    linearity_r_squared,
    rarest_set_decay_rate,
    rarest_set_series,
    replication_series,
)
from repro.analysis.stats import cdf_at, median, pearson, percentile
from repro.instrumentation import Instrumentation
from repro.sim.config import KIB

from tests.conftest import fast_config, tiny_swarm


class TestStats:
    def test_percentile_midpoint(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_percentile_extremes(self):
        values = [5, 1, 3]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 0.25) == pytest.approx(2.5)

    def test_percentile_single(self):
        assert percentile([7], 0.8) == 7.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_cdf_at(self):
        assert cdf_at([1, 2, 3, 4], 2.5) == 0.5
        assert cdf_at([], 1.0) == 0.0

    def test_pearson_perfect(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_pearson_degenerate(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0
        assert pearson([1], [2]) == 0.0

    def test_pearson_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1])

    def test_median(self):
        assert median([1, 3, 2]) == 2.0


class TestInterarrival:
    def test_interarrival_times(self):
        assert interarrival_times([0.0, 1.0, 4.0]) == [1.0, 3.0]

    def test_unordered_input_sorted(self):
        assert interarrival_times([4.0, 0.0, 1.0]) == [1.0, 3.0]

    def test_summary_partitions(self):
        trace = Instrumentation()
        trace.piece_completions = [(float(i), i) for i in range(300)]
        summary = interarrival_summary(trace, kind="piece", n=100)
        assert len(summary.all_items) == 299
        assert len(summary.first_n) == 100
        assert len(summary.last_n) == 100

    def test_first_items_problem_detected(self):
        trace = Instrumentation()
        # First 100 pieces arrive slowly (gap 10), the rest quickly (gap 1).
        times, t = [], 0.0
        for i in range(300):
            t += 10.0 if i < 100 else 1.0
            times.append((t, i))
        trace.piece_completions = times
        summary = interarrival_summary(trace, kind="piece", n=100)
        assert summary.first_slowdown() > 2.0
        assert summary.last_slowdown() == pytest.approx(1.0, rel=0.2)

    def test_block_kind(self):
        trace = Instrumentation()
        trace.block_arrivals = [(float(i), 0, i, 16) for i in range(50)]
        summary = interarrival_summary(trace, kind="block", n=10)
        assert summary.median_all == 1.0

    def test_invalid_kind(self):
        trace = Instrumentation()
        trace.piece_completions = [(0.0, 0), (1.0, 1), (2.0, 2)]
        with pytest.raises(ValueError):
            interarrival_summary(trace, kind="chunk")

    def test_too_few_arrivals(self):
        trace = Instrumentation()
        trace.piece_completions = [(0.0, 0)]
        with pytest.raises(ValueError):
            interarrival_summary(trace, kind="piece")

    def test_n_adapts_to_small_traces(self):
        trace = Instrumentation()
        trace.piece_completions = [(float(i), i) for i in range(30)]
        summary = interarrival_summary(trace, kind="piece", n=100)
        assert summary.n == 10


class TestReplicationHelpers:
    def test_decay_rate_linear(self):
        times = [float(t) for t in range(100)]
        sizes = [1000 - 3 * t for t in range(100)]
        rate = rarest_set_decay_rate(times, sizes)
        assert rate == pytest.approx(-3.0)
        assert linearity_r_squared(times, sizes) == pytest.approx(1.0)

    def test_decay_rate_degenerate(self):
        assert rarest_set_decay_rate([1.0], [5]) is None
        assert rarest_set_decay_rate([1.0, 1.0], [5, 6]) is None

    def test_r_squared_constant(self):
        assert linearity_r_squared([0.0, 1.0, 2.0], [5, 5, 5]) is None


class TestOnRealRuns:
    @pytest.fixture(scope="class")
    def completed_run(self):
        swarm = tiny_swarm(num_pieces=24, seed=11)
        swarm.add_peer(config=fast_config(), is_seed=True)
        for __ in range(6):
            swarm.add_peer(config=fast_config(upload=2 * KIB))
        trace = Instrumentation()
        local = swarm.add_peer(config=fast_config(upload=4 * KIB), observer=trace)
        trace.start_sampling()
        swarm.run(1200)
        trace.finalize()
        return swarm, local, trace

    def test_entropy_ratios_in_unit_interval(self, completed_run):
        __, __, trace = completed_run
        local_ratios, remote_ratios = entropy_ratios(trace)
        for ratio in local_ratios + remote_ratios:
            assert 0.0 <= ratio <= 1.0

    def test_entropy_summary_percentiles_ordered(self, completed_run):
        __, __, trace = completed_run
        summary = summarize_entropy(trace)
        if summary.local_in_remote:
            assert summary.p20_local <= summary.median_local <= summary.p80_local

    def test_replication_series_from_snapshots(self, completed_run):
        __, __, trace = completed_run
        series = replication_series(trace)
        assert len(series.times) == len(series.min_copies)
        assert all(
            low <= mean <= high
            for low, mean, high in zip(
                series.min_copies, series.mean_copies, series.max_copies
            )
        )

    def test_leecher_only_filter(self, completed_run):
        __, __, trace = completed_run
        all_series = replication_series(trace)
        leecher_series = replication_series(trace, leecher_state_only=True)
        assert len(leecher_series.times) <= len(all_series.times)
        if leecher_series.times:
            assert max(leecher_series.times) <= trace.seed_state_at + 10.0

    def test_rarest_set_series(self, completed_run):
        __, __, trace = completed_run
        times, sizes = rarest_set_series(trace)
        assert len(times) == len(sizes)
        assert all(size >= 0 for size in sizes)

    def test_peer_set_series(self, completed_run):
        swarm, __, trace = completed_run
        times, sizes = peer_set_series(trace)
        assert max(sizes) <= 80
        assert max(sizes) >= 7  # the whole tiny swarm fits in the peer set

    def test_piece_interarrival_summary(self, completed_run):
        __, __, trace = completed_run
        summary = interarrival_summary(trace, kind="piece")
        assert summary.median_all > 0

    def test_contributions(self, completed_run):
        __, __, trace = completed_run
        up_shares, down_shares = leecher_contribution(trace)
        assert len(up_shares) == 6
        assert sum(up_shares) <= 1.0 + 1e-9
        seed_shares = seed_contribution(trace)
        assert len(seed_shares) == 6

    def test_unchoke_correlation_states(self, completed_run):
        __, __, trace = completed_run
        leecher_corr = unchoke_interest_correlation(trace, state="leecher")
        seed_corr = unchoke_interest_correlation(trace, state="seed")
        assert len(leecher_corr.interested_times) == len(leecher_corr.unchoke_counts)
        assert len(seed_corr.interested_times) == len(seed_corr.unchoke_counts)
        assert not math.isnan(leecher_corr.correlation)

    def test_unchoke_correlation_invalid_state(self, completed_run):
        __, __, trace = completed_run
        with pytest.raises(ValueError):
            unchoke_interest_correlation(trace, state="zombie")

    def test_seed_service_bytes(self, completed_run):
        __, local, trace = completed_run
        service = seed_service_bytes(trace)
        assert sum(service.values()) <= local.total_uploaded + 1e-6
