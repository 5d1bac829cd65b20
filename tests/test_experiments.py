"""Tests for the multi-seed replication runner and the entropy-over-time
series."""

import pytest

from repro.analysis.experiments import (
    run_replications,
    summarize_metric,
)
from repro.sim.config import KIB

from tests.conftest import fast_config, tiny_swarm


class TestSummarizeMetric:
    def test_mean_and_std(self):
        summary = summarize_metric("x", [1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.n == 3

    def test_single_value(self):
        summary = summarize_metric("x", [5.0])
        assert summary.mean == 5.0
        assert summary.std == 0.0
        assert summary.ci_low == summary.ci_high == 5.0

    def test_nan_dropped(self):
        summary = summarize_metric("x", [1.0, float("nan"), 3.0])
        assert summary.n == 2
        assert summary.mean == pytest.approx(2.0)

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError):
            summarize_metric("x", [float("nan")])

    def test_ci_contains_mean(self):
        summary = summarize_metric("x", [1.0, 2.0, 3.0, 4.0])
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_higher_confidence_widens_interval(self):
        narrow = summarize_metric("x", [1.0, 2.0, 3.0], confidence=0.90)
        wide = summarize_metric("x", [1.0, 2.0, 3.0], confidence=0.99)
        assert wide.ci_high - wide.ci_low > narrow.ci_high - narrow.ci_low

    def test_unknown_confidence(self):
        with pytest.raises(ValueError):
            summarize_metric("x", [1.0], confidence=0.5)

    def test_str(self):
        text = str(summarize_metric("dl", [1.0, 2.0]))
        assert "dl" in text and "n=2" in text

    def test_median_and_quartiles(self):
        summary = summarize_metric("x", [4.0, 1.0, float("nan"), 2.0, 3.0, 5.0])
        assert (summary.q1, summary.median, summary.q3) == (2.0, 3.0, 4.0)


class TestRunReplications:
    def test_aggregates_metrics(self):
        stats = run_replications(
            lambda seed: {"x": float(seed), "y": 2.0 * seed}, [1, 2, 3]
        )
        assert stats["x"].mean == pytest.approx(2.0)
        assert stats["y"].mean == pytest.approx(4.0)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_replications(lambda seed: {"x": 1.0}, [])

    def test_inconsistent_metrics_rejected(self):
        def experiment(seed):
            return {"x": 1.0} if seed == 1 else {"y": 1.0}

        with pytest.raises(ValueError):
            run_replications(experiment, [1, 2])

    def test_never_evaluable_metric_is_summarised_not_rejected(self):
        stats = run_replications(
            lambda seed: {"x": float(seed), "y": float("nan")}, [1, 2]
        )
        assert stats["x"].n == 2
        assert stats["y"].n == 0 and stats["y"].values == []

    def test_real_swarm_replications(self):
        """Download times vary across seeds but stay in a sane band."""

        def experiment(seed):
            swarm = tiny_swarm(num_pieces=8, seed=seed)
            swarm.add_peer(config=fast_config(), is_seed=True)
            leecher = swarm.add_peer(config=fast_config(upload=2 * KIB))
            result = swarm.run(400)
            return {"download_time": result.download_time(leecher.address)}

        stats = run_replications(experiment, [1, 2, 3, 4])
        summary = stats["download_time"]
        assert summary.n == 4
        assert 4.0 <= summary.mean <= 120.0
        assert summary.ci_low <= summary.mean <= summary.ci_high
