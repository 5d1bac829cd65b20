"""Multi-seed experiment replication.

The paper notes (§III-E.2) that live experiments cannot be repeated "to
gain statistical information"; a simulator can.  This module runs the
same scenario under several seeds and summarises any scalar metric with
mean, standard deviation, a normal-approximation confidence interval and
median / quartiles, so reproduction claims can carry error bars.  The
reproduction scorecard (:mod:`repro.analysis.reproduce`) is one
:func:`run_replications` call over the whole table of claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.analysis.stats import percentile

# Two-sided z-values for the usual confidence levels.
_Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class MetricSummary:
    """Replication statistics of one scalar metric."""

    name: str
    values: List[float]
    mean: float
    std: float
    ci_low: float
    ci_high: float
    median: float
    q1: float
    q3: float

    @property
    def n(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "%s = %.4g ± %.4g (95%% CI [%.4g, %.4g], n=%d)" % (
            self.name,
            self.mean,
            self.std,
            self.ci_low,
            self.ci_high,
            self.n,
        )


def summarize_metric(
    name: str, values: Sequence[float], confidence: float = 0.95
) -> MetricSummary:
    """Mean / std / CI / quartiles of one metric across replications."""
    values = [float(v) for v in values if not math.isnan(v)]
    if not values:
        raise ValueError("no valid values for metric %r" % name)
    n = len(values)
    mean = sum(values) / n
    variance = (
        sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    )
    std = math.sqrt(variance)
    z = _Z_VALUES.get(confidence)
    if z is None:
        raise ValueError(
            "confidence must be one of %s" % sorted(_Z_VALUES)
        )
    margin = z * std / math.sqrt(n) if n > 1 else 0.0
    return MetricSummary(
        name=name,
        values=values,
        mean=mean,
        std=std,
        ci_low=mean - margin,
        ci_high=mean + margin,
        median=percentile(values, 0.5),
        q1=percentile(values, 0.25),
        q3=percentile(values, 0.75),
    )


def run_replications(
    experiment: Callable[[int], Dict[str, float]],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> Dict[str, MetricSummary]:
    """Run ``experiment(seed)`` for every seed and summarise each metric.

    *experiment* returns a flat dict of scalar metrics; every replication
    must return the same keys.  NaN values are dropped per metric; a
    metric that is NaN in every replication is summarised with ``n == 0``
    and NaN statistics (it was never evaluable, which is a result).

    >>> stats = run_replications(lambda seed: {"x": float(seed)}, [1, 2, 3])
    >>> round(stats["x"].mean, 2)
    2.0
    """
    if not seeds:
        raise ValueError("need at least one seed")
    observations: Dict[str, List[float]] = {}
    for seed in seeds:
        metrics = experiment(seed)
        if not observations:
            observations = {key: [] for key in metrics}
        if set(metrics) != set(observations):
            raise ValueError(
                "replication with seed %r returned different metrics" % seed
            )
        for key, value in metrics.items():
            observations[key].append(float(value))
    nan = float("nan")
    return {
        key: summarize_metric(key, values, confidence)
        if not all(math.isnan(v) for v in values)
        else MetricSummary(key, [], nan, nan, nan, nan, nan, nan, nan)
        for key, values in observations.items()
    }
