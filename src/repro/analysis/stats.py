"""Small statistics helpers shared by the analysis modules."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile, ``fraction`` in [0, 1].

    >>> percentile([1, 2, 3, 4, 5], 0.5)
    3.0
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of *values* that are <= threshold."""
    if not values:
        return 0.0
    return sum(1 for v in values if v <= threshold) / len(values)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient; 0.0 for degenerate inputs."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have the same length")
    n = len(xs)
    if n < 2:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)
