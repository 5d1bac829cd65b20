"""Figures 2, 3, 4 and 6: piece replication in the local peer set.

Figure 2/4 plot, against time, the number of copies of the least
replicated piece (min), the mean over all pieces, and the most replicated
piece (max) in the local peer's peer set.  Figures 3/6 plot the size of
the rarest-pieces set (the number of pieces that are equally rarest).
All four come straight from the instrumentation snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.instrumentation.logger import Instrumentation, Snapshot


@dataclass
class ReplicationSeries:
    """Time series of min/mean/max piece copies in the peer set."""

    times: List[float]
    min_copies: List[int]
    mean_copies: List[float]
    max_copies: List[int]

    def fraction_at_zero(self) -> float:
        """Fraction of samples where some piece is missing from the peer
        set entirely (transient-state signature)."""
        if not self.min_copies:
            return 0.0
        return sum(1 for value in self.min_copies if value == 0) / len(self.min_copies)


def _select_snapshots(
    instrumentation: Instrumentation, leecher_state_only: bool
) -> List[Snapshot]:
    # Offline markers are explicit churn gaps, not observations of an
    # empty peer set; plotting them would interpolate phantom zeros.
    snapshots = [
        snapshot for snapshot in instrumentation.snapshots if not snapshot.offline
    ]
    if leecher_state_only:
        snapshots = [snapshot for snapshot in snapshots if not snapshot.is_seed]
    return snapshots


def replication_series(
    instrumentation: Instrumentation, leecher_state_only: bool = False
) -> ReplicationSeries:
    """Figure 2/4 data: copies of pieces in the peer set over time."""
    snapshots = _select_snapshots(instrumentation, leecher_state_only)
    return ReplicationSeries(
        times=[snapshot.time for snapshot in snapshots],
        min_copies=[snapshot.min_copies for snapshot in snapshots],
        mean_copies=[snapshot.mean_copies for snapshot in snapshots],
        max_copies=[snapshot.max_copies for snapshot in snapshots],
    )


def rarest_set_series(
    instrumentation: Instrumentation, leecher_state_only: bool = False
) -> Tuple[List[float], List[int]]:
    """Figure 3/6 data: (times, rarest-pieces-set sizes)."""
    snapshots = _select_snapshots(instrumentation, leecher_state_only)
    return (
        [snapshot.time for snapshot in snapshots],
        [snapshot.rarest_set_size for snapshot in snapshots],
    )


def rarest_set_decay_rate(
    times: List[float], sizes: List[int]
) -> Optional[float]:
    """Least-squares slope of the rarest-set size (pieces/second).

    In the transient state the paper observes a *linear* decrease whose
    rate is set by the initial seed's upload capacity (§IV-A.2.a); a
    negative, roughly constant slope is the reproduction criterion.
    """
    if len(times) < 2:
        return None
    n = len(times)
    mean_t = sum(times) / n
    mean_s = sum(sizes) / n
    cov = sum((t - mean_t) * (s - mean_s) for t, s in zip(times, sizes))
    var = sum((t - mean_t) ** 2 for t in times)
    if var == 0:
        return None
    return cov / var


def linearity_r_squared(times: List[float], sizes: List[int]) -> Optional[float]:
    """Coefficient of determination of the linear fit used above."""
    slope = rarest_set_decay_rate(times, sizes)
    if slope is None:
        return None
    n = len(times)
    mean_t = sum(times) / n
    mean_s = sum(sizes) / n
    intercept = mean_s - slope * mean_t
    ss_res = sum((s - (slope * t + intercept)) ** 2 for t, s in zip(times, sizes))
    ss_tot = sum((s - mean_s) ** 2 for s in sizes)
    if ss_tot == 0:
        return None
    return 1.0 - ss_res / ss_tot
