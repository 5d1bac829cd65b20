"""Figure 1: entropy characterisation through peer availability.

The paper characterises a torrent's entropy with two per-remote-peer
ratios, computed while the local peer is in leecher state (§IV-A.1):

* ``a/b`` — *a* is the time the local peer is interested in the remote
  peer, *b* is the time the remote spent in the peer set;
* ``c/d`` — *c* is the time the remote peer is interested in the local
  peer, *d* equals *b*.

Ideal entropy means every leecher is always interested in every other
leecher: both ratios equal one.  Remote peers that stayed less than
10 seconds are filtered out (misbehaving "noise" clients), and only
remote *leechers* are considered (seeds are always interesting and never
interested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.stats import percentile
from repro.instrumentation.logger import Instrumentation, RemotePeerRecord

MIN_PRESENCE_SECONDS = 10.0


@dataclass
class EntropySummary:
    """Percentiles of the two availability ratios for one experiment."""

    local_in_remote: List[float]
    remote_in_local: List[float]

    @property
    def p20_local(self) -> float:
        return percentile(self.local_in_remote, 0.2) if self.local_in_remote else float("nan")

    @property
    def median_local(self) -> float:
        return percentile(self.local_in_remote, 0.5) if self.local_in_remote else float("nan")

    @property
    def p80_local(self) -> float:
        return percentile(self.local_in_remote, 0.8) if self.local_in_remote else float("nan")

    @property
    def p20_remote(self) -> float:
        return percentile(self.remote_in_local, 0.2) if self.remote_in_local else float("nan")

    @property
    def median_remote(self) -> float:
        return percentile(self.remote_in_local, 0.5) if self.remote_in_local else float("nan")

    @property
    def p80_remote(self) -> float:
        return percentile(self.remote_in_local, 0.8) if self.remote_in_local else float("nan")


def _leecher_overlap(
    record: RemotePeerRecord, leecher_start: float, leecher_end: float
) -> float:
    """Time the remote spent in the peer set while the local peer was a
    leecher *and* the remote itself was a leecher."""
    end = leecher_end
    if record.remote_seed_since is not None:
        end = min(end, record.remote_seed_since)
    return record.presence.total_clipped(leecher_start, end)


def entropy_ratios(
    instrumentation: Instrumentation,
    min_presence: float = MIN_PRESENCE_SECONDS,
) -> Tuple[List[float], List[float]]:
    """Compute the per-remote-peer (a/b, c/d) ratio populations.

    Returns two lists: ratios of local-interested-in-remote and of
    remote-interested-in-local, one entry per qualifying remote leecher.
    """
    instrumentation.finalize()
    leecher_start, leecher_end = instrumentation.leecher_interval
    local_ratios: List[float] = []
    remote_ratios: List[float] = []
    for record in instrumentation.records.values():
        if record.remote_seed_since is not None and (
            record.remote_seed_since <= leecher_start
        ):
            continue  # the remote was a seed the whole time: not a leecher peer
        presence = _leecher_overlap(record, leecher_start, leecher_end)
        if presence < min_presence:
            continue  # §IV-A.1: filter peers that stayed < 10 s
        seed_cutoff = leecher_end
        if record.remote_seed_since is not None:
            seed_cutoff = min(seed_cutoff, record.remote_seed_since)
        interested_local = record.local_interested_in_remote.total_clipped(
            leecher_start, seed_cutoff
        )
        interested_remote = record.remote_interested_in_local.total_clipped(
            leecher_start, seed_cutoff
        )
        local_ratios.append(min(1.0, interested_local / presence))
        remote_ratios.append(min(1.0, interested_remote / presence))
    return local_ratios, remote_ratios


def summarize_entropy(
    instrumentation: Instrumentation,
    min_presence: float = MIN_PRESENCE_SECONDS,
) -> EntropySummary:
    """Figure-1 data point for one experiment."""
    local_ratios, remote_ratios = entropy_ratios(instrumentation, min_presence)
    return EntropySummary(local_in_remote=local_ratios, remote_in_local=remote_ratios)
