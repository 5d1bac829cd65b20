"""Open-system flash crowds and the swarm-stability detector.

The paper studies torrents in their steady and transient states but
always with peers that linger after completion.  The *open system* of
the fluid-model literature ([26], and the missing-piece-syndrome line of
work culminating in RFwPMS, arXiv 2211.00213) removes that cushion:
leechers arrive as a Poisson process and depart the instant they finish.
Under plain rarest first such a swarm has a hard stability boundary —
once the arrival rate exceeds the initial seed's rare-piece service
rate, almost every leecher ends up in a "one club" holding every piece
but one, the completion rate pins at the seed's rare-piece injection
rate, and the leecher population grows without bound.  Mode suppression
(:class:`~repro.core.rarest_first.ModeSuppressionSelector`) restores
stability by refusing over-replicated offers.

:class:`StabilityDetector` is the measurement side: a swarm-level,
read-only sampler that rides the existing fluid-tick callback and
records swarm-size and chunk-distribution statistics.  It draws no
randomness, schedules no events of its own and emits nothing, so
attaching it never perturbs a seeded run or its trace.  Claim S1
(:mod:`repro.analysis.stability`) and the benchmark suite's
``flash_crowd`` workload attach one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.swarm import Swarm

__all__ = [
    "StabilityDetector",
    "StabilitySample",
    "StabilityVerdict",
    "classify_samples",
]

#: The classifier's constants (see :func:`classify_samples`).
WARMUP_FRACTION = 0.25
GROWTH_FACTOR = 1.4
MIN_BACKLOG = 10


@dataclass(frozen=True)
class StabilitySample:
    """One periodic swarm-level observation."""

    now: float
    seeds: int
    leechers: int
    arrivals: int
    departures: int
    completions: int
    rarest_copies: int
    """Copies of the least replicated piece across all online peers."""
    mode_copies: int
    """Copies of the *most* replicated piece — the replication level of
    the chunk-distribution mode the one club piles onto."""
    mode_pieces: int
    """How many pieces sit at ``mode_copies``.  In a one club this
    approaches ``num_pieces - 1`` while ``rarest_copies`` stays pinned
    at the seed's lone copy."""


@dataclass(frozen=True)
class StabilityVerdict:
    """The end-of-run classification :meth:`StabilityDetector.finalize`
    returns."""

    stable: bool
    samples: int
    peak_leechers: int
    final_leechers: int
    early_mean: float
    late_mean: float
    completions: int
    one_club: bool
    """True when the final sample shows the one-club signature: the
    rarest piece pinned at a single copy while a large majority of
    pieces sit together at the mode."""

    def as_dict(self) -> dict:
        return {
            "stable": self.stable,
            "samples": self.samples,
            "peak_leechers": self.peak_leechers,
            "final_leechers": self.final_leechers,
            "early_mean": self.early_mean,
            "late_mean": self.late_mean,
            "completions": self.completions,
            "one_club": self.one_club,
        }


def classify_samples(
    samples: Sequence[StabilitySample], num_pieces: Optional[int] = None
) -> StabilityVerdict:
    """Classify a sampled open-system run as stable or unstable.

    The signal is the leecher-population trajectory, exactly what the
    open-system fluid model predicts: a stable swarm settles around a
    finite steady state, an unstable one grows without bound.  After
    dropping the first :data:`WARMUP_FRACTION` of samples (flash-crowd
    transient), the remaining series is split in half; the run is
    unstable when the late-half mean reaches :data:`GROWTH_FACTOR` times
    the early-half mean **and** the late-half backlog is at least
    :data:`MIN_BACKLOG` leechers (so a tiny swarm drifting from 1 to 2
    peers never counts as divergence).
    """
    if not samples:
        return StabilityVerdict(
            stable=True,
            samples=0,
            peak_leechers=0,
            final_leechers=0,
            early_mean=0.0,
            late_mean=0.0,
            completions=0,
            one_club=False,
        )
    start = int(len(samples) * WARMUP_FRACTION)
    body = list(samples[start:]) or list(samples)
    half = len(body) // 2
    early = body[:half] or body
    late = body[half:] or body
    early_mean = sum(s.leechers for s in early) / len(early)
    late_mean = sum(s.leechers for s in late) / len(late)
    unstable = late_mean >= max(GROWTH_FACTOR * early_mean, float(MIN_BACKLOG))
    final = samples[-1]
    one_club = (
        num_pieces is not None
        and final.rarest_copies <= 1
        and final.mode_pieces >= max(2, int(0.8 * num_pieces))
        and final.leechers >= MIN_BACKLOG
    )
    return StabilityVerdict(
        stable=not unstable,
        samples=len(samples),
        peak_leechers=max(s.leechers for s in samples),
        final_leechers=final.leechers,
        early_mean=early_mean,
        late_mean=late_mean,
        completions=final.completions,
        one_club=one_club,
    )


class StabilityDetector:
    """Swarm-size / chunk-distribution sampler for open-system runs.

    Attach with :meth:`attach`; every *interval* simulated seconds (on
    the swarm's existing fluid-tick grid) it reads the swarm's already
    maintained aggregates — ``global_counts``, ``result.join_times``,
    ``result.departures``, ``result.completions`` — into a
    :class:`StabilitySample`.  :meth:`finalize` classifies them with
    :func:`classify_samples`.  Strictly read-only: no randomness, no
    scheduled events, no swarm mutation.
    """

    def __init__(self, interval: float = 30.0):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        self.samples: List[StabilitySample] = []
        self.verdict: Optional[StabilityVerdict] = None
        self._swarm: Optional["Swarm"] = None
        self._next_sample = 0.0

    def attach(self, swarm: "Swarm") -> None:
        """Start sampling *swarm* on its fluid-tick grid."""
        self._swarm = swarm
        self._next_sample = swarm.simulator.now + self.interval
        swarm.on_tick(self._on_tick)

    def _on_tick(self, now: float) -> None:
        if now + 1e-9 < self._next_sample:
            return
        self._next_sample += self.interval
        self.sample(now)

    def sample(self, now: float) -> StabilitySample:
        """Take one observation immediately (also used by the tick hook)."""
        swarm = self._swarm
        if swarm is None:
            raise RuntimeError("detector is not attached to a swarm")
        seeds, leechers = swarm.seeds_and_leechers()
        counts = swarm.availability_snapshot()
        if counts:
            rarest = min(counts)
            mode = max(counts)
            mode_pieces = sum(1 for count in counts if count == mode)
        else:  # pragma: no cover - zero-piece torrents don't exist
            rarest = mode = mode_pieces = 0
        sample = StabilitySample(
            now=now,
            seeds=seeds,
            leechers=leechers,
            arrivals=len(swarm.result.join_times),
            departures=len(swarm.result.departures),
            completions=len(swarm.result.completions),
            rarest_copies=rarest,
            mode_copies=mode,
            mode_pieces=mode_pieces,
        )
        self.samples.append(sample)
        return sample

    def finalize(self, now: Optional[float] = None) -> StabilityVerdict:
        """Take a last sample and classify the run."""
        num_pieces = None
        if self._swarm is not None:
            self.sample(self._swarm.simulator.now if now is None else now)
            num_pieces = len(self._swarm.availability_snapshot())
        self.verdict = classify_samples(self.samples, num_pieces)
        return self.verdict
