"""Tracker: the only centralised component of BitTorrent (§II-B).

The tracker keeps the set of peers currently involved in the torrent,
hands a uniform random subset (50 by default) to peers that announce,
and collects the per-torrent statistics (number of seeds and leechers
over time) the paper probes to establish transient vs. steady state.
It is not involved in the actual distribution of the file.

This in-process class is the synchronous tracker the simulator and the
live :mod:`repro.net` peers call directly.  It drives one
:class:`repro.tracker.state.SwarmState` and the uniform draw itself; it
does not go through :class:`repro.tracker.service.TrackerService`, the
multi-swarm engine behind the asyncio announce server
(:mod:`repro.tracker.server`).  The two share the registry and the
:class:`~repro.tracker.sampling.UniformSampler`, so what an announce
does to a swarm and whom it samples cannot drift between them; the
service alone adds the sharded store, load shedding, per-request RNG
derivation and the non-uniform samplers.

**RNG discipline.**  ``announce`` samples through the RNG the *caller*
passes (each peer its own seeded stream).  Historically every sample
was drawn from one shared tracker stream, so any reordering of
announces — churn arrivals in the sim, wall-clock scheduling in the
live net layer — perturbed every later peer's sample; worse, the
candidate list was dict iteration order.  Now a peer's sample is a pure
function of (its own RNG state, the registry content in registration
order), pinned by a fingerprint test in ``tests/test_tracker.py``.
The constructor's RNG remains as a fallback stream for callers that do
not pass one.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.tracker.sampling import UniformSampler
from repro.tracker.state import SwarmState


class TrackerUnavailable(RuntimeError):
    """Raised by :meth:`Tracker.announce` while the tracker is down.

    Real trackers time out or return HTTP errors; clients retry their
    announce with backoff rather than dropping out of the torrent."""


@dataclass(frozen=True)
class TrackerStats:
    """One scrape sample: (time, seeds, leechers)."""

    time: float
    seeds: int
    leechers: int


class Tracker:
    """In-memory tracker for a single torrent."""

    def __init__(self, rng: Random, clock: Callable[[], float]):
        self._rng = rng
        self._clock = clock
        self._state = SwarmState()
        self._sampler = UniformSampler()
        self._history: List[TrackerStats] = []
        self._outages: Tuple[Tuple[float, float], ...] = ()
        self.announce_count = 0
        self.failed_announce_count = 0

    def set_outages(self, windows: Sequence[Tuple[float, float]]) -> None:
        """Install the ``(start, duration)`` windows during which every
        announce raises :class:`TrackerUnavailable`."""
        self._outages = tuple(windows)

    def is_down(self, now: float) -> bool:
        return any(
            start <= now < start + duration for start, duration in self._outages
        )

    def announce(
        self,
        address: str,
        event: str,
        num_want: int,
        is_seed: bool,
        rng: Optional[Random] = None,
    ) -> List[str]:
        """Process one announce and return up to *num_want* sampled peers.

        ``event`` is ``"started"``, ``"stopped"``, ``"completed"`` or
        ``""`` (the periodic keep-alive announce).  The returned list
        never contains the requester.  ``rng`` is the caller's seeded
        stream (module docstring).
        """
        now = self._clock()
        if self.is_down(now):
            self.failed_announce_count += 1
            raise TrackerUnavailable("tracker outage at t=%.1f" % now)
        self.announce_count += 1
        self._state.update(address, event=event, is_seed=is_seed, now=now)
        self._record_sample()
        if num_want <= 0 or event == "stopped":
            return []
        return self._sampler.sample(
            self._state, address, num_want, rng if rng is not None else self._rng
        )

    @property
    def completed_count(self) -> int:
        return self._state.completed_count

    def scrape(self) -> Tuple[int, int]:
        """(seeds, leechers) currently registered."""
        return self._state.scrape()

    def _record_sample(self) -> None:
        seeds, leechers = self._state.scrape()
        self._history.append(TrackerStats(self._clock(), seeds, leechers))

    @property
    def history(self) -> List[TrackerStats]:
        """Every (time, seeds, leechers) sample, one per announce."""
        return list(self._history)

    @property
    def num_registered(self) -> int:
        return len(self._state)

    def registered_addresses(self) -> List[str]:
        return self._state.addresses()
