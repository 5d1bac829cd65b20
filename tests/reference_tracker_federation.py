"""The multi-tracker federation, kept as the oracle of outage tiers.

This is the former in-process federation the simulator ran when
``FaultConfig.tracker_replicas > 1``: N replica *frontends* over one
shared swarm registry, each with its own outage windows, an announce
walking them in tier order and served by the first one up; only when
*every* replica is down does it raise :class:`TrackerUnavailable`.
Replicas that share a registry behave exactly like one tracker that is
down only while every replica is down, which is what
:meth:`repro.tracker.tracker.Tracker.set_outages` expresses as outage
tiers.  ``tests/test_tracker_tier_equivalence.py`` holds the tiered
tracker to this class.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from random import Random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.tracker.sampling import PeerSampler
from repro.tracker.tracker import Tracker, TrackerStats, TrackerUnavailable


class TrackerFederation:
    """N outage-independent frontends over one shared swarm registry."""

    def __init__(
        self,
        rng: Random,
        clock: Callable[[], float],
        replicas: int = 2,
        sampler: Optional[PeerSampler] = None,
    ):
        if replicas < 1:
            raise ValueError("need at least one replica")
        self._clock = clock
        # One real tracker holds the registry; replica frontends are
        # failure domains in front of it.
        self._backend = Tracker(rng, clock, sampler=sampler)
        self._replica_outages: List[Tuple[Tuple[float, float], ...]] = [
            () for _ in range(replicas)
        ]
        self.replicas = replicas
        self.served_by: List[int] = [0] * replicas
        """Announces served per replica (failover visibility)."""

        self.failover_count = 0
        """Announces that skipped at least one downed replica."""

        self.failed_announce_count = 0

    # -- outage wiring -----------------------------------------------------

    def set_outages(self, outages: Sequence[Tuple[float, float]]) -> None:
        """Outage windows of replica 0 (the FaultConfig.tracker_outages
        contract the single-tracker fault model established)."""
        self.set_replica_outages(0, outages)

    def set_replica_outages(
        self, replica: int, outages: Sequence[Tuple[float, float]]
    ) -> None:
        self._replica_outages[replica] = tuple(
            (float(start), float(duration)) for start, duration in outages
        )

    def replica_down(self, replica: int, now: float) -> bool:
        return any(
            start <= now < start + duration
            for start, duration in self._replica_outages[replica]
        )

    def is_down(self, now: float) -> bool:
        """True only when every replica is inside an outage window."""
        return all(
            self.replica_down(replica, now) for replica in range(self.replicas)
        )

    # -- the Tracker surface ----------------------------------------------

    def announce(
        self,
        address: str,
        event: str,
        num_want: int,
        is_seed: bool,
        rng: Optional[Random] = None,
        have_count: Optional[int] = None,
    ) -> List[str]:
        """Walk replicas in tier order; served by the first one up.

        The walk order is the fixed tier order (0, 1, ..., n-1): which
        replica serves depends only on the outage windows and the
        announce time, so two runs of the same seed fail over
        identically.
        """
        now = self._clock()
        for replica in range(self.replicas):
            if self.replica_down(replica, now):
                continue
            if replica > 0:
                self.failover_count += 1
            self.served_by[replica] += 1
            return self._backend.announce(
                address,
                event=event,
                num_want=num_want,
                is_seed=is_seed,
                rng=rng,
                have_count=have_count,
            )
        self.failed_announce_count += 1
        raise TrackerUnavailable(
            "all %d tracker replicas down at t=%.1f" % (self.replicas, now)
        )

    def scrape(self) -> Tuple[int, int]:
        return self._backend.scrape()

    @property
    def announce_count(self) -> int:
        return self._backend.announce_count

    @property
    def history(self) -> List[TrackerStats]:
        return self._backend.history
