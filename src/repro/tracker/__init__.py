"""The tracker tier: in-process, sharded service, wire server.

Layering (bottom up):

* :mod:`repro.tracker.state` — per-infohash swarm registries behind a
  sharded store (deterministic CRC-32 placement, online rebalance).
* :mod:`repro.tracker.sampling` — pluggable peer-sampling strategies
  (``uniform`` / ``seed-biased`` / ``rarity-aware``) drawing from the
  caller's seeded RNG.
* :mod:`repro.tracker.tracker` — the synchronous in-process frontend
  the simulator and live peers call directly, with the outage tiers of
  the fault model.
* :mod:`repro.tracker.service` — the sharded, budget-aware announce
  engine (load shedding) shared by every frontend.
* :mod:`repro.tracker.server` / :mod:`repro.tracker.client` — the
  asyncio HTTP-style + UDP announce server and its async clients.
"""

from repro.tracker.sampling import (
    SAMPLER_REGISTRY,
    PeerSampler,
    make_sampler,
)
from repro.tracker.tracker import Tracker, TrackerStats, TrackerUnavailable

__all__ = [
    "Tracker",
    "TrackerStats",
    "TrackerUnavailable",
    "PeerSampler",
    "SAMPLER_REGISTRY",
    "make_sampler",
]
