"""Tracker: the only centralised component of BitTorrent (§II-B).

The tracker keeps the set of peers currently involved in the torrent,
hands a uniform random subset (50 by default) to peers that announce,
and answers a scrape with the number of seeds and leechers it holds now.
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

from random import Random
from typing import Callable, List, Optional, Tuple

from repro.tracker.sampling import UniformSampler
from repro.tracker.state import SwarmState


class TrackerUnavailable(RuntimeError):
    """An announce got no usable answer: the tracker client's HTTP or UDP
    request failed (:mod:`repro.tracker.client`), or the service shed it
    (:class:`~repro.tracker.service.TrackerOverloaded`).  The in-process
    :class:`Tracker` always answers."""


class Tracker:
    """In-memory tracker for a single torrent."""

    def __init__(self, rng: Random, clock: Callable[[], float]):
        self._rng = rng
        self._clock = clock
        self._state = SwarmState()
        self._sampler = UniformSampler()
        self.announce_count = 0

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
        self.announce_count += 1
        self._state.update(address, event=event, is_seed=is_seed, now=now)
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

    @property
    def num_registered(self) -> int:
        return len(self._state)

    def registered_addresses(self) -> List[str]:
        return self._state.addresses()
