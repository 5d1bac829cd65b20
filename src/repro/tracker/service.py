"""The announce service: the core of the wire tracker frontends.

:class:`TrackerService` is the engine behind the live asyncio announce
server (:mod:`repro.tracker.server`) and its in-process callers.  It
owns the sharded swarm store, the peer-sampling strategy, the announce
budget (load shedding) and the per-request RNG derivation, so the HTTP
and UDP frontends and a direct call answer a given announce sequence
identically — the property the sim-vs-live differential tests pin byte
for byte.  The simulator's :class:`repro.tracker.tracker.Tracker` does
not run through it: it drives one
:class:`~repro.tracker.state.SwarmState` and the uniform draw itself,
the two pieces it shares with this service.

**Determinism.**  A caller that *has* a seeded RNG (a simulated peer)
passes it and the sample is drawn from that stream.  A remote caller
cannot share an RNG object, so the service derives one per request from
``(service seed, infohash, per-swarm announce index)`` — a pure function
of the announce sequence.  Both paths go through the same samplers.

**Load shedding.**  Real trackers survive flash crowds by raising the
announce interval they hand back (clients re-announce less often) and,
past a hard limit, by rejecting announces outright with a retry hint.
:class:`AnnounceBudget` implements exactly that: a sliding-window rate
estimate scales the returned interval proportionally to the overload
factor, and past ``reject_factor`` times the budget the announce fails
with :class:`TrackerOverloaded` (wire frontends encode it as a bencoded
``failure reason``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from random import Random
from typing import Callable, List, Optional

from repro.tracker.sampling import PeerSampler, UniformSampler
from repro.tracker.state import ShardedSwarmStore, SwarmState
from repro.tracker.tracker import TrackerUnavailable
from repro.tracker.wire import DEFAULT_INTERVAL


class TrackerOverloaded(TrackerUnavailable):
    """Announce rejected by load shedding; retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class AnnounceRequest:
    """One announce, frontend-independent."""

    infohash: bytes
    address: str
    event: str = ""
    num_want: int = 50
    is_seed: bool = False
    have_count: Optional[int] = None


@dataclass
class AnnounceResult:
    """The service's answer (before wire encoding)."""

    peers: List[str]
    interval: float
    seeds: int
    leechers: int
    shed_factor: float = 1.0
    """How much load shedding stretched the interval (1.0 = none)."""


@dataclass
class AnnounceBudget:
    """Announce-rate budget driving interval scaling and rejection."""

    announces_per_second: float
    window: float = 5.0
    """Sliding-window length (seconds) of the rate estimate."""

    max_interval_factor: float = 8.0
    """Cap on how far shedding may stretch the announce interval."""

    reject_factor: float = 4.0
    """Overload factor past which announces are rejected outright."""

    def __post_init__(self) -> None:
        # NaN fails every comparison, so each bound is written as the
        # condition a usable value meets.
        for name in ("announces_per_second", "window"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and > 0, not %r" % (name, value))
        if not (
            1.0 <= self.max_interval_factor < math.inf
            and 1.0 < self.reject_factor < math.inf
        ):
            raise ValueError("shedding factors must be finite and >= 1")


class _RateWindow:
    """Sliding-window announce counter over the service clock."""

    __slots__ = ("window", "_events")

    def __init__(self, window: float):
        self.window = window
        self._events: List[float] = []

    def observe(self, now: float) -> float:
        """Record one announce; returns the current announces/sec."""
        events = self._events
        events.append(now)
        cutoff = now - self.window
        drop = 0
        for t in events:
            if t >= cutoff:
                break
            drop += 1
        if drop:
            del events[:drop]
        # Count over the fixed window length, not the observed span: a
        # same-instant burst (simulated clocks advance in ticks) must
        # not read as an infinite rate.
        return len(events) / self.window


class TrackerService:
    """Sharded, sampler-pluggable, budget-aware announce engine."""

    def __init__(
        self,
        clock: Callable[[], float],
        seed: int = 0,
        num_shards: int = 8,
        sampler: Optional[PeerSampler] = None,
        interval: float = DEFAULT_INTERVAL,
        budget: Optional[AnnounceBudget] = None,
        expiry_intervals: Optional[float] = None,
    ):
        # A NaN interval cannot be encoded into a reply, and a NaN
        # expiry would never fire: ``last_seen < nan`` is always false.
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError("interval must be finite and > 0, not %r" % interval)
        # Replies carry whole seconds (BEP 3), the UDP one in a signed
        # 32-bit field that load shedding may stretch the interval into.
        stretch = budget.max_interval_factor if budget is not None else 1.0
        if interval < 1 or interval * stretch >= 2**31:
            raise ValueError(
                "interval must be in [1, 2**31 / %g) s, not %r" % (stretch, interval)
            )
        if expiry_intervals is not None and not (
            math.isfinite(expiry_intervals) and expiry_intervals > 0
        ):
            raise ValueError(
                "expiry_intervals must be finite and > 0, not %r" % expiry_intervals
            )
        self._clock = clock
        self._seed = seed
        self.store = ShardedSwarmStore(num_shards)
        self.sampler = sampler or UniformSampler()
        self.interval = interval
        self.budget = budget
        self.expiry_intervals = expiry_intervals
        self._rate = (
            _RateWindow(budget.window) if budget is not None else None
        )
        self.announce_count = 0
        self.shed_announces = 0
        self.rejected_announces = 0
        self.expired_peers = 0

    # -- the announce path -------------------------------------------------

    def request_rng(self, state: SwarmState, request: AnnounceRequest) -> Random:
        """Deterministic per-request RNG for callers without one.

        Seeded from ``(service seed, infohash, swarm announce index)``:
        the same announce sequence yields the same samples through any
        frontend, which is what the wire differential tests assert.
        """
        digest = hashlib.sha256(
            b"%d|%s|%d"
            % (self._seed, request.infohash, state.announce_seq)
        ).digest()
        return Random(int.from_bytes(digest[:8], "big"))

    def announce(
        self, request: AnnounceRequest, rng: Optional[Random] = None
    ) -> AnnounceResult:
        """Apply one announce; returns peers + the interval to honour.

        Raises :class:`TrackerOverloaded` when load shedding rejects the
        announce.
        """
        now = self._clock()
        event = request.event
        shed_factor = 1.0
        if self._rate is not None:
            rate = self._rate.observe(now)
            budget = self.budget
            overload = rate / budget.announces_per_second
            if overload > budget.reject_factor and event != "stopped":
                # Keep-alives and joins are shed; departures always land
                # (losing them would leak registry entries).
                self.rejected_announces += 1
                raise TrackerOverloaded(
                    "tracker overloaded (%.0f ann/s over a %.0f ann/s budget)"
                    % (rate, budget.announces_per_second),
                    retry_after=self.interval,
                )
            if overload > 1.0:
                shed_factor = min(overload, budget.max_interval_factor)
                self.shed_announces += 1
        self.announce_count += 1
        state = self.store.get_or_create(request.infohash)
        if self.expiry_intervals is not None:
            # Lazy per-announce reap of the swarm being touched: a peer
            # silent for more than ``expiry_intervals`` re-announce
            # intervals is dead (it missed that many keep-alives), and
            # reaping it *before* sampling keeps its address out of the
            # peer set handed back.
            self.expired_peers += len(
                state.expire(now, self.expiry_intervals * self.interval)
            )
        address = request.address
        state.update(address, event, request.is_seed, now, request.have_count)
        peers: List[str] = []
        num_want = request.num_want
        if num_want > 0 and event != "stopped":
            if rng is None:
                rng = self.request_rng(state, request)
            peers = self.sampler.sample(state, address, num_want, rng)
        seeds, leechers = state.scrape()
        return AnnounceResult(
            peers=peers,
            interval=self.interval * shed_factor,
            seeds=seeds,
            leechers=leechers,
            shed_factor=shed_factor,
        )

    def scrape(self, infohash: bytes) -> tuple:
        """(seeds, leechers) of one swarm (0, 0 when unknown)."""
        state = self.store.get(infohash)
        return state.scrape() if state is not None else (0, 0)

    def reap(self, now: Optional[float] = None) -> int:
        """Sweep *every* swarm for dead peers; returns how many died.

        The lazy per-announce expiry only touches swarms that still see
        traffic — a swarm whose last leecher vanished never announces
        again, so a periodic full sweep (the live server runs one per
        expiry window) is what actually bounds registry growth.
        No-op unless ``expiry_intervals`` is configured.
        """
        if self.expiry_intervals is None:
            return 0
        reaped = self.store.expire(
            self._clock() if now is None else now,
            self.expiry_intervals * self.interval,
        )
        self.expired_peers += reaped
        return reaped

    def stats(self) -> dict:
        """Operational counters + per-shard sizes (CLI / bench surface)."""
        return {
            "announces": self.announce_count,
            "shed": self.shed_announces,
            "rejected": self.rejected_announces,
            "expired": self.expired_peers,
            "swarms": self.store.total_swarms,
            "peers": self.store.total_peers,
            "sampler": self.sampler.spec(),
            "shards": [
                {"swarms": s.swarms, "peers": s.peers, "announces": s.announces}
                for s in self.store.stats()
            ],
        }
