"""Simulation and peer configuration.

Defaults follow the paper's section III-C (mainline 4.0.2 defaults):

* maximum upload rate of the monitored client: 20 kB/s;
* minimum peer-set size before re-contacting the tracker: 20;
* maximum number of connections the peer may initiate: 40;
* maximum peer-set size: 80;
* active peer set (unchoke slots, optimistic included): 4;
* block size: 2**14 bytes;
* pieces downloaded before switching from random to rarest first: 4;
* choke round period: 10 s, optimistic unchoke period: 30 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

KIB = 1024

CHOKE_ROUND_SECONDS = 10.0
OPTIMISTIC_ROUNDS = 3  # one optimistic rotation every 3 choke rounds = 30 s
TRACKER_ANNOUNCE_SECONDS = 30.0 * 60.0
TRACKER_NUM_WANT = 50  # peers returned per tracker announce (§II-B)
REQUEST_TIMEOUT_SECONDS = 60.0  # age at which an in-flight request is lost
RATE_ESTIMATOR_WINDOW_SECONDS = 20.0


@dataclass
class PeerConfig:
    """Per-peer protocol parameters."""

    upload_capacity: float = 20.0 * KIB
    """Access-link upload capacity in bytes/second (paper default 20 kB/s)."""

    download_capacity: Optional[float] = None
    """Access-link download capacity in bytes/second; None = unconstrained,
    as for the paper's monitored client."""

    max_peer_set: int = 80
    """Maximum peer-set size."""

    min_peer_set: int = 20
    """Low watermark under which the peer re-contacts the tracker."""

    max_initiated: int = 40
    """Maximum number of connections this peer may itself initiate; the
    rest must be inbound, which keeps torrents well interconnected."""

    unchoke_slots: int = 4
    """Active-peer-set size, optimistic unchoke included."""

    random_first_threshold: int = 4
    """Pieces to download with the random-first policy before switching to
    rarest first."""

    request_pipeline_depth: int = 8
    """Maximum outstanding block requests per connection (mainline keeps a
    small buffer of pending requests; §II-C.1)."""

    choke_interval: float = CHOKE_ROUND_SECONDS
    optimistic_rounds: int = OPTIMISTIC_ROUNDS
    rate_window: float = RATE_ESTIMATOR_WINDOW_SECONDS

    endgame_enabled: bool = True
    """Enable end game mode (request every missing block everywhere once
    all blocks have been requested)."""

    strict_priority: bool = True
    """Finish partially-downloaded pieces before starting new ones."""

    seeding_time: Optional[float] = None
    """How long the peer stays as a seed after completing; None = forever."""

    super_seeding: bool = False
    """Super-seeding mode (the [3] option §IV-A.4 discusses): the seed
    advertises an empty bitfield and reveals pieces one at a time per
    peer, preferring the least-revealed piece, so it serves close to one
    copy of each piece before any duplicates.  Only meaningful on a peer
    that starts as a seed."""

    client_id: str = "M4-0-2"
    """Client identity encoded in the peer ID."""

    playback_rate: Optional[float] = None
    """Media consumption rate in bytes/second for streaming workloads.
    None (default) disables the playback model entirely: no extra state,
    no extra events, byte-identical traces.  When set, the peer runs a
    playback clock against its in-order delivered bytes and reports
    startup delay, rebuffer events and in-order progress through the
    observer's ``on_playback`` hook."""

    playback_startup_pieces: int = 2
    """Contiguous pieces (from index 0) buffered before playback starts
    — the startup threshold behind the startup-delay metric."""

    def __post_init__(self) -> None:
        # NaN passes both sign tests and would poison every rate and
        # byte total of a run; an infinite cap is spelt None (download)
        # and has no meaning for an upload.
        if not math.isfinite(self.upload_capacity):
            raise ValueError("upload_capacity must be a finite number")
        if self.upload_capacity < 0:
            raise ValueError("upload_capacity must be non-negative")
        if self.download_capacity is not None and not math.isfinite(
            self.download_capacity
        ):
            raise ValueError("download_capacity must be a finite number or None")
        if self.download_capacity is not None and self.download_capacity <= 0:
            raise ValueError("download_capacity must be positive or None")
        if not 0 < self.min_peer_set <= self.max_peer_set:
            raise ValueError("need 0 < min_peer_set <= max_peer_set")
        if self.max_initiated <= 0 or self.unchoke_slots <= 0:
            raise ValueError("max_initiated and unchoke_slots must be positive")
        if self.request_pipeline_depth <= 0:
            raise ValueError("request_pipeline_depth must be positive")
        if self.playback_rate is not None and self.playback_rate <= 0:
            raise ValueError("playback_rate must be positive or None")
        if self.playback_startup_pieces < 1:
            raise ValueError("playback_startup_pieces must be >= 1")


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection knobs (all off by default).

    A :class:`~repro.sim.swarm.Swarm` given a config whose
    :attr:`enabled` property is False behaves *byte-identically* to one
    given no fault config at all: no extra RNG draws, no extra timers,
    no code-path divergence.  Every injected fault draws from a single
    dedicated fault RNG stream, so runs with the same seed and the same
    fault config are reproducible.
    """

    message_loss_rate: float = 0.0
    """Probability that a peer-wire message is silently dropped in
    flight.  BITFIELD messages are exempt (they ride the handshake,
    which the simulator models as reliable)."""

    message_duplicate_rate: float = 0.0
    """Probability that a delivered message arrives twice.  PIECE
    messages are exempt (the picker already ignores duplicate blocks;
    duplicating them would only distort byte accounting)."""

    extra_jitter: float = 0.0
    """Maximum extra one-way delivery delay in seconds, drawn uniformly
    per message.  Positive jitter breaks per-link FIFO ordering, which
    is exactly the reordering stress it exists to inject."""

    crash_probability: float = 0.0
    """Per-peer probability of an abrupt crash at each crash sweep: the
    peer vanishes with no ``stopped`` announce and no FIN, leaving
    half-open connections its neighbours must reap."""

    crash_interval: float = 60.0
    """Seconds between crash sweeps."""

    tracker_outages: tuple = ()
    """``(start, duration)`` windows (simulated seconds) during which
    every tracker announce fails with
    :class:`~repro.tracker.tracker.TrackerUnavailable`.  With
    :attr:`tracker_replicas` > 1 these windows apply to replica 0 only
    (the established single-tracker contract); use
    :attr:`replica_outages` to down other replicas."""

    tracker_replicas: int = 1
    """Number of outage-independent tracker replicas sharing one swarm
    registry: the outage tiers of the one
    :class:`~repro.tracker.tracker.Tracker`, whose announces fail only
    while every replica is down."""

    replica_outages: tuple = ()
    """``(replica, start, duration)`` outage windows for individual
    tracker replicas.  Requires ``replica < tracker_replicas``."""

    announce_retry_base: float = 5.0
    """First announce-retry delay; doubles per failed attempt."""

    announce_retry_cap: float = 120.0
    """Upper bound on the exponential announce-retry delay."""

    announce_retry_jitter: float = 0.25
    """Fractional jitter applied to each retry delay (+/-)."""

    hash_failure_rate: float = 0.0
    """Probability that a completed piece is corrupted in flight: the
    peer observes a hash failure and re-downloads the piece through the
    existing ``on_hash_failure``/``reset_piece`` path."""

    idle_timeout: float = 120.0
    """Seconds of silence after which a half-open connection (remote
    endpoint dead) is reaped, standing in for TCP keep-alive."""

    sweep_interval: float = 20.0
    """Period of each peer's fault sweep (reaping, request timeouts,
    keep-alive state refresh)."""

    def __post_init__(self) -> None:
        for name in ("message_loss_rate", "message_duplicate_rate",
                     "crash_probability", "hash_failure_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must be in [0, 1]" % name)
        if self.message_loss_rate >= 1.0:
            raise ValueError("message_loss_rate must be < 1 (total loss deadlocks)")
        if self.extra_jitter < 0:
            raise ValueError("extra_jitter must be non-negative")
        for name in ("crash_interval", "announce_retry_base",
                     "announce_retry_cap", "idle_timeout",
                     "sweep_interval"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)
        if not 0.0 <= self.announce_retry_jitter < 1.0:
            raise ValueError("announce_retry_jitter must be in [0, 1)")
        for window in self.tracker_outages:
            start, duration = window
            if start < 0 or duration <= 0:
                raise ValueError("outage windows need start >= 0, duration > 0")
        if self.tracker_replicas < 1:
            raise ValueError("tracker_replicas must be >= 1")
        for window in self.replica_outages:
            replica, start, duration = window
            if not 0 <= replica < self.tracker_replicas:
                raise ValueError(
                    "replica_outages index %d outside 0..%d"
                    % (replica, self.tracker_replicas - 1)
                )
            if start < 0 or duration <= 0:
                raise ValueError("outage windows need start >= 0, duration > 0")

    @property
    def enabled(self) -> bool:
        """True when any fault source is actually configured."""
        return bool(
            self.message_loss_rate > 0
            or self.message_duplicate_rate > 0
            or self.extra_jitter > 0
            or self.crash_probability > 0
            or self.hash_failure_rate > 0
            or self.tracker_outages
            or self.tracker_replicas > 1
            or self.replica_outages
        )


@dataclass
class SwarmConfig:
    """Swarm-level simulation parameters."""

    tick_interval: float = 1.0
    """Fluid-model timestep in seconds: bandwidth is reallocated and block
    progress advanced once per tick."""

    announce_interval: float = TRACKER_ANNOUNCE_SECONDS

    tracker_sampler: Optional[str] = None
    """Peer-sampling strategy spec for the tracker
    (``"uniform"`` / ``"seed-biased[:seed_fraction=f]"`` /
    ``"rarity-aware[:bias=b]"``; see
    :func:`repro.tracker.sampling.make_sampler`).  None keeps the
    default uniform sampler with zero behaviour change."""

    trace_announces: bool = False
    """Emit per-announce observer events (``on_announce``) carrying the
    event type, peers returned and swarm occupancy.  Off (default) the
    simulation is byte-identical to a build without the hook."""

    seed: int = 42
    """Root RNG seed; every stochastic choice in a run derives from it."""

    verify_piece_hashes: bool = False
    """When True, peers materialise synthetic piece payloads and SHA-1
    check them on completion (slow; exercised by tests and small demos)."""

    snapshot_interval: float = 10.0
    """Sampling period of instrumentation snapshots (peer-set size,
    piece-replication curves)."""

    connect_latency: float = 0.0
    """Optional delay between deciding to connect and the handshake."""

    message_latency: float = 0.0
    """One-way control-message latency in seconds.  Zero (default) makes
    HAVE/INTERESTED/CHOKE signalling instantaneous — the paper's setting
    of well-connected Internet peers where signalling RTTs are tiny
    compared to the 10 s choke rounds.  A constant positive latency
    preserves per-link FIFO ordering."""

    duration: float = 4000.0
    """Default run length in simulated seconds."""

    faults: Optional[FaultConfig] = None
    """Fault-injection plan; None (default) or a config whose
    ``enabled`` is False leaves the simulation byte-identical to the
    fault-free code path."""
