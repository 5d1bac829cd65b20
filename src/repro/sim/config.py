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

# The fixed client constants are defined beside PeerCore, which reads
# them (core cannot import this package); listed here with the rest.
from repro.core.peer_core import (  # noqa: F401
    OPTIMISTIC_ROUNDS,
    RANDOM_FIRST_THRESHOLD,
    REQUEST_PIPELINE_DEPTH,
    UNCHOKE_SLOTS,
)

KIB = 1024

CHOKE_ROUND_SECONDS = 10.0
TRACKER_ANNOUNCE_SECONDS = 30.0 * 60.0
TRACKER_NUM_WANT = 50  # peers returned per tracker announce (§II-B)
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

    choke_interval: float = CHOKE_ROUND_SECONDS
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
        for name in ("choke_interval", "rate_window"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and > 0, not %r" % (name, value))
        if not 0 < self.min_peer_set <= self.max_peer_set:
            raise ValueError("need 0 < min_peer_set <= max_peer_set")
        if self.max_initiated <= 0:
            raise ValueError("max_initiated must be positive")


@dataclass
class SwarmConfig:
    """Swarm-level simulation parameters."""

    tick_interval: float = 1.0
    """Fluid-model timestep in seconds: bandwidth is reallocated and block
    progress advanced once per tick."""

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

    duration: float = 4000.0
    """Default run length in simulated seconds."""
