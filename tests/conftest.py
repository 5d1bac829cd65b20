"""Shared fixtures and builders for integration tests."""

from contextlib import contextmanager
from random import Random
from typing import Optional

import pytest

import repro.core.peer_core
import repro.sim.swarm
from repro.core.peer_core import PeerCore
from repro.instrumentation.trace import TracingObserver
from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.peer import Peer
from repro.sim.swarm import Swarm

from tests.reference_allocator import reference_max_min_rates
from tests.reference_piece_picker import NaivePiecePicker


def tiny_swarm(
    num_pieces: int = 8,
    piece_size: int = 4 * KIB,
    block_size: int = 1 * KIB,
    seed: int = 7,
    verify_hashes: bool = False,
    name: str = "tiny",
    swarm_config: Optional[SwarmConfig] = None,
) -> Swarm:
    """A small torrent with fast-to-simulate geometry."""
    metainfo = make_metainfo(
        name, num_pieces=num_pieces, piece_size=piece_size, block_size=block_size
    )
    config = swarm_config or SwarmConfig(
        seed=seed, verify_piece_hashes=verify_hashes, snapshot_interval=5.0
    )
    return Swarm(metainfo, config)


def fast_config(upload: float = 8 * KIB, download: Optional[float] = None, **kwargs):
    return PeerConfig(upload_capacity=upload, download_capacity=download, **kwargs)


def noise_peers(
    swarm: Swarm,
    count: int,
    duration: float,
    rng: Optional[Random] = None,
    stay: float = 5.0,
) -> int:
    """Schedule *count* short-lived "noise" peers over *duration* seconds.

    Each joins, stays about *stay* seconds (always under the 10-second
    filtering threshold of §IV-A.1) and leaves without transferring:
    their upload capacity is zero and their request pipeline never fills
    because they are gone before any choke round unchokes them.
    """
    rng = rng or Random(swarm.rng.getrandbits(64))
    for __ in range(count):
        when = rng.uniform(0.0, duration)

        def arrive(when=when) -> None:
            config = PeerConfig(upload_capacity=0.0, client_id="-XX0001")
            peer = swarm.add_peer(config=config)
            swarm.simulator.schedule(
                min(stay, max(0.5, rng.uniform(0.5, stay))), peer.leave
            )

        swarm.simulator.schedule(when, arrive)
    return count


def abort_downloads(
    swarm: Swarm,
    probability: float,
    check_interval: float = 300.0,
    rng: Optional[Random] = None,
) -> None:
    """Periodically make each incomplete leecher abort with *probability*.

    Models the impatient-user departures that churn real torrents.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    rng = rng or Random(swarm.rng.getrandbits(64))

    def sweep() -> None:
        for peer in list(swarm.peers.values()):
            if peer.online and not peer.is_seed and rng.random() < probability:
                peer.leave()
        swarm.simulator.schedule(check_interval, sweep)

    swarm.simulator.schedule(check_interval, sweep)


@pytest.fixture
def swarm():
    return tiny_swarm()


def _reference_allocator(patch):
    # Where Swarm.__init__ looks its allocator up: the python oracle
    # instead of the vectorised filling.
    patch.setattr(
        repro.sim.swarm, "resolve_allocator", lambda: reference_max_min_rates
    )


def _per_link_announce_piece(peer, piece):
    PeerCore._announce_piece(peer, piece)
    peer.swarm.on_piece_replicated(peer, piece)


def _per_link(patch):
    # The message route of PeerCore, which NetPeer runs: a view parsed
    # from each BITFIELD, one HAVE per link, and REQUEST and PIECE as
    # messages, through ``_send`` and ``_receive``.
    patch.setattr(Peer, "_remote_view", PeerCore._remote_view)
    patch.setattr(Peer, "_announce_piece", _per_link_announce_piece)
    patch.setattr(Peer, "_calls_blocks", lambda peer, connection: False)


def _unpaired(patch):
    # No observer offers a pair recorder, so every delivery between two
    # traced peers goes through both message hooks, one line each.
    patch.setattr(TracingObserver, "pair_recorder", None)


def _naive_picker(patch):
    patch.setattr(repro.core.peer_core, "PiecePicker", NaivePiecePicker)


TWINS = {
    "reference-allocator": _reference_allocator,
    "per-link": _per_link,
    "unpaired": _unpaired,
    "naive-picker": _naive_picker,
}

#: Every engine fast path on its reference: the python allocator,
#: PeerCore's per-link message delivery, and each traced delivery
#: through both observer hooks.  The picker oracle is not an engine path.
ENGINE_TWINS = ("reference-allocator", "per-link", "unpaired")


@contextmanager
def _select(*names):
    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            TWINS[name](patch)
        yield


@pytest.fixture(scope="session")
def twins():
    """``with twins(*names):`` builds swarms and peers on reference twins.

    ``"reference-allocator"`` hands every swarm built inside the block
    the python allocator of ``tests/reference_allocator.py``,
    ``"per-link"`` makes every simulated peer deliver along PeerCore's
    message route instead of the fused HAVE flood, the shared remote
    views and the block calls (DESIGN §12), ``"unpaired"`` traces every
    delivery through both observer hooks instead of one pair, and
    ``"naive-picker"`` makes every peer built inside the block pick
    through the naive oracle of ``tests/reference_piece_picker.py``.  A
    swarm keeps the allocator it was built with, a peer its picker, and
    a link decides on pairing when it opens, while the ``per-link``
    methods hold only inside the block; so a run, arrivals included,
    stays inside the block, and a test that patches the same methods
    enters its own patch inside the block, so that both undo in order.
    The context manager holds no state, so the fixture is session-wide
    and safe under Hypothesis.
    """
    return _select
