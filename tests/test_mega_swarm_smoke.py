"""Mega-swarm smoke: a 1000-leecher swarm on the default fast engine.

Marked ``slow``: CI runs it in a dedicated job with a hard timeout so a
hang at four-digit scale (a fused fan-out loop that stops terminating,
a batched availability add that never converges) fails the build
instead of burning the runner.  The simulated window is short —
arrivals are still trickling in when it closes — because the point is
that the engine *moves* at this scale, not that the swarm finishes.
"""

import hashlib
import tracemalloc
from random import Random

import pytest

from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm

LEECHERS = 1000
PIECES = 2048
SIM_SECONDS = 40.0
#: sha256 over every peer's final piece set at seed 42.
PINNED_DIGEST = "b27dc8ce6646926a94d55a76ed7db9d98a59152e99ec4480d4bb443c9b697e16"
#: Ceiling on tracemalloc's peak over one run: ~38 MiB with link
#: containers allocated at first use, ~133 MiB when every idle link
#: endpoint carried its own empty rate windows and upload queue.
PEAK_TRACED_MIB = 64


def run_mega_swarm():
    metainfo = make_metainfo(
        "mega-smoke",
        num_pieces=PIECES,
        piece_size=16 * KIB,
        block_size=16 * KIB,
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=42))
    rng = Random(42)

    def peer_config() -> PeerConfig:
        return PeerConfig(upload_capacity=rng.choice([32, 64, 96, 128]) * KIB)

    swarm.add_peer(config=peer_config(), is_seed=True)
    for _ in range(LEECHERS):
        swarm.schedule_arrival(rng.uniform(0.0, 60.0), config=peer_config())
    result = swarm.run(SIM_SECONDS)
    digest = hashlib.sha256()
    for address in sorted(swarm.peers):
        have = list(swarm.peers[address].bitfield.have_indices())
        digest.update(repr((address, have)).encode())
    return result, swarm, digest.hexdigest()


@pytest.mark.slow
def test_thousand_peer_swarm_moves_data():
    tracemalloc.start()
    try:
        result, swarm, digest = run_mega_swarm()
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Two thirds of the arrival window has elapsed: most of the swarm
    # must be present and real payload must be flowing.
    assert len(swarm.peers) > LEECHERS // 2
    assert result.bytes_moved > 100 * 16 * KIB
    # Byte conservation: every byte the fluid loop moved was uploaded
    # by one peer and downloaded by another.
    assert sum(result.bytes_uploaded.values()) == pytest.approx(result.bytes_moved)
    assert sum(result.bytes_downloaded.values()) == pytest.approx(
        result.bytes_moved
    )
    assert digest == PINNED_DIGEST
    # Memory per link: almost every link in a peer set is idle, so an
    # idle endpoint must cost next to nothing.
    assert peak < PEAK_TRACED_MIB * 2**20
