"""The live driver keeps the core's peer-set rules (§II-B).

A :class:`~repro.net.peer.NetPeer` admits links through the same two
predicates as the simulated peer: a seed refuses a seed, and only the
links a peer dialed count against ``max_initiated``.
"""

import asyncio

import pytest

from repro.net.swarm import LiveSwarm
from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig

pytestmark = pytest.mark.net

CONFIG = PeerConfig(
    upload_capacity=256 * KIB,
    choke_interval=0.2,
    rate_window=1.0,
    min_peer_set=1,
)
TIMEOUT = 30.0


def live_swarm(seeds, leechers):
    metainfo = make_metainfo("peerset", num_pieces=8, piece_size=4 * KIB, block_size=KIB)
    swarm = LiveSwarm(metainfo, seed=1, config=CONFIG)
    swarm.add_peers(seeds, leechers)
    return swarm


def run(scenario):
    asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))


def test_seeds_never_link_to_each_other():
    swarm = live_swarm(seeds=2, leechers=1)

    async def scenario():
        try:
            await swarm.start()
            first, second, leecher = swarm.peers
            assert set(leecher.connections) == {first.address, second.address}
            await asyncio.sleep(0.3)
            assert second.address not in first.connections
            assert first.address not in second.connections
            await swarm.wait(TIMEOUT / 2)
        finally:
            await swarm.shutdown()

    run(scenario)


def test_initiated_count_is_the_links_dialed():
    swarm = live_swarm(seeds=1, leechers=3)

    async def scenario():
        try:
            await swarm.start()
            # The last peer to join dialed every earlier one.
            assert swarm.peers[-1].initiated_count == 3
            for peer in swarm.peers:
                dialed = [c for c in peer.connections.values() if c.initiated_by_local]
                assert peer.initiated_count == len(dialed)
        finally:
            await swarm.shutdown()
        for peer in swarm.peers:
            assert not peer.connections
            assert peer.initiated_count == 0

    run(scenario)
