"""Live-swarm fault smoke test: crash one peer mid-download.

A victim leecher is killed abruptly (task cancellation + TCP RST on
every link) once it holds a few pieces.  The survivors must reap the
dead links, re-plan around the lost availability, and still download to
completion — and the reaps must land in the metrics registry.  Simulated
links never fail, so this is where a peer crash is tested.
"""

import asyncio

import pytest

from repro.instrumentation.trace import TraceRecorder
from repro.net.conformance import check_trace, completion_counts
from repro.net.swarm import LiveSwarm
from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig

pytestmark = pytest.mark.net

NUM_PIECES = 16
LIVE_CONFIG = PeerConfig(
    upload_capacity=128 * KIB,
    choke_interval=0.2,
    rate_window=1.0,
    min_peer_set=1,
)


async def _run_with_midway_crash(swarm, victim, timeout=60.0):
    await swarm.start()
    # Let the victim make real progress before pulling the plug, so its
    # links carry in-flight traffic when the RSTs land.
    async def crash_when_warm():
        while victim.bitfield.count < 3:
            await asyncio.sleep(0.01)
        swarm.kill_peer(victim.address)

    await asyncio.wait_for(crash_when_warm(), timeout)
    survivors = [peer for peer in swarm.peers if peer is not victim]
    await asyncio.wait_for(
        asyncio.gather(*[peer.completed.wait() for peer in survivors]), timeout
    )
    await swarm.shutdown()


def test_swarm_survives_peer_crash():
    metainfo = make_metainfo(
        "faultlive", num_pieces=NUM_PIECES, piece_size=4 * KIB, block_size=KIB
    )
    recorder = TraceRecorder()
    swarm = LiveSwarm(metainfo, seed=23, config=LIVE_CONFIG, recorder=recorder)
    swarm.add_peers(1, 4)
    victim = swarm.peers[-1]

    asyncio.run(_run_with_midway_crash(swarm, victim))
    result = swarm.result()

    # Every survivor leecher finished despite the crash.
    survivors = [peer for peer in swarm.peers if peer is not victim]
    for peer in survivors:
        assert peer.bitfield.is_complete()
    assert not victim.bitfield.is_complete()
    assert victim.address not in result.completed_at

    # The victim closed every link it had: none left open, none counted
    # as initiated, no piece left in its availability counts.
    assert victim.initiated_count == 0
    assert not victim.connections
    assert not any(victim.picker.availability)

    # The crash is visible in the registry: the kill itself, the victim's
    # own crash bookkeeping, and at least one survivor reaping a dead
    # link (RST races with FIN-less EOF, so the reap count varies).
    assert swarm.metrics.value("fault.peer_killed") == 1
    assert swarm.metrics.value("fault.peer_crashed") == 1
    assert swarm.metrics.value("fault.connection_reaped") >= 1

    # The trace still satisfies every invariant except byte conservation,
    # which a crash legitimately breaks: the victim's receive counters
    # die with it while senders already counted the in-flight bytes.
    report = check_trace(recorder, check_conservation=False, num_pieces=NUM_PIECES)
    report.assert_ok()
    counts = completion_counts(recorder)
    completed = [addr for addr, count in counts.items() if count == NUM_PIECES]
    assert sorted(completed) == sorted(peer.address for peer in survivors
                                       if peer.became_seed_at != 0.0)
