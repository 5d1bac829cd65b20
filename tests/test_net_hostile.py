"""Hostile wire input against a live peer.

Every frame here is well-formed BEP 3 — it decodes — but cannot belong
to the torrent: a bitfield of the wrong size, a piece index out of
range, a block that is not one of the torrent's blocks.  The victim is a
live seed; the attacker is a raw socket.  In every case the hostile link
must be reaped through the ordinary fault path (never left behind with a
dead reader task), and the victim must go on to serve an honest leecher
to completion.
"""

import asyncio
from random import Random

import pytest

from repro.instrumentation.metrics import MetricsRegistry
from repro.net.connection import WallClock
from repro.net.peer import NetPeer, pack_listen_port
from repro.protocol.messages import (
    HANDSHAKE_LENGTH,
    Bitfield as BitfieldMessage,
    Handshake,
    Have,
    Interested,
    Piece,
    Request,
    Unchoke,
)
from repro.protocol.metainfo import make_metainfo
from repro.protocol.stream import MessageStream
from repro.sim.config import KIB, PeerConfig
from repro.tracker.tracker import Tracker

pytestmark = pytest.mark.net

NUM_PIECES = 8  # a one-byte bitfield with no spare bits...
SPARE_PIECES = 6  # ...and one whose last two bits must stay zero
TIMEOUT = 10.0
CONFIG = PeerConfig(
    upload_capacity=256 * KIB,
    choke_interval=0.1,
    rate_window=1.0,
    min_peer_set=1,
)
HOSTILE_PORT = 6881  # advertised in the handshake, never listened on


class Arena:
    """A live seed (the victim) plus what an honest leecher needs."""

    def __init__(self, num_pieces=NUM_PIECES):
        self.metainfo = make_metainfo(
            "hostile", num_pieces=num_pieces, piece_size=4 * KIB, block_size=KIB
        )
        self.clock = WallClock()
        self.tracker = Tracker(Random(1), clock=lambda: self.clock.now)
        self.metrics = MetricsRegistry()
        self.victim = self.peer(0, is_seed=True)

    def peer(self, index, is_seed=False):
        return NetPeer(
            self.metainfo, CONFIG, self.tracker, self.clock, Random(index),
            is_seed=is_seed, metrics=self.metrics,
        )

    def handshake(self):
        return Handshake(
            info_hash=self.metainfo.info_hash,
            peer_id=b"-XX0000-hostilehostl",
            reserved=pack_listen_port(HOSTILE_PORT),
        ).encode()

    def empty_bitfield(self):
        size = (self.metainfo.geometry.num_pieces + 7) // 8
        return BitfieldMessage(bits=b"\x00" * size).encode()

    async def assert_victim_still_serves(self):
        """No dead link is left behind, and an honest leecher completes."""
        victim = self.victim
        for connection in victim.connections.values():
            assert not connection.reader_task.done(), connection
        assert not victim._bucket._lock.locked()
        leecher = self.peer(1)
        await leecher.start()
        try:
            await leecher.join()
            await asyncio.wait_for(leecher.completed.wait(), TIMEOUT)
            assert leecher.bitfield.is_complete()
        finally:
            await leecher.stop()
            await victim.stop()


def run(scenario):
    """Run one scenario to the end; fail it when something hangs or when
    an exception escapes a task into the event loop's handler (a server
    callback that died, which newer asyncio papers over by closing the
    socket itself)."""

    async def guarded():
        escaped = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: escaped.append(context)
        )
        await asyncio.wait_for(scenario(), 3 * TIMEOUT)
        assert not escaped, escaped

    asyncio.run(guarded())


async def read_until_eof(reader):
    """Drain *reader* to EOF; a reset counts as closed too."""
    try:
        while await reader.read(65536):
            pass
    except ConnectionError:
        pass


async def attack(arena, frames, unchoked):
    """Connect to the victim as a raw socket, get as far into the protocol
    as the attack needs, send *frames*, and wait to be disconnected."""
    victim = arena.victim
    await victim.start()
    await victim.join()
    reader, writer = await asyncio.open_connection(victim.host, victim.port)
    try:
        writer.write(arena.handshake() + arena.empty_bitfield())
        stream = MessageStream(expect_handshake=False)
        await reader.readexactly(HANDSHAKE_LENGTH)
        if unchoked:
            writer.write(Interested().encode())
            got_unchoke = False
            while not got_unchoke:
                chunk = await reader.read(65536)
                assert chunk, "the victim hung up before unchoking"
                got_unchoke = any(
                    isinstance(message, Unchoke) for message in stream.feed(chunk)
                )
        else:
            # The link is in the peer set once the victim took our bitfield.
            while not victim.connections:
                await asyncio.sleep(0.01)
        assert len(victim.connections) == 1
        for frame in frames:
            writer.write(frame.encode())
        await writer.drain()
        await read_until_eof(reader)
    finally:
        writer.close()


MIDSTREAM = {
    "have_out_of_range": (False, [Have(piece=10**6)]),
    "have_one_past_the_end": (False, [Have(piece=NUM_PIECES)]),
    "bitfield_wrong_length": (False, [BitfieldMessage(bits=b"\x00\x00\x00")]),
    "request_out_of_range": (True, [Request(piece=10**6, offset=0, length=KIB)]),
    "request_misaligned": (True, [Request(piece=0, offset=1, length=KIB)]),
    "request_short": (True, [Request(piece=0, offset=0, length=KIB - 1)]),
    "request_oversized": (True, [Request(piece=0, offset=0, length=0x7FFFFFFF)]),
    "request_past_piece_end": (True, [Request(piece=0, offset=4 * KIB, length=KIB)]),
    "piece_wrong_length": (False, [Piece(piece=0, offset=0, data=b"x" * 10)]),
    "piece_out_of_range": (False, [Piece(piece=10**6, offset=0, data=b"x" * KIB)]),
}


@pytest.mark.parametrize("name", sorted(MIDSTREAM))
def test_invalid_frame_reaps_the_link(name):
    unchoked, frames = MIDSTREAM[name]

    async def scenario():
        arena = Arena()
        await attack(arena, frames, unchoked)
        assert not arena.victim.connections
        assert arena.metrics.value("fault.connection_reaped") == 1
        await arena.assert_victim_still_serves()

    run(scenario)


OPENING = {
    "wrong_length": (NUM_PIECES, b"\x00\x00\x00"),
    "spare_bits_set": (SPARE_PIECES, b"\x03"),
}


@pytest.mark.parametrize("name", sorted(OPENING))
def test_invalid_opening_bitfield_is_refused_when_accepting(name):
    num_pieces, bits = OPENING[name]

    async def scenario():
        arena = Arena(num_pieces)
        victim = arena.victim
        await victim.start()
        await victim.join()
        reader, writer = await asyncio.open_connection(victim.host, victim.port)
        try:
            writer.write(arena.handshake() + BitfieldMessage(bits=bits).encode())
            # The victim must hang up on us, not leave the socket open
            # behind a server callback that died.
            await read_until_eof(reader)
        finally:
            writer.close()
        assert not victim.connections
        await arena.assert_victim_still_serves()

    run(scenario)


@pytest.mark.parametrize("name", sorted(OPENING))
def test_invalid_opening_bitfield_is_refused_when_dialling(name):
    num_pieces, bits = OPENING[name]

    async def scenario():
        arena = Arena(num_pieces)
        served = []

        async def hostile_listener(reader, writer):
            writer.write(arena.handshake() + BitfieldMessage(bits=bits).encode())
            await read_until_eof(reader)
            writer.close()
            served.append(True)

        server = await asyncio.start_server(hostile_listener, "127.0.0.1", 0)
        address = "127.0.0.1:%d" % server.sockets[0].getsockname()[1]
        arena.tracker.announce(
            address, event="started", num_want=0, is_seed=False, rng=Random(9)
        )
        victim = arena.victim
        await victim.start()
        try:
            # The tracker hands out the hostile address; dialling it must
            # fail like any other bad handshake, not raise out of join().
            await victim.join()
            assert not victim.connections
            while not served:  # our side of the link was closed
                await asyncio.sleep(0.01)
        finally:
            server.close()
        await arena.assert_victim_still_serves()

    run(scenario)
