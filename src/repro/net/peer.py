"""A live BitTorrent client: the shared peer core over real TCP.

:class:`NetPeer` is the asyncio driver of
:class:`repro.core.peer_core.PeerCore`, the protocol logic the
simulator's :class:`repro.sim.peer.Peer` also runs: what to do on each
message, piece selection through
:class:`~repro.core.piece_picker.PiecePicker`, choking through
:class:`~repro.core.choke.LeecherChoker` /
:class:`~repro.core.choke.SeedChoker` on 10-second rounds and the seed
transition are inherited, not written again.  This module supplies the
transport: dial and handshake, one reader task per link that checks
every frame against this torrent before the core sees it, delivery as
encoded frames on the stream, and the upload path.  What the sim's fluid
model approximates — transfer capacity — is here enforced by a
:class:`TokenBucket` serving real
:meth:`~repro.protocol.metainfo.Metainfo.piece_payload` bytes, verified
by SHA-1 on completion.

Concurrency model: one asyncio server task, one reader task and one
uploader task per connection, plus one choke-round task.  The core's
message handlers are synchronous (no awaits), so each inbound message is
processed atomically with respect to every other task of the peer —
the same single-threaded semantics the discrete-event engine gives the
sim peer, which is what makes the two traces comparable.
"""

from __future__ import annotations

import asyncio
import struct
from random import Random
from typing import Dict, List, Optional

from repro.core.peer_core import PeerCore
from repro.net.connection import NetConnection, WallClock
from repro.protocol.bitfield import Bitfield
from repro.protocol.messages import (
    HANDSHAKE_LENGTH,
    Bitfield as BitfieldMessage,
    Handshake,
    Have,
    Message,
    MessageError,
    Piece,
    Request,
)
from repro.protocol.metainfo import Metainfo
from repro.protocol.peer_id import parse_client_id
from repro.sim.config import PeerConfig
from repro.sim.observer import PeerObserver
from repro.tracker.tracker import Tracker, TrackerUnavailable

#: Handshake reserved-byte extension: bytes 6:8 carry the sender's
#: listening port (big-endian), so an *inbound* connection can be mapped
#: to the remote's canonical tracker address instead of the ephemeral
#: source port.  Real clients use reserved bits the same way (DHT, fast
#: extension); zero means "not advertised".
def pack_listen_port(port: int) -> bytes:
    return b"\x00" * 6 + struct.pack(">H", port)


def unpack_listen_port(reserved: bytes) -> int:
    return struct.unpack(">H", reserved[6:8])[0]


class TokenBucket:
    """Byte-rate limiter for the upload path.

    ``rate`` bytes/second refill, ``burst`` bytes of depth (at least one
    block, so a single block request can always be served).  ``take``
    blocks until the requested tokens are available; with ``rate=None``
    the bucket is unlimited.
    """

    def __init__(self, rate: Optional[float], burst: Optional[float] = None):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive or None")
        self.rate = rate
        self.burst = burst if burst is not None else (rate if rate else 0.0)
        self._tokens = self.burst
        self._last = None  # type: Optional[float]
        self._lock = asyncio.Lock()

    async def take(self, num_bytes: float) -> None:
        if self.rate is None:
            return
        async with self._lock:
            loop = asyncio.get_running_loop()
            now = loop.time()
            if self._last is None:
                self._last = now
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if num_bytes > self._tokens:
                wait = (num_bytes - self._tokens) / self.rate
                await asyncio.sleep(wait)
                self._last = loop.time()
                self._tokens = 0.0
            else:
                self._tokens -= num_bytes


class NetPeer(PeerCore):
    """One live peer: TCP server + client around the shared core."""

    def __init__(
        self,
        metainfo: Metainfo,
        config: PeerConfig,
        tracker: Tracker,
        clock: WallClock,
        rng: Random,
        is_seed: bool = False,
        observer: Optional[PeerObserver] = None,
        metrics=None,
        host: str = "127.0.0.1",
    ):
        num_pieces = metainfo.geometry.num_pieces
        super().__init__(
            None,  # the address is known once the server is bound
            metainfo,
            config,
            clock,
            rng,
            Bitfield.full(num_pieces) if is_seed else Bitfield(num_pieces),
            observer=observer,
        )
        self.tracker = tracker
        self.metrics = metrics
        self.host = host
        self.port: Optional[int] = None
        self.completed = asyncio.Event()
        if is_seed:
            self.completed.set()

        self._server: Optional[asyncio.AbstractServer] = None
        self._choke_task: Optional[asyncio.Task] = None
        self._bucket = TokenBucket(
            config.upload_capacity if config.upload_capacity else None,
            burst=max(
                float(metainfo.geometry.block_size),
                (config.upload_capacity or 0.0) * 0.25,
            ),
        )
        self._materialize = True  # real payload bytes, SHA-1-checked
        self._store: Dict[int, bytes] = {}  # verified piece payloads
        self._stopping = False

    def piece_payload(self, piece: int) -> bytes:
        """Serve a piece from the verified store (seeds generate lazily)."""
        data = self._store.get(piece)
        if data is None:
            data = self.metainfo.piece_payload(piece)
            self._store[piece] = data
        return data

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> str:
        """Bind the TCP server; returns the canonical address."""
        self._server = await asyncio.start_server(
            self._on_inbound, self.host, 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.address = "%s:%d" % (self.host, self.port)
        if self.observer is not None:
            self.observer.on_attached(self)
        return self.address

    async def join(self, num_want: Optional[int] = None) -> None:
        """Announce to the tracker and dial the returned peers."""
        assert self.address is not None, "start() must run before join()"
        self.online = True
        self.joined_at = self.simulator.now
        addresses = self._tracker_announce(
            "started",
            num_want if num_want is not None else self.config.max_peer_set,
        )
        for remote_address in addresses:
            if self.may_initiate(remote_address):
                await self._dial(remote_address)
        self._choke_task = asyncio.ensure_future(self._choke_loop())

    async def stop(self) -> None:
        """Graceful leave: half-close every link, drain inbound bytes to
        EOF (so in-flight PIECE frames are still counted on both ends),
        then announce ``stopped`` and finalize the observer."""
        if self._stopping:
            return
        self._stopping = True
        self.online = False
        if self._choke_task is not None:
            self._choke_task.cancel()
        if self._server is not None:
            self._server.close()
        for connection in list(self.connections.values()):
            self._half_close(connection)
        # Readers exit on EOF once every endpoint half-closes; bound the
        # drain so a wedged link cannot hang shutdown.
        readers = [
            c.reader_task
            for c in list(self.connections.values())
            if c.reader_task is not None and not c.reader_task.done()
        ]
        if readers:
            await asyncio.wait(readers, timeout=5.0)
        for connection in list(self.connections.values()):
            self._close_connection(connection)
        if self.joined_at is not None:
            try:
                self._tracker_announce("stopped", 0)
            except TrackerUnavailable:
                pass
        if self.observer is not None and hasattr(self.observer, "finalize"):
            self.observer.finalize(now=self.simulator.now)

    def crash(self) -> None:
        """Abrupt death: cancel every task and RST every link (no FIN,
        no stopped announce) — remotes observe a connection reset.  Each
        link still closes through ``_drop_link``, so the dead peer keeps
        no initiated count, availability row or open link."""
        self.online = False
        self._stopping = True
        if self._choke_task is not None:
            self._choke_task.cancel()
        if self._server is not None:
            self._server.close()
        for connection in list(self.connections.values()):
            if connection.reader_task is not None:
                connection.reader_task.cancel()
            if connection.uploader_task is not None:
                connection.uploader_task.cancel()
            connection.abort()
            if not connection.closed:
                self._drop_link(connection)
        if self.metrics is not None:
            self.metrics.inc("fault.peer_crashed")

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------

    async def _dial(self, remote_address: str) -> bool:
        host, _, port = remote_address.rpartition(":")
        try:
            reader, writer = await asyncio.open_connection(host, int(port))
        except OSError:
            return False
        return await self._handshake(
            reader, writer, initiated_by_local=True, dialed_address=remote_address
        )

    async def _on_inbound(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # The reader/uploader tasks are spawned by _handshake; the stream
        # stays open after this callback returns.
        await self._handshake(reader, writer, initiated_by_local=False)

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        initiated_by_local: bool,
        dialed_address: Optional[str] = None,
    ) -> bool:
        """Exchange handshakes and the opening bitfields.

        Per BEP 3 both endpoints send their handshake eagerly; the
        connection enters the peer set (``conn_open``) only after the
        remote's handshake *and* opening BITFIELD arrived, which is when
        the remote's identity and completeness are actually known.
        """
        connection = NetConnection(
            self,
            reader,
            writer,
            initiated_by_local,
            self.config.rate_window,
        )
        try:
            writer.write(
                Handshake(
                    info_hash=self.metainfo.info_hash,
                    peer_id=self.peer_id.raw,
                    reserved=pack_listen_port(self.port or 0),
                ).encode()
            )
            writer.write(BitfieldMessage(bits=self.bitfield.to_bytes()).encode())
            await writer.drain()
            raw = await reader.readexactly(HANDSHAKE_LENGTH)
            shake = Handshake.decode(raw)
            if shake.info_hash != self.metainfo.info_hash:
                raise MessageError("info_hash mismatch")
            if dialed_address is not None:
                remote_address = dialed_address
            else:
                advertised = unpack_listen_port(shake.reserved)
                peer_host = writer.get_extra_info("peername")[0]
                remote_address = "%s:%d" % (peer_host, advertised)
            # First frame must be the opening bitfield (bitfield-first
            # grammar; the sim sends it unconditionally, empty included).
            messages: List[Message] = []
            while not messages:
                chunk = await reader.read(65536)
                if not chunk:
                    raise MessageError("EOF before opening bitfield")
                messages = connection.stream.feed(chunk)
            if not isinstance(messages[0], BitfieldMessage):
                raise MessageError(
                    "expected opening BITFIELD, got %s" % type(messages[0]).__name__
                )
            for message in messages:
                self._check_frame(message)
        except (OSError, MessageError, asyncio.IncompleteReadError):
            writer.close()
            return False
        # The opening BITFIELD tells whether the remote is a seed.  A
        # simultaneous dial is refused here as a duplicate: the first
        # link stays.
        remote_is_seed = Bitfield.from_bytes(
            messages[0].bits, self.bitfield.num_pieces
        ).is_complete()
        admit = self.may_initiate if initiated_by_local else self.may_accept
        if not admit(remote_address, remote_is_seed):
            writer.close()
            return False

        connection.remote_key = remote_address
        self._add_link(connection)
        if self.observer is not None:
            now = self.simulator.now
            self.observer.on_connection_open(
                now,
                remote_address,
                parse_client_id(shake.peer_id) or "unknown",
                # Decoded from the opening BITFIELD above, as the sim
                # passes its remote's real bitfield.
                remote_is_seed,
                self.is_seed,
                initiated_by_local,
            )
            # Our bitfield went out with the handshake; log it first so
            # the per-link trace reads conn_open, sent BITFIELD,
            # received BITFIELD — the same shape the sim emits.
            self.observer.on_message_sent(
                now, remote_address, BitfieldMessage(bits=self.bitfield.to_bytes())
            )
        for message in messages:
            self._deliver(connection, message)
        connection.reader_task = asyncio.ensure_future(self._reader_loop(connection))
        connection.uploader_task = asyncio.ensure_future(self._upload_loop(connection))
        return True

    # ------------------------------------------------------------------
    # reader / dispatcher
    # ------------------------------------------------------------------

    async def _reader_loop(self, connection: NetConnection) -> None:
        reaped = False
        try:
            while not connection.closed:
                chunk = await connection.reader.read(65536)
                if not chunk:
                    break  # clean FIN from the remote
                for message in connection.stream.feed(chunk):
                    if connection.closed:
                        return
                    self._check_frame(message)
                    self._deliver(connection, message)
        except asyncio.CancelledError:
            return
        except (OSError, MessageError):
            # Reset, garbage or a frame this torrent cannot contain: reap
            # the link.
            reaped = True
        if connection.closed:
            return
        if reaped:
            now = self.simulator.now
            if self.observer is not None:
                self.observer.on_fault(now, "connection_reaped")
            if self.metrics is not None:
                self.metrics.inc("fault.connection_reaped")
        self._close_connection(connection)
        # Blocks in flight on the dead link were released back to the
        # picker; offer them to the surviving links right away.
        for other in list(self.connections.values()):
            if not other.peer_choking and other.am_interested:
                self._fill_pipeline(other)

    def _check_frame(self, message: Message) -> None:
        """Raise :class:`MessageError` for a frame that is well-formed
        BEP 3 but cannot belong to this torrent.

        The wire is outside input and the core trusts its messages, so a
        piece index out of range, a bitfield of the wrong size or a block
        that is not one of the torrent's blocks is stopped here, where the
        reader's reap path handles it.  (CANCEL needs no check: cancelling
        a block that is not queued is a no-op.)
        """
        geometry = self.metainfo.geometry
        try:
            if isinstance(message, (Request, Piece)):  # the bulk of a stream
                is_request = isinstance(message, Request)
                length = message.length if is_request else len(message.data)
                block = geometry.block_ref(
                    message.piece, message.offset // geometry.block_size
                )
                if (block.offset, block.length) != (message.offset, length):
                    raise ValueError(
                        "%d bytes at offset %d are not a block of piece %d"
                        % (length, message.offset, message.piece)
                    )
            elif isinstance(message, Have):
                geometry.piece_length(message.piece)  # IndexError out of range
            elif isinstance(message, BitfieldMessage):
                Bitfield.from_bytes(message.bits, geometry.num_pieces)
        except (IndexError, ValueError) as exc:
            raise MessageError("%s: %s" % (type(message).__name__, exc))

    def _deliver(self, connection: NetConnection, message: Message) -> None:
        """Hand one checked inbound frame to the core."""
        if isinstance(message, Piece):
            # Payload bytes count on arrival, duplicates included: the
            # sender counted them when it wrote the frame.
            size = len(message.data)
            connection.downloaded.add(self.simulator.now, size)
            self.total_downloaded += size
        self._receive(connection, message)

    def _send(self, connection: NetConnection, message: Message) -> None:
        if connection.closed or self._stopping:
            return
        if self.observer is not None:
            self.observer.on_message_sent(
                self.simulator.now, connection.remote_key, message
            )
        connection.write_raw(message.encode())

    def _verify_and_store(self, piece: int) -> bool:
        data = self._piece_buffers.get(piece, b"")
        if PeerCore._verify_and_store(self, piece):
            self._store[piece] = bytes(data)
            return True
        if self.metrics is not None:
            self.metrics.inc("fault.hash_failure")
        return False

    # ------------------------------------------------------------------
    # uploads (token-bucket paced)
    # ------------------------------------------------------------------

    async def _upload_loop(self, connection: NetConnection) -> None:
        try:
            while not connection.closed:
                await connection.upload_ready.wait()
                block = connection.pop_upload()
                if block is None:
                    continue
                await self._bucket.take(block.length)
                # The link may have choked or died while waiting for
                # tokens; the queue was cleared then, so drop the block.
                # (No await between this check and the send, so the
                # byte counting and the write stay atomic.)
                if connection.closed or connection.am_choking or self._stopping:
                    continue
                payload = self.piece_payload(block.piece)
                data = payload[block.offset : block.offset + block.length]
                now = self.simulator.now
                connection.uploaded.add(now, len(data))
                self.total_uploaded += len(data)
                self._send(
                    connection,
                    Piece(piece=block.piece, offset=block.offset, data=data),
                )
                await connection.writer.drain()
        except asyncio.CancelledError:
            return
        except (OSError, RuntimeError):
            return  # transport died; the reader loop reaps the link

    # ------------------------------------------------------------------
    # the choke round
    # ------------------------------------------------------------------

    async def _choke_loop(self) -> None:
        try:
            while self.online:
                await asyncio.sleep(self.config.choke_interval)
                if self.online:
                    self._choke_round()
        except asyncio.CancelledError:
            return

    # ------------------------------------------------------------------
    # seed transition & teardown
    # ------------------------------------------------------------------

    def _announce_completed(self) -> None:
        try:
            self._tracker_announce("completed", 0)
        except TrackerUnavailable:
            pass

    def _close_seed_link(self, connection: NetConnection) -> None:
        # Half-close (FIN) rather than hard-close: PIECE frames still in
        # the socket buffer must be drained and counted on this side
        # before the link dies, or the swarm's byte conservation breaks.
        self._half_close(connection)

    def _on_became_seed(self) -> None:
        self.completed.set()

    def _half_close(self, connection: NetConnection) -> None:
        """Send FIN but keep reading; the reader loop closes on EOF."""
        connection.clear_upload_queue()
        if connection.uploader_task is not None:
            connection.uploader_task.cancel()
        try:
            if connection.writer.can_write_eof():
                connection.writer.write_eof()
        except (OSError, RuntimeError):
            pass

    def _close_connection(self, connection: NetConnection) -> None:
        """Tear down our endpoint (FIN); the remote sees a clean EOF."""
        if connection.closed:
            return
        self._drop_link(connection)
        if connection.uploader_task is not None:
            connection.uploader_task.cancel()
        try:
            connection.writer.close()
        except (OSError, RuntimeError):  # pragma: no cover - already dead
            pass
