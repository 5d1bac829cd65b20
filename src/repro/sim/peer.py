"""A complete BitTorrent client for the simulator.

Each :class:`Peer` runs the full protocol described in the paper's
section II.  What it decides on each message — piece knowledge from
BITFIELD/HAVE/INTERESTED, block requests through a
:class:`repro.core.piece_picker.PiecePicker` (rarest first by default,
with random-first, strict-priority and end-game policies), the choke
round every 10 seconds through pluggable
:class:`repro.core.choke.Choker` strategies — is
:class:`repro.core.peer_core.PeerCore`, shared with the live
:class:`repro.net.peer.NetPeer`.  This module is the simulator's driver
around that core: joining and leaving, refilling the peer set, message
delivery (synchronous and lossless on every link), the fused HAVE fan-out
over shared remote views and the per-block pair as direct calls (DESIGN
§12), and super-seeding.

Transfers are fluid: the swarm's per-tick bandwidth allocation calls
:meth:`Peer.advance_uploads`, which turns allocated bytes into completed
blocks delivered to the downloading side.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Dict, List, Optional

from numpy import ndarray

from repro.core.choke import Choker
from repro.core.peer_core import PeerCore, PeerState
from repro.core.rarest_first import PieceSelector
from repro.protocol.bitfield import Bitfield
from repro.protocol.messages import (
    Bitfield as BitfieldMessage,
    Have,
    Interested,
    Message,
    NotInterested,
    Piece,
)
from repro.protocol.metainfo import BlockRef, Metainfo
from repro.sim.config import (
    TRACKER_ANNOUNCE_SECONDS,
    TRACKER_NUM_WANT,
    PeerConfig,
)
from repro.sim.connection import Connection
from repro.sim.engine import Simulator, Timer
from repro.sim.observer import PeerObserver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.swarm import Swarm


class Peer(PeerCore):
    """One simulated BitTorrent client."""

    def __init__(
        self,
        address: str,
        metainfo: Metainfo,
        config: PeerConfig,
        simulator: Simulator,
        swarm: "Swarm",
        rng: Random,
        selector: Optional[PieceSelector] = None,
        leecher_choker: Optional[Choker] = None,
        seed_choker: Optional[Choker] = None,
        initial_bitfield: Optional[Bitfield] = None,
        observer: Optional[PeerObserver] = None,
    ):
        self.swarm = swarm
        num_pieces = metainfo.geometry.num_pieces
        super().__init__(
            address,
            metainfo,
            config,
            simulator,
            rng,
            initial_bitfield.copy() if initial_bitfield else Bitfield(num_pieces),
            selector=selector,
            leecher_choker=leecher_choker,
            seed_choker=seed_choker,
            # The picker owns one row of the swarm-shared availability matrix.
            matrix=swarm.availability_matrix,
            observer=observer,
        )
        self.tracker = swarm.tracker
        if observer is not None:
            observer.on_attached(self)

        # Fused HAVE fan-out targets (see _collect_have_targets), built
        # on demand; reset to None by whatever changes the answer: a link
        # established or closed.
        self._have_targets: Optional[ndarray] = None
        # Super-seeding (§IV-A.4): advertise nothing, reveal pieces one
        # at a time per peer, preferring the least-revealed piece.
        self.super_seeding = config.super_seeding and self.bitfield.is_complete()
        self._reveal_counts: List[int] = (
            [0] * num_pieces if self.super_seeding else []
        )
        self._revealed_to: Dict[str, set] = {}
        self._active_reveal: Dict[str, int] = {}
        self._choke_timer: Optional[Timer] = None
        self._announce_timer: Optional[Timer] = None
        self._last_refill = -float("inf")
        self._departure_handle = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def join(self) -> None:
        """Enter the torrent: announce, build the initial peer set, start
        the choke-round and tracker-announce timers."""
        if self.online:
            raise RuntimeError("%s already joined" % self.address)
        self.swarm.on_peer_joined(self)
        # Rejoining after a clean leave re-acquires a zeroed row.
        self.picker.attach_matrix(self.swarm.availability_matrix)
        self.online = True
        self.joined_at = self.simulator.now
        self._materialize = self.swarm.config.verify_piece_hashes
        self._announce(
            event="started",
            num_want=TRACKER_NUM_WANT,
            connect=True,
        )
        # Stagger choke rounds across the population with a random phase.
        phase = self.rng.uniform(0.0, self.config.choke_interval)
        self._choke_timer = Timer(
            self.simulator,
            self.config.choke_interval,
            self._choke_round,
            start_at=self.simulator.now + phase,
        )
        self._announce_timer = Timer(
            self.simulator,
            TRACKER_ANNOUNCE_SECONDS,
            self._periodic_announce,
        )

    def leave(self) -> None:
        """Depart the torrent, closing every connection."""
        if not self.online:
            return
        self.online = False
        if self._choke_timer:
            self._choke_timer.stop()
        if self._announce_timer:
            self._announce_timer.stop()
        if self._departure_handle is not None:
            self._departure_handle.cancel()
            self._departure_handle = None
        for connection in list(self.connections.values()):
            self._close_connection(connection, notify_remote=True)
        self._announce(event="stopped", num_want=0)
        self.swarm.on_peer_left(self)
        # Every count was decremented as its connection closed above, so
        # the row is zero: releasing it is lossless.
        self.picker.detach_matrix()

    # ------------------------------------------------------------------
    # tracker announces
    # ------------------------------------------------------------------

    def _announce(self, event: str, num_want: int, connect: bool = False) -> None:
        """Announce to the tracker; ``connect`` initiates connections to
        the returned addresses."""
        addresses = self._tracker_announce(event, num_want)
        if self.observer and self.swarm.config.trace_announces:
            # Gated: the flag defaults off and this branch is the only
            # cost, keeping default traces byte-identical.
            self.observer.on_announce(
                self.simulator.now,
                event or "interval",
                {
                    "peer": self.address,
                    "num_want": num_want,
                    "returned": len(addresses),
                    # No announce is retried; the field stays so that
                    # traces with announce events keep their bytes.
                    "attempt": 0,
                },
            )
        if connect and self.online:
            for remote_address in addresses:
                self._try_initiate(remote_address)

    def _periodic_announce(self) -> None:
        self._announce(event="", num_want=0)

    # ------------------------------------------------------------------
    # peer-set management
    # ------------------------------------------------------------------

    def _try_initiate(self, remote_address: str) -> bool:
        """Attempt an outgoing connection; honours §II-B's limits."""
        remote = self.swarm.peer_by_address(remote_address)
        if (
            remote is None
            or not self.may_initiate(remote_address, remote.is_seed)
            or not remote.may_accept(self.address, self.is_seed)
        ):
            return False
        self._establish(remote, initiated_by_local=True)
        return True

    def _establish(self, remote: "Peer", initiated_by_local: bool) -> None:
        now = self.simulator.now
        local_conn = Connection(
            self, remote, initiated_by_local, self.config.rate_window
        )
        remote_conn = Connection(
            remote, self, not initiated_by_local, remote.config.rate_window
        )
        local_conn.twin = remote_conn
        remote_conn.twin = local_conn
        local_conn.trace_pair = remote_conn.trace_pair = self._trace_pair(remote)
        self._add_link(local_conn)
        remote._add_link(remote_conn)
        self._have_targets = remote._have_targets = None
        if self.observer:
            self._observe_open(now, remote, initiated_by_local)
        if remote.observer:
            remote._observe_open(now, self, not initiated_by_local)
        # Both sides advertise their bitfield right after the handshake.
        self._send(local_conn, BitfieldMessage(bits=self._advertised_bits()))
        remote._send(remote_conn, BitfieldMessage(bits=remote._advertised_bits()))
        if self.super_seeding:
            self._reveal_next(local_conn)
        if remote.super_seeding:
            remote._reveal_next(remote_conn)

    def _observe_open(self, now: float, remote: "Peer", initiated: bool) -> None:
        """``on_connection_open`` of the link to *remote*, just filed."""
        self.observer.on_connection_open(
            now,
            remote.address,
            remote.peer_id.client_id,
            remote.bitfield.is_complete(),
            self.is_seed,
            initiated,
        )

    def _trace_pair(self, remote: "Peer"):
        """The recorder a delivery between us and *remote* is traced
        into as one sent+received pair, or ``None`` (DESIGN §12).

        Exact because the two lines would be adjacent anyway: both ends
        are stock tracing observers on one recorder, and
        ``remote._receive`` runs inside ``_send``, before anything else
        can emit.
        """
        recorder = getattr(self.observer, "pair_recorder", None)
        if getattr(remote.observer, "pair_recorder", None) is not recorder:
            return None
        return recorder

    def _advertised_bits(self) -> bytes:
        """The bitfield shown to new peers: empty under super-seeding."""
        if self.super_seeding:
            return Bitfield(self.bitfield.num_pieces).to_bytes()
        return self.bitfield.to_bytes()

    def _reveal_next(self, connection: Connection) -> None:
        """Reveal (HAVE) one more piece to this peer: the globally least
        revealed piece it has not been offered yet."""
        address = connection.remote.address
        revealed = self._revealed_to.setdefault(address, set())
        candidates = [
            piece
            for piece in range(self.bitfield.num_pieces)
            if piece not in revealed
            and not connection.remote_bitfield.has(piece)
        ]
        if not candidates:
            return
        fewest = min(self._reveal_counts[piece] for piece in candidates)
        pool = [
            piece for piece in candidates if self._reveal_counts[piece] == fewest
        ]
        piece = self.rng.choice(pool)
        revealed.add(piece)
        self._reveal_counts[piece] += 1
        self._active_reveal[address] = piece
        self._send(connection, Have(piece=piece))

    def _close_connection(self, connection: Connection, notify_remote: bool) -> None:
        """Tear down our endpoint; optionally tell the remote to do the same."""
        if connection.closed:
            return
        self._drop_link(connection)
        self._have_targets = None
        if self.super_seeding:
            # Reveals to a departed peer are wasted ("seed wastage") but
            # their reveal counts stand: the piece was served or not.
            self._revealed_to.pop(connection.remote.address, None)
            self._active_reveal.pop(connection.remote.address, None)
        if notify_remote and connection.twin is not None:
            connection.remote._on_remote_closed(connection.twin)
        if self.online:
            self._maybe_refill_peer_set()

    def _on_remote_closed(self, connection: Connection) -> None:
        self._close_connection(connection, notify_remote=False)

    def _maybe_refill_peer_set(self) -> None:
        """Re-contact the tracker when the peer set falls below the
        low watermark (default 20, §II-B)."""
        if self.peer_set_size >= self.config.min_peer_set:
            return
        now = self.simulator.now
        if now - self._last_refill < 30.0:
            return  # rate-limit tracker refills
        self._last_refill = now
        self._announce(
            event="",
            num_want=TRACKER_NUM_WANT,
            connect=True,
        )

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def _send(self, connection: Connection, message: Message) -> None:
        if connection.closed:
            return
        twin = connection.twin
        recorder = connection.trace_pair
        if recorder is not None and not twin.closed:
            recorder.emit_message_pair(
                self.simulator.now, self.address, connection.remote.address, message
            )
            connection.remote._receive(twin, message, False)
            return
        if self.observer:
            self.observer.on_message_sent(
                self.simulator.now, connection.remote_key, message
            )
        if twin is not None and not twin.closed:
            connection.remote._receive(twin, message)

    # -- piece-knowledge messages -----------------------------------------

    def _remote_view(
        self, connection: Connection, message: BitfieldMessage
    ) -> Bitfield:
        remote = connection.remote
        if not remote.super_seeding:
            # Shared view (DESIGN §12): delivery is synchronous and
            # lossless, so a parsed copy would equal the remote's own
            # bitfield whenever read.  A super-seeder advertises less than
            # it holds.
            return remote.bitfield
        return PeerCore._remote_view(self, connection, message)

    def _handle_have(self, connection: Connection, message: Have) -> None:
        if (
            self.super_seeding
            and self._active_reveal.get(connection.remote.address) == message.piece
        ):
            # The peer finished the piece we revealed: offer it the next.
            # (Ahead of the core's bookkeeping is as good as after it: the
            # finished piece is already in the revealed set, so it is not
            # a candidate either way, and a seed's own reaction to a HAVE
            # sends nothing.)
            del self._active_reveal[connection.remote.address]
            self._reveal_next(connection)
        PeerCore._handle_have(self, connection, message)

    def broadcast_have_fused(self, message: Have) -> None:
        """The HAVE flood, fused: what per-link ``_send`` + ``_receive`` +
        ``_handle_have`` + the sender's interest recheck do, in one loop.

        Every neighbour's view of this peer *is* ``self.bitfield`` (see
        ``_remote_view``), which already holds the piece, so nothing
        is written per link.  The neighbours' copy counts go up in one
        batched add — exact, because a receiver's counts are read by that
        receiver alone and nothing before its turn reaches it — and the
        loop keeps, in the reference link order, observer emission and
        what can react (DESIGN §12).  The sender is a leecher: a seed
        completes no piece, and becomes one only after its last flood.
        """
        piece = message.piece
        now = self.simulator.now
        slots = self._have_targets
        if slots is None:
            slots = self._have_targets = self._collect_have_targets()
        if len(slots):
            self.swarm.availability_matrix.increment(slots, piece)
        byte_index = piece >> 3
        bit_mask = 0x80 >> (piece & 7)
        # Sender-side interest recheck support, hoisted: all constant
        # across the loop, own state only changes afterwards.
        not_ours = ~self.bitfield.as_int()
        own_count = self.bitfield.count
        observer = self.observer
        seed_state = PeerState.SEED
        sender_addr = self.address
        if observer is not None:
            links = list(self.connections.values())
        else:
            # Visit only the links that can react; on every other link
            # the body below is a no-op turn.  The sender-side mirrors
            # stand for the twin's flags (every flag writer sends its
            # message at once, and delivery here is synchronous), and no
            # reaction on one link writes what this reads of another, so
            # filtering up front keeps the same turns in the same order.
            links = [
                connection
                for connection in self.connections.values()
                if not connection.peer_interested  # remote may gain interest
                or not connection.am_choking  # remote may fill its pipeline
                or (
                    connection.am_interested  # our own recheck, as below
                    and connection.remote_bitfield._count <= own_count
                    and connection.remote_bitfield._bits[byte_index] & bit_mask
                )
                or connection.remote.observer is not None
                or connection.remote.super_seeding
            ]
        for connection in links:
            if not connection.closed:
                twin = connection.twin
                if twin is not None and not twin.closed:
                    receiver = connection.remote
                    recorder = connection.trace_pair
                    if recorder is not None:
                        # Both hooks' lines in one call, as in ``_send``.
                        recorder.emit_have_pair(
                            now, sender_addr, receiver.address, piece
                        )
                    else:
                        if observer:
                            observer.on_message_sent(
                                now, connection.remote_key, message
                            )
                        if receiver.observer is not None:
                            receiver.observer.on_message_received(
                                now, sender_addr, message
                            )
                else:
                    twin = receiver = None
                    if observer:
                        observer.on_message_sent(now, connection.remote_key, message)
                if twin is not None:
                    # -- the receiver's reactions (_handle_have) --
                    if (
                        receiver.super_seeding
                        and receiver._active_reveal.get(sender_addr) == piece
                    ):
                        del receiver._active_reveal[sender_addr]
                        receiver._reveal_next(twin)
                    if not twin.am_interested:
                        if receiver.state is not seed_state and not (
                            receiver.bitfield._bits[byte_index] & bit_mask
                        ):
                            twin.am_interested = True
                            receiver._send(twin, Interested())
                    if not twin.peer_choking and twin.am_interested:
                        receiver._fill_pipeline(twin)
            # -- sender-side interest recheck (the reference loop's tail).
            # Completing a piece can only shrink the interesting set, and
            # only by that piece, so links whose remote lacks it are
            # skipped; so are remotes holding MORE pieces than we do,
            # which necessarily hold one we miss (both prefilters exact).
            if connection.am_interested:
                remote_bits = connection.remote_bitfield
                if remote_bits._count <= own_count and (
                    remote_bits._bits[byte_index] & bit_mask
                ):
                    if not (remote_bits.as_int() & not_ours):
                        connection.am_interested = False
                        self._send(connection, NotInterested())

    def _collect_have_targets(self) -> ndarray:
        """The matrix slots of the neighbours that count our pieces (far
        end still open), as the checked index array of one batched add."""
        return self.swarm.availability_matrix.slot_index(
            [
                connection.remote.picker.matrix_slot
                for connection in self.connections.values()
                if connection.twin is not None and not connection.twin.closed
            ]
        )

    # -- the per-block pair --------------------------------------------------

    def _calls_blocks(self, connection: Connection) -> bool:
        """Whether a REQUEST or PIECE on *connection* may be a direct
        call on the far end instead of a message (DESIGN §12): nobody
        observes either end, no trace pair."""
        return (
            self.observer is None
            and connection.remote.observer is None
            and connection.trace_pair is None
        )

    def _send_request(self, connection: Connection, block: BlockRef) -> None:
        if not self._calls_blocks(connection):
            PeerCore._send_request(self, connection, block)
            return
        # ``_send`` + ``_receive`` + ``_handle_request``, less the message.
        twin = connection.twin
        if not connection.closed and twin is not None and not twin.closed:
            connection.remote._serve_request(twin, block)

    def _serve_request(self, connection: Connection, block: BlockRef) -> None:
        if self.super_seeding and block.piece not in self._revealed_to.get(
            connection.remote.address, ()
        ):
            return  # only revealed pieces are served under super-seeding
        PeerCore._serve_request(self, connection, block)

    # -- finished pieces -----------------------------------------------------

    def _announce_piece(self, piece: int) -> None:
        # The HAVE flood is the dominant cost of a large swarm: the fused
        # loop batches the availability updates that the core's per-link
        # loop makes one by one, with the same observable effect.
        self.broadcast_have_fused(Have(piece=piece))
        self.swarm.on_piece_replicated(self, piece)

    # ------------------------------------------------------------------
    # uploads (driven by the swarm's fluid tick)
    # ------------------------------------------------------------------

    def advance_uploads(self, connection: Connection, num_bytes: float) -> float:
        """Turn allocated bandwidth into completed blocks on *connection*;
        returns the bytes actually moved."""
        if connection.closed or num_bytes <= 0:
            return 0.0
        transferable = connection.transferable_bytes(num_bytes)
        if transferable <= 0:
            return 0.0
        now = self.simulator.now
        connection.uploaded.add(now, transferable)
        self.total_uploaded += transferable
        twin = connection.twin
        remote = connection.remote
        if twin is not None and not twin.closed:
            twin.downloaded.add(now, transferable)
            remote.total_downloaded += transferable
        calls = self._calls_blocks(connection)
        for block in connection.advance_upload(transferable):
            data = b""
            if remote._materialize:
                payload = self.metainfo.piece_payload(block.piece)
                data = payload[block.offset : block.offset + block.length]
            if not calls:
                self._send(
                    connection,
                    Piece(piece=block.piece, offset=block.offset, data=data),
                )
            elif not connection.closed and twin is not None and not twin.closed:
                # ``_send`` + ``_receive`` + ``_handle_piece``, less the
                # message and the BlockRef rebuilt from it.  The checks
                # stay per block: a delivery may close the link.
                remote._receive_block(twin, block, data)
        return transferable

    # ------------------------------------------------------------------
    # seed transition
    # ------------------------------------------------------------------

    def _announce_completed(self) -> None:
        self._announce(event="completed", num_want=0)

    def _close_seed_link(self, connection: Connection) -> None:
        self._close_connection(connection, notify_remote=True)

    def _on_became_seed(self) -> None:
        self.swarm.on_peer_completed(self)
        if self.config.seeding_time is not None:
            self._departure_handle = self.simulator.schedule(
                self.config.seeding_time, self.leave
            )
