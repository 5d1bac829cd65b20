"""The peer's protocol brain, written once for every transport.

:class:`PeerCore` holds what a BitTorrent client decides on each
peer-wire message (paper §II): who may join the peer set and what
leaving it undoes, the tracker announce, piece knowledge from
BITFIELD/HAVE, interest, the request pipeline through
:class:`~repro.core.piece_picker.PiecePicker`, upload queues, block
assembly with end-game CANCELs, the 10-second choke round through the
pluggable :class:`~repro.core.choke.Choker` pair, and the seed
transition.  It knows no transport: time is read as
``self.simulator.now`` (any object with a ``now`` attribute) and every
outbound message leaves through :meth:`PeerCore._send`, a block request
by way of :meth:`PeerCore._send_request`.

A *driver* subclasses it and supplies the transport.  The simulator's
``Peer`` delivers through the event queue; the live ``NetPeer`` writes
encoded frames to a socket.  The hooks a driver may override (the
"driver hooks" section below; DESIGN §11 says what each driver does in
them) each name a real difference between the two, and everything else
resolves to the one definition here.

Per-link state lives in :class:`LinkState`; the core touches nothing on
a connection beyond the fields and the three upload-queue methods
declared there.
"""

from __future__ import annotations

import enum
from random import Random
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.choke import ChokeCandidate, Choker, LeecherChoker, SeedChoker
from repro.core.piece_picker import PiecePicker
from repro.core.rarest_first import PieceSelector, RarestFirstSelector
from repro.core.rate_estimator import ByteCounter
from repro.protocol.bitfield import Bitfield
from repro.protocol.messages import (
    Bitfield as BitfieldMessage,
    Cancel,
    Choke,
    Have,
    Interested,
    Message,
    NotInterested,
    Piece,
    Request,
    Unchoke,
)
from repro.protocol.metainfo import BlockRef, Metainfo
from repro.protocol.peer_id import PeerId, make_peer_id

if TYPE_CHECKING:  # pragma: no cover - annotations only, no runtime import
    from repro.sim.config import PeerConfig
    from repro.sim.observer import PeerObserver

# Mainline 4.0.2's client constants (§III-C), the same for every peer.
UNCHOKE_SLOTS = 4  # active peer set, optimistic unchoke included
OPTIMISTIC_ROUNDS = 3  # one optimistic rotation every 3 choke rounds = 30 s
RANDOM_FIRST_THRESHOLD = 4  # pieces fetched at random before rarest first
REQUEST_PIPELINE_DEPTH = 8  # outstanding block requests per link (§II-C.1)


class PeerState(enum.Enum):
    """Leecher (still downloading) or seed (holds every piece)."""

    LEECHER = "leecher"
    SEED = "seed"


class LinkState:
    """One endpoint's protocol view of a link to ``remote``.

    ``remote`` is the far end as the driver holds it: the remote peer
    itself in the simulator, ``None`` over a socket, whose driver sets
    :attr:`remote_key` once the handshake names the far end.  The core
    reads only :attr:`remote_key`, the remote's canonical address, and a
    driver files the link in ``PeerCore.connections`` under that key.
    """

    __slots__ = (
        "local",
        "remote",
        "remote_key",
        "remote_bitfield",
        "am_choking",
        "peer_choking",
        "am_interested",
        "peer_interested",
        "initiated_by_local",
        "closed",
        "upload_queue",
        "uploaded",
        "downloaded",
        "request_times",
        "last_unchoked_local",
    )

    def __init__(
        self,
        local: "PeerCore",
        remote: Any,
        initiated_by_local: bool,
        rate_window: float = 20.0,
    ):
        self.local = local
        self.remote = remote
        # Picker/choker key for this link: the remote's canonical address.
        self.remote_key: Optional[str] = (
            remote.address if remote is not None else None
        )
        self.remote_bitfield = Bitfield(local.metainfo.geometry.num_pieces)
        self.am_choking = True
        self.peer_choking = True
        self.am_interested = False
        self.peer_interested = False
        self.initiated_by_local = initiated_by_local
        self.closed = False
        # Upload direction (local serves remote).  A list, not a deque:
        # a remote keeps at most REQUEST_PIPELINE_DEPTH blocks queued,
        # and most links never queue one.
        self.upload_queue: List[BlockRef] = []
        self.uploaded = ByteCounter(rate_window)
        self.downloaded = ByteCounter(rate_window)
        # Download direction (local requests from remote): the blocks
        # requested and not yet received, with their issue times.
        self.request_times: Dict[BlockRef, float] = {}
        # Choke bookkeeping for the seed algorithm and figure 10.
        self.last_unchoked_local: Optional[float] = None

    # -- upload queue (drivers add what serving the queue needs) -----------

    def enqueue_upload(self, block: BlockRef) -> None:
        """Queue a requested block for upload, once."""
        if block not in self.upload_queue:
            self.upload_queue.append(block)

    def cancel_queued_block(self, block: BlockRef) -> bool:
        """Remove a block from the upload queue (CANCEL handling)."""
        try:
            self.upload_queue.remove(block)
        except ValueError:
            return False
        return True

    def clear_upload_queue(self) -> None:
        self.upload_queue.clear()


_HANDLER_NAMES = (
    (BitfieldMessage, "_handle_bitfield"),
    (Have, "_handle_have"),
    (Interested, "_handle_interested"),
    (NotInterested, "_handle_not_interested"),
    (Choke, "_handle_choke"),
    (Unchoke, "_handle_unchoke"),
    (Request, "_handle_request"),
    (Cancel, "_handle_cancel"),
    (Piece, "_handle_piece"),
)


class PeerCore:
    """Protocol state and message handling of one peer, transport-free."""

    def __init__(
        self,
        address: Optional[str],
        metainfo: Metainfo,
        config: "PeerConfig",
        clock: Any,
        rng: Random,
        bitfield: Bitfield,
        selector: Optional[PieceSelector] = None,
        leecher_choker: Optional[Choker] = None,
        seed_choker: Optional[Choker] = None,
        matrix: Any = None,
        observer: Optional["PeerObserver"] = None,
    ):
        self.address = address
        self.metainfo = metainfo
        self.config = config
        # Named for the simulator, whose ``now`` the observers also read;
        # a wall clock with the same attribute serves a live peer.
        self.simulator = clock
        self.rng = rng
        self.peer_id: PeerId = make_peer_id(config.client_id, rng)
        self.bitfield = bitfield
        self.selector = selector or RarestFirstSelector()
        self.picker = PiecePicker(
            metainfo.geometry,
            self.bitfield,
            self.selector,
            rng,
            random_first_threshold=RANDOM_FIRST_THRESHOLD,
            strict_priority=config.strict_priority,
            endgame_enabled=config.endgame_enabled,
            matrix=matrix,
        )
        self.leecher_choker = leecher_choker or LeecherChoker(
            regular_slots=UNCHOKE_SLOTS - 1, optimistic_rounds=OPTIMISTIC_ROUNDS
        )
        self.seed_choker = seed_choker or SeedChoker(slots=UNCHOKE_SLOTS)
        self.state = (
            PeerState.SEED if self.bitfield.is_complete() else PeerState.LEECHER
        )
        self.observer = observer
        # The driver points this at its tracker before the first announce.
        self.tracker: Any = None
        self.connections: Dict[str, Any] = {}
        self.initiated_count = 0  # links in ``connections`` this peer dialed
        self.online = False
        self.joined_at: Optional[float] = None
        self.became_seed_at: Optional[float] = (
            0.0 if self.state is PeerState.SEED else None
        )
        self.total_uploaded = 0.0
        self.total_downloaded = 0.0
        # Whether PIECE payloads are assembled and hash-checked; a driver
        # that moves real bytes turns it on.
        self._materialize = False
        self._piece_buffers: Dict[int, bytearray] = {}
        self._was_in_endgame = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Message dispatch for _receive: one dict probe on the concrete
        # message class instead of an isinstance chain (message classes
        # are final).  Built per driver class, so a handler a driver
        # overrides is the one dispatched.
        cls._handlers = {
            message_type: getattr(cls, name) for message_type, name in _HANDLER_NAMES
        }

    # ------------------------------------------------------------------
    # identity & state
    # ------------------------------------------------------------------

    @property
    def is_seed(self) -> bool:
        return self.state is PeerState.SEED

    @property
    def choker(self) -> Choker:
        return self.seed_choker if self.is_seed else self.leecher_choker

    @property
    def peer_set_size(self) -> int:
        return len(self.connections)

    @property
    def num_pieces(self) -> int:
        return self.bitfield.num_pieces

    def link_totals(self) -> List[Tuple[str, float, float]]:
        """``(remote, up, down)`` byte totals of every link in the peer
        set, in the order the links opened: what an observer's seed-state
        and finalize steps record."""
        return [
            (key, connection.uploaded.total, connection.downloaded.total)
            for key, connection in self.connections.items()
        ]

    def __repr__(self) -> str:
        return "%s(%s, %s, %d/%d pieces)" % (
            type(self).__name__,
            self.address,
            self.state.value,
            self.bitfield.count,
            self.bitfield.num_pieces,
        )

    # ------------------------------------------------------------------
    # the peer set and the tracker (§II-B)
    # ------------------------------------------------------------------

    def may_accept(self, address: str, remote_is_seed: bool = False) -> bool:
        """Whether a link with the peer at *address* may join the peer set.

        Refused: any link while offline, one to itself, one already in
        the set, one past ``max_peer_set``, and a link between two seeds,
        which could carry nothing.  Before the handshake the remote's
        pieces are unknown, hence the default.
        """
        return (
            self.online
            and address != self.address
            and address not in self.connections
            and len(self.connections) < self.config.max_peer_set
            and not (remote_is_seed and self.is_seed)
        )

    def may_initiate(self, address: str, remote_is_seed: bool = False) -> bool:
        """:meth:`may_accept`, and fewer than ``max_initiated`` of the
        links in the set were dialed by this peer."""
        return self.initiated_count < self.config.max_initiated and self.may_accept(
            address, remote_is_seed
        )

    def _add_link(self, connection: LinkState) -> None:
        """File an established link in the peer set."""
        self.connections[connection.remote_key] = connection
        if connection.initiated_by_local:
            self.initiated_count += 1

    def _drop_link(self, connection: LinkState) -> None:
        """The protocol half of closing *connection*: it leaves the peer
        set, its pieces leave the availability counts, its blocks in
        flight go back to the picker and its queues empty.  A driver's
        ``_close_connection`` calls this on an open link, then releases
        the transport."""
        connection.closed = True
        self.connections.pop(connection.remote_key, None)
        if connection.initiated_by_local:
            self.initiated_count -= 1
        self.picker.peer_left(connection.remote_bitfield)
        self.picker.on_peer_gone(connection.remote_key, connection.request_times)
        connection.clear_upload_queue()
        connection.request_times.clear()
        if self.observer:
            self.observer.on_connection_close(
                self.simulator.now,
                connection.remote_key,
                connection.uploaded.total,
                connection.downloaded.total,
            )

    def _tracker_announce(self, event: str, num_want: int) -> List[str]:
        """One announce to ``self.tracker``; the addresses it returns.

        Raises :class:`~repro.tracker.tracker.TrackerUnavailable` when
        a tracker that can fail does.  The sample is drawn from this
        peer's own seeded stream, not the tracker's: with a shared stream
        every announce would perturb every later peer's sample, so churn
        (or the wall-clock announce order of live peers) would ripple
        into RNG-sensitive runs.
        """
        return self.tracker.announce(
            self.address,
            event=event,
            num_want=num_want,
            is_seed=self.is_seed,
            rng=self.rng,
        )

    # ------------------------------------------------------------------
    # driver hooks
    # ------------------------------------------------------------------

    def _send(self, connection: LinkState, message: Message) -> None:
        """Deliver *message* to the far end of *connection*."""
        raise NotImplementedError

    def _send_request(self, connection: LinkState, block: BlockRef) -> None:
        """Ask the far end of *connection* for *block* (a REQUEST)."""
        self._send(
            connection,
            Request(piece=block.piece, offset=block.offset, length=block.length),
        )

    def _remote_view(
        self, connection: LinkState, message: BitfieldMessage
    ) -> Bitfield:
        """The view of the remote's pieces an incoming BITFIELD yields."""
        return Bitfield.from_bytes(message.bits, self.bitfield.num_pieces)

    def _verify_and_store(self, piece: int) -> bool:
        """True when the finished *piece* passes its hash check."""
        if self._materialize:
            data = bytes(self._piece_buffers.pop(piece, b""))
            if not self.metainfo.verify_piece(piece, data):
                if self.observer:
                    self.observer.on_hash_failure(self.simulator.now, piece)
                return False
        return True

    def _announce_piece(self, piece: int) -> None:
        """HAVE to every neighbour, dropping interest the piece ended."""
        have = Have(piece=piece)
        for connection in list(self.connections.values()):
            self._send(connection, have)
            # Completing a piece can only *remove* interest; skip the
            # bitfield scan for remotes we were not interested in anyway.
            if connection.am_interested:
                self._update_interest(connection)

    def _announce_completed(self) -> None:
        """Seed transition: report the completed download to the tracker."""

    def _close_seed_link(self, connection: LinkState) -> None:
        """Seed transition: drop a link whose remote is itself a seed."""
        raise NotImplementedError

    def _on_became_seed(self) -> None:
        """Seed transition: the last edge, after the links are sorted out."""

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def _receive(
        self, connection: LinkState, message: Message, observe: bool = True
    ) -> None:
        """Handle one delivered message; ``observe=False`` when the
        sender has already traced the received line (a pair)."""
        if connection.closed:
            return
        if observe and self.observer:
            self.observer.on_message_received(
                self.simulator.now, connection.remote_key, message
            )
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(self, connection, message)

    def _handle_interested(self, connection: LinkState, message: Message) -> None:
        connection.peer_interested = True

    def _handle_not_interested(self, connection: LinkState, message: Message) -> None:
        connection.peer_interested = False

    # -- piece-knowledge messages -----------------------------------------

    def _handle_bitfield(self, connection: LinkState, message: BitfieldMessage) -> None:
        incoming = self._remote_view(connection, message)
        # The bitfield replaces anything previously known on this link.
        self.picker.peer_left(connection.remote_bitfield)
        connection.remote_bitfield = incoming
        self.picker.peer_joined(incoming)
        self._update_interest(connection)

    def _handle_have(self, connection: LinkState, message: Have) -> None:
        if connection.remote_bitfield.set(message.piece):
            self.picker.remote_has(message.piece)
        # Fast path: a HAVE can only *add* interest, and only when the
        # announced piece is one the local peer misses.
        if not connection.am_interested:
            if not self.is_seed and not self.bitfield.has(message.piece):
                connection.am_interested = True
                self._send(connection, Interested())
        if not connection.peer_choking and connection.am_interested:
            self._fill_pipeline(connection)

    # -- choke messages ------------------------------------------------------

    def _handle_choke(self, connection: LinkState, message: Message = None) -> None:
        connection.peer_choking = True
        # Everything in flight on this link is lost; give the blocks back
        # to the picker so another peer can serve them.
        self.picker.on_peer_gone(connection.remote_key, connection.request_times)
        connection.request_times.clear()

    def _handle_unchoke(self, connection: LinkState, message: Message = None) -> None:
        connection.peer_choking = False
        if connection.am_interested:
            self._fill_pipeline(connection)

    # -- request/piece messages ----------------------------------------------

    def _handle_request(self, connection: LinkState, message: Request) -> None:
        self._serve_request(
            connection, BlockRef(message.piece, message.offset, message.length)
        )

    def _serve_request(self, connection: LinkState, block: BlockRef) -> None:
        """The remote asked for *block*: queue it for upload."""
        if connection.am_choking:
            return  # requests received while choking are dropped
        if not self.bitfield.has(block.piece):
            return
        connection.enqueue_upload(block)

    def _handle_cancel(self, connection: LinkState, message: Cancel) -> None:
        connection.cancel_queued_block(
            BlockRef(message.piece, message.offset, message.length)
        )

    def _handle_piece(self, connection: LinkState, message: Piece) -> None:
        geometry = self.metainfo.geometry
        block_index = message.offset // geometry.block_size
        try:
            block = geometry.block_ref(message.piece, block_index)
        except IndexError:
            return
        self._receive_block(connection, block, message.data)

    def _receive_block(
        self, connection: LinkState, block: BlockRef, data: bytes
    ) -> None:
        """*block* arrived with its *data* (read only when pieces are
        materialized)."""
        connection.request_times.pop(block, None)
        if self.bitfield.has(block.piece):
            return  # late duplicate (end game)
        if self._materialize:
            geometry = self.metainfo.geometry
            buffer = self._piece_buffers.setdefault(
                block.piece, bytearray(geometry.piece_length(block.piece))
            )
            buffer[block.offset : block.offset + block.length] = data
        completed, cancel_keys = self.picker.on_block_received(
            block, connection.remote_key
        )
        if self.observer:
            self.observer.on_block_received(
                self.simulator.now,
                connection.remote_key,
                block.piece,
                block.offset,
                block.length,
            )
        # Sorted so the CANCEL send order (and hence any RNG draws made
        # per message) never depends on set iteration order / the
        # process hash seed.  Outside end game the set is empty.
        if cancel_keys:
            cancel = Cancel(piece=block.piece, offset=block.offset, length=block.length)
            for key in sorted(cancel_keys):
                other = self.connections.get(key)
                if other is not None:
                    other.request_times.pop(block, None)
                    self._send(other, cancel)
        if completed:
            self._on_piece_completed(block.piece)
        if self.picker.in_endgame and not self._was_in_endgame:
            self._was_in_endgame = True
            if self.observer:
                self.observer.on_endgame_entered(self.simulator.now)
        if not connection.peer_choking and connection.am_interested:
            self._fill_pipeline(connection)

    def _on_piece_completed(self, piece: int) -> None:
        if not self._verify_and_store(piece):
            # A failed hash check: the piece is downloaded again.
            self.picker.reset_piece(piece)
            return
        if self.observer:
            self.observer.on_piece_completed(self.simulator.now, piece)
        self._announce_piece(piece)
        if self.bitfield.is_complete():
            self._become_seed()

    # ------------------------------------------------------------------
    # interest management
    # ------------------------------------------------------------------

    def _update_interest(self, connection: LinkState) -> None:
        should_be_interested = not self.is_seed and self.bitfield.interesting_in(
            connection.remote_bitfield
        )
        if should_be_interested and not connection.am_interested:
            connection.am_interested = True
            self._send(connection, Interested())
            if not connection.peer_choking:
                self._fill_pipeline(connection)
        elif not should_be_interested and connection.am_interested:
            connection.am_interested = False
            self._send(connection, NotInterested())

    # ------------------------------------------------------------------
    # request pipelining
    # ------------------------------------------------------------------

    def _fill_pipeline(self, connection: LinkState) -> None:
        """Keep a small buffer of pending requests on this link (§II-C.1)."""
        depth = REQUEST_PIPELINE_DEPTH
        next_request = self.picker.next_request
        remote_bitfield = connection.remote_bitfield
        remote_key = connection.remote_key
        request_times = connection.request_times
        send_request = self._send_request
        now = self.simulator.now  # one fill is one instant
        while (
            not connection.closed
            and connection.am_interested
            and not connection.peer_choking
            and len(request_times) < depth
        ):
            block = next_request(remote_bitfield, remote_key)
            if block is None:
                break
            request_times[block] = now
            send_request(connection, block)

    # ------------------------------------------------------------------
    # the choke round
    # ------------------------------------------------------------------

    def _choke_round(self) -> None:
        if not self.online:
            return
        now = self.simulator.now
        observer = self.observer
        snapshot = ChokeCandidate._make
        interested: List[str] = []
        candidates: List[ChokeCandidate] = []
        # ``connections`` is keyed by ``remote_key``.  Most of a peer set
        # is idle at any round (four unchoke slots, §II-C.2): a counter
        # without samples rates 0.0 unasked, and an interested link that
        # never moved is only its key to the choker.  A positive rate
        # implies a positive total, so the totals catch every rated link.
        for key, connection in self.connections.items():
            downloaded = connection.downloaded
            uploaded = connection.uploaded
            download_rate = downloaded.rate(now) if downloaded._samples else 0.0
            upload_rate = uploaded.rate(now) if uploaded._samples else 0.0
            if observer:
                observer.on_rate_sample(now, key, download_rate, upload_rate)
            if connection.peer_interested:
                interested.append(key)
                choking = connection.am_choking
                if not choking or uploaded.total or downloaded.total:
                    candidates.append(snapshot((
                        key, True, choking, download_rate, upload_rate,
                        uploaded.total, downloaded.total, connection.last_unchoked_local,
                    )))
        decision = self.choker.round(interested, candidates, now, self.rng)
        if observer:
            observer.on_choke_round(now, decision.unchoked, self.is_seed)
        unchoke_set = set(decision.unchoked)
        for key, connection in list(self.connections.items()):
            if connection.am_choking:
                if key in unchoke_set:
                    connection.am_choking = False
                    connection.last_unchoked_local = now
                    self._send(connection, Unchoke())
            elif key not in unchoke_set:
                connection.am_choking = True
                connection.clear_upload_queue()
                self._send(connection, Choke())

    # ------------------------------------------------------------------
    # seed transition
    # ------------------------------------------------------------------

    def _become_seed(self) -> None:
        if self.state is PeerState.SEED:
            return
        self.state = PeerState.SEED
        now = self.simulator.now
        self.became_seed_at = now
        self.seed_choker.reset()
        if self.observer:
            self.observer.on_seed_state(now, self.link_totals())
        self._announce_completed()
        # "When a leecher becomes a seed, it closes its connections to all
        # the seeds." (§IV-A.2.b)
        for connection in list(self.connections.values()):
            if connection.remote_bitfield.is_complete():
                self._close_seed_link(connection)
            elif connection.am_interested:
                # A seed is interested in nobody.
                connection.am_interested = False
                self._send(connection, NotInterested())
        self._on_became_seed()
