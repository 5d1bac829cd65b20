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
around that core: joining, leaving and crashing, announce retries and
refilling the peer set, message delivery through the event queue with
latency and fault injection, the fused HAVE fan-out over shared remote
views (DESIGN §12), super-seeding, the fault sweep and playback.

Transfers are fluid: the swarm's per-tick bandwidth allocation calls
:meth:`Peer.advance_uploads`, which turns allocated bytes into completed
blocks and PIECE messages to the downloading side.
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
    Choke,
    Have,
    Interested,
    Message,
    NotInterested,
    Piece,
    Request,
    Unchoke,
)
from repro.protocol.metainfo import Metainfo
from repro.sim.config import REQUEST_TIMEOUT_SECONDS, TRACKER_NUM_WANT, PeerConfig
from repro.sim.connection import Connection
from repro.sim.engine import Simulator, Timer
from repro.sim.observer import PeerObserver
from repro.tracker.tracker import TrackerUnavailable

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
        # Streaming playback model: only built when configured, so bulk
        # runs carry no extra state, events or trace records.
        if config.playback_rate is not None:
            from repro.sim.playback import PlaybackState

            self.playback: Optional[PlaybackState] = PlaybackState(
                self, config.playback_rate, config.playback_startup_pieces
            )
        else:
            self.playback = None
        if self.playback is not None and hasattr(self.selector, "bind_position"):
            # Playback-aware selectors read this peer's live playback
            # position; selectors must therefore never be shared between
            # peers (use a factory per peer).
            self.selector.bind_position(self.playback.position_piece)
        if observer is not None:
            observer.on_attached(self)

        # Fused HAVE fan-out targets (see _collect_have_targets), built
        # on demand; reset to None by whatever changes the answer: a link
        # established or closed, either end crashing.
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
        self._fault_timer: Optional[Timer] = None
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
        if self.playback is not None and not self.bitfield.is_complete():
            self.playback.on_join(self.joined_at)
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
            self.swarm.config.announce_interval,
            self._periodic_announce,
        )
        plan = self.swarm.faults
        if plan is not None:
            # Stagger fault sweeps too, so the population does not reap
            # and refresh in lockstep.
            sweep = plan.config.sweep_interval
            self._fault_timer = Timer(
                self.simulator,
                sweep,
                self._fault_sweep,
                start_at=self.simulator.now + self.rng.uniform(0.0, sweep),
            )

    def leave(self) -> None:
        """Depart the torrent, closing every connection."""
        if not self.online:
            return
        self.online = False
        self._stop_timers()
        for connection in list(self.connections.values()):
            self._close_connection(connection, notify_remote=True)
        self._announce(event="stopped", num_want=0)
        self.swarm.on_peer_left(self)
        # Every count was decremented as its connection closed above, so
        # the row is zero: releasing it is lossless.  A crash skips this
        # (and the per-connection decrements), so a rejoining peer keeps
        # its stale counts.
        self.picker.detach_matrix()

    def crash(self) -> None:
        """Abrupt failure: no ``stopped`` announce, no FIN to remotes.

        Every neighbour is left with a half-open connection that only an
        idle-timeout reap (the fault sweep) can clean up — the behaviour
        of a client that is killed or loses connectivity."""
        if not self.online:
            return
        self.online = False
        self._stop_timers()
        for connection in list(self.connections.values()):
            # Close only the local endpoint; the twin stays open.
            connection.closed = True
            connection.clear_upload_queue()
            twin = connection.twin
            if twin is not None and not twin.closed:
                connection.remote._have_targets = None
                if twin.remote_bitfield is self.bitfield:
                    # The half-open twin stops hearing from us, so a
                    # shared view freezes here: were we to rejoin and
                    # download on, it would run ahead of its counts.
                    twin.remote_bitfield = self.bitfield.copy()
        self.connections.clear()
        self._have_targets = None
        self.swarm.on_peer_crashed(self)

    def _stop_timers(self) -> None:
        if self._choke_timer:
            self._choke_timer.stop()
        if self._announce_timer:
            self._announce_timer.stop()
        if self._fault_timer:
            self._fault_timer.stop()
        if self._departure_handle is not None:
            self._departure_handle.cancel()
            self._departure_handle = None

    # ------------------------------------------------------------------
    # tracker announces (with outage retry)
    # ------------------------------------------------------------------

    def _announce(
        self, event: str, num_want: int, connect: bool = False, attempt: int = 0
    ) -> None:
        """Announce to the tracker; retry with exponential backoff when an
        injected outage makes it fail (§II-B behaviour under faults).

        ``connect`` initiates connections to the returned addresses once
        the announce eventually succeeds."""
        now = self.simulator.now
        try:
            addresses = self._tracker_announce(event, num_want)
        except TrackerUnavailable:
            plan = self.swarm.faults
            if plan is None:  # pragma: no cover - outages imply a plan
                raise
            plan.stats["announce_failures"] += 1
            if self.observer:
                self.observer.on_fault(now, "announce_failure")
            if not self.online and event != "stopped":
                return  # departed while waiting; nothing to retry for
            delay = plan.retry_delay(attempt, self.rng)
            plan.stats["announce_retries"] += 1
            if self.observer:
                self.observer.on_fault(now, "announce_retry")
            self.simulator.schedule(
                delay,
                lambda: self._announce(event, num_want, connect, attempt + 1),
            )
            return
        if self.observer and self.swarm.config.trace_announces:
            # Gated: the flag defaults off and this branch is the only
            # cost, keeping default traces byte-identical.
            self.observer.on_announce(
                now,
                event or "interval",
                {
                    "peer": self.address,
                    "num_want": num_want,
                    "returned": len(addresses),
                    "attempt": attempt,
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
        """Attempt an outgoing connection; honours §II-B's limits.

        With a positive ``connect_latency`` the handshake completes after
        that delay, re-validating every limit at completion time."""
        if not self.may_initiate(remote_address):
            return False
        latency = self.swarm.config.connect_latency
        if latency > 0:
            self.simulator.schedule(
                latency, lambda: self._complete_initiate(remote_address)
            )
            return True
        return self._complete_initiate(remote_address)

    def _complete_initiate(self, remote_address: str) -> bool:
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
            self, remote, now, initiated_by_local, self.config.rate_window
        )
        remote_conn = Connection(
            remote, self, now, not initiated_by_local, remote.config.rate_window
        )
        local_conn.twin = remote_conn
        remote_conn.twin = local_conn
        self._add_link(local_conn)
        remote._add_link(remote_conn)
        self._have_targets = remote._have_targets = None
        if self.observer:
            self.observer.on_connection_open(now, local_conn)
        if remote.observer:
            remote.observer.on_connection_open(now, remote_conn)
        # Both sides advertise their bitfield right after the handshake.
        self._send(local_conn, BitfieldMessage(bits=self._advertised_bits()))
        remote._send(remote_conn, BitfieldMessage(bits=remote._advertised_bits()))
        if self.super_seeding:
            self._reveal_next(local_conn)
        if remote.super_seeding:
            remote._reveal_next(remote_conn)

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
        if self.observer:
            self.observer.on_message_sent(self.simulator.now, connection, message)
        remote = connection.remote
        twin = connection.twin
        if twin is None or twin.closed:
            # Half-open link (the remote crashed): bytes fall into the
            # void until the fault sweep reaps the connection.
            return
        latency = self.swarm.config.message_latency
        plan = self.swarm.faults
        if plan is not None and plan.affects_messages:
            for extra in plan.deliveries(message):
                delay = latency + extra
                if delay > 0:
                    self.simulator.schedule(
                        delay,
                        lambda: None
                        if twin.closed
                        else remote._receive(twin, message),
                    )
                else:
                    remote._receive(twin, message)
            return
        if latency > 0:
            # Constant latency keeps per-link FIFO order (heap ties break
            # by insertion); delivery is skipped if the link closed.
            self.simulator.schedule(
                latency,
                lambda: None if twin.closed else remote._receive(twin, message),
            )
        else:
            remote._receive(twin, message)

    # -- piece-knowledge messages -----------------------------------------

    def _remote_view(
        self, connection: Connection, message: BitfieldMessage
    ) -> Bitfield:
        remote = connection.remote
        if self.swarm._batched_have and not remote.super_seeding:
            # Shared view (DESIGN §12): under synchronous lossless
            # delivery a parsed copy would equal the remote's own bitfield
            # whenever read.  A super-seeder advertises less than it holds.
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
        what can react.  Only valid under the shared-view precondition
        (DESIGN §12): ``_send``'s latency/fault branches are elided, not
        reimplemented.
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
        sender_is_seed = self.is_seed
        observer = self.observer
        seed_state = PeerState.SEED
        # Pair-emit capability, hoisted: when sender and receiver are
        # both observed into the same binary recorder, one call packs
        # the sent+received record pair, bypassing two observer hook
        # invocations per delivery (the bulk of --trace-all overhead).
        sender_addr = self.address
        shared_recorder = getattr(observer, "recorder", None)
        pair_emit = getattr(shared_recorder, "emit_have_pair", None)
        if observer is not None or sender_is_seed:
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
                    receiver_observer = receiver.observer
                else:
                    twin = receiver = receiver_observer = None
                if (
                    pair_emit is not None
                    and receiver_observer is not None
                    and getattr(receiver_observer, "recorder", None)
                    is shared_recorder
                ):
                    pair_emit(now, sender_addr, receiver.address, piece)
                else:
                    if observer:
                        observer.on_message_sent(now, connection, message)
                    if receiver_observer is not None:
                        receiver_observer.on_message_received(now, twin, message)
                if twin is not None:
                    # -- the receiver's reactions (_handle_have) --
                    # ``last_message_at`` is deliberately not refreshed: its
                    # only reader is the fault sweep, and a fault plan
                    # disables the fused path entirely.
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
                if sender_is_seed:
                    connection.am_interested = False
                    self._send(connection, NotInterested())
                elif remote_bits._count <= own_count and (
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

    # -- request messages ----------------------------------------------------

    def _handle_request(self, connection: Connection, message: Request) -> None:
        if connection.am_choking:
            # Under message faults the remote may have missed our CHOKE;
            # resend it so its view of the link re-synchronises.
            if self.swarm.faults is not None:
                self._send(connection, Choke())
            return
        if self.super_seeding and message.piece not in self._revealed_to.get(
            connection.remote.address, ()
        ):
            return  # only revealed pieces are served under super-seeding
        PeerCore._handle_request(self, connection, message)

    # -- finished pieces -----------------------------------------------------

    def _verify_and_store(self, piece: int) -> bool:
        plan = self.swarm.faults
        if plan is not None and plan.should_fail_hash():
            # Injected corruption: the piece fails its hash check and is
            # re-downloaded, exactly as with a real SHA-1 mismatch.
            if self.observer:
                now = self.simulator.now
                self.observer.on_hash_failure(now, piece)
                self.observer.on_fault(now, "hash_failure_injected")
            self._piece_buffers.pop(piece, None)
            return False
        return PeerCore._verify_and_store(self, piece)

    def _announce_piece(self, piece: int) -> None:
        if self.playback is not None:
            self.playback.on_piece_completed(self.simulator.now, piece)
        # The HAVE flood is the dominant cost of a large swarm; when
        # delivery is synchronous and lossless the fused loop batches the
        # availability updates, otherwise the core's observably-identical
        # per-link loop runs.
        if self.swarm._batched_have:
            self.broadcast_have_fused(Have(piece=piece))
        else:
            PeerCore._announce_piece(self, piece)
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
        if twin is not None and not twin.closed:
            twin.downloaded.add(now, transferable)
            connection.remote.total_downloaded += transferable
        for block in connection.advance_upload(transferable):
            data = b""
            if connection.remote._materialize:
                payload = self.metainfo.piece_payload(block.piece)
                data = payload[block.offset : block.offset + block.length]
            self._send(
                connection,
                Piece(piece=block.piece, offset=block.offset, data=data),
            )
        return transferable

    # ------------------------------------------------------------------
    # fault sweep (only runs when a FaultPlan is installed)
    # ------------------------------------------------------------------

    def _fault_sweep(self) -> None:
        """Periodic resilience pass: reap half-open connections, release
        stale in-flight requests, and refresh link state that a lost
        control message may have desynchronised (keep-alive stand-in)."""
        if not self.online:
            return
        plan = self.swarm.faults
        if plan is None:  # pragma: no cover - timer only exists with a plan
            return
        now = self.simulator.now
        config = plan.config
        for connection in list(self.connections.values()):
            if connection.closed:
                continue
            if (
                connection.half_open
                and now - connection.last_message_at >= config.idle_timeout
            ):
                # The remote endpoint is dead (peer crashed) and the link
                # has been silent past the keep-alive timeout: reap it.
                plan.stats["connections_reaped"] += 1
                if self.observer:
                    self.observer.on_fault(now, "connection_reaped")
                self._close_connection(connection, notify_remote=False)
                continue
            if connection.request_times and any(
                now - issued >= REQUEST_TIMEOUT_SECONDS
                for issued in connection.request_times.values()
            ):
                # Requests (or the PIECE replies) were lost: hand every
                # block on this link back to the picker.  Re-requesting
                # waits for the remote's next UNCHOKE refresh, so a link
                # that is actually choked does not re-pin the blocks.
                plan.stats["stale_requests_reset"] += 1
                if self.observer:
                    self.observer.on_fault(now, "stale_requests_reset")
                self.picker.on_peer_gone(connection.remote_key)
                connection.outstanding.clear()
                connection.request_times.clear()
            if plan.affects_messages:
                self._refresh_link_state(connection)

    def _refresh_link_state(self, connection: Connection) -> None:
        """Resend state a lost control message may have left stale.

        All four resends are idempotent on the receiving side; they fire
        only on links whose observable state looks suspicious, so clean
        links stay quiet."""
        if connection.am_interested and connection.peer_choking:
            # Waiting for an unchoke that may never come because our
            # INTERESTED (or the remote's UNCHOKE) was dropped.
            self._send(connection, Interested())
        elif not connection.am_interested and not connection.peer_choking:
            # The remote is wasting an unchoke slot on us; our
            # NOT-INTERESTED may have been lost.
            self._send(connection, NotInterested())
        if (
            not connection.am_choking
            and connection.peer_interested
            and not connection.upload_queue
        ):
            # Unchoked an interested peer but no requests arrived: the
            # UNCHOKE may have been dropped.
            self._send(connection, Unchoke())

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
