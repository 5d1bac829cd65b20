"""Observation hooks for instrumented peers.

The paper instruments a single mainline client and logs "each BitTorrent
message sent or received [...], each state change in the choke algorithm,
[...] the rate estimation used by the choke algorithm, and [...]
important events (end game mode, seed state)" (§III-C).  The simulator
exposes those exact points as callbacks: attach a
:class:`repro.instrumentation.logger.Instrumentation` (or any subclass of
:class:`PeerObserver`) to a peer to record them.

Every hook but :meth:`PeerObserver.on_attached` carries plain values —
addresses, flags, byte totals, the message — and exactly the values its
trace event records (DESIGN §9), so a trace replays through the same
hooks with each event's fields.  ``remote`` is always the far end's
canonical address (the key of the link in the peer's ``connections``),
``now`` the observed peer's clock.  A peer builds the values only when an
observer is attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.peer_core import PeerCore
    from repro.instrumentation.logger import Snapshot
    from repro.protocol.messages import Message

LinkTotals = Tuple[str, float, float]
"""One open link's ``(remote, up, down)``: the bytes uploaded to and
downloaded from *remote* over the link's life."""


class PeerObserver:
    """No-op base class; override the hooks you need."""

    def on_attached(self, peer: "PeerCore") -> None:
        """Called once when the observer is attached to *peer*.

        The one hook that hands over an object: the observed peer, for
        what only a live observer can do with it (sample snapshots on its
        clock, finalize from its current state).
        """

    def on_connection_open(
        self,
        now: float,
        remote: str,
        client: Optional[str],
        remote_complete: bool,
        local_seed: bool,
        initiated: bool,
    ) -> None:
        """A link to *remote* entered the peer set.

        *client* is the remote's client id from its peer id,
        *remote_complete* whether the remote held every piece as the
        link opened (the simulator reads the remote's bitfield, the live
        driver the remote's opening BITFIELD), *local_seed* whether the observed peer was a seed,
        *initiated* whether the observed peer dialed the link.
        """

    def on_connection_close(
        self, now: float, remote: str, up: float, down: float
    ) -> None:
        """The link to *remote* left the peer set (either side closed
        it); *up* and *down* are its byte totals."""

    def on_message_sent(self, now: float, remote: str, message: "Message") -> None:
        """The observed peer sent *message* to *remote*."""

    def on_message_received(
        self, now: float, remote: str, message: "Message"
    ) -> None:
        """The observed peer received *message* from *remote*."""

    def on_choke_round(
        self, now: float, unchoked: List[str], local_seed: bool
    ) -> None:
        """A choke round ran: *unchoked* are the addresses it left
        unchoked (read, never kept or changed), *local_seed* whether the
        observed peer was a seed."""

    def on_rate_sample(
        self, now: float, remote: str, download_rate: float, upload_rate: float
    ) -> None:
        """Rate-estimator values the choke round read for *remote*."""

    def on_block_received(
        self, now: float, remote: str, piece: int, offset: int, length: int
    ) -> None:
        """A block finished downloading from *remote*."""

    def on_piece_completed(self, now: float, piece: int) -> None:
        """A piece completed (and, when enabled, passed its hash check)."""

    def on_endgame_entered(self, now: float) -> None:
        """The piece picker entered end game mode."""

    def on_seed_state(self, now: float, open_links: Sequence[LinkTotals]) -> None:
        """The observed peer completed the content and became a seed;
        *open_links* holds the byte totals of every link in its peer set
        at that instant, in the order the links opened."""

    def on_hash_failure(self, now: float, piece: int) -> None:
        """A completed piece failed SHA-1 verification."""

    def on_fault(self, now: float, kind: str) -> None:
        """The observed peer hit a fault of the network under it.

        ``kind`` is a short counter key: a live peer reports
        ``"connection_reaped"`` for a link that died under a reset or a
        bad frame.  A simulated link never fails, so the simulator
        reports none.
        """

    def on_snapshot(self, now: float, snapshot: "Snapshot") -> None:
        """A periodic sample of the observed peer's view was taken.

        Snapshots are produced by exactly one sampler (the attached
        :class:`~repro.instrumentation.logger.Instrumentation`'s timer)
        and routed through the peer's observer chain, so every observer
        in a :class:`FanoutObserver` sees the *same* snapshot object at
        the same instant — never a re-computed, possibly divergent one.
        """

    def on_announce(self, now: float, kind: str, data: dict) -> None:
        """The peer completed a tracker announce (announce-tracing runs
        only — never fires unless ``SwarmConfig.trace_announces`` is
        set, so default traces are byte-identical).

        ``kind`` is the announce event (``"started"``, ``"stopped"``,
        ``"completed"``) or ``"interval"`` for the periodic keep-alive.
        ``data`` carries ``peer`` (the announcing address),
        ``num_want``, ``returned`` (peers handed back) and ``attempt``
        (>0 when the announce succeeded only after outage retries).
        """


class FanoutObserver(PeerObserver):
    """Dispatch every hook to an ordered tuple of observers.

    This is the attachment point for the swarm-wide tracing layer: a
    peer has a single ``observer`` slot, so recording both the classic
    :class:`~repro.instrumentation.logger.Instrumentation` and a
    :class:`~repro.instrumentation.trace.TracingObserver` (or any other
    combination) goes through one fan-out.  Hooks are forwarded in
    construction order; forwarding draws no randomness and schedules no
    events, so wrapping observers in a fan-out never perturbs a seeded
    run.
    """

    __slots__ = ("observers",)

    def __init__(self, *observers: PeerObserver):
        self.observers: Tuple[PeerObserver, ...] = tuple(
            observer for observer in observers if observer is not None
        )

    def __contains__(self, observer: PeerObserver) -> bool:
        return any(member is observer for member in self.observers)

    def on_attached(self, peer: "PeerCore") -> None:
        for observer in self.observers:
            observer.on_attached(peer)

    def on_connection_open(
        self,
        now: float,
        remote: str,
        client: Optional[str],
        remote_complete: bool,
        local_seed: bool,
        initiated: bool,
    ) -> None:
        for observer in self.observers:
            observer.on_connection_open(
                now, remote, client, remote_complete, local_seed, initiated
            )

    def on_connection_close(
        self, now: float, remote: str, up: float, down: float
    ) -> None:
        for observer in self.observers:
            observer.on_connection_close(now, remote, up, down)

    def on_message_sent(self, now: float, remote: str, message: "Message") -> None:
        for observer in self.observers:
            observer.on_message_sent(now, remote, message)

    def on_message_received(
        self, now: float, remote: str, message: "Message"
    ) -> None:
        for observer in self.observers:
            observer.on_message_received(now, remote, message)

    def on_choke_round(
        self, now: float, unchoked: List[str], local_seed: bool
    ) -> None:
        for observer in self.observers:
            observer.on_choke_round(now, unchoked, local_seed)

    def on_rate_sample(
        self, now: float, remote: str, download_rate: float, upload_rate: float
    ) -> None:
        for observer in self.observers:
            observer.on_rate_sample(now, remote, download_rate, upload_rate)

    def on_block_received(
        self, now: float, remote: str, piece: int, offset: int, length: int
    ) -> None:
        for observer in self.observers:
            observer.on_block_received(now, remote, piece, offset, length)

    def on_piece_completed(self, now: float, piece: int) -> None:
        for observer in self.observers:
            observer.on_piece_completed(now, piece)

    def on_endgame_entered(self, now: float) -> None:
        for observer in self.observers:
            observer.on_endgame_entered(now)

    def on_seed_state(self, now: float, open_links: Sequence[LinkTotals]) -> None:
        for observer in self.observers:
            observer.on_seed_state(now, open_links)

    def on_hash_failure(self, now: float, piece: int) -> None:
        for observer in self.observers:
            observer.on_hash_failure(now, piece)

    def on_fault(self, now: float, kind: str) -> None:
        for observer in self.observers:
            observer.on_fault(now, kind)

    def on_snapshot(self, now: float, snapshot: "Snapshot") -> None:
        for observer in self.observers:
            observer.on_snapshot(now, snapshot)

    def on_announce(self, now: float, kind: str, data: dict) -> None:
        for observer in self.observers:
            observer.on_announce(now, kind, data)
