"""The instrumented local peer's trace recorder.

:class:`Instrumentation` is a :class:`~repro.sim.observer.PeerObserver`
that reconstructs, for the peer it is attached to, everything the paper's
analysis needs:

* per-remote-peer presence intervals in the peer set, interest intervals
  in both directions, unchoke timestamps, and byte totals split between
  the local peer's leecher and seed states;
* block arrival and piece completion timestamps (figures 7/8);
* periodic snapshots of the peer-set size and of the piece-replication
  state of the peer set (figures 2–6);
* protocol events: end game entry, seed-state transition, hash failures,
  choke rounds, optional rate-estimator samples.

Wall-clock conventions: an interval still open when the experiment stops
is closed at :meth:`finalize` time; analysis code therefore always sees
closed ``(start, end)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.instrumentation.metrics import MetricsRegistry
from repro.protocol.messages import (
    Bitfield as BitfieldMessage,
    Have,
    Interested,
    Message,
    NotInterested,
)
from repro.sim.observer import FanoutObserver, LinkTotals, PeerObserver

Interval = Tuple[float, float]


@dataclass
class Snapshot:
    """One periodic sample of the local peer's view."""

    time: float
    peer_set_size: int
    min_copies: int
    mean_copies: float
    max_copies: int
    rarest_count: int
    """Copies of the rarest piece in the peer set (m in §II-A)."""

    rarest_set_size: int
    """Number of pieces with exactly m copies (figures 3 and 6)."""

    local_pieces: int
    is_seed: bool
    in_endgame: bool
    active_partial_pieces: int = 0
    """Pieces started but incomplete at the local peer: strict priority
    keeps this small (partially received pieces cannot be served)."""

    offline: bool = False
    """Explicit gap marker: the sampling timer fired while the peer was
    offline (churn window).  Peer-set/replication figures must skip these
    rather than interpolate a phantom zero-sized peer set across the
    outage; only ``time`` and ``local_pieces`` carry information."""


@dataclass
class _IntervalTracker:
    """Open/closed interval bookkeeping for one boolean signal."""

    intervals: List[Interval] = field(default_factory=list)
    open_since: Optional[float] = None

    def set_on(self, now: float) -> None:
        if self.open_since is None:
            self.open_since = now

    def set_off(self, now: float) -> None:
        if self.open_since is not None:
            self.intervals.append((self.open_since, now))
            self.open_since = None

    def close(self, now: float) -> None:
        self.set_off(now)

    def total(self) -> float:
        return sum(end - start for start, end in self.intervals)

    def total_clipped(self, clip_start: float, clip_end: float) -> float:
        """Total time inside [clip_start, clip_end]."""
        total = 0.0
        for start, end in self.intervals:
            lo = max(start, clip_start)
            hi = min(end, clip_end)
            if hi > lo:
                total += hi - lo
        return total


@dataclass
class RemotePeerRecord:
    """Everything observed about one remote peer (keyed by address)."""

    address: str
    client_id: Optional[str] = None
    presence: _IntervalTracker = field(default_factory=_IntervalTracker)
    local_interested_in_remote: _IntervalTracker = field(
        default_factory=_IntervalTracker
    )
    remote_interested_in_local: _IntervalTracker = field(
        default_factory=_IntervalTracker
    )
    unchoke_times: List[float] = field(default_factory=list)
    """Times the local peer unchoked this remote (choked -> unchoked)."""

    unchoked_rounds_leecher: int = 0
    """Choke rounds (local in leecher state) this remote ended unchoked."""

    unchoked_rounds_seed: int = 0
    """Choke rounds (local in seed state) this remote ended unchoked.
    Multiplied by the round period this is the *service time* the seed
    granted the peer — the quantity the paper's seed criterion equalises."""

    uploaded_leecher_state: float = 0.0
    uploaded_seed_state: float = 0.0
    downloaded_leecher_state: float = 0.0
    downloaded_seed_state: float = 0.0
    remote_seed_since: Optional[float] = None
    """First time the remote's bitfield was observed complete, if ever."""

    def was_seed_on_arrival(self) -> bool:
        """True when the remote already had every piece when it entered
        the peer set — a *seed peer* in the paper's sense, as opposed to
        a leecher that completed during the observation."""
        if self.remote_seed_since is None:
            return False
        if not self.presence.intervals and self.presence.open_since is None:
            return False
        first_seen = (
            self.presence.intervals[0][0]
            if self.presence.intervals
            else self.presence.open_since
        )
        return self.remote_seed_since <= first_seen + 1e-9


@dataclass
class _ConnectionState:
    """Per-link accounting helpers, keyed by the remote's address."""

    record: RemotePeerRecord
    opened_at: float
    opened_in_seed_state: bool
    marker_uploaded: Optional[float] = None
    marker_downloaded: Optional[float] = None


class Instrumentation(PeerObserver):
    """Record the full local-peer trace of one experiment.

    The hooks read nothing but their arguments, so a trace replays into
    an equal object through the same hooks (DESIGN §9).  The attached
    peer is kept only for what a live run alone does with it: the
    snapshot sampler, and :meth:`finalize`, which reads the peer's
    state into :meth:`on_finalize`.
    """

    def __init__(self, record_rates: bool = False, snapshot_interval: Optional[float] = None):
        self.peer = None
        self.records: Dict[str, RemotePeerRecord] = {}
        self.block_arrivals: List[Tuple[float, int, int, int]] = []
        self.piece_completions: List[Tuple[float, int]] = []
        self.snapshots: List[Snapshot] = []
        self.choke_rounds: List[Tuple[float, int]] = []
        self.rate_samples: List[Tuple[float, str, float, float]] = []
        self.seed_state_at: Optional[float] = None
        self.endgame_at: Optional[float] = None
        self.hash_failures: List[Tuple[float, int]] = []
        self.announce_events: List[Tuple[float, str, dict]] = []
        """Tracker-announce events (empty unless
        ``SwarmConfig.trace_announces`` is set): one entry per
        successful announce, plus ``announce.<kind>`` counters in
        :attr:`metrics`."""
        self.metrics = MetricsRegistry()
        """Counter registry fed by the hooks (``repro run`` prints it);
        the compatibility views :attr:`messages_sent`,
        :attr:`messages_received` and :attr:`fault_counters` read
        through it, so every counter has exactly one implementation."""
        self._sent_counter = self.metrics.counter("messages.sent")
        self._received_counter = self.metrics.counter("messages.received")
        self._record_rates = record_rates
        self._snapshot_interval = snapshot_interval
        self._connection_states: Dict[str, _ConnectionState] = {}
        self._remote_pieces: Dict[str, list] = {}  # see _completes
        self._num_pieces = 0  # until attached
        self._currently_unchoked: set = set()
        self._finalized_at: Optional[float] = None
        self._joined_at: Optional[float] = None
        self._became_seed_at: Optional[float] = None

    # ------------------------------------------------------------------
    # attachment & sampling
    # ------------------------------------------------------------------

    def on_attached(self, peer) -> None:
        self.peer = peer
        self._num_pieces = peer.num_pieces

    def start_sampling(self) -> None:
        """Begin periodic snapshots; call after the peer has joined."""
        from repro.sim.engine import Timer  # local import avoids a cycle

        interval = self._snapshot_interval or peer_snapshot_interval(self.peer)
        Timer(self.peer.simulator, interval, self.take_snapshot)
        self.take_snapshot()

    def take_snapshot(self) -> None:
        peer = self.peer
        if peer is None:
            return
        now = peer.simulator.now
        if not peer.online:
            # Churn window: the sampling timer outlives a departed
            # peer.  Silently dropping the sample used to leave a
            # hole downstream code interpolated across; record an
            # explicit offline marker instead.
            snapshot = Snapshot(
                time=now,
                peer_set_size=0,
                min_copies=0,
                mean_copies=0.0,
                max_copies=0,
                rarest_count=0,
                rarest_set_size=0,
                local_pieces=peer.bitfield.count,
                is_seed=peer.is_seed,
                in_endgame=False,
                active_partial_pieces=0,
                offline=True,
            )
        else:
            availability = peer.picker.availability
            rarest_count, rarest_pieces = peer.picker.rarest_pieces_set()
            num_pieces = len(availability) or 1
            snapshot = Snapshot(
                time=now,
                peer_set_size=peer.peer_set_size,
                min_copies=min(availability) if availability else 0,
                mean_copies=sum(availability) / num_pieces,
                max_copies=max(availability) if availability else 0,
                rarest_count=rarest_count,
                rarest_set_size=len(rarest_pieces),
                local_pieces=peer.bitfield.count,
                is_seed=peer.is_seed,
                in_endgame=peer.picker.in_endgame,
                active_partial_pieces=len(peer.picker.active_pieces),
            )
        # Route through the peer's observer chain when this recorder is
        # fanned out with others (e.g. a TracingObserver): there is ONE
        # sampler, so every observer sees the same snapshot object
        # rather than re-computing a possibly divergent one.
        observer = peer.observer
        if isinstance(observer, FanoutObserver) and self in observer:
            observer.on_snapshot(now, snapshot)
        else:
            self.on_snapshot(now, snapshot)

    def on_snapshot(self, now: float, snapshot: Snapshot) -> None:
        self.snapshots.append(snapshot)

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------

    def _record_for(self, address: str) -> RemotePeerRecord:
        record = self.records.get(address)
        if record is None:
            record = self.records[address] = RemotePeerRecord(address=address)
        return record

    def on_connection_open(
        self,
        now: float,
        remote: str,
        client: Optional[str],
        remote_complete: bool,
        local_seed: bool,
        initiated: bool,
    ) -> None:
        record = self._record_for(remote)
        if record.client_id is None:
            record.client_id = client
        record.presence.set_on(now)
        self._connection_states[remote] = _ConnectionState(
            record=record, opened_at=now, opened_in_seed_state=local_seed
        )
        self._remote_pieces.pop(remote, None)  # a new link's view is empty
        if remote_complete and record.remote_seed_since is None:
            record.remote_seed_since = now

    def on_connection_close(
        self, now: float, remote: str, up: float, down: float
    ) -> None:
        self._remote_pieces.pop(remote, None)
        state = self._connection_states.pop(remote, None)
        if state is None:
            return
        record = state.record
        record.presence.set_off(now)
        record.local_interested_in_remote.set_off(now)
        record.remote_interested_in_local.set_off(now)
        self._currently_unchoked.discard(remote)
        self._flush_bytes(state, up, down)

    def _flush_bytes(
        self, state: _ConnectionState, uploaded: float, downloaded: float
    ) -> None:
        record = state.record
        if state.marker_uploaded is not None:
            record.uploaded_leecher_state += state.marker_uploaded
            record.uploaded_seed_state += uploaded - state.marker_uploaded
            record.downloaded_leecher_state += state.marker_downloaded or 0.0
            record.downloaded_seed_state += downloaded - (state.marker_downloaded or 0.0)
        elif state.opened_in_seed_state:
            record.uploaded_seed_state += uploaded
            record.downloaded_seed_state += downloaded
        else:
            record.uploaded_leecher_state += uploaded
            record.downloaded_leecher_state += downloaded

    # ------------------------------------------------------------------
    # messages
    # ------------------------------------------------------------------

    def on_message_sent(self, now: float, remote: str, message: Message) -> None:
        self._sent_counter.inc()
        record = self._record_for(remote)
        if isinstance(message, Interested):
            record.local_interested_in_remote.set_on(now)
        elif isinstance(message, NotInterested):
            record.local_interested_in_remote.set_off(now)

    def on_message_received(self, now: float, remote: str, message: Message) -> None:
        self._received_counter.inc()
        record = self._record_for(remote)
        if isinstance(message, Interested):
            record.remote_interested_in_local.set_on(now)
        elif isinstance(message, NotInterested):
            record.remote_interested_in_local.set_off(now)
        elif isinstance(message, (Have, BitfieldMessage)):
            if record.remote_seed_since is None and self._completes(remote, message):
                record.remote_seed_since = now

    def _completes(self, remote: str, message: Message) -> bool:
        """Whether *remote* holds every piece once *message*, a HAVE or
        BITFIELD it sent, is applied to what it announced on the link.

        The announced pieces are kept per open link as ``[bits, count]``,
        piece 0 in the most significant bit as on the wire, and only
        until the remote is found to be a seed.
        """
        num_pieces = self._num_pieces
        width = (num_pieces + 7) // 8 * 8  # the wire bitfield's bits
        if isinstance(message, Have):
            known = self._remote_pieces.get(remote)
            if known is None:
                known = self._remote_pieces[remote] = [0, 0]
            bit = 1 << (width - 1 - message.piece)
            if not known[0] & bit:
                known[0] |= bit
                known[1] += 1
            return known[1] >= num_pieces
        bits = int.from_bytes(message.bits, "big")
        # Spare padding bits of the final byte must not count toward seed
        # detection: a leecher advertising a sloppily padded bitfield is
        # still a leecher.
        spare = len(message.bits) * 8 - num_pieces
        if spare > 0:
            bits = bits >> spare << spare
        count = bin(bits).count("1")
        self._remote_pieces[remote] = [bits, count]
        return count >= num_pieces

    # ------------------------------------------------------------------
    # choke algorithm
    # ------------------------------------------------------------------

    def on_choke_round(
        self, now: float, unchoked: List[str], local_seed: bool
    ) -> None:
        self.choke_rounds.append((now, len(unchoked)))
        newly_unchoked = set(unchoked) - self._currently_unchoked
        for address in newly_unchoked:
            record = self.records.get(address)
            if record is not None:
                record.unchoke_times.append(now)
        for address in unchoked:
            record = self.records.get(address)
            if record is None:
                continue
            if local_seed:
                record.unchoked_rounds_seed += 1
            else:
                record.unchoked_rounds_leecher += 1
        self._currently_unchoked = set(unchoked)

    def on_rate_sample(
        self, now: float, remote: str, download_rate: float, upload_rate: float
    ) -> None:
        if self._record_rates:
            self.rate_samples.append((now, remote, download_rate, upload_rate))

    # ------------------------------------------------------------------
    # transfers & events
    # ------------------------------------------------------------------

    def on_block_received(
        self, now: float, remote: str, piece: int, offset: int, length: int
    ) -> None:
        self.block_arrivals.append((now, piece, offset, length))

    def on_piece_completed(self, now: float, piece: int) -> None:
        self.piece_completions.append((now, piece))

    def on_endgame_entered(self, now: float) -> None:
        if self.endgame_at is None:
            self.endgame_at = now

    def on_seed_state(self, now: float, open_links: Sequence[LinkTotals]) -> None:
        self.seed_state_at = now
        # Mark byte totals on every open link so leecher-state and
        # seed-state transfers can be separated (figures 9 and 11).
        states = self._connection_states
        for remote, up, down in open_links:
            state = states.get(remote)
            if state is not None:
                state.marker_uploaded = up
                state.marker_downloaded = down

    def on_hash_failure(self, now: float, piece: int) -> None:
        self.hash_failures.append((now, piece))

    def on_fault(self, now: float, kind: str) -> None:
        self.metrics.inc("fault." + kind)

    def on_announce(self, now: float, kind: str, data: dict) -> None:
        self.announce_events.append((now, kind, dict(data)))
        self.metrics.inc("announce." + kind)

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------

    def finalize(self, now: Optional[float] = None) -> None:
        """Close every open interval and flush open-link byte totals, at
        *now* or the attached live peer's clock, from that peer's state.

        Idempotent; analysis helpers call it defensively.
        """
        peer = self.peer
        if peer is not None:
            self.on_finalize(
                peer.simulator.now if now is None else now,
                peer.joined_at,
                peer.became_seed_at,
                peer.link_totals(),
            )

    def on_finalize(
        self,
        now: float,
        joined_at: Optional[float],
        became_seed_at: Optional[float],
        open_links: Sequence[LinkTotals],
    ) -> None:
        """The finalize step's values (a ``finalize`` trace event's
        fields): the peer's join and seed times and the byte totals of
        its open links.  A link missing from *open_links* is closed
        without a byte flush."""
        self._joined_at = joined_at
        self._became_seed_at = became_seed_at
        if self._finalized_at == now:
            return
        self._finalized_at = now
        totals = {remote: (up, down) for remote, up, down in open_links}
        for remote, state in self._connection_states.items():
            record = state.record
            record.presence.set_off(now)
            record.local_interested_in_remote.set_off(now)
            record.remote_interested_in_local.set_off(now)
            link = totals.get(remote)
            if link is not None:
                self._flush_bytes(state, *link)
        self._connection_states.clear()

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------

    @property
    def messages_sent(self) -> int:
        """Compatibility view over the ``messages.sent`` counter."""
        return int(self._sent_counter.value)

    @property
    def messages_received(self) -> int:
        """Compatibility view over the ``messages.received`` counter."""
        return int(self._received_counter.value)

    @property
    def fault_counters(self) -> Dict[str, int]:
        """Fault events observed at the local peer, keyed by kind (a
        live peer reports ``connection_reaped``); empty in a simulated
        run, whose links never fail.  Compatibility view over the
        registry's ``fault.*`` counters."""
        return {
            kind: int(count)
            for kind, count in self.metrics.with_prefix("fault.").items()
        }

    def _observed_times(self) -> Tuple[Optional[float], Optional[float], float]:
        """``(joined_at, became_seed_at, now)`` of the observed peer: as
        the finalize step recorded them, and before it from the attached
        live peer."""
        if self._finalized_at is not None:
            return self._joined_at, self._became_seed_at, self._finalized_at
        peer = self.peer
        if peer is None:
            return None, None, 0.0
        return peer.joined_at, peer.became_seed_at, peer.simulator.now

    @property
    def _seed_since(self) -> Optional[float]:
        """When the local peer entered seed state: the observed event, or
        its join time when it was created as a seed."""
        if self.seed_state_at is not None:
            return self.seed_state_at
        joined_at, became_seed_at, __ = self._observed_times()
        if became_seed_at is not None:
            return max(became_seed_at, joined_at or 0.0)
        return None

    @property
    def leecher_interval(self) -> Interval:
        """The local peer's [join, became-seed-or-end] interval."""
        joined_at, __, now = self._observed_times()
        end = self._seed_since
        return (joined_at or 0.0, now if end is None else end)

    @property
    def seed_interval(self) -> Optional[Interval]:
        start = self._seed_since
        if start is None:
            return None
        return (start, self._observed_times()[2])


def peer_snapshot_interval(peer) -> float:
    """Default snapshot interval, taken from the swarm configuration."""
    return peer.swarm.config.snapshot_interval
