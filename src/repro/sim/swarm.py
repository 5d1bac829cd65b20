"""Swarm orchestration: one torrent, its tracker, and its population.

The :class:`Swarm` owns the event engine, the tracker, the peer registry,
the per-tick fluid bandwidth loop, and the global piece-replication
oracle (used by the :class:`~repro.core.rarest_first.GlobalRarestSelector`
baseline and by transient-state detection — real peers never see it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.choke import Choker
from repro.core.piece_picker import AvailabilityMatrix
from repro.core.rarest_first import PieceSelector
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import Metainfo
from repro.sim.bandwidth import INF, resolve_allocator
from repro.sim.config import PeerConfig, SwarmConfig
from repro.sim.connection import Connection
from repro.sim.engine import Simulator, Timer
from repro.sim.observer import PeerObserver
from repro.sim.peer import Peer
from repro.tracker.tracker import Tracker


@dataclass
class SwarmResult:
    """Aggregate outcome of one simulated experiment."""

    duration: float
    completions: Dict[str, float] = field(default_factory=dict)
    """Peer address -> time it became a seed (download completion)."""

    join_times: Dict[str, float] = field(default_factory=dict)
    departures: Dict[str, float] = field(default_factory=dict)
    bytes_uploaded: Dict[str, float] = field(default_factory=dict)
    bytes_downloaded: Dict[str, float] = field(default_factory=dict)
    bytes_moved: float = 0.0
    """Total payload bytes transferred swarm-wide."""

    capacity_seconds: float = 0.0
    """Integral over time of the online peers' upload capacities: the
    denominator of the utilisation metric."""

    first_full_copy_at: Optional[float] = None
    """Time at which every piece had at least 2 copies swarm-wide (the
    initial seed finished pushing the first full copy): end of the
    transient state."""

    def download_time(self, address: str) -> Optional[float]:
        if address not in self.completions or address not in self.join_times:
            return None
        return self.completions[address] - self.join_times[address]

    def mean_download_time(self) -> Optional[float]:
        times = [
            self.download_time(address)
            for address in self.completions
            if self.download_time(address) is not None
        ]
        if not times:
            return None
        return sum(times) / len(times)


_ALLOCATION_ORDER = attrgetter("flow_key")


class Swarm:
    """Builds and runs one torrent scenario."""

    def __init__(self, metainfo: Metainfo, config: Optional[SwarmConfig] = None):
        self.metainfo = metainfo
        self.config = config or SwarmConfig()
        self.simulator = Simulator()
        self._allocate = resolve_allocator()
        self.rng = Random(self.config.seed)
        self.tracker = Tracker(
            Random(self.rng.getrandbits(64)), lambda: self.simulator.now
        )
        self.peers: Dict[str, Peer] = {}
        self.result = SwarmResult(duration=0.0)
        self._next_host = 1
        self._upload_candidates: set = set()
        # Flow-set fast path: the candidate set carries a generation
        # counter bumped on every membership change, so a tick whose
        # active flow set did not change reuses the sorted connection
        # list AND the previous allocation (the rates left on each
        # connection's flow) without re-keying anything.
        self._members_generation = 0
        self._flows_generation = -1
        self._active_connections: List[Connection] = []
        # Bytes each active connection may move per tick: its allocated
        # rate times the tick, multiplied once per allocation.
        self._budgets: List[float] = []
        self._upload_caps: Dict[str, float] = {}
        # Allocator nodes: an address's upload node is ``2s`` and its
        # download node ``2s + 1`` for the slot ``s`` it is given the
        # first time it joins or a flow names it; ``_capacities`` holds
        # every node's cap, ``inf`` for none (never joined, departed, or
        # an uncapped download).
        self._upload_nodes: Dict[str, int] = {}
        self._capacities = _np.full(64, INF)
        # Global piece-replication oracle over ONLINE peers, with an
        # incremental count of pieces replicated fewer than twice so the
        # first-full-copy test is O(1) per completion, not O(pieces).
        self.global_counts: List[int] = [0] * metainfo.geometry.num_pieces
        self._scarce_pieces = metainfo.geometry.num_pieces
        self._tick_timer = Timer(
            self.simulator,
            self.config.tick_interval,
            self._tick,
            start_at=self.config.tick_interval,
        )
        self._on_tick_callbacks: List[Callable[[float], None]] = []
        # Swarm-wide observation: when set, every peer added WITHOUT an
        # explicit observer gets one from this factory (one observer per
        # peer — observers hold per-peer state).  Used by the tracing
        # layer to cover churn arrivals, which no caller sees directly.
        self.observer_factory: Optional[Callable[[], PeerObserver]] = None
        # Shared availability matrix: one int32 row per online peer, so a
        # completed piece's HAVE flood becomes a single vectorized
        # increment over the receivers' rows instead of per-peer python
        # bookkeeping.
        self.availability_matrix = AvailabilityMatrix(metainfo.geometry.num_pieces)

    # ------------------------------------------------------------------
    # population management
    # ------------------------------------------------------------------

    def make_address(self) -> str:
        host = self._next_host
        self._next_host += 1
        return "10.%d.%d.%d" % (host >> 16 & 0xFF, host >> 8 & 0xFF, host & 0xFF)

    def add_peer(
        self,
        config: Optional[PeerConfig] = None,
        address: Optional[str] = None,
        selector: Optional[PieceSelector] = None,
        leecher_choker: Optional[Choker] = None,
        seed_choker: Optional[Choker] = None,
        is_seed: bool = False,
        initial_bitfield: Optional[Bitfield] = None,
        observer: Optional[PeerObserver] = None,
        join: bool = True,
    ) -> Peer:
        """Create a peer and (by default) have it join immediately.

        ``is_seed`` gives the peer a full bitfield; ``initial_bitfield``
        overrides it for partially pre-seeded peers (e.g. the "joined
        with almost all pieces" clients of §IV-A.1).  With ``join=False``
        the peer stays out of every book of the swarm (``peers``, the
        capacity maps, the replication oracle) until it joins.
        """
        address = address or self.make_address()
        if address in self.peers:
            raise ValueError("address %s already in use" % address)
        bitfield = initial_bitfield
        if bitfield is None and is_seed:
            bitfield = Bitfield.full(self.metainfo.geometry.num_pieces)
        if observer is None and self.observer_factory is not None:
            observer = self.observer_factory()
        peer = Peer(
            address=address,
            metainfo=self.metainfo,
            config=config or PeerConfig(),
            simulator=self.simulator,
            swarm=self,
            rng=Random(self.rng.getrandbits(64)),
            selector=selector,
            leecher_choker=leecher_choker,
            seed_choker=seed_choker,
            initial_bitfield=bitfield,
            observer=observer,
        )
        if join:
            self.join_peer(peer)
        return peer

    def join_peer(self, peer: Peer) -> None:
        """Bring a created-but-offline peer online."""
        peer.join()

    def schedule_arrival(self, delay: float, **add_peer_kwargs) -> None:
        """Add a peer after *delay* simulated seconds.

        A negative delay — an arrival process whose ``start`` lies before
        the current simulated clock — is clamped to "now" instead of
        tripping the engine's schedule-in-the-past guard, so churn
        generators can be attached to an already-running swarm."""
        self.simulator.schedule(
            max(0.0, delay), lambda: self.add_peer(**add_peer_kwargs)
        )

    def peer_by_address(self, address: str) -> Optional[Peer]:
        return self.peers.get(address)

    # ------------------------------------------------------------------
    # swarm-level callbacks from peers
    # ------------------------------------------------------------------

    def on_piece_replicated(self, peer: Peer, piece: int) -> None:
        count = self.global_counts[piece] + 1
        self.global_counts[piece] = count
        if count == 2:
            self._scarce_pieces -= 1
        if self._scarce_pieces == 0 and self.result.first_full_copy_at is None:
            self.result.first_full_copy_at = self.simulator.now

    def on_peer_completed(self, peer: Peer) -> None:
        self.result.completions[peer.address] = self.simulator.now

    def on_peer_joined(self, peer: Peer) -> None:
        """Enter a peer coming online into the swarm's books: the mirror
        of :meth:`on_peer_left`, called by every :meth:`Peer.join` (the
        first one and a rejoin after a leave alike)."""
        address = peer.address
        if self.peers.get(address, peer) is not peer:
            raise ValueError("address %s already in use" % address)
        self.peers[address] = peer
        # The capacities feed the cached bandwidth allocation.
        self._upload_caps[address] = peer.config.upload_capacity
        node = self._upload_node(address)
        download = peer.config.download_capacity
        self._capacities[node] = peer.config.upload_capacity
        self._capacities[node + 1] = INF if download is None else download
        self._members_generation += 1
        for piece in peer.bitfield.have_indices():
            count = self.global_counts[piece] + 1
            self.global_counts[piece] = count
            if count == 2:
                self._scarce_pieces -= 1
        self.result.join_times[address] = self.simulator.now
        self.result.departures.pop(address, None)

    def on_peer_left(self, peer: Peer) -> None:
        for piece in peer.bitfield.have_indices():
            count = self.global_counts[piece] - 1
            self.global_counts[piece] = count
            if count == 1:
                self._scarce_pieces += 1
        self.result.departures[peer.address] = self.simulator.now
        self.result.bytes_uploaded[peer.address] = peer.total_uploaded
        self.result.bytes_downloaded[peer.address] = peer.total_downloaded
        self.peers.pop(peer.address, None)
        # The capacities feed the cached bandwidth allocation, so
        # uncapping a departed peer invalidates the cache.
        if self._upload_caps.pop(peer.address, None) is not None:
            node = self._upload_nodes[peer.address]
            self._capacities[node : node + 2] = INF
            self._members_generation += 1

    # ------------------------------------------------------------------
    # fluid transfer loop
    # ------------------------------------------------------------------

    def _upload_node(self, address: str) -> int:
        """*address*'s upload node (its download node is the next one),
        given on first use."""
        node = self._upload_nodes.get(address)
        if node is None:
            node = self._upload_nodes[address] = 2 * len(self._upload_nodes)
            capacities = self._capacities
            if node >= len(capacities):
                self._capacities = _np.concatenate(
                    (capacities, _np.full(len(capacities), INF))
                )
        return node

    def note_upload_activity(self, connection: Connection) -> None:
        """A connection may now have something to serve."""
        if (
            connection.has_active_upload()
            and connection not in self._upload_candidates
        ):
            if connection.flow_key is None:
                local = connection.local.address
                remote = connection.remote.address
                connection.flow_key = (local, remote)
                connection.flow_nodes = (
                    self._upload_node(local),
                    self._upload_node(remote) + 1,
                )
            self._upload_candidates.add(connection)
            self._members_generation += 1

    def forget_upload(self, connection: Connection) -> None:
        if connection in self._upload_candidates:
            self._upload_candidates.discard(connection)
            self._members_generation += 1

    def on_tick(self, callback: Callable[[float], None]) -> None:
        """Register an analysis callback invoked after every fluid tick."""
        self._on_tick_callbacks.append(callback)

    def _tick(self) -> None:
        now = self.simulator.now
        dt = self.config.tick_interval
        # ``not connection.has_active_upload()``, spelt out.
        for connection in [
            connection
            for connection in self._upload_candidates
            if connection.am_choking
            or not connection.upload_queue
            or connection.closed
        ]:
            self.forget_upload(connection)
        if self._upload_candidates:
            if self._flows_generation != self._members_generation:
                # The active flow set changed since the last allocation:
                # rebuild and re-run the (expensive) fair allocation.
                # Unchanged sets — the common steady-state case — skip
                # straight to advancing transfers at the cached budgets,
                # which are a pure function of the flow set and the
                # static per-peer capacities.
                active = sorted(self._upload_candidates, key=_ALLOCATION_ORDER)
                nodes = _np.array(
                    [connection.flow_nodes for connection in active], dtype=_np.intp
                )
                rates = self._allocate(nodes[:, 0], nodes[:, 1], self._capacities)
                self._active_connections = active
                self._budgets = (rates * dt).tolist()
                self._flows_generation = self._members_generation
            result = self.result
            for connection, budget in zip(self._active_connections, self._budgets):
                # A turn that finishes no block is Peer.advance_uploads
                # in this frame: the budget is positive, the head block
                # does not complete (the negation of advance_upload's
                # test) and so is covered, and no message is sent.  Same
                # float operations on the same fields, in the same order.
                queue = connection.upload_queue
                if (
                    budget > 0.0
                    and queue
                    and not connection.closed
                    and budget < queue[0].length - connection.upload_progress - 1e-9
                ):
                    local = connection.local
                    connection.uploaded.add(now, budget)
                    local.total_uploaded += budget
                    twin = connection.twin
                    if twin is not None and not twin.closed:
                        twin.downloaded.add(now, budget)
                        connection.remote.total_downloaded += budget
                    connection.upload_progress += budget
                    result.bytes_moved += budget
                else:
                    result.bytes_moved += connection.local.advance_uploads(
                        connection, budget
                    )
        else:
            self._active_connections = []
            self._budgets = []
            self._flows_generation = self._members_generation
        self.result.capacity_seconds += dt * sum(self._upload_caps.values())
        for callback in self._on_tick_callbacks:
            callback(now)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, duration: Optional[float] = None) -> SwarmResult:
        """Advance the simulation by *duration* seconds (cumulative)."""
        duration = self.config.duration if duration is None else duration
        self.simulator.run_until(self.simulator.now + duration)
        self.result.duration = self.simulator.now
        for address, peer in self.peers.items():
            self.result.bytes_uploaded[address] = peer.total_uploaded
            self.result.bytes_downloaded[address] = peer.total_downloaded
        return self.result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def seeds_and_leechers(self) -> Tuple[int, int]:
        seeds = sum(1 for peer in self.peers.values() if peer.is_seed)
        return seeds, len(self.peers) - seeds

    def availability_snapshot(self) -> Sequence[int]:
        return tuple(self.global_counts)
