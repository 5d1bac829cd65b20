"""Swarm state for the tracker tier: per-infohash registries, sharded.

A real tracker's working set is a map ``infohash -> swarm`` where each
swarm is the set of peers currently announcing for that torrent.  This
module provides that map at two levels:

* :class:`SwarmState` — one torrent's registry.  Peers are kept in
  *registration order* in dense lists with O(1) swap-remove, and seeds
  and leechers are additionally kept in dense per-role lists, so the
  samplers in :mod:`repro.tracker.sampling` can draw a peer set in
  O(num_want) (uniform, seed-biased) instead of materialising an O(n)
  candidate list per announce (the ``tracker_service`` workload of
  ``benchmarks/suite`` measures the announce rate).  Reported progress
  is kept a second time as a dense ``have`` column aligned with the
  registration-order list, so the rarity-aware sampler reads one list
  of ints instead of one :class:`PeerEntry` per registered peer.

* :class:`ShardedSwarmStore` — the infohash map, split over a fixed
  number of shards by a *stable* hash (CRC-32, never the seeded builtin
  ``hash``).  Shards bound the state any single announce touches and
  give the announce server a natural unit of statistics.

Everything here is deterministic given the announce sequence: no wall
clock, no global RNG, no seeded-``hash`` iteration order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: Largest piece count an announce may report.  Comfortably above any
#: real torrent (2**24 pieces of 16 KiB are 256 GiB of the smallest piece
#: anyone ships), and small enough that every sampler weight derived
#: from it stays a finite, non-zero float.  Progress comes from outside
#: the program: an unchecked value reaches float arithmetic on every
#: later announce of the swarm.
MAX_HAVE = 1 << 24


def check_have(have_count: Optional[int]) -> None:
    """Raise :class:`ValueError` unless *have_count* is None or a piece
    count in ``0 .. MAX_HAVE``."""
    if have_count is not None and not 0 <= have_count <= MAX_HAVE:
        raise ValueError("have outside 0..%d" % MAX_HAVE)


@dataclass
class PeerEntry:
    """One registered peer, as the tracker knows it."""

    address: str
    is_seed: bool
    have_count: Optional[int] = None
    """Pieces the peer reported holding (from the announce's ``left``
    field); None when the client did not report progress.  Mirrored
    into :attr:`SwarmState.have`, which is what the rarity-aware sampler
    reads: change it through :meth:`SwarmState.update` only."""

    registered_at: float = 0.0
    last_seen: float = 0.0


class _DenseIndex:
    """A list of addresses with an O(1) membership map and swap-remove.

    Registration order is preserved for live entries except where a
    removal swapped the tail in — an order that is itself a pure
    function of the announce sequence, never of dict iteration.
    """

    __slots__ = ("order", "_where")

    def __init__(self) -> None:
        self.order: List[str] = []
        self._where: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, address: str) -> bool:
        return address in self._where

    def position(self, address: str) -> Optional[int]:
        """Index of *address* in ``order``; None when absent."""
        return self._where.get(address)

    def add(self, address: str) -> None:
        if address in self._where:
            return
        self._where[address] = len(self.order)
        self.order.append(address)

    def discard(self, address: str) -> Optional[int]:
        """Swap-remove *address*; returns the slot it held (None when
        absent) so a column aligned with ``order`` can mirror the move."""
        index = self._where.pop(address, None)
        if index is None:
            return None
        tail = self.order.pop()
        if tail != address:
            self.order[index] = tail
            self._where[tail] = index
        return index


class SwarmState:
    """The tracker-side registry of one torrent's swarm."""

    def __init__(self, infohash: bytes = b""):
        self.infohash = infohash
        self.entries: Dict[str, PeerEntry] = {}
        self.all = _DenseIndex()
        self.have: List[int] = []
        """``have_count or 0`` of every registered peer, aligned with
        ``all.order``.  Written only in this class — appended on
        registration, stored on a progress report, swap-removed with the
        address — and read by the rarity-aware sampler."""

        self.seeds = _DenseIndex()
        self.leechers = _DenseIndex()
        self.announce_seq = 0
        """Monotonic per-swarm announce counter (feeds the service's
        per-request RNG derivation)."""

        self.completed_count = 0

    # -- registry ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def update(
        self,
        address: str,
        event: str,
        is_seed: bool,
        now: float,
        have_count: Optional[int] = None,
    ) -> PeerEntry:
        """Apply one announce to the registry and return the entry.

        ``event`` follows BEP 3: ``"started"``, ``"stopped"``,
        ``"completed"`` or ``""`` (keep-alive).  A ``stopped`` announce
        returns a detached entry (no longer registered).  A
        ``have_count`` outside ``0 .. MAX_HAVE`` raises
        :class:`ValueError` before anything is touched.
        """
        check_have(have_count)
        self.announce_seq += 1
        if event == "stopped":
            entry = self.entries.pop(address, None)
            if entry is None:
                entry = PeerEntry(address, is_seed, have_count, now, now)
            else:
                self._unregister(address)
            entry.last_seen = now
            return entry
        entry = self.entries.get(address)
        if entry is None:
            entry = PeerEntry(address, is_seed, have_count, now, now)
            self.entries[address] = entry
            self.all.add(address)
            self.have.append(have_count or 0)
        elif have_count is not None:
            entry.have_count = have_count
            self.have[self.all._where[address]] = have_count
        was_seed = address in self.seeds
        entry.is_seed = is_seed
        entry.last_seen = now
        if event == "completed":
            self.completed_count += 1
        if is_seed:
            if not was_seed:
                self.leechers.discard(address)
                self.seeds.add(address)
        else:
            if was_seed:
                self.seeds.discard(address)
            self.leechers.add(address)
        return entry

    def expire(self, now: float, max_age: float) -> List[str]:
        """Reap peers not seen for more than *max_age*; returns them.

        A peer whose announces stopped (crash, NAT rebind, network
        partition — anything but a clean ``stopped`` event) would
        otherwise sit in the registry forever and keep being handed out
        to new peers as a dead address.  Entries are scanned and removed
        in registration (dict-insertion) order, itself a pure function
        of the announce sequence, so the swap-remove state the samplers
        see stays deterministic.  ``announce_seq`` is untouched: it
        feeds the per-request RNG derivation and must only ever count
        announces.
        """
        cutoff = now - max_age
        dead = [
            address
            for address, entry in self.entries.items()
            if entry.last_seen < cutoff
        ]
        for address in dead:
            del self.entries[address]
            self._unregister(address)
        return dead

    def _unregister(self, address: str) -> None:
        """Swap-remove a registered peer from the dense lists and the
        ``have`` column (its ``entries`` record is the caller's)."""
        index = self.all.discard(address)
        tail = self.have.pop()
        if index < len(self.have):
            self.have[index] = tail
        self.seeds.discard(address)
        self.leechers.discard(address)

    def scrape(self) -> Tuple[int, int]:
        """(seeds, leechers) currently registered."""
        return len(self.seeds), len(self.leechers)

    def addresses(self) -> List[str]:
        """Registered addresses in registration (swap-remove) order."""
        return list(self.all.order)


def shard_of(infohash: bytes, num_shards: int) -> int:
    """Stable shard index of an infohash.

    CRC-32 rather than ``hash()``: the builtin is salted per process
    (PYTHONHASHSEED), which would make shard placement — and therefore
    shard statistics — nondeterministic.
    """
    return zlib.crc32(infohash) % num_shards


@dataclass
class ShardStats:
    """Size accounting of one shard."""

    swarms: int = 0
    peers: int = 0
    announces: int = 0


class ShardedSwarmStore:
    """``infohash -> SwarmState``, split over ``num_shards`` shards."""

    def __init__(self, num_shards: int = 8):
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        self._shards: List[Dict[bytes, SwarmState]] = [
            {} for _ in range(num_shards)
        ]

    # -- lookup ------------------------------------------------------------

    def shard_index(self, infohash: bytes) -> int:
        return shard_of(infohash, self.num_shards)

    def get(self, infohash: bytes) -> Optional[SwarmState]:
        return self._shards[self.shard_index(infohash)].get(infohash)

    def get_or_create(self, infohash: bytes) -> SwarmState:
        shard = self._shards[self.shard_index(infohash)]
        state = shard.get(infohash)
        if state is None:
            state = SwarmState(infohash)
            shard[infohash] = state
        return state

    def swarms(self) -> Iterator[SwarmState]:
        for shard in self._shards:
            # Sorted for a stable iteration order: shard dicts are keyed
            # by bytes whose insertion order depends on announce arrival.
            for infohash in sorted(shard):
                yield shard[infohash]

    # -- maintenance -------------------------------------------------------

    def expire(self, now: float, max_age: float) -> int:
        """Reap stale peers from every swarm; returns how many died.

        Swarm objects are kept even when emptied: their ``announce_seq``
        feeds per-request RNG derivation and must survive the reap.
        """
        reaped = 0
        for state in self.swarms():
            reaped += len(state.expire(now, max_age))
        return reaped

    def stats(self) -> List[ShardStats]:
        """Per-shard accounting, in shard order."""
        out = []
        for shard in self._shards:
            stats = ShardStats(swarms=len(shard))
            for state in shard.values():
                stats.peers += len(state)
                stats.announces += state.announce_seq
            out.append(stats)
        return out

    @property
    def total_peers(self) -> int:
        return sum(
            len(state) for shard in self._shards for state in shard.values()
        )

    @property
    def total_swarms(self) -> int:
        return sum(len(shard) for shard in self._shards)
