"""An idealised network-coding swarm, the upper-bound comparator.

The paper argues (§IV-A.4) that rarest first is already close to what a
network-coding solution would achieve on real torrents.  There is no
coding client to run against, so — exactly like the paper — we compare
against the *theoretical* behaviour of random linear network coding,
idealised in the replicator's favour:

* **interest is ideal by construction**: a peer B is interested in A
  whenever B is incomplete and A holds any information at all, because
  random recoding makes any transmission innovative with high
  probability;
* **piece identity disappears**: a peer's state is its *rank* — the
  number of useful (innovative) bytes received;
* **provenance still binds, globally**: no peer can absorb more
  information than the seeds have *released* into the swarm, so the
  initial seed remains the transient-state bottleneck, as it must (no
  code can reconstruct a k-piece content from fewer than k pieces of
  information — §IV-A.1).  Between leechers the model is maximally
  optimistic: recoding chains are assumed to route any released
  information to anyone, so a transfer is innovative whenever the
  downloader has not yet absorbed everything released.

Peer-set construction and the choke algorithm are identical to the main
simulator's, so the comparison isolates the piece-selection dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional

from repro.core.choke import ChokeCandidate, Choker, LeecherChoker, SeedChoker
from repro.core.rate_estimator import ByteCounter
from repro.sim.bandwidth import Flow, max_min_allocation
from repro.sim.config import PeerConfig, SwarmConfig
from repro.sim.engine import Simulator, Timer


@dataclass
class CodingSwarmResult:
    completions: Dict[str, float] = field(default_factory=dict)
    join_times: Dict[str, float] = field(default_factory=dict)
    duration: float = 0.0

    def download_time(self, name: str) -> Optional[float]:
        if name not in self.completions:
            return None
        return self.completions[name] - self.join_times.get(name, 0.0)

    def mean_download_time(self) -> Optional[float]:
        times = [
            self.download_time(name)
            for name in self.completions
            if self.download_time(name) is not None
        ]
        if not times:
            return None
        return sum(times) / len(times)


class _CodedPeer:
    """Rank-based peer state."""

    __slots__ = (
        "name",
        "config",
        "rank",
        "total_size",
        "neighbors",
        "unchoked",
        "counters_down",
        "counters_up",
        "last_unchoked",
        "choker_leecher",
        "choker_seed",
        "rng",
    )

    def __init__(
        self,
        name: str,
        config: PeerConfig,
        total_size: float,
        rank: float,
        rng: Random,
    ):
        self.name = name
        self.config = config
        self.rank = rank
        self.total_size = total_size
        self.neighbors: List["_CodedPeer"] = []
        self.unchoked: set = set()
        self.counters_down: Dict[str, ByteCounter] = {}
        self.counters_up: Dict[str, ByteCounter] = {}
        self.last_unchoked: Dict[str, float] = {}
        self.choker_leecher: Choker = LeecherChoker()
        self.choker_seed: Choker = SeedChoker()
        self.rng = rng

    @property
    def is_seed(self) -> bool:
        return self.rank >= self.total_size

    def interested_in(self, other: "_CodedPeer") -> bool:
        """Ideal coding interest: an incomplete peer is interested in any
        peer that holds information at all (recoding makes it innovative
        with high probability)."""
        return not self.is_seed and other.rank > 0


class CodingSwarm:
    """Runs the idealised coding protocol over a random peer graph."""

    def __init__(
        self,
        total_size: float,
        config: Optional[SwarmConfig] = None,
    ):
        self.total_size = total_size
        self.config = config or SwarmConfig()
        self.simulator = Simulator()
        self.rng = Random(self.config.seed)
        self.peers: Dict[str, _CodedPeer] = {}
        self.result = CodingSwarmResult()
        self.released = 0.0
        """Information (bytes) the seeds have pushed into the swarm so
        far, capped at the content size: the global provenance bound."""

    def add_peer(
        self,
        name: str,
        config: Optional[PeerConfig] = None,
        is_seed: bool = False,
    ) -> None:
        config = config or PeerConfig()
        peer = _CodedPeer(
            name,
            config,
            self.total_size,
            rank=self.total_size if is_seed else 0.0,
            rng=Random(self.rng.getrandbits(64)),
        )
        self.peers[name] = peer
        self.result.join_times[name] = self.simulator.now

    def _build_graph(self) -> None:
        names = sorted(self.peers)
        for name in names:
            peer = self.peers[name]
            others = [self.peers[n] for n in names if n != name]
            want = min(peer.config.max_peer_set, len(others))
            peer.neighbors = self.rng.sample(others, want)
        # Make adjacency symmetric, as BitTorrent connections are.
        for peer in self.peers.values():
            for neighbor in peer.neighbors:
                if peer not in neighbor.neighbors:
                    neighbor.neighbors.append(peer)

    def _choke_round(self, peer: _CodedPeer) -> None:
        now = self.simulator.now
        candidates = []
        for neighbor in peer.neighbors:
            down = peer.counters_down.get(neighbor.name)
            up = peer.counters_up.get(neighbor.name)
            candidates.append(
                ChokeCandidate(
                    key=neighbor.name,
                    interested=neighbor.interested_in(peer),
                    choked=neighbor.name not in peer.unchoked,
                    download_rate=down.rate(now) if down else 0.0,
                    upload_rate=up.rate(now) if up else 0.0,
                    uploaded_to=up.total if up else 0.0,
                    downloaded_from=down.total if down else 0.0,
                    last_unchoked=peer.last_unchoked.get(neighbor.name),
                )
            )
        # Every interested neighbour is snapshotted: a superset of the
        # links that moved, which a choker decides on alike.
        interested = [c for c in candidates if c.interested]
        choker = peer.choker_seed if peer.is_seed else peer.choker_leecher
        decision = choker.round([c.key for c in interested], interested, now, peer.rng)
        newly = set(decision.unchoked) - peer.unchoked
        peer.unchoked = set(decision.unchoked)
        for name in newly:
            peer.last_unchoked[name] = now

    def _tick(self) -> None:
        now = self.simulator.now
        dt = self.config.tick_interval
        flows: List[Flow] = []
        pairs: List[tuple] = []
        upload_caps = {}
        download_caps = {}
        for peer in self.peers.values():
            upload_caps[peer.name] = peer.config.upload_capacity
            if peer.config.download_capacity is not None:
                download_caps[peer.name] = peer.config.download_capacity
            for neighbor_name in peer.unchoked:
                neighbor = self.peers.get(neighbor_name)
                if neighbor is None or not neighbor.interested_in(peer):
                    continue
                flows.append(Flow(peer.name, neighbor.name))
                pairs.append((peer, neighbor))
        max_min_allocation(flows, upload_caps, download_caps)
        # Seeds inject fresh information first: the released pool grows by
        # whatever the seeds pushed this tick.
        for flow, (uploader, __) in zip(flows, pairs):
            if uploader.is_seed:
                self.released = min(
                    self.total_size, self.released + flow.rate * dt
                )
        for flow, (uploader, downloader) in zip(flows, pairs):
            transferred = flow.rate * dt
            if transferred <= 0:
                continue
            # Global provenance cap: nobody can absorb more than the
            # seeds have released into the swarm; leecher-to-leecher
            # exchange is otherwise assumed always innovative (recoding).
            transferred = min(
                transferred, max(0.0, self.released - downloader.rank)
            )
            if transferred <= 0:
                continue
            downloader.rank = min(downloader.rank + transferred, self.total_size)
            uploader.counters_up.setdefault(
                downloader.name, ByteCounter()
            ).add(now, transferred)
            downloader.counters_down.setdefault(
                uploader.name, ByteCounter()
            ).add(now, transferred)
            if downloader.is_seed and downloader.name not in self.result.completions:
                self.result.completions[downloader.name] = now

    def run(self, duration: float) -> CodingSwarmResult:
        self._build_graph()
        for peer in self.peers.values():
            phase = peer.rng.uniform(0.0, peer.config.choke_interval)
            Timer(
                self.simulator,
                peer.config.choke_interval,
                lambda p=peer: self._choke_round(p),
                start_at=self.simulator.now + phase,
            )
        Timer(self.simulator, self.config.tick_interval, self._tick)
        self.simulator.run_until(duration)
        self.result.duration = duration
        return self.result
