"""In-process live swarms: N asyncio peers over localhost TCP.

A :class:`LiveSwarm` is the live counterpart of
:class:`repro.sim.swarm.Swarm`: it owns the shared wall clock, the
in-memory tracker, the metrics registry and (optionally) a
:class:`~repro.instrumentation.trace.TraceRecorder` that every peer's
:class:`~repro.instrumentation.trace.TracingObserver` appends to, then
runs the download to completion.  The emitted trace uses the same
schema v1 as the sim, so the replay/figure pipelines consume it
unchanged — that property is what the differential conformance tests
in :mod:`tests.test_net_conformance` lean on.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional

from repro.instrumentation.metrics import MetricsRegistry
from repro.instrumentation.trace import TraceRecorder, TracingObserver
from repro.net.connection import WallClock
from repro.net.peer import NetPeer
from repro.protocol.metainfo import Metainfo
from repro.sim.config import PeerConfig
from repro.tracker.tracker import Tracker


@dataclass
class LiveSwarmResult:
    """Outcome of one live run (the net analogue of ``SwarmResult``)."""

    duration: float
    addresses: List[str] = field(default_factory=list)
    completed_at: Dict[str, float] = field(default_factory=dict)
    uploaded: Dict[str, float] = field(default_factory=dict)
    downloaded: Dict[str, float] = field(default_factory=dict)
    trace_fingerprint: Optional[str] = None
    stuck: Optional[str] = None
    """Why the run stopped short: the peers still incomplete when the
    timeout expired, with their piece counts; None when it completed."""

    @property
    def all_complete(self) -> bool:
        return len(self.completed_at) == len(self.addresses)


class LiveSwarm:
    """Spin up N in-process live peers and download to completion."""

    def __init__(
        self,
        metainfo: Metainfo,
        seed: int = 0,
        config: Optional[PeerConfig] = None,
        recorder: Optional[TraceRecorder] = None,
        trace_all: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
    ):
        self.metainfo = metainfo
        self.seed = seed
        self.config = config or PeerConfig()
        self.recorder = recorder
        self.trace_all = trace_all
        self.metrics = metrics or MetricsRegistry()
        self.host = host
        self.clock = WallClock()
        self.tracker = Tracker(
            Random("net-tracker-%d" % seed), clock=lambda: self.clock.now
        )
        self.peers: List[NetPeer] = []
        self._started = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_peer(
        self, is_seed: bool = False, config: Optional[PeerConfig] = None
    ) -> NetPeer:
        """Register one peer (before :meth:`start`); returns it."""
        if self._started:
            raise RuntimeError("cannot add peers to a started swarm")
        index = len(self.peers)
        observer = None
        if self.recorder is not None and (self.trace_all or index == 0):
            observer = TracingObserver(self.recorder)
        peer = NetPeer(
            self.metainfo,
            config or self.config,
            self.tracker,
            self.clock,
            Random("net-peer-%d-%d" % (self.seed, index)),
            is_seed=is_seed,
            observer=observer,
            metrics=self.metrics,
            host=self.host,
        )
        self.peers.append(peer)
        return peer

    def add_peers(self, seeds: int, leechers: int) -> None:
        for _ in range(seeds):
            self.add_peer(is_seed=True)
        for _ in range(leechers):
            self.add_peer(is_seed=False)

    @property
    def leechers(self) -> List[NetPeer]:
        return [peer for peer in self.peers if not peer.completed.is_set()]

    # ------------------------------------------------------------------
    # lifecycle phases (compose, or use run())
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind every server, then join peers in registration order, so
        each later peer discovers (and dials) every earlier one; inbound
        links make the mesh symmetric."""
        self._started = True
        for peer in self.peers:
            await peer.start()
        for peer in self.peers:
            await peer.join()

    async def wait(self, timeout: float) -> None:
        """Block until every leecher completed; TimeoutError otherwise."""
        waiters = [
            peer.completed.wait() for peer in self.peers if not peer.completed.is_set()
        ]
        if not waiters:
            return
        try:
            await asyncio.wait_for(asyncio.gather(*waiters), timeout)
        except asyncio.TimeoutError:
            stuck = [
                "%s (%d/%d pieces)"
                % (peer.address, peer.bitfield.count, peer.bitfield.num_pieces)
                for peer in self.peers
                if not peer.completed.is_set()
            ]
            raise asyncio.TimeoutError(
                "live swarm incomplete after %gs: %s" % (timeout, ", ".join(stuck))
            )

    async def shutdown(self) -> None:
        """Graceful teardown: every peer half-closes and drains, so
        in-flight bytes are counted on both endpoints (byte
        conservation), then observers finalize."""
        await asyncio.gather(*[peer.stop() for peer in self.peers])

    def kill_peer(self, address: str) -> NetPeer:
        """Abruptly crash the peer at *address* (RST on every link)."""
        for peer in self.peers:
            if peer.address == address:
                peer.crash()
                self.metrics.inc("fault.peer_killed")
                return peer
        raise KeyError("no live peer at %s" % address)

    # ------------------------------------------------------------------
    # one-shot driver
    # ------------------------------------------------------------------

    async def run(self, timeout: float = 60.0) -> LiveSwarmResult:
        """Start, wait up to *timeout* seconds, shut down.  A timeout is
        an outcome, not an error: the incomplete result comes back with
        :attr:`LiveSwarmResult.stuck` set and the trace closed."""
        stuck = None
        try:
            await self.start()
            try:
                await self.wait(timeout)
            except asyncio.TimeoutError as exc:
                stuck = str(exc)
        finally:
            await self.shutdown()
        result = self.result()
        result.stuck = stuck
        return result

    def run_sync(self, timeout: float = 60.0) -> LiveSwarmResult:
        """Synchronous wrapper (CLI / examples)."""
        return asyncio.run(self.run(timeout))

    def result(self) -> LiveSwarmResult:
        fingerprint = None
        if self.recorder is not None:
            fingerprint = self.recorder.close()
        result = LiveSwarmResult(
            duration=self.clock.now, trace_fingerprint=fingerprint
        )
        for peer in self.peers:
            address = peer.address or "?"
            result.addresses.append(address)
            if peer.became_seed_at is not None:
                result.completed_at[address] = peer.became_seed_at
            result.uploaded[address] = peer.total_uploaded
            result.downloaded[address] = peer.total_downloaded
        return result
