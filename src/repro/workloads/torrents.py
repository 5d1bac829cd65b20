"""The paper's Table I torrents, scaled for laptop-size simulation.

Each of the 26 monitored torrents is reproduced as a
:class:`TorrentScenario` preserving what drives the paper's results:

* the seeds/leechers *ratio* and whether the torrent is in transient
  state (single slow initial seed that has not yet pushed a full copy)
  or steady state (every piece replicated at least twice);
* the relative content size (piece count scales with the paper's MB);
* the default protocol parameters of §III-C for the local peer
  (20 kB/s upload cap, peer set of 80, 4 unchoke slots, ...).

Populations are divided by a per-torrent scale factor so the largest
torrents stay below ~90 simulated peers; entropy, replication dynamics
and fairness are ratio phenomena and survive this scaling (DESIGN.md §2).

Steady-state torrents are built the way the paper *met* them: the local
peer joins an already-running torrent, so the initial leechers hold
random partial bitfields (every piece already replicated).  Transient
torrents start from scratch: one slow initial seed, empty leechers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from random import Random
from typing import Dict, List, Optional

from repro.instrumentation.logger import Instrumentation
from repro.instrumentation.trace import TraceRecorder, TracingObserver
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import Metainfo
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.observer import FanoutObserver
from repro.sim.peer import Peer
from repro.sim.swarm import Swarm
from repro.workloads.capacities import (
    CapacityDistribution,
    INTERNET_2005,
)

MAX_SIMULATED_PEERS = 90
DEFAULT_PIECE_SIZE = 256 * KIB
DEFAULT_BLOCK_SIZE = 64 * KIB  # 4 blocks/piece keeps runs fast; figure-8
# benches override this with finer blocks.


@dataclass(frozen=True)
class TorrentScenario:
    """One Table-I torrent, with both paper and scaled parameters."""

    torrent_id: int
    paper_seeds: int
    paper_leechers: int
    paper_max_peer_set: int
    paper_size_mb: int
    transient: bool
    """True for the torrents the paper identifies as being in a startup
    (transient) phase: a single slow source, rare pieces present."""

    seeds: int
    leechers: int
    num_pieces: int
    piece_size: int = DEFAULT_PIECE_SIZE
    block_size: int = DEFAULT_BLOCK_SIZE
    duration: float = 3000.0
    initial_seed_upload: float = 24.0 * KIB
    """Upload capacity of the initial seed; the paper estimates ~36 kB/s
    for torrent 8.  Transient scenarios keep this deliberately low so the
    source is the bottleneck."""

    local_join_time: float = 30.0
    almost_complete_joiners: int = 0
    """Peers that join holding almost every piece (the §IV-A.1 artifact)."""

    free_riders: int = 0
    arrival_rate: float = 0.0
    """Poisson arrival rate (peers/s) of fresh leechers during the run."""

    @property
    def paper_ratio(self) -> float:
        if self.paper_leechers == 0:
            return math.inf
        return self.paper_seeds / self.paper_leechers

    @property
    def scaled_ratio(self) -> float:
        if self.leechers == 0:
            return math.inf
        return self.seeds / self.leechers

    @property
    def content_size(self) -> int:
        return self.num_pieces * self.piece_size


def _scale_population(seeds: int, leechers: int) -> (int, int):
    total = seeds + leechers
    if total <= MAX_SIMULATED_PEERS:
        return seeds, leechers
    factor = total / MAX_SIMULATED_PEERS
    scaled_seeds = max(1 if seeds > 0 else 0, round(seeds / factor))
    scaled_leechers = max(2, round(leechers / factor))
    return scaled_seeds, scaled_leechers


def _scale_pieces(size_mb: int) -> int:
    """Sub-linear (cube-root) mapping of content size to piece count.

    Keeps the biggest contents distinguishable (the linear map clamps
    everything above ~540 MB to the same count) while bounding runtime.
    """
    return max(48, min(220, round(16.0 * size_mb ** (1.0 / 3.0))))


def _scenario(
    torrent_id: int,
    seeds: int,
    leechers: int,
    max_peer_set: int,
    size_mb: int,
    transient: bool,
    **overrides,
) -> TorrentScenario:
    scaled_seeds, scaled_leechers = _scale_population(seeds, leechers)
    defaults = dict(
        torrent_id=torrent_id,
        paper_seeds=seeds,
        paper_leechers=leechers,
        paper_max_peer_set=max_peer_set,
        paper_size_mb=size_mb,
        transient=transient,
        seeds=scaled_seeds,
        leechers=scaled_leechers,
        num_pieces=_scale_pieces(size_mb),
        duration=4000.0 if transient else 2600.0,
        # Real torrents are continuously refreshed by new leechers; a
        # sustaining arrival flow keeps the population in rough
        # equilibrium for the duration of the experiment.
        arrival_rate=(
            scaled_leechers / 3000.0 if transient else scaled_leechers / 1100.0
        ),
    )
    defaults.update(overrides)
    return TorrentScenario(**defaults)


# The 26 torrents of Table I.  The transient flag follows §IV:
# torrents 1, 2, 4, 5, 6, 8 and 9 are in a startup phase (low entropy on
# figure 1's top graph, single slow source); the others are steady.
TABLE1: List[TorrentScenario] = [
    _scenario(1, 0, 66, 60, 700, True),
    _scenario(2, 1, 2, 3, 580, True, almost_complete_joiners=1),
    _scenario(3, 1, 29, 34, 350, False),
    _scenario(4, 1, 40, 75, 800, True, almost_complete_joiners=1),
    _scenario(5, 1, 50, 60, 1419, True),
    _scenario(6, 1, 130, 80, 820, True),
    _scenario(7, 1, 713, 80, 700, False),
    _scenario(8, 1, 861, 80, 3000, True),
    _scenario(9, 1, 1055, 80, 2000, True),
    _scenario(10, 1, 1207, 80, 348, False, almost_complete_joiners=1),
    _scenario(11, 1, 1411, 80, 710, False),
    _scenario(12, 3, 612, 80, 1413, False),
    _scenario(13, 9, 30, 35, 350, False),
    _scenario(14, 20, 126, 80, 184, False),
    _scenario(15, 30, 230, 80, 820, False),
    _scenario(16, 50, 18, 40, 600, False),
    _scenario(17, 102, 342, 80, 200, False),
    _scenario(18, 115, 19, 55, 430, False, almost_complete_joiners=1),
    _scenario(19, 160, 5, 17, 6, False),
    _scenario(20, 177, 4657, 80, 2000, False),
    _scenario(21, 462, 180, 80, 2600, False, almost_complete_joiners=1),
    _scenario(22, 514, 1703, 80, 349, False),
    _scenario(23, 1197, 4151, 80, 349, False),
    _scenario(24, 3697, 7341, 80, 349, False),
    _scenario(25, 11641, 5418, 80, 350, False),
    _scenario(26, 12612, 7052, 80, 140, False, almost_complete_joiners=1),
]


def scenario_by_id(torrent_id: int) -> TorrentScenario:
    for scenario in TABLE1:
        if scenario.torrent_id == torrent_id:
            return scenario
    raise KeyError("no Table-I torrent with id %d" % torrent_id)


@dataclass(frozen=True)
class RunOptions:
    """The serialisable coordinates of one Table-I run.

    This is the one list: scenario variants, shard payloads, cache keys,
    the campaign-level merge and the incremental differ walk
    ``dataclasses.fields(RunOptions)`` in declaration order, and
    :func:`resolve_scenario` and :func:`build_experiment` are the places
    a coordinate is applied.  Every default means "as the paper ran it".
    A run varies only what a claim varies: each coordinate is set by a
    scenario variant or by a caller in ``src/``, and
    ``tests/test_run_options.py`` fails on a field that nothing sets or
    that :func:`resolve_scenario` and :func:`build_experiment` both
    ignore.  Every coordinate is in every payload, so adding one changes
    every shard's cache key.
    """

    duration: Optional[float] = None
    """Override the scenario's simulated run length (seconds)."""

    block_size: Optional[int] = None
    """Override the torrent's block size (bytes)."""

    def __post_init__(self) -> None:
        # Config errors fail where the run is described, before any
        # worker is spawned or any event simulated.
        if self.duration is not None and not (
            math.isfinite(self.duration) and self.duration > 0
        ):
            raise ValueError("duration must be finite and > 0, not %r" % self.duration)
        if self.block_size is not None and self.block_size < 1:
            raise ValueError("block_size must be >= 1, not %r" % self.block_size)

    def non_default(self) -> Dict:
        """The coordinates that differ from the paper's run, in order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != f.default
        }

    def over(self, base: "RunOptions") -> "RunOptions":
        """*base* with this object's non-default coordinates laid over
        it: the explicit value wins, the base is the default."""
        return replace(base, **self.non_default())

    def as_payload(self) -> Dict:
        """JSON-safe dict of every coordinate, default or not."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_payload(cls, payload: Dict) -> "RunOptions":
        """Rebuild from :meth:`as_payload` output (other keys ignored)."""
        return cls(
            **{f.name: payload[f.name] for f in fields(cls) if f.name in payload}
        )


def resolve_scenario(torrent_id: int, options: RunOptions) -> TorrentScenario:
    """The Table-I scenario with the run's overrides applied."""
    scenario = scenario_by_id(torrent_id)
    if options.duration is None:
        return scenario
    return scaled_copy(scenario, duration=options.duration)


def scaled_copy(scenario: TorrentScenario, **overrides) -> TorrentScenario:
    """A copy of *scenario* with fields replaced (for ablations)."""
    return replace(scenario, **overrides)


@dataclass
class ExperimentHarness:
    """One built experiment: the swarm, its instrumented local peer, and
    the trace recorder, ready to :meth:`run`."""

    scenario: TorrentScenario
    swarm: Swarm
    local_peer: Peer
    instrumentation: Instrumentation
    tracer: Optional[TracingObserver] = None
    """Structured-trace emitter for the local peer, when tracing is on."""

    def run(self, duration: Optional[float] = None) -> Instrumentation:
        self.swarm.run(duration if duration is not None else self.scenario.duration)
        self.instrumentation.finalize()
        if self.tracer is not None:
            self.tracer.finalize(self.swarm.simulator.now)
        return self.instrumentation


def _partial_bitfield(num_pieces: int, fraction: float, rng: Random) -> Bitfield:
    count = max(0, min(num_pieces - 1, round(num_pieces * fraction)))
    have = rng.sample(range(num_pieces), count)
    return Bitfield(num_pieces, have=have)


def build_experiment(
    scenario: TorrentScenario,
    seed: int = 1,
    options: RunOptions = RunOptions(),
    capacities: Optional[CapacityDistribution] = None,
    swarm_config: Optional[SwarmConfig] = None,
    client_mix=None,
    trace_recorder: Optional[TraceRecorder] = None,
    trace_all_peers: bool = False,
) -> ExperimentHarness:
    """Materialise one Table-I scenario into a runnable experiment.

    The one place a described run is built: *scenario* carries the
    coordinates :func:`resolve_scenario` applied, and every other
    :class:`RunOptions` coordinate is applied here, to the whole swarm.
    The local (instrumented) peer otherwise uses the paper's defaults.
    A given *swarm_config* is read, never written to.  Pass
    ``client_mix`` (e.g.
    :data:`repro.workloads.clients.CLIENT_MIX_2005`) to give the
    population heterogeneous client IDs, as the paper's §III-D observed
    them; the mix draws from a dedicated RNG so
    enabling it does not perturb the scenario's other random choices.

    ``trace_recorder`` attaches a structured-trace emitter next to the
    classic instrumentation on the local peer (fanned out, so both see
    identical events); ``trace_all_peers`` additionally traces every
    remote peer — including churn arrivals — into the same recorder.
    Tracing draws no randomness, so a traced run's simulation outcome is
    identical to an untraced one with the same seed.
    """
    capacities = capacities or INTERNET_2005
    client_rng = Random(seed ^ 0xC11E)
    metainfo = Metainfo.synthetic(
        "table1-torrent-%d" % scenario.torrent_id,
        scenario.content_size,
        piece_size=scenario.piece_size,
        block_size=options.block_size or scenario.block_size,
    )
    config = swarm_config or SwarmConfig(seed=seed, duration=scenario.duration)
    swarm = Swarm(metainfo, config)
    if trace_recorder is not None and trace_all_peers:
        # Installed before any peer is added, so the initial population,
        # scheduled arrivals and churn joiners are all covered.
        swarm.observer_factory = lambda: TracingObserver(trace_recorder)
    rng = Random(seed ^ 0x5EED)

    def leecher_config(upload: float, download: Optional[float]) -> PeerConfig:
        client_id = "M4-0-2"
        if client_mix is not None:
            from repro.workloads.clients import sample_client_id

            client_id = sample_client_id(client_rng, client_mix)
        return PeerConfig(
            upload_capacity=upload,
            download_capacity=download,
            seeding_time=rng.expovariate(1.0 / 400.0),
            client_id=client_id,
        )

    # Initial seeds.  The first one is "the initial seed" of transient
    # scenarios and gets the scenario's (slow) capacity; extra seeds get
    # population capacities.
    for index in range(scenario.seeds):
        if index == 0:
            upload = scenario.initial_seed_upload
            download = None
        else:
            upload, download = capacities.sample(rng)
        swarm.add_peer(
            config=PeerConfig(upload_capacity=upload, download_capacity=download),
            is_seed=True,
        )

    # Initial leechers.  Steady-state torrents are met mid-life: leechers
    # already hold random partial bitfields, so every piece is replicated.
    # Transient torrents start empty behind a single slow source.
    for index in range(scenario.leechers):
        upload, download = capacities.sample(rng)
        bitfield = None
        if not scenario.transient and scenario.seeds > 0:
            bitfield = _partial_bitfield(
                metainfo.geometry.num_pieces, rng.uniform(0.1, 0.6), rng
            )
        if scenario.transient and scenario.torrent_id == 1 and index == 0:
            # Torrent 1 has no seed at all: one leecher holds most of the
            # content and the rest of the pieces are simply missing.
            bitfield = _partial_bitfield(metainfo.geometry.num_pieces, 0.92, rng)
        swarm.schedule_arrival(
            rng.uniform(0.0, 20.0),
            config=leecher_config(upload, download),
            initial_bitfield=bitfield,
        )

    for __ in range(scenario.almost_complete_joiners):
        upload, download = capacities.sample(rng)
        swarm.schedule_arrival(
            rng.uniform(
                scenario.local_join_time, scenario.local_join_time + 600.0
            ),
            config=leecher_config(upload, download),
            initial_bitfield=_partial_bitfield(
                metainfo.geometry.num_pieces, 0.97, rng
            ),
        )

    for __ in range(scenario.free_riders):
        from repro.core.free_rider import FreeRiderChoker

        __unused, download = capacities.sample(rng)
        swarm.schedule_arrival(
            rng.uniform(0.0, 20.0),
            config=PeerConfig(upload_capacity=0.0, download_capacity=download),
            leecher_choker=FreeRiderChoker(),
            seed_choker=FreeRiderChoker(),
        )

    if scenario.arrival_rate > 0:
        from repro.sim.churn import poisson_arrivals

        poisson_arrivals(
            swarm,
            scenario.arrival_rate,
            scenario.duration + scenario.local_join_time,
            config_factory=lambda r: leecher_config(*capacities.sample(r)),
            rng=Random(seed ^ 0xA221),
        )

    # The instrumented local peer: paper defaults (20 kB/s upload cap,
    # unconstrained download).
    instrumentation = Instrumentation()
    tracer = (
        TracingObserver(trace_recorder) if trace_recorder is not None else None
    )
    local_observer = (
        instrumentation
        if tracer is None
        else FanoutObserver(instrumentation, tracer)
    )
    local_holder: Dict[str, Peer] = {}

    def add_local() -> None:
        local_holder["peer"] = swarm.add_peer(
            config=PeerConfig(),
            observer=local_observer,
        )
        instrumentation.start_sampling()

    swarm.simulator.schedule(scenario.local_join_time, add_local)
    # Run to the join instant so the harness can expose the local peer.
    swarm.simulator.run_until(scenario.local_join_time)
    return ExperimentHarness(
        scenario=scenario,
        swarm=swarm,
        local_peer=local_holder["peer"],
        instrumentation=instrumentation,
        tracer=tracer,
    )
