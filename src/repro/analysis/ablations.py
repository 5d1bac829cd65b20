"""The six ablation swarms of DESIGN §4 (A1-A6), each built in one place.

The ablations compare chokers, selectors and peer configurations that
are live objects, not serialisable ``RunOptions`` coordinates, so they
cannot run as campaign shards: each is a builder taking an RNG seed and
returning the plain numbers of every variant it ran.  The claims
registry (:mod:`repro.analysis.claims`) measures, checks and renders
them; ``examples/piece_selection_comparison.py`` and
``tests/test_paper_shapes.py`` call the same builders.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Dict, Tuple

from repro.analysis.entropy import summarize_entropy
from repro.analysis.graph import graph_stats, swarm_graph
from repro.analysis.replication import replication_series
from repro.coding.network_coding import CodingSwarm
from repro.core.choke import OldSeedChoker, SeedChoker, TitForTatChoker
from repro.core.fairness import jain_index
from repro.core.free_rider import FreeRiderChoker
from repro.core.rarest_first import (
    GlobalRarestSelector,
    RandomSelector,
    RarestFirstSelector,
    SequentialSelector,
)
from repro.instrumentation import Instrumentation
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import make_metainfo
from repro.sim.churn import flash_crowd, poisson_arrivals
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm

NAN = float("nan")

# -- A1: piece-selection strategies (motivates §I and §IV-A.4) --------------

A1_PIECES = 128
A1_PIECE_SIZE = 32 * KIB
A1_CROWD = 30
A1_SEED_UPLOAD = 24 * KIB
A1_DURATION = 1500.0
A1_STRATEGIES = (
    ("rarest-first", RarestFirstSelector),
    ("random", RandomSelector),
    ("sequential", SequentialSelector),
    ("global-rarest", GlobalRarestSelector),
)


def _piece_selection_run(selector_factory, steady: bool, rng_seed: int) -> dict:
    metainfo = make_metainfo(
        "ablation-a1", num_pieces=A1_PIECES, piece_size=A1_PIECE_SIZE,
        block_size=8 * KIB,
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=rng_seed, snapshot_interval=10.0))

    def make_selector():
        if selector_factory is GlobalRarestSelector:
            return GlobalRarestSelector(lambda: swarm.global_counts)
        return selector_factory()

    swarm.add_peer(config=PeerConfig(upload_capacity=A1_SEED_UPLOAD), is_seed=True)
    crowd_rng = Random(rng_seed ^ 0xC0FFEE)

    def crowd_kwargs():
        kwargs = {"selector": make_selector()}
        if steady:
            have = crowd_rng.sample(
                range(A1_PIECES),
                crowd_rng.randint(A1_PIECES // 20, A1_PIECES // 4),
            )
            kwargs["initial_bitfield"] = Bitfield(A1_PIECES, have=have)
        return kwargs

    flash_crowd(
        swarm,
        A1_CROWD,
        config_factory=lambda rng: PeerConfig(
            upload_capacity=rng.choice([8, 16, 24]) * KIB, seeding_time=60.0
        ),
        spread=20.0,
        kwargs_factory=crowd_kwargs,
    )
    trace = Instrumentation()
    swarm.add_peer(
        config=PeerConfig(upload_capacity=20 * KIB),
        selector=make_selector(),
        observer=trace,
    )
    trace.start_sampling()
    result = swarm.run(A1_DURATION)
    trace.finalize()
    entropy = summarize_entropy(trace)
    series = replication_series(trace, leecher_state_only=True)
    gaps = [high - low for low, high in zip(series.min_copies, series.max_copies)]
    return {
        "ab": entropy.median_local,
        "cd": entropy.median_remote,
        "gap": sum(gaps) / len(gaps) if gaps else NAN,
        "mean_dl": result.mean_download_time() or NAN,
    }


def _coding_run(rng_seed: int) -> float:
    """The idealised network-coding comparator on the same population."""
    swarm = CodingSwarm(
        total_size=A1_PIECES * A1_PIECE_SIZE, config=SwarmConfig(seed=rng_seed)
    )
    swarm.add_peer("seed", PeerConfig(upload_capacity=A1_SEED_UPLOAD), is_seed=True)
    for index in range(A1_CROWD + 1):
        swarm.add_peer(
            "peer%d" % index,
            PeerConfig(upload_capacity=[8, 16, 24][index % 3] * KIB),
        )
    return swarm.run(A1_DURATION).mean_download_time() or NAN


def piece_selection_swarms(rng_seed: int = 19) -> dict:
    """The same mid-size swarm under every strategy, in both regimes."""
    out: dict = {
        regime: {
            name: _piece_selection_run(factory, steady, rng_seed)
            for name, factory in A1_STRATEGIES
        }
        for regime, steady in (("steady", True), ("transient", False))
    }
    out["coding_mean_dl"] = _coding_run(rng_seed)
    return out


# -- A2: new vs old seed-state choke algorithm (§IV-B.3) --------------------


def seed_choke_service(
    choker_factory: Callable, rng_seed: int, free_rider: bool = True
) -> Tuple[Dict[str, float], float]:
    """(unchoked rounds per remote peer, the free rider's byte share).

    An instrumented seed serves heterogeneous leechers (three with
    uncapped downloads, six capped) and, unless ``free_rider`` is off,
    one fast free rider.  Unchoked rounds are the *service time* the
    seed grants each leecher; the content is large enough that nobody
    completes during the window, so every leecher stays interested
    throughout and two chokers are compared on identical demand.
    """
    metainfo = make_metainfo(
        "ablation-a2", num_pieces=512, piece_size=4 * KIB, block_size=1 * KIB
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=rng_seed))
    trace = Instrumentation()
    swarm.add_peer(
        config=PeerConfig(upload_capacity=8 * KIB),
        is_seed=True,
        seed_choker=choker_factory(),
        observer=trace,
    )
    trace.start_sampling()
    rider = None
    if free_rider:
        rider = swarm.add_peer(
            config=PeerConfig(upload_capacity=0.0),
            leecher_choker=FreeRiderChoker(),
            seed_choker=FreeRiderChoker(),
        )
    # Heterogeneous download capacities: under the old (rate-ranked)
    # algorithm the three uncapped peers monopolise the seed.
    for index in range(9):
        download = None if index < 3 else 1 * KIB
        swarm.add_peer(
            config=PeerConfig(upload_capacity=256.0, download_capacity=download)
        )
    swarm.run(600)
    trace.finalize()
    rounds = {
        address: float(record.unchoked_rounds_seed)
        for address, record in trace.records.items()
    }
    service = {
        address: record.uploaded_seed_state
        for address, record in trace.records.items()
    }
    total = sum(service.values())
    rider_bytes = service.get(rider.address, 0.0) if rider else 0.0
    return rounds, (rider_bytes / total if total else 0.0)


def seed_choke_swarms(rng_seed: int = 47) -> dict:
    out = {}
    for name, factory in (("new", SeedChoker), ("old", OldSeedChoker)):
        rounds, rider_share = seed_choke_service(factory, rng_seed)
        served = sum(rounds.values())
        out[name] = {
            "rounds_jain": jain_index(list(rounds.values())),
            "rider_share": rider_share,
            "top3_rounds_share": (
                sum(sorted(rounds.values(), reverse=True)[:3]) / served
                if served
                else 0.0
            ),
        }
    return out


# -- A3: choke algorithm vs bit-level tit-for-tat (§IV-B.1) -----------------

A3_PIECES = 192
A3_BLOCK = 1 * KIB


def _tft_run(leecher_choker_factory, rng_seed: int) -> dict:
    metainfo = make_metainfo(
        "ablation-a3", num_pieces=A3_PIECES, piece_size=4 * KIB, block_size=A3_BLOCK
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=rng_seed))
    rng = Random(rng_seed ^ 0xABBA)
    # A small seed: most service capacity lives on the leechers, so the
    # leecher-side peer-selection policy is what decides outcomes.
    swarm.add_peer(
        config=PeerConfig(upload_capacity=2 * KIB), is_seed=True,
        seed_choker=SeedChoker(),
    )

    def leecher_config(r):
        return PeerConfig(upload_capacity=4 * KIB, seeding_time=30.0)

    # A reciprocating population met mid-life, sustained by arrivals so
    # the leecher pool never collapses into all-seeds.
    for __ in range(16):
        have = rng.sample(range(A3_PIECES), rng.randint(20, 110))
        swarm.add_peer(
            config=leecher_config(rng),
            leecher_choker=leecher_choker_factory(),
            initial_bitfield=Bitfield(A3_PIECES, have=have),
        )
    poisson_arrivals(
        swarm,
        rate=0.08,
        duration=4000.0,
        config_factory=leecher_config,
        rng=Random(rng_seed ^ 0xD1CE),
        kwargs_factory=lambda: {"leecher_choker": leecher_choker_factory()},
    )
    # The asymmetric leecher: tiny upload, unconstrained download.
    asymmetric = swarm.add_peer(
        config=PeerConfig(upload_capacity=256.0),
        leecher_choker=leecher_choker_factory(),
    )
    # A free rider for the robustness comparison.
    rider = swarm.add_peer(
        config=PeerConfig(upload_capacity=0.0),
        leecher_choker=FreeRiderChoker(),
        seed_choker=FreeRiderChoker(),
    )
    result = swarm.run(4000)
    return {
        "asymmetric_done": result.completions.get(asymmetric.address),
        "rider_done": result.completions.get(rider.address),
        "mean_dl": result.mean_download_time(),
    }


def tit_for_tat_swarms(rng_seed: int = 59) -> dict:
    return {
        "choke": _tft_run(lambda: None, rng_seed),
        "tft": _tft_run(
            lambda: TitForTatChoker(deficit_threshold=2 * A3_BLOCK), rng_seed
        ),
    }


# -- A4: rarest first's auxiliary policies (§II-C.1) ------------------------

A4_PIECES = 96


def _policies_run(strict_priority: bool, endgame: bool, rng_seed: int) -> dict:
    metainfo = make_metainfo(
        "ablation-a4", num_pieces=A4_PIECES, piece_size=16 * KIB,
        block_size=2 * KIB,
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=rng_seed, snapshot_interval=2.0))
    rng = Random(rng_seed ^ 0xFEED)
    # A deliberately slow seed plus moderate leechers: the last blocks
    # often sit behind a slow uploader, which is what end game punishes.
    swarm.add_peer(config=PeerConfig(upload_capacity=6 * KIB), is_seed=True)
    for __ in range(10):
        have = rng.sample(range(A4_PIECES), rng.randint(10, 60))
        swarm.add_peer(
            config=PeerConfig(upload_capacity=rng.choice([1, 2, 8]) * KIB),
            initial_bitfield=Bitfield(A4_PIECES, have=have),
        )
    trace = Instrumentation()
    local = swarm.add_peer(
        config=PeerConfig(
            upload_capacity=20 * KIB,
            strict_priority=strict_priority,
            endgame_enabled=endgame,
        ),
        observer=trace,
    )
    trace.start_sampling()
    result = swarm.run(3000)
    trace.finalize()
    arrivals = sorted(t for t, *__ in trace.block_arrivals)
    tail = arrivals[-1] - arrivals[max(0, len(arrivals) - 20)] if arrivals else None
    partials = [s.active_partial_pieces for s in trace.snapshots if not s.is_seed]
    return {
        "done": result.download_time(local.address),
        "tail_20_blocks": tail,
        "max_partial_pieces": max(partials) if partials else 0,
        "endgame_entered": trace.endgame_at is not None,
    }


def policy_swarms(rng_seed: int = 67) -> dict:
    return {
        "baseline": _policies_run(True, True, rng_seed),
        "no-strict": _policies_run(False, True, rng_seed),
        "no-endgame": _policies_run(True, False, rng_seed),
        "neither": _policies_run(False, False, rng_seed),
    }


# -- A5: super-seeding vs the plain seed in transient state (§IV-A.4) -------


def _super_seeding_run(super_seeding: bool, rng_seed: int) -> dict:
    metainfo = make_metainfo(
        "ablation-a5", num_pieces=96, piece_size=16 * KIB, block_size=4 * KIB
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=rng_seed))
    seed = swarm.add_peer(
        config=PeerConfig(upload_capacity=12 * KIB, super_seeding=super_seeding),
        is_seed=True,
    )
    flash_crowd(
        swarm,
        30,
        config_factory=lambda rng: PeerConfig(
            upload_capacity=rng.choice([10, 20, 50]) * KIB
        ),
        spread=20.0,
    )
    samples = {}
    swarm.on_tick(lambda now: samples.__setitem__(now, seed.total_uploaded))
    result = swarm.run(2500)
    first_copy = result.first_full_copy_at
    uploaded_at_first_copy = None
    if first_copy is not None:
        uploaded_at_first_copy = min(
            (value for time, value in samples.items() if time >= first_copy),
            default=seed.total_uploaded,
        )
    content = metainfo.geometry.total_size
    return {
        "first_copy": first_copy,
        # 1.0 content = zero duplicate service, the coding ideal.
        "copies_served": (
            uploaded_at_first_copy / content if uploaded_at_first_copy else None
        ),
        "mean_dl": result.mean_download_time(),
    }


def super_seeding_swarms(rng_seed: int = 71) -> dict:
    return {
        "plain": _super_seeding_run(False, rng_seed),
        "super": _super_seeding_run(True, rng_seed),
    }


# -- A6: peer-set size, real torrents (80) vs simulations (15) (§V) ---------


def _peer_set_run(
    max_peer_set: int, max_initiated: int, min_peer_set: int, rng_seed: int
) -> dict:
    metainfo = make_metainfo(
        "ablation-a6", num_pieces=96, piece_size=16 * KIB, block_size=4 * KIB
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=rng_seed))

    def peer_config(upload):
        return PeerConfig(
            upload_capacity=upload,
            max_peer_set=max_peer_set,
            max_initiated=max_initiated,
            min_peer_set=min_peer_set,
        )

    swarm.add_peer(config=peer_config(24 * KIB), is_seed=True)
    flash_crowd(
        swarm,
        60,
        config_factory=lambda rng: peer_config(rng.choice([10, 20, 50]) * KIB),
        spread=20.0,
    )
    trace = Instrumentation()
    swarm.add_peer(config=peer_config(20 * KIB), observer=trace)
    trace.start_sampling()
    # Measure the graph mid-download, while the whole crowd is still
    # leeching (seeds close seed-to-seed links, emptying a finished graph).
    graph = {}
    swarm.simulator.schedule(
        60.0, lambda: graph.update(stats=graph_stats(swarm_graph(swarm)))
    )
    result = swarm.run(2500)
    trace.finalize()
    return {
        "diameter": graph["stats"].diameter,
        "average_path_length": graph["stats"].average_path_length,
        "mean_degree": graph["stats"].mean_degree,
        "ab": summarize_entropy(trace).median_local,
        "mean_dl": result.mean_download_time() or NAN,
    }


def peer_set_swarms(rng_seed: int = 83) -> dict:
    """The same transient torrent with mainline's defaults (peer set 80,
    40 initiated) and the small sets of earlier simulation studies."""
    return {
        "mainline-80": _peer_set_run(80, 40, 20, rng_seed),
        "small-15": _peer_set_run(15, 7, 4, rng_seed),
    }
