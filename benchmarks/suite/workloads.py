"""The seven benchmark workloads.

Every workload is a class with the same small life cycle, driven by
``child.py`` inside a fresh process:

* ``setup()`` once — builds whatever survives across passes (a tracker
  registry, a live server).  Its cost is part of ``setup_s``.
* ``prepare()`` before every pass, untimed — fresh per-pass state (a new
  swarm, an empty cache directory).  The first one is part of
  ``setup_s`` too.
* ``run_pass(clock)`` — the timed body.  It times its own phases on the
  pass clock (``metrics.PassClock``: ``now()`` to read time,
  ``breathe()`` wherever a calibration reading may interrupt) and returns
  ``wall_s`` (sum of the timed phases), ``work`` and ``headline_s`` (the
  headline phase, whose rate is ``work_per_s``), the named phase rates,
  and whatever ``check()`` needs.
* ``check(outcome)`` untimed — the output checks; returns the number of
  operations attempted, the failures, a fingerprint that must repeat
  across passes and children, and the layer counters a traced run adds.
* ``teardown()`` once.

A pass is a fixed amount of work; how many passes run is what the
``--seconds`` budget decides.  Inputs are a pure function of the seed.
Populations are *stratified* (fixed multisets of capacities dealt in a
seed-shuffled order) so that ten seeds give ten different swarms whose
aggregate work is nearly the same: with i.i.d. heavy-tailed capacities
the number of 400 KiB/s peers alone moved ``blocks_per_s`` by 30%
between seeds, which would drown any code change.

Sizes are the ISSUE's workloads scaled to fit a ~1.7 s pass (see
README.md, "Sizing"); ``tiny`` is the ``--selftest`` size.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from statistics import median
from typing import Dict, List, Optional

from tracing import Tracer, maybe_span

KIB = 1024

SIZES: Dict[str, Dict[str, dict]] = {
    "mega_swarm": {
        # 1 seed + 120 leechers arriving in the first 24 sim-s, run
        # until 6500 one-block pieces have moved (~50 sim-s).  Every
        # simulator workload ends at a block count, not at a sim time:
        # how far a swarm gets in a fixed window depends on early luck
        # (blocks moved varied 2x between seeds), how long it takes to
        # move a fixed number of blocks hardly does.  Sizes aim at a
        # ~1.7 s pass, so that two fit into a child's 4 s budget.
        "full": dict(leechers=120, pieces=2048, arrive=24.0,
                     target_blocks=6500, max_sim=200.0),
        "tiny": dict(leechers=12, pieces=64, arrive=5.0,
                     target_blocks=150, max_sim=200.0),
    },
    "paper_steady": {
        "full": dict(torrent=7, target_blocks=11000, max_sim=800.0),
        "tiny": dict(torrent=19, target_blocks=600, max_sim=800.0),
    },
    "flash_crowd": {
        "full": dict(burst=40, burst_spread=30.0, arrival_rate=0.25,
                     pieces=128, target_blocks=19000, max_sim=800.0,
                     seed_upload=256 * KIB, interval=20.0),
        "tiny": dict(burst=6, burst_spread=10.0, arrival_rate=0.05,
                     pieces=16, target_blocks=300, max_sim=800.0,
                     seed_upload=256 * KIB, interval=10.0),
    },
    "trace_roundtrip": {
        "full": dict(torrent=13, target_blocks=4500, max_sim=800.0),
        "tiny": dict(torrent=19, target_blocks=500, max_sim=800.0),
    },
    "campaign": {
        "full": dict(torrents=(2, 3, 13, 19), replicates=2, duration=25.0,
                     warm_rounds=3, pool_workers=2),
        "tiny": dict(torrents=(2, 19), replicates=1, duration=20.0,
                     warm_rounds=1, pool_workers=1),
    },
    "tracker_service": {
        "full": dict(swarms=16, peers_per_swarm=500, uniform=24000,
                     rarity=2400, num_want=25, shards=8),
        "tiny": dict(swarms=2, peers_per_swarm=40, uniform=300,
                     rarity=60, num_want=25, shards=2),
    },
    "tracker_wire": {
        "full": dict(swarms=4, peers_per_swarm=500, http=800, udp=1600,
                     num_want=50),
        "tiny": dict(swarms=1, peers_per_swarm=60, http=30, udp=60,
                     num_want=50),
    },
}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


class StratifiedCapacities:
    """Deals (upload, download) pairs from a fixed multiset.

    A drop-in for :class:`repro.workloads.capacities.CapacityDistribution`
    (``build_experiment`` only calls ``sample``): every hand of
    ``len(deck)`` peers holds each class in its exact proportion, in an
    order shuffled by the benchmark seed.
    """

    def __init__(self, deck: List[tuple], seed: int):
        self._deck = list(deck)
        self._rng = Random(seed ^ 0xDEC4)
        self._hand: List[tuple] = []

    def sample(self, rng: Random):
        if not self._hand:
            self._hand = list(self._deck)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def internet_2005_deck() -> List[tuple]:
    """INTERNET_2005's classes, twenty peers to a hand."""
    from repro.workloads.capacities import INTERNET_2005

    deck: List[tuple] = []
    for capacity_class in INTERNET_2005.classes:
        deck += [(capacity_class.upload, capacity_class.download)] * round(
            capacity_class.weight * 20
        )
    return deck


UPLOAD_DECK = [(cap * KIB, None) for cap in (32, 64, 96, 128)]


def jittered_grid(rng: Random, count: int, spacing: float) -> List[float]:
    """*count* arrival times, one per *spacing*-wide slot, uniformly
    placed inside its slot: the seed moves every arrival, the arrival
    count and rate stay what the workload says (a Poisson stream's
    count alone varies by 10% at this size)."""
    return [(slot + rng.random()) * spacing for slot in range(count)]


#: Population seed of the two Table-I workloads (``Table1Workload``).  ``build_experiment``
#: draws initial bitfields and seeding times i.i.d. from one RNG, which
#: moved per-block cost by 8% between seeds; the benchmark seed drives
#: the swarm's run-time randomness (``SwarmConfig.seed``) instead.
TABLE1_POPULATION_SEED = 7


class Workload:
    """Base class: see the module docstring for the life cycle."""

    name = ""
    work_unit = ""
    carries_state = False
    """True when a pass continues from the previous pass's state (a
    tracker registry) instead of starting from scratch: pass *k* is then
    only comparable with pass *k* of another child."""

    warmup_passes = 0
    """Untimed passes run as part of set-up.  The tracker workloads'
    first passes are not like the later ones (pass 1, 2, 3 of
    ``tracker_wire`` read 0.52, 0.61, 0.55 s and every later one 0.47 s),
    and how many passes fit in a budget depends on the host's mood, so
    without a warm-up the median would too."""

    def __init__(self, seed: int, size: str, workdir: Path,
                 tracer: Optional[Tracer]):
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.workdir = workdir
        self.tracer = tracer
        self.passes = 0

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run_pass(self, clock) -> dict:
        raise NotImplementedError

    def check(self, outcome: dict) -> dict:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# simulator workloads
# ---------------------------------------------------------------------------


class SimWorkload(Workload):
    """What the four simulator workloads share: run a swarm until a block
    target, report block rates, check conservation, fingerprint the end
    state.  ``prepare()`` sets ``swarm``, ``block_size`` and, when the
    swarm was already advanced while being built, ``timed_from``."""

    work_unit = "blocks"
    swarm = None
    block_size = 0
    timed_from = 0.0
    """Simulated time at which the timed body starts."""

    @property
    def target_bytes(self) -> float:
        return self.params["target_blocks"] * self.block_size

    def simulate(self, clock, swarm=None) -> None:
        """One simulated second at a time until the block target."""
        swarm = swarm or self.swarm
        target, limit = self.target_bytes, self.params["max_sim"]
        result, simulator = swarm.result, swarm.simulator
        while result.bytes_moved < target and simulator.now < limit:
            swarm.run(1.0)
            if clock is not None:
                clock.breathe()

    def sim_rates(self, wall: float):
        """(blocks moved, the two simulator phase rates over *wall*)."""
        result = self.swarm.result
        blocks = result.bytes_moved / self.block_size
        # sum over peers of (leave-or-end - join)
        end = self.swarm.simulator.now
        peer_seconds = sum(
            result.departures.get(address, end) - joined
            for address, joined in result.join_times.items()
        )
        return blocks, {
            "blocks_per_s": blocks / wall,
            "peer_sim_s_per_s": peer_seconds / wall,
        }

    def sim_verdict(self, failures: List[str], *witnesses: str) -> dict:
        """The checks every simulator pass gets, plus its fingerprint:
        sha256 over per-peer piece sets, blocks moved, completion and
        departure times and any extra *witnesses* (a trace fingerprint,
        a stability verdict)."""
        swarm, result = self.swarm, self.swarm.result
        moved = result.bytes_moved
        tolerance = 1e-6 * max(1.0, moved)
        for label, table in (("uploaded", result.bytes_uploaded),
                             ("downloaded", result.bytes_downloaded)):
            total = sum(table.values())
            if abs(total - moved) > tolerance:
                failures.append("bytes %s %r != bytes moved %r" % (label, total, moved))
        if moved < self.target_bytes:
            failures.append("block target not reached by sim t=%s" % swarm.simulator.now)
        ops = 3
        digest = hashlib.sha256()
        for address in sorted(swarm.peers):
            peer = swarm.peers[address]
            if address in result.completions:
                # (a peer that completed and departed took its bitfield along)
                ops += 1
                if not peer.bitfield.is_complete():
                    failures.append("%s completed with a partial bitfield" % address)
            digest.update(repr((address, sorted(peer.bitfield.have_indices()))).encode())
        digest.update(repr(int(moved // self.block_size)).encode())
        digest.update(repr(sorted(result.completions.items())).encode())
        digest.update(repr(sorted(result.departures.items())).encode())
        for witness in witnesses:
            digest.update(witness.encode())
        return {
            "ops": ops,
            "failures": failures,
            "fingerprint": digest.hexdigest(),
            "extras": {
                "sim.engine.events": swarm.simulator.events_processed,
                "sim.swarm.joins": len(result.join_times),
                "sim.swarm.departures": len(result.departures),
                "sim.swarm.ticks": swarm.simulator.now - self.timed_from,
            },
        }


class MegaSwarm(SimWorkload):
    """One seed, a stratified crowd of leechers, many one-block pieces."""

    name = "mega_swarm"
    block_size = 16 * KIB

    def prepare(self) -> None:
        from repro.protocol.metainfo import make_metainfo
        from repro.sim.config import PeerConfig, SwarmConfig
        from repro.sim.swarm import Swarm

        p = self.params
        metainfo = make_metainfo(
            "mega-%dp" % p["pieces"],
            num_pieces=p["pieces"],
            piece_size=self.block_size,
            block_size=self.block_size,
        )
        swarm = Swarm(metainfo, SwarmConfig(seed=self.seed))
        rng = Random(self.seed)
        capacities = StratifiedCapacities(UPLOAD_DECK, self.seed)
        # The source's rate sets how fast the crowd ramps up, so it is
        # pinned instead of drawn.
        swarm.add_peer(config=PeerConfig(upload_capacity=128 * KIB), is_seed=True)
        for when in jittered_grid(rng, p["leechers"], p["arrive"] / p["leechers"]):
            upload, __ = capacities.sample(rng)
            swarm.schedule_arrival(when, config=PeerConfig(upload_capacity=upload))
        self.swarm = swarm

    def run_pass(self, clock) -> dict:
        started = clock.now()
        self.simulate(clock)
        wall = clock.now() - started
        blocks, phases = self.sim_rates(wall)
        return {"wall_s": wall, "headline_s": wall, "work": blocks, "phases": phases}

    def check(self, outcome: dict) -> dict:
        return self.sim_verdict([])


class Table1Workload(SimWorkload):
    """A Table-I torrent through ``build_experiment``, as ``execute_shard``
    builds it, on the fixed population (``TABLE1_POPULATION_SEED``)."""

    def build(self, recorder, **kwargs):
        from repro.sim.config import SwarmConfig
        from repro.workloads import build_experiment, scenario_by_id
        from repro.workloads.torrents import scaled_copy

        # The scenario's duration only bounds its arrival schedule here;
        # the run itself ends at the block target.
        self.scenario = scaled_copy(
            scenario_by_id(self.params["torrent"]), duration=self.params["max_sim"]
        )
        self.block_size = self.scenario.block_size
        self.timed_from = self.scenario.local_join_time
        return build_experiment(
            self.scenario,
            seed=TABLE1_POPULATION_SEED,
            capacities=StratifiedCapacities(
                internet_2005_deck(), TABLE1_POPULATION_SEED
            ),
            swarm_config=SwarmConfig(seed=self.seed, duration=self.scenario.duration),
            trace_recorder=recorder,
            **kwargs,
        )

    def simulate_harness(self, harness, clock):
        """Run *harness* to the block target; returns its Instrumentation."""
        self.simulate(clock, harness.swarm)
        return harness.run(0.0)  # finalize observers, no more sim time


class PaperSteady(Table1Workload):
    """A paper figure end to end: Table-I torrent 7 plus the Fig. 4/5/6/10
    analysis, instrumented exactly as ``execute_shard`` instruments it."""

    name = "paper_steady"

    def prepare(self) -> None:
        from repro.instrumentation import TraceRecorder

        self.recorder = TraceRecorder()
        self.harness = self.build(self.recorder)
        self.swarm = self.harness.swarm

    def run_pass(self, clock) -> dict:
        from repro.analysis import (
            peer_set_series,
            rarest_set_series,
            replication_series,
            unchoke_interest_correlation,
        )

        started = clock.now()
        instrumentation = self.simulate_harness(self.harness, clock)
        self.recorder.close()
        simulated = clock.now()
        with maybe_span(self.tracer, "analysis.figures"):
            figures = {
                "replication": replication_series(instrumentation),
                "replication_leecher": replication_series(
                    instrumentation, leecher_state_only=True
                ),
                "peer_set": peer_set_series(instrumentation),
                "rarest_set": rarest_set_series(instrumentation),
                "correlation": unchoke_interest_correlation(instrumentation),
            }
        ended = clock.now()
        blocks, phases = self.sim_rates(simulated - started)
        return {
            "wall_s": ended - started,
            "headline_s": simulated - started,
            "work": blocks,
            "phases": phases,
            "figures": figures,
        }

    def check(self, outcome: dict) -> dict:
        failures: List[str] = []
        # The Fig. 4 shape (bench_fig4_steady_replication.py): as a
        # leecher the local peer never loses sight of any piece, and the
        # mean copy count sits between min and max throughout.
        full = outcome["figures"]["replication"]
        leecher = outcome["figures"]["replication_leecher"]
        if not leecher.times:
            failures.append("fig4: local peer never spent time as a leecher")
        if not all(value >= 1 for value in leecher.min_copies):
            failures.append("fig4: a piece vanished from the leecher's peer set")
        if not all(
            low <= mean <= high
            for low, mean, high in zip(
                full.min_copies, full.mean_copies, full.max_copies
            )
        ):
            failures.append("fig4: mean copies outside [min, max]")
        verdict = self.sim_verdict(failures, self.recorder.fingerprint)
        verdict["ops"] += 3
        return verdict


class FlashCrowd(SimWorkload):
    """Open system: burst + steady arrivals, depart on completion,
    multi-block pieces, every leecher on mode suppression."""

    name = "flash_crowd"
    piece_size = 64 * KIB
    block_size = 16 * KIB
    selector = "mode-suppression:suppression=0.9"

    def prepare(self) -> None:
        from repro.core.rarest_first import make_selector
        from repro.protocol.metainfo import make_metainfo
        from repro.sim.config import PeerConfig, SwarmConfig
        from repro.sim.swarm import Swarm
        from repro.workloads.open_system import StabilityDetector

        p = self.params
        metainfo = make_metainfo(
            "flash-%dp" % p["pieces"],
            num_pieces=p["pieces"],
            piece_size=self.piece_size,
            block_size=self.block_size,
        )
        swarm = Swarm(metainfo, SwarmConfig(seed=self.seed))
        rng = Random(self.seed)
        capacities = StratifiedCapacities(UPLOAD_DECK, self.seed)
        swarm.add_peer(
            config=PeerConfig(upload_capacity=p["seed_upload"]), is_seed=True
        )
        arrivals = jittered_grid(rng, p["burst"], p["burst_spread"] / p["burst"])
        arrivals += jittered_grid(
            rng, int(p["arrival_rate"] * p["max_sim"]), 1.0 / p["arrival_rate"]
        )
        for when in arrivals:
            upload, __ = capacities.sample(rng)
            swarm.schedule_arrival(
                when,
                # seeding_time 0: leave the instant the download completes
                config=PeerConfig(upload_capacity=upload, seeding_time=0.0),
                selector=make_selector(self.selector),
            )
        self.detector = StabilityDetector(interval=p["interval"])
        self.detector.attach(swarm)
        self.swarm = swarm

    def run_pass(self, clock) -> dict:
        started = clock.now()
        self.simulate(clock)
        wall = clock.now() - started
        blocks, phases = self.sim_rates(wall)
        return {
            "wall_s": wall,
            "headline_s": wall,
            "work": blocks,
            "phases": phases,
            "verdict": self.detector.finalize(self.swarm.simulator.now),
        }

    def check(self, outcome: dict) -> dict:
        failures: List[str] = []
        stability = outcome["verdict"]
        if not stability.stable:
            failures.append(
                "stability verdict is not stable: %r" % (stability.as_dict(),)
            )
        verdict = self.sim_verdict(
            failures, repr(sorted(stability.as_dict().items()))
        )
        verdict["ops"] += 1
        return verdict


class TraceRoundtrip(Table1Workload):
    """Every peer traced to disk, then the trace verified and replayed."""

    name = "trace_roundtrip"
    work_unit = "events"

    def prepare(self) -> None:
        from repro.instrumentation import TraceRecorder

        self.path = str(self.workdir / ("trace-%d.jsonl" % self.passes))
        self.recorder = TraceRecorder(self.path)
        self.harness = self.build(self.recorder, trace_all_peers=True)
        self.swarm = self.harness.swarm

    def run_pass(self, clock) -> dict:
        # From the defining module, at call time: a traced run has
        # replaced these two attributes there, and the package
        # re-exports still point at the originals.
        from repro.instrumentation.replay import iter_trace, replay_instrumentation

        local = self.harness.local_peer.address
        started = clock.now()
        live = self.simulate_harness(self.harness, clock)
        self.recorder.close()
        write_wall = clock.now() - started
        events = self.recorder.events_emitted
        # Untimed warm-up read: the timed reads below should see the
        # page cache a second reader of a fresh trace would see.
        with open(self.path, "rb") as handle:
            while handle.read(1 << 20):
                pass
        clock.breathe()
        started = clock.now()
        read_events = iter_trace(self.path, verify=True)
        read_wall = clock.now() - started
        clock.breathe()
        started = clock.now()
        replayed = replay_instrumentation(self.path, peer=local)
        replay_wall = clock.now() - started
        __, phases = self.sim_rates(write_wall)
        phases["trace_write_events_per_s"] = events / write_wall
        phases["trace_read_events_per_s"] = events / read_wall
        outcome = {
            "wall_s": write_wall + read_wall + replay_wall,
            "headline_s": write_wall,
            "work": events,
            "phases": phases,
            "events_read": len(read_events),
            "live": live,
            "replayed": replayed,
            "bytes_written": os.path.getsize(self.path),
        }
        if self.tracer is not None:
            # Snapshot first: the binary re-run below is a second full
            # simulation and would double every sim row of this pass.
            layers = self.tracer.report()
            outcome["binary"] = self._binary_roundtrip()
            for name, span_start, span_end, __ in self.tracer.raw_spans:
                if name.startswith("instrumentation.bintrace."):
                    layers["calls"][name] = 1
                    layers["self_s"][name] = span_end - span_start
            outcome["layers"] = layers
        return outcome

    def _binary_roundtrip(self) -> dict:
        """The same run through the RBT1 recorder (traced runs only):
        the JSONL-vs-binary row of ROADMAP item 2."""
        from repro.instrumentation import BinaryTraceRecorder, binary_to_jsonl

        path = self.path + ".rbt"
        recorder = BinaryTraceRecorder(path)
        harness = self.build(recorder, trace_all_peers=True)
        with maybe_span(self.tracer, "instrumentation.bintrace.record"):
            self.simulate_harness(harness, None)
            recorder.close()
        with maybe_span(self.tracer, "instrumentation.bintrace.decode"):
            lines = binary_to_jsonl(path)
        size = os.path.getsize(path)
        os.unlink(path)
        return {"lines": len(lines), "bytes_written": size}

    def check(self, outcome: dict) -> dict:
        failures: List[str] = []
        # iter_trace(verify=True) already raised on a footer mismatch;
        # what is left to check is that nothing was dropped on the way.
        if outcome["events_read"] != outcome["work"]:
            failures.append(
                "read %d events, recorder emitted %d"
                % (outcome["events_read"], outcome["work"])
            )
        if outcome["replayed"].piece_completions != outcome["live"].piece_completions:
            failures.append("replayed piece completions differ from the live run")
        verdict = self.sim_verdict(failures, self.recorder.fingerprint)
        verdict["ops"] += 2
        extras = verdict["extras"]
        extras["instrumentation.trace.bytes_written"] = outcome["bytes_written"]
        binary = outcome.get("binary")
        if binary is not None:
            verdict["ops"] += 1
            # header + footer ride along in the decoded line list
            if binary["lines"] != outcome["work"] + 2:
                failures.append(
                    "binary trace decoded to %d lines, expected %d"
                    % (binary["lines"], outcome["work"] + 2)
                )
            extras["instrumentation.bintrace.bytes_written"] = binary["bytes_written"]
        os.unlink(self.path)
        return verdict


# ---------------------------------------------------------------------------
# campaign workload
# ---------------------------------------------------------------------------


class Campaign(Workload):
    """A campaign end to end: cold serial, cold through the socket worker
    pool, then warm (all cache hits, each shard replayed and summarised)."""

    name = "campaign"
    work_unit = "shards"

    def setup(self) -> None:
        from repro.campaign import CampaignSpec

        p = self.params
        self.spec = CampaignSpec(
            name="suite-campaign",
            torrent_ids=tuple(p["torrents"]),
            scenarios=("smoke",),
            replicates=p["replicates"],
            campaign_seed=self.seed,
            duration=p["duration"],
        )

    def prepare(self) -> None:
        self.root = self.workdir / ("campaign-%d" % self.passes)
        self.root.mkdir(parents=True)

    def run_pass(self, clock) -> dict:
        from repro.analysis import summarize_entropy
        from repro.campaign import (
            CampaignRunner,
            ShardCache,
            execute_shard,
            expand_spec,
        )

        p = self.params
        cold_dir = str(self.root / "cold")
        pool_dir = str(self.root / "pool")
        started = clock.now()
        cold = CampaignRunner(self.spec, cache_dir=cold_dir, workers=1).run()
        cold_wall = clock.now() - started
        clock.breathe()
        started = clock.now()
        pool = CampaignRunner(
            self.spec,
            cache_dir=pool_dir,
            workers=1,
            backend="worker-pool:spawn=%d" % p["pool_workers"],
        ).run()
        pool_wall = clock.now() - started
        shards = expand_spec(self.spec)
        cache = ShardCache(cold_dir)
        warm_runs = []
        replayed = 0
        clock.breathe()
        started = clock.now()
        # A bare all-hit run() is about a millisecond; what a user does
        # with a warm cache is load every shard back and analyse it.
        for __ in range(p["warm_rounds"]):
            warm_runs.append(
                CampaignRunner(self.spec, cache_dir=cold_dir, workers=1).run()
            )
            for shard in shards:
                record, instrumentation = execute_shard(
                    shard, cache=cache, want_instrumentation=True
                )
                summarize_entropy(instrumentation)
                replayed += bool(record.get("cache_hit"))
                clock.breathe()
        warm_wall = clock.now() - started
        count = len(shards)
        warm_count = count * p["warm_rounds"]
        shard_walls = sum(
            entry["wall_seconds"] or 0.0 for entry in pool.manifest["shards"]
        )
        return {
            "wall_s": cold_wall + pool_wall + warm_wall,
            "headline_s": cold_wall,
            "work": count,
            "phases": {
                "cold_shards_per_s": count / cold_wall,
                "pool_shards_per_s": count / pool_wall,
                "warm_shards_per_s": warm_count / warm_wall,
            },
            "cold": cold,
            "pool": pool,
            "warm_runs": warm_runs,
            "replayed": replayed,
            "warm_count": warm_count,
            "pool_overhead_s": pool_wall - shard_walls / p["pool_workers"],
        }

    def check(self, outcome: dict) -> dict:
        failures: List[str] = []
        cold, pool = outcome["cold"], outcome["pool"]
        count = outcome["work"]
        ops = 2 * count + outcome["warm_count"] + 1
        for label, result in (("cold", cold), ("pool", pool)):
            for entry in result.failed_shards():
                failures.append("%s shard %s: %s" % (label, entry["shard_id"], entry["status"]))
            if result.counts["executed"] != count:
                failures.append(
                    "%s phase executed %d of %d shards"
                    % (label, result.counts["executed"], count)
                )
        if cold.fingerprint != pool.fingerprint:
            failures.append("cold and pool manifest fingerprints differ")
        for warm in outcome["warm_runs"]:
            if warm.counts["executed"] != 0 or warm.fingerprint != cold.fingerprint:
                failures.append("warm run re-executed shards or changed fingerprint")
        if outcome["replayed"] != outcome["warm_count"]:
            failures.append(
                "%d of %d warm shard loads were cache hits"
                % (outcome["replayed"], outcome["warm_count"])
            )
        shutil.rmtree(self.root, ignore_errors=True)
        return {
            "ops": ops,
            "failures": failures,
            "fingerprint": cold.fingerprint,
            "extras": {
                "campaign.dispatch.pool_overhead_s": outcome["pool_overhead_s"],
            },
        }


# ---------------------------------------------------------------------------
# tracker workloads
# ---------------------------------------------------------------------------


def _infohashes(count: int, seed: int) -> List[bytes]:
    return [
        hashlib.sha1(b"suite-swarm-%d-%d" % (seed, index)).digest()
        for index in range(count)
    ]


def _peer_address(swarm: int, peer: int) -> str:
    return "10.%d.%d.%d:6881" % (swarm, peer // 250, peer % 250 + 1)


def _registrations(infohashes: List[bytes], peers_per_swarm: int):
    """The set-up ramp: every peer of every swarm announces ``started``
    (one in five as a seed) and asks for no peers back."""
    from repro.tracker.service import AnnounceRequest

    for swarm, infohash in enumerate(infohashes):
        for peer in range(peers_per_swarm):
            yield AnnounceRequest(
                infohash=infohash,
                address=_peer_address(swarm, peer),
                event="started",
                num_want=0,
                is_seed=peer % 5 == 0,
                have_count=(swarm * 31 + peer * 7) % 100,
            )


#: Announces timed as one batch (and between two chances to take a
#: calibration reading).
ANNOUNCE_BATCH = 200


def typical_wall(samples: List[float]) -> float:
    """``len(samples)`` equal batches at the median batch's time.

    The tracker workloads repeat one small operation thousands of times,
    so a scheduler stall lands in a few batches and the median batch
    does not see it; summing the batches would (a noisy quarter of an
    hour moved the sum by 2x and the median by a few percent).
    """
    return len(samples) * median(samples)


class _StepClock:
    """Deterministic service clock: one millisecond per announce."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def _steady_mix(rng: Random, count: int, swarms: int, peers: int,
                infohashes: List[bytes], num_want: int, present: List[set]):
    """Keep-alives with 1-in-97 completions and 1-in-89 departures.

    ``present`` tracks which peers are registered so the expected
    response size ``min(num_want, swarm - 1)`` is known per announce; a
    departed peer's next keep-alive re-registers it.
    """
    from repro.tracker.service import AnnounceRequest

    requests = []
    expected = []
    for index in range(count):
        swarm = rng.randrange(swarms)
        peer = rng.randrange(peers)
        event = ""
        if index % 97 == 0:
            event = "completed"
        elif index % 89 == 0:
            event = "stopped"
        members = present[swarm]
        if event == "stopped":
            members.discard(peer)
            want = 0
            size = 0
        else:
            members.add(peer)
            want = num_want
            size = min(num_want, len(members) - 1)
        requests.append(
            AnnounceRequest(
                infohash=infohashes[swarm],
                address=_peer_address(swarm, peer),
                event=event,
                num_want=want,
                is_seed=event == "completed",
                have_count=rng.randrange(100),
            )
        )
        expected.append(size)
    return requests, expected


class TrackerServiceWorkload(Workload):
    """The announce engine alone, in process: store + sampler."""

    name = "tracker_service"
    work_unit = "announces"
    carries_state = True
    warmup_passes = 1

    def _registered_service(self, sampler_spec: str):
        from repro.tracker.sampling import make_sampler
        from repro.tracker.service import TrackerService

        p = self.params
        service = TrackerService(
            _StepClock(), seed=self.seed, num_shards=p["shards"],
            sampler=make_sampler(sampler_spec),
        )
        for request in _registrations(self.infohashes, p["peers_per_swarm"]):
            service.announce(request)
        return service

    def setup(self) -> None:
        p = self.params
        self.infohashes = _infohashes(p["swarms"], self.seed)
        self.uniform = self._registered_service("uniform")
        self.rarity = self._registered_service("rarity-aware:bias=1.0")
        self.present = {
            "uniform": [set(range(p["peers_per_swarm"])) for __ in range(p["swarms"])],
            "rarity": [set(range(p["peers_per_swarm"])) for __ in range(p["swarms"])],
        }
        self.rng = Random(self.seed ^ 0x5EA)

    def prepare(self) -> None:
        p = self.params
        self.batches = {
            label: _steady_mix(
                self.rng, p[label], p["swarms"], p["peers_per_swarm"],
                self.infohashes, p["num_want"], self.present[label],
            )
            for label in ("uniform", "rarity")
        }

    def run_pass(self, clock) -> dict:
        walls = {}
        answers = {}
        for label, service in (("uniform", self.uniform), ("rarity", self.rarity)):
            requests, __ = self.batches[label]
            announce = service.announce
            peers: List[list] = []
            batch_walls = []
            for first in range(0, len(requests), ANNOUNCE_BATCH):
                batch = requests[first:first + ANNOUNCE_BATCH]
                started = clock.now()
                peers += [announce(request).peers for request in batch]
                batch_walls.append(clock.now() - started)
                clock.breathe()
            answers[label] = peers
            walls[label] = typical_wall(batch_walls)
        p = self.params
        return {
            "wall_s": walls["uniform"] + walls["rarity"],
            "headline_s": walls["uniform"],
            "work": p["uniform"],
            "phases": {
                "announces_per_s": p["uniform"] / walls["uniform"],
                "rarity_announces_per_s": p["rarity"] / walls["rarity"],
            },
            "answers": answers,
        }

    def check(self, outcome: dict) -> dict:
        failures: List[str] = []
        ops = 0
        digest = hashlib.sha256()
        for label in ("uniform", "rarity"):
            requests, expected = self.batches[label]
            for request, size, peers in zip(requests, expected, outcome["answers"][label]):
                ops += 1
                if len(peers) != size or request.address in peers:
                    failures.append(
                        "%s announce from %s got %d peers, expected %d"
                        % (label, request.address, len(peers), size)
                    )
            digest.update(repr(outcome["answers"][label]).encode())
        stats = [self.uniform.stats(), self.rarity.stats()]
        return {
            "ops": ops,
            "failures": failures,
            "fingerprint": digest.hexdigest(),
            "extras": {
                "tracker.service.shed": sum(s["shed"] for s in stats),
                "tracker.service.rejected": sum(s["rejected"] for s in stats),
            },
        }


def _recv_all(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class TrackerWire(Workload):
    """An announce over a real socket: ``repro tracker serve`` as a
    subprocess, one closed-loop client on blocking loopback sockets."""

    name = "tracker_wire"
    work_unit = "announces"
    carries_state = True
    warmup_passes = 3
    server = None
    udp = None

    def setup(self) -> None:
        p = self.params
        self.infohashes = _infohashes(p["swarms"], self.seed)
        # Client and server share one CPU (the server inherits the
        # mask).  A closed loop never has both busy at once, and on two
        # CPUs every message waits for the other CPU to wake from idle,
        # which on a virtual machine costs whatever the host feels like:
        # the same code read 0.63 s and 1.07 s per pass an hour apart.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "tracker", "serve",
                "--port", "0", "--udp-port", "0", "--stats-interval", "0",
                "--seed", str(self.seed),
            ],
            stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
        )
        line = self.server.stderr.readline().decode()
        match = re.search(r"http://[^:]+:(\d+)/announce and udp://[^:]+:(\d+)", line)
        if match is None:
            self.teardown()
            raise RuntimeError("tracker server did not report its ports: %r" % line)
        self.http_port, self.udp_port = int(match.group(1)), int(match.group(2))
        self.udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.udp.settimeout(5.0)
        self.udp.connect(("127.0.0.1", self.udp_port))
        self.transaction = 0
        for request in _registrations(self.infohashes, p["peers_per_swarm"]):
            self._udp_announce(request)
        self.present = [set(range(p["peers_per_swarm"])) for __ in range(p["swarms"])]
        self.rng = Random(self.seed ^ 0x31E)
        if self.tracer is not None:
            # Traced runs replay the same mix through an in-process
            # server, where the shims can see the handler, codec and
            # service layers.
            from repro.tracker.server import TrackerServer
            from repro.tracker.service import TrackerService

            service = TrackerService(time.monotonic, seed=self.seed, num_shards=8)
            for request in _registrations(self.infohashes, p["peers_per_swarm"]):
                service.announce(request)
            self.local_server = TrackerServer(service)

    def _udp_announce(self, request) -> bytes:
        from repro.tracker.server import build_udp_announce, build_udp_connect

        self.transaction += 1
        tid = self.transaction & 0x7FFFFFFF
        udp = self.udp
        udp.send(build_udp_connect(tid))
        __, __, connection_id = struct.unpack(">iiq", udp.recv(65536))
        port = int(request.address.rpartition(":")[2])
        udp.send(build_udp_announce(connection_id, tid, request, port))
        return udp.recv(65536)

    def _http_announce(self, request) -> bytes:
        from repro.tracker.client import build_announce_target

        target = build_announce_target(request, 6881)
        with socket.create_connection(("127.0.0.1", self.http_port), timeout=5.0) as sock:
            sock.sendall(
                b"GET %s HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n" % target.encode("latin-1")
            )
            return _recv_all(sock)

    def prepare(self) -> None:
        p = self.params
        self.http_batch = _steady_mix(
            self.rng, p["http"], p["swarms"], p["peers_per_swarm"],
            self.infohashes, p["num_want"], self.present,
        )
        self.udp_batch = _steady_mix(
            self.rng, p["udp"], p["swarms"], p["peers_per_swarm"],
            self.infohashes, p["num_want"], self.present,
        )

    def run_pass(self, clock) -> dict:
        http_latencies = []
        http_replies = []
        for request in self.http_batch[0]:
            started = clock.now()
            http_replies.append(self._http_announce(request))
            http_latencies.append(clock.now() - started)
            clock.breathe()
        udp_latencies = []
        udp_replies = []
        for request in self.udp_batch[0]:
            started = clock.now()
            udp_replies.append(self._udp_announce(request))
            udp_latencies.append(clock.now() - started)
            clock.breathe()
        total = len(http_replies) + len(udp_replies)
        wall = typical_wall(http_latencies) + typical_wall(udp_latencies)
        http_latencies.sort()
        udp_latencies.sort()
        outcome = {
            "wall_s": wall,
            "headline_s": wall,
            "work": total,
            "phases": {
                "announces_per_s": total / wall,
                "http_p50_us": median(http_latencies) * 1e6,
                "udp_p50_us": median(udp_latencies) * 1e6,
            },
            "http_p99_us": http_latencies[int(0.99 * (len(http_latencies) - 1))] * 1e6,
            "udp_p99_us": udp_latencies[int(0.99 * (len(udp_latencies) - 1))] * 1e6,
            "http_replies": http_replies,
            "udp_replies": udp_replies,
        }
        if self.tracer is not None:
            outcome["in_process_s"] = self._in_process_replay(clock)
        return outcome

    def _in_process_replay(self, clock) -> float:
        """The same requests through ``TrackerServer``'s handlers with no
        socket in between; returns the handler wall time."""
        from repro.tracker.client import build_announce_target
        from repro.tracker.server import build_udp_announce, build_udp_connect
        from repro.tracker.wire import decode_announce_response

        server = self.local_server
        started = clock.now()
        for request in self.http_batch[0]:
            body, __ = server.handle_http_request(
                "GET %s HTTP/1.0" % build_announce_target(request, 6881), "127.0.0.1"
            )
            if request.event != "stopped":
                with maybe_span(self.tracer, "tracker.wire.decode_response"):
                    decode_announce_response(body)
        address = ("127.0.0.1", 1)
        for index, request in enumerate(self.udp_batch[0]):
            reply = server.handle_datagram(build_udp_connect(index), address)
            __, __, connection_id = struct.unpack(">iiq", reply)
            port = int(request.address.rpartition(":")[2])
            server.handle_datagram(
                build_udp_announce(connection_id, index, request, port), address
            )
        return clock.now() - started

    def check(self, outcome: dict) -> dict:
        from repro.tracker.wire import decode_announce_response, unpack_peers

        failures: List[str] = []
        ops = 0
        digest = hashlib.sha256()
        for (requests, expected), replies, kind in (
            (self.http_batch, outcome["http_replies"], "http"),
            (self.udp_batch, outcome["udp_replies"], "udp"),
        ):
            for request, size, reply in zip(requests, expected, replies):
                ops += 1
                try:
                    if kind == "http":
                        __, __, body = reply.partition(b"\r\n\r\n")
                        peers = decode_announce_response(body).peers
                    else:
                        action, __ = struct.unpack(">ii", reply[:8])
                        if action != 1:
                            raise ValueError("udp action %d: %r" % (action, reply[8:]))
                        peers = unpack_peers(reply[20:])
                except (ValueError, struct.error) as exc:
                    failures.append("%s announce failed: %s" % (kind, exc))
                    continue
                addresses = ["%s:%d" % peer for peer in peers]
                if len(addresses) != size or request.address in addresses:
                    failures.append(
                        "%s announce from %s got %d peers, expected %d"
                        % (kind, request.address, len(addresses), size)
                    )
                digest.update(repr(addresses).encode())
        extras = {
            "tracker.wire.http_p99_us": outcome["http_p99_us"],
            "tracker.wire.udp_p99_us": outcome["udp_p99_us"],
        }
        if "in_process_s" in outcome:
            extras["tracker.wire.server_share"] = (
                outcome["in_process_s"] / outcome["wall_s"]
            )
        return {
            "ops": ops,
            "failures": failures,
            "fingerprint": digest.hexdigest(),
            "extras": extras,
        }

    def peak_rss_mb(self) -> float:
        """The server's high-water mark: that is the process a user runs."""
        with open("/proc/%d/status" % self.server.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the tracker server")

    def teardown(self) -> None:
        if self.udp is not None:
            self.udp.close()
        server = self.server
        if server is None:
            return
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        server.stderr.close()


WORKLOADS = {
    cls.name: cls
    for cls in (
        MegaSwarm, PaperSteady, FlashCrowd, TraceRoundtrip, Campaign,
        TrackerServiceWorkload, TrackerWire,
    )
}
