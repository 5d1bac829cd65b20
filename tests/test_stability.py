"""Sim-vs-fluid cross-validation of the flash-crowd stability layer.

Three layers are pinned against each other:

* **closed system** — a steady Poisson swarm's measured mean download
  time stays within a small factor of the fluid model's prediction,
  with the mode-suppression selector driving every leecher (the
  suppression path must not perturb closed-system throughput, where the
  scarcity oracle rarely fires);
* **open system** — one operating point per side of the phase boundary:
  at an arrival rate above the seed's piece-injection capacity, plain
  rarest first goes unstable (backlog grows, completions pin at the
  seed rate) while mode suppression stays stable (completions track
  arrivals) — and :func:`fluid_model_for_policy` classifies both cells
  the same way the simulation does;
* **the committed artifact** — every cell of
  ``benchmarks/results/stability_phase_diagram.json`` is re-derived
  from the pure fluid model and must still agree with the sim verdict
  stored in the file.

The open-system runs use a deliberately tiny torrent (24 x 4 kiB
pieces) so the unstable cell — the expensive one, its population grows
all run — stays ~1.5 s; the full-size grid lives in the committed
phase diagram, regenerated by ``python -m repro stability``.
"""

import dataclasses
import json
import pathlib
from random import Random

import pytest

from repro.analysis.stability import (
    POLICY_SCENARIOS,
    classify_fluid,
    fluid_model_for_policy,
)
from repro.core.rarest_first import ModeSuppressionSelector
from repro.models.fluid import FluidModel
from repro.protocol.metainfo import make_metainfo
from repro.sim.churn import open_system_arrivals, poisson_arrivals
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm
from repro.workloads.open_system import StabilityDetector

from tests.conftest import ENGINE_TWINS

pytestmark = pytest.mark.stability

NUM_PIECES = 24
PIECE_SIZE = 4 * KIB
CONTENT_SIZE = NUM_PIECES * PIECE_SIZE
SEED_UPLOAD = 1 * KIB  # c0 = seed_upload / piece_size = 0.25 completions/s
LEECHER_UPLOAD = 8 * KIB
ARRIVAL_RATE = 0.6  # above c0: rarest first unstable, suppression stable
DURATION = 300.0


def run_open_system(policy, seed=5):
    """One open-system flash-crowd run on the tiny torrent; returns the
    detector's verdict."""
    metainfo = make_metainfo(
        "stability", num_pieces=NUM_PIECES, piece_size=PIECE_SIZE, block_size=1 * KIB
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=seed))
    swarm.add_peer(config=PeerConfig(upload_capacity=SEED_UPLOAD), is_seed=True)

    def selector():
        if policy == "mode-suppression":
            return ModeSuppressionSelector(suppression=0.9)
        return None

    # Initial flash crowd: everyone departs on completion.
    for __ in range(8):
        swarm.add_peer(
            config=PeerConfig(upload_capacity=LEECHER_UPLOAD, seeding_time=0.0),
            selector=selector(),
        )
    open_system_arrivals(
        swarm,
        rate=ARRIVAL_RATE,
        duration=DURATION,
        config_factory=lambda rng: PeerConfig(upload_capacity=LEECHER_UPLOAD),
        rng=Random(seed ^ 0xA2),
        kwargs_factory=lambda: {"selector": selector()},
    )
    detector = StabilityDetector(interval=15.0)
    detector.attach(swarm)
    swarm.run(DURATION)
    return detector.finalize(swarm.simulator.now)


@pytest.fixture(scope="module")
def open_system_verdicts():
    return {
        policy: run_open_system(policy)
        for policy in ("rarest-first", "mode-suppression")
    }


def fluid_for(policy, arrival_rate=ARRIVAL_RATE):
    return fluid_model_for_policy(
        policy,
        arrival_rate,
        SEED_UPLOAD,
        piece_size=PIECE_SIZE,
        content_size=CONTENT_SIZE,
        leecher_upload=LEECHER_UPLOAD,
    )


class TestOpenSystemBoundary:
    def test_rarest_first_is_unstable_above_the_seed_capacity(
        self, open_system_verdicts
    ):
        verdict = open_system_verdicts["rarest-first"]
        assert not verdict.stable
        # The backlog has grown far beyond anything completions drained.
        assert verdict.final_leechers > 100
        # Completion flow is pinned near the seed's piece-injection rate
        # (c0 * duration = 75 is the fluid ceiling; one-club reality is
        # below even that, and nowhere near the ~188 arrivals).
        assert verdict.completions < 40

    def test_mode_suppression_is_stable_at_the_same_operating_point(
        self, open_system_verdicts
    ):
        verdict = open_system_verdicts["mode-suppression"]
        assert verdict.stable
        # Completions track arrivals instead of the seed rate.
        assert verdict.completions > 120
        assert verdict.final_leechers < 40

    def test_fluid_model_classifies_both_cells_like_the_simulation(
        self, open_system_verdicts
    ):
        for policy, verdict in open_system_verdicts.items():
            sim = "stable" if verdict.stable else "unstable"
            assert classify_fluid(fluid_for(policy)) == sim, policy

    @pytest.mark.parametrize("policy", ["rarest-first", "mode-suppression"])
    def test_verdict_is_the_same_on_the_reference_engine(
        self, open_system_verdicts, policy, twins
    ):
        """The fast paths must be invisible to the detector: same
        samples, same backlog, same classification."""
        with twins(*ENGINE_TWINS):
            reference = run_open_system(policy)
        assert reference == open_system_verdicts[policy]

    def test_fluid_boundary_sits_at_the_seed_piece_rate(self):
        c0 = SEED_UPLOAD / PIECE_SIZE
        assert classify_fluid(fluid_for("rarest-first", c0 * 0.8)) == "stable"
        assert classify_fluid(fluid_for("rarest-first", c0 * 1.2)) == "unstable"
        # Mode suppression self-scales on either side.
        assert classify_fluid(fluid_for("mode-suppression", c0 * 0.8)) == "stable"
        assert classify_fluid(fluid_for("mode-suppression", c0 * 1.2)) == "stable"


def test_closed_system_mean_download_time_within_fluid_envelope():
    """The mode-suppression selector must not perturb closed-system
    throughput: measured mean download time stays within the same
    envelope of the eta=1 fluid prediction the plain rarest-first
    swarm is held to (tests/test_models.py)."""
    upload = 4 * KIB
    content = 32 * 4 * KIB
    arrival_rate = 0.05
    seed_stay = 10.0
    metainfo = make_metainfo(
        "fluid-ms", num_pieces=32, piece_size=4 * KIB, block_size=1 * KIB
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=11))
    swarm.add_peer(config=PeerConfig(upload_capacity=upload), is_seed=True)
    poisson_arrivals(
        swarm,
        rate=arrival_rate,
        duration=4000.0,
        config_factory=lambda rng: PeerConfig(
            upload_capacity=upload, seeding_time=seed_stay
        ),
        kwargs_factory=lambda: {
            "selector": ModeSuppressionSelector(suppression=0.9)
        },
    )
    result = swarm.run(4000.0)
    measured = result.mean_download_time()
    assert measured is not None

    model = FluidModel(
        arrival_rate=arrival_rate,
        upload_rate=upload / content,
        seed_departure_rate=1.0 / seed_stay,
        effectiveness=1.0,
    )
    predicted = model.mean_download_time()
    assert predicted is not None
    assert predicted * 0.5 <= measured <= predicted * 4.0


class TestCommittedPhaseDiagram:
    """The committed artifact stays self-consistent with the model."""

    @pytest.fixture(scope="class")
    def diagram(self):
        path = (
            pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "results"
            / "stability_phase_diagram.json"
        )
        with open(path) as handle:
            return json.load(handle)

    def test_every_cell_agrees(self, diagram):
        assert diagram["cells"], "committed phase diagram is empty"
        for cell in diagram["cells"]:
            assert cell["sim"] is not None, cell
            assert cell["agree"], cell

    def test_fluid_column_rederives_from_the_model(self, diagram):
        for cell in diagram["cells"]:
            piece_size = 64 * KIB  # flash-crowd scenario geometry
            content_size = 48 * piece_size
            model = fluid_model_for_policy(
                cell["policy"],
                cell["arrival_rate"],
                cell["seed_upload"],
                piece_size=piece_size,
                content_size=content_size,
            )
            assert classify_fluid(model) == cell["fluid"], cell

    def test_contains_the_money_cell(self, diagram):
        """At least one grid point separates the policies: rarest first
        unstable, mode suppression stable — the RFwPMS result."""
        by_point = {}
        for cell in diagram["cells"]:
            point = (cell["arrival_rate"], cell["seed_upload"])
            by_point.setdefault(point, {})[cell["policy"]] = cell["sim"]
        assert any(
            verdicts.get("rarest-first") == "unstable"
            and verdicts.get("mode-suppression") == "stable"
            for verdicts in by_point.values()
        )

    def test_scenarios_match_the_policy_map(self, diagram):
        for cell in diagram["cells"]:
            assert cell["scenario"] == POLICY_SCENARIOS[cell["policy"]]


def flash_crowd_spec(**overrides):
    """A deliberately short flash-crowd campaign for determinism tests."""
    from repro.campaign.spec import CampaignSpec

    kwargs = {
        "name": "stability-dev",
        "torrent_ids": (2,),
        "scenarios": ("flash-crowd", "flash-crowd-suppress"),
        "duration": 150.0,
        "arrival_rate": 0.2,
        "seed_upload": 16 * KIB,
    }
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestDeterminism:
    def test_worker_count_does_not_change_the_campaign_fingerprint(
        self, tmp_path
    ):
        """Flash-crowd shards (open-system arrivals + detector attached)
        must stay worker-count invariant like every other shard kind."""
        from repro.campaign.runner import CampaignRunner

        serial = CampaignRunner(
            flash_crowd_spec(), cache_dir=tmp_path / "w1", workers=1
        ).run()
        pooled = CampaignRunner(
            flash_crowd_spec(), cache_dir=tmp_path / "w2", workers=2
        ).run()
        assert serial.fingerprint == pooled.fingerprint
        serial_fps = {
            entry["shard_id"]: entry["trace_fingerprint"]
            for entry in serial.manifest["shards"]
        }
        pooled_fps = {
            entry["shard_id"]: entry["trace_fingerprint"]
            for entry in pooled.manifest["shards"]
        }
        assert serial_fps == pooled_fps
        assert all(serial_fps.values())

    def test_detector_off_means_byte_identical_traces(self, tmp_path):
        """The stability observer is strictly read-only: disabling it
        must reproduce the exact trace bytes, and enabling it must only
        *add* ``stability`` records — every other line is unchanged."""
        from repro.campaign.cache import ShardCache, shard_cache_key
        from repro.campaign.runner import execute_shard
        from repro.campaign.spec import expand_spec

        shard_on = expand_spec(flash_crowd_spec())[0]
        assert shard_on.options.stability_interval is not None
        shard_off = dataclasses.replace(
            shard_on,
            options=dataclasses.replace(shard_on.options, stability_interval=None),
        )

        cache = ShardCache(tmp_path)
        record_on, __ = execute_shard(shard_on, cache=cache, resume=False)
        record_off, __ = execute_shard(shard_off, cache=cache, resume=False)

        lines_on = (
            cache.trace_path(shard_cache_key(shard_on))
            .read_text()
            .splitlines()
        )
        lines_off = (
            cache.trace_path(shard_cache_key(shard_off))
            .read_text()
            .splitlines()
        )
        # The trace_end footer embeds the event count and whole-file
        # fingerprint, which legitimately change when stability records
        # are added; every *event* line must match exactly.
        footer_on, footer_off = json.loads(lines_on[-1]), json.loads(lines_off[-1])
        assert footer_on["type"] == footer_off["type"] == "trace_end"
        stability_lines = [
            line for line in lines_on[:-1] if '"type":"stability"' in line
        ]
        assert stability_lines  # the detector did sample
        assert [
            line for line in lines_on[:-1] if line not in stability_lines
        ] == lines_off[:-1]
        assert not any('"stability"' in line for line in lines_off)
        assert footer_on["events"] - len(stability_lines) == footer_off["events"]

        # Same simulation either way: the detector changed nothing.
        for key in (
            "first_full_copy_at",
            "final_seeds",
            "final_leechers",
            "mean_download_time",
        ):
            assert record_on["summary"][key] == record_off["summary"][key]
        assert record_on["summary"]["stability"] is not None
        assert "stability" not in record_off["summary"]
