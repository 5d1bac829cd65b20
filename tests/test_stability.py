"""Sim-vs-fluid cross-validation of the open-system stability layer.

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
* **the committed artifact** — every row of claim S1's
  ``benchmarks/results/s1_stability.txt`` re-derives its fluid column
  from the pure fluid model, and the grid is the one the claim builds.

The open-system runs use a deliberately tiny torrent (24 x 4 kiB
pieces) so the unstable cell — the expensive one, its population grows
all run — stays ~1.5 s; the full-size grid is claim S1, regenerated by
``python -m repro reproduce --claims S1``.
"""

import os
import pathlib
import subprocess
import sys
from random import Random

import pytest

from repro.analysis.stability import (
    S1_ARRIVAL_RATES,
    S1_PIECE_SIZE,
    S1_PIECES,
    S1_POLICIES,
    S1_SEED_UPLOADS,
    classify_fluid,
    fluid_model_for_policy,
)
from repro.instrumentation.trace import TraceRecorder, TracingObserver
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


def open_system_swarm(policy, seed=5, duration=DURATION, recorder=None):
    """One open-system flash crowd on the tiny torrent, every peer traced
    into *recorder* when one is given."""
    metainfo = make_metainfo(
        "stability", num_pieces=NUM_PIECES, piece_size=PIECE_SIZE, block_size=1 * KIB
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=seed))
    if recorder is not None:
        swarm.observer_factory = lambda: TracingObserver(recorder)
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
        duration=duration,
        config_factory=lambda rng: PeerConfig(upload_capacity=LEECHER_UPLOAD),
        rng=Random(seed ^ 0xA2),
        kwargs_factory=lambda: {"selector": selector()},
    )
    return swarm


def run_open_system(policy, seed=5):
    """One open-system run on the tiny torrent; returns the detector's
    verdict."""
    swarm = open_system_swarm(policy, seed)
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
    """Claim S1's committed table stays self-consistent with the model."""

    @pytest.fixture(scope="class")
    def diagram(self):
        path = (
            pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "results"
            / "s1_stability.txt"
        )
        lines = path.read_text().splitlines()
        header = lines.index(next(line for line in lines if line.startswith("---")))
        names = ("arrival_rate", "seed_upload", "policy", "sim", "fluid", "agree")
        cells = [
            dict(zip(names, line.split()))
            for line in lines[header + 1:]
            if not line.startswith("sim-vs-fluid")
        ]
        for cell in cells:
            cell["arrival_rate"] = float(cell["arrival_rate"])
            cell["seed_upload"] = float(cell["seed_upload"])
        return cells

    def test_fluid_column_rederives_from_the_model(self, diagram):
        for cell in diagram:
            model = fluid_model_for_policy(
                cell["policy"],
                cell["arrival_rate"],
                cell["seed_upload"],
                piece_size=S1_PIECE_SIZE,
                content_size=S1_PIECES * S1_PIECE_SIZE,
            )
            assert classify_fluid(model) == cell["fluid"], cell
            assert cell["agree"] == ("yes" if cell["sim"] == cell["fluid"] else "NO")

    def test_contains_the_money_cell(self, diagram):
        """At least one grid point separates the policies: rarest first
        unstable, mode suppression stable — the RFwPMS result."""
        by_point = {}
        for cell in diagram:
            point = (cell["arrival_rate"], cell["seed_upload"])
            by_point.setdefault(point, {})[cell["policy"]] = cell["sim"]
        assert any(
            verdicts.get("rarest-first") == "unstable"
            and verdicts.get("mode-suppression") == "stable"
            for verdicts in by_point.values()
        )

    def test_scenarios_match_the_policy_map(self, diagram):
        """The committed rows are the grid the claim builds: every
        (arrival rate, seed upload) point once per policy, in order."""
        assert [
            (cell["arrival_rate"], cell["seed_upload"], cell["policy"])
            for cell in diagram
        ] == [
            (rate, float(upload), policy)
            for rate in S1_ARRIVAL_RATES
            for upload in S1_SEED_UPLOADS
            for policy in S1_POLICIES
        ]


class TestDeterminism:
    def test_verdict_is_the_same_in_a_fresh_process(self, open_system_verdicts):
        """Another interpreter, with another hash seed, reaches the same
        open-system verdict: nothing in the run depends on the process."""
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        out = subprocess.run(
            [
                sys.executable, "-c",
                "from tests.test_stability import run_open_system; "
                "print(repr(run_open_system('rarest-first')))",
            ],
            env=env, cwd=str(root), capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == repr(open_system_verdicts["rarest-first"])

    def test_detector_off_means_byte_identical_traces(self):
        """The detector is strictly read-only and emits nothing: a
        swarm-wide trace is byte-identical with and without it."""
        fingerprints = []
        for detect in (True, False):
            recorder = TraceRecorder()
            swarm = open_system_swarm("mode-suppression", duration=120.0,
                                      recorder=recorder)
            if detect:
                detector = StabilityDetector(interval=15.0)
                detector.attach(swarm)
            swarm.run(120.0)
            if detect:
                assert detector.finalize().samples == 9  # it did sample
            fingerprints.append(recorder.close())
        assert fingerprints[0] == fingerprints[1]
