"""The table of claims stays one table (``repro.analysis.claims``,
``repro reproduce``).

No full-length Table-I shard runs here: figure claims are measured on
240 s ``smoke`` shards, and only the four sub-2-second ablations go
through the real runner.
"""

import math
import re
from pathlib import Path

import pytest

from repro.analysis.claims import CLAIMS, Check, Claim, select_claims
from repro.analysis.reproduce import (
    SCORECARD_BEGIN,
    SCORECARD_END,
    load_run,
    needed_shards,
    reproduce,
)
from repro.campaign import CampaignSpec, ShardCache, expand_spec
from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SWEEP = (2, 3, 13, 19)
FAST_ABLATIONS = "A2,A4,A5,A6"


def check_rows(scorecard, claim_id):
    """The scorecard's check rows of one claim id pattern (not its
    statement line, which starts with the id too)."""
    return [
        line for line in scorecard.splitlines()
        if re.match(r"%s +[a-z]" % claim_id, line)
    ]


class TestRegistry:
    def test_ids_are_the_design_index(self):
        design = (ROOT / "DESIGN.md").read_text()
        indexed = re.findall(r"^\| ([TFAS]\d+) \|", design, flags=re.MULTILINE)
        assert [claim.id for claim in CLAIMS] == indexed
        assert len(set(indexed)) == len(indexed) == 19

    def test_every_row_is_complete(self):
        names = [claim.results_name for claim in CLAIMS]
        assert len(set(names)) == len(names)
        for claim in CLAIMS:
            assert claim.statement and claim.results_name
            assert len(claim.checks) >= 1
            assert len({check.name for check in claim.checks}) == len(claim.checks)
            # A claim reads campaign shards or builds its own swarm (T1
            # reads the registry alone), never both.
            assert not (claim.torrents and claim.build)
            assert (claim.build is None) == (claim.pinned_seed is None)

    def test_shared_traces_are_one_shard(self):
        """One simulation per shared trace, as a pure function of the
        registry: the content-addressed cache is the only memo."""
        steady = needed_shards(select_claims("F4,F5,F6,F10"), 1)
        assert [shard.shard_id for shard in steady] == ["t07-paper-r0"]
        (interarrival,) = needed_shards(select_claims("F7,F8"), 1)
        assert interarrival.torrent_id == 10
        assert interarrival.options.block_size == 32768
        # The whole table at N=1: the 26 paper shards plus that one.
        assert len(needed_shards(CLAIMS, 1)) == 27
        assert len(needed_shards(CLAIMS, 3)) == 81


class TestS1Wiring:
    """Claim S1 over stand-in builder output: one check per cell, and a
    cell whose sim verdict differs from the fluid model's fails alone."""

    def results(self, disagree=None):
        (claim,) = select_claims("S1")
        out = {}
        for check in claim.checks:
            cell, policy = check.name.split()
            stable = not (cell.startswith("0.35") and policy == "rarest-first")
            out.setdefault(cell, {})[policy] = {
                "arrival_rate": float(cell.split("/")[0]),
                "seed_upload": 1024 * float(cell.split(",")[1][:-1]),
                "sim": stable if check.name != disagree else not stable,
                "fluid": stable,
                "agree": check.name != disagree,
            }
        return claim, out

    def test_one_check_per_cell(self):
        claim, results = self.results()
        assert len(claim.checks) == 8
        numbers = claim.measure(results)
        assert all(check.holds(numbers) for check in claim.checks)
        assert claim.report(results, numbers).splitlines()[-1] == (
            "sim-vs-fluid agreement: 8/8 cells"
        )

    def test_a_disagreeing_cell_fails_only_its_check(self):
        claim, results = self.results(disagree="0.35/s,48K rarest-first")
        numbers = claim.measure(results)
        failed = [c.name for c in claim.checks if not c.holds(numbers)]
        assert failed == ["0.35/s,48K rarest-first"]
        report = claim.report(results, numbers).splitlines()
        assert report[-1] == "sim-vs-fluid agreement: 7/8 cells"
        assert sum(line.endswith(" NO") for line in report) == 1


@pytest.fixture(scope="module")
def smoke_cache(tmp_path_factory):
    return ShardCache(tmp_path_factory.mktemp("smoke-cache"))


@pytest.mark.parametrize(
    "claim", [claim for claim in CLAIMS if not claim.build], ids=lambda c: c.id
)
def test_measure_returns_every_declared_number_on_a_smoke_shard(claim, smoke_cache):
    torrents = claim.torrents if len(claim.torrents) <= 1 else SMOKE_SWEEP
    runs = []
    if torrents:  # a claim that reads no shard (T1) measures no run
        spec = CampaignSpec(
            torrent_ids=torrents, scenarios=("smoke",), block_size=claim.block_size
        )
        runs = [load_run(shard, smoke_cache) for shard in expand_spec(spec)]
    numbers = claim.measure(runs)
    assert all(isinstance(value, float) for value in numbers.values())  # NaN allowed
    for check in claim.checks:
        assert check.number in numbers
        assert check.holds(numbers) in (True, False)


@pytest.mark.parametrize("claim_id,kind", [("F7", "piece"), ("F8", "block")])
def test_interarrival_render_of_a_run_with_too_few_arrivals(claim_id, kind, tmp_path):
    # Two simulated seconds: no piece, no block has arrived yet.
    spec = CampaignSpec(torrent_ids=(2,), scenarios=("smoke",), duration=2.0)
    (run,) = [load_run(shard, ShardCache(tmp_path)) for shard in expand_spec(spec)]
    (claim,) = select_claims(claim_id)
    numbers = claim.measure([run])
    assert all(math.isnan(value) for value in numbers.values())
    assert claim.render([run], numbers) == [
        "Figure %s — CDF of %s interarrival time (torrent 2)" % (claim_id[1:], kind),
        "not evaluable: fewer than three %s arrivals" % kind,
    ]


class TestRunner:
    """Pinning tests: the four fast ablations through ``reproduce``."""

    @staticmethod
    def _run(tmp_path, name, replicates):
        out = tmp_path / name
        text = reproduce(
            select_claims(FAST_ABLATIONS), replicates,
            cache_dir=str(tmp_path / "cache"), results_dir=out,
        )
        assert (out / "scorecard.txt").read_text() == text
        return text, out

    def test_deterministic_and_prefix_stable(self, tmp_path):
        first, first_dir = self._run(tmp_path, "a", 3)
        second, __ = self._run(tmp_path, "b", 3)
        assert first == second
        single, single_dir = self._run(tmp_path, "c", 1)
        for claim in select_claims(FAST_ABLATIONS):
            name = claim.results_name + ".txt"
            # Replicate 0 does not depend on how many follow it, and it is
            # the historical pinned seed: the committed file, byte for byte.
            assert (first_dir / name).read_bytes() == (single_dir / name).read_bytes()
            assert (single_dir / name).read_bytes() == (
                ROOT / "benchmarks" / "results" / name
            ).read_bytes()
        # At the pinned seed every check holds.
        rows = check_rows(single, r"A\d")
        assert len(rows) == 16
        assert all(row.split()[-2:] == ["1/1", "1/1"] for row in rows)

    def test_replicate_seeds(self):
        pinned = {
            "A1": 19, "A2": 47, "A3": 59, "A4": 67, "A5": 71, "A6": 83, "S1": 3,
        }
        for claim in CLAIMS:
            if claim.build:
                assert claim.seed(0) == pinned[claim.id]
                later = [claim.seed(r) for r in (1, 2, 3)]
                assert len(set(later + [claim.seed(0)])) == 4
                assert later == [claim.seed(r) for r in (1, 2, 3)]

    def test_nan_is_not_a_pass_and_a_failure_is_data(self, tmp_path):
        outcomes = iter([2.0, float("nan"), 0.5])
        synthetic = Claim(
            "S1", "a synthetic claim", "synthetic",
            measure=lambda built: built,
            render=lambda built, numbers: ["x = %s" % numbers["x"]],
            checks=(Check("x-above-one", "x", ">", 1),),
            build=lambda seed: {"x": next(outcomes)},
            pinned_seed=0,
        )
        text = reproduce(
            [synthetic], 3, cache_dir=str(tmp_path / "cache"), results_dir=tmp_path
        )
        (row,) = check_rows(text, "S1")
        assert row.split()[-3:] == ["2/3", "1/3", "<"]
        assert "1.25 [0.875, 1.625]" in row  # median [quartiles] of 2.0 and 0.5
        assert (tmp_path / "synthetic.txt").read_text() == "x = 2.0\n"

    def test_never_evaluable_number_still_gets_its_row(self, tmp_path):
        synthetic = Claim(
            "S2", "never evaluable", "synthetic",
            measure=lambda built: built,
            render=lambda built, numbers: [],
            checks=(Check("x-above-one", "x", ">", 1),),
            build=lambda seed: {"x": math.nan},
            pinned_seed=0,
        )
        text = reproduce(
            [synthetic], 2, cache_dir=str(tmp_path / "cache"), results_dir=tmp_path
        )
        (row,) = check_rows(text, "S2")
        assert row.split()[-4:] == ["-", "0/2", "0/2", "<"]


class TestCommand:
    def test_unknown_claim_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["reproduce", "--claims", "F7,F99"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            "repro reproduce: error: unknown claim 'F99' (have: T1, F1, "
        )
        assert list(tmp_path.iterdir()) == []  # nothing ran, nothing was made

    DOCUMENT = "before\n%s\nstale\n%s\nafter\n" % (SCORECARD_BEGIN, SCORECARD_END)

    def test_a_failing_row_is_data_exit_0_and_the_document_refreshed(
        self, capsys, tmp_path, monkeypatch
    ):
        failing = Claim(
            "S3", "a claim that does not hold", "synthetic",
            measure=lambda built: built,
            render=lambda built, numbers: [],
            checks=(Check("x-above-one", "x", ">", 1),),
            build=lambda seed: {"x": 0.5},
            pinned_seed=0,
        )
        monkeypatch.setattr("repro.analysis.claims.CLAIMS", (failing,))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "EXPERIMENTS.md").write_text(self.DOCUMENT)
        assert main(["reproduce", "--replicates", "2"]) == 0
        scorecard = (tmp_path / "benchmarks/results/scorecard.txt").read_text()
        assert "0/2 <" in scorecard
        assert capsys.readouterr().out == scorecard
        assert (tmp_path / "EXPERIMENTS.md").read_text() == (
            "before\n%s\n```\n%s```\n%s\nafter\n"
            % (SCORECARD_BEGIN, scorecard, SCORECARD_END)
        )

    def test_a_partial_table_leaves_the_document_alone(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "EXPERIMENTS.md").write_text(self.DOCUMENT)
        assert main(["reproduce", "--claims", "T1"]) == 0
        assert (tmp_path / "EXPERIMENTS.md").read_text() == self.DOCUMENT
        assert (tmp_path / "benchmarks/results/table1.txt").exists()


class TestCommittedScorecard:
    def test_experiments_block_is_the_scorecard(self):
        scorecard = (ROOT / "benchmarks/results/scorecard.txt").read_text()
        document = (ROOT / "EXPERIMENTS.md").read_text()
        block = document.split(SCORECARD_BEGIN)[1].split(SCORECARD_END)[0]
        assert block == "\n```\n%s```\n" % scorecard
        header = scorecard.splitlines()[0]
        assert "19 claims, 74 checks" in header
        assert int(re.search(r"N=(\d+)", header).group(1)) >= 10
