"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "nonsense"])


class TestListTorrents:
    def test_prints_26_rows(self, capsys):
        code, out = run_cli(capsys, "list-torrents")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 2 + 26  # header + separator + rows
        assert "transient" in out and "steady" in out


class TestRunAndAnalyze:
    """Offline analysis of a saved run: ``run --trace`` then ``replay``
    (the one on-disk record of a run), every figure."""

    @pytest.fixture(scope="class")
    def saved_trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "trace.jsonl"
        code = main(
            [
                "run",
                "--torrent", "19",
                "--seed", "5",
                "--duration", "400",
                "--trace", str(path),
            ]
        )
        assert code == 0
        return path

    def test_run_saves_valid_json(self, saved_trace):
        events = [json.loads(line) for line in saved_trace.read_text().splitlines()]
        assert events[0] == {"type": "trace_start", "v": 1}
        assert len(events) > 2

    def test_analyze_entropy(self, saved_trace, capsys):
        code, out = run_cli(capsys, "replay", str(saved_trace))
        assert code == 0
        assert "a/b" in out and "c/d" in out

    def test_analyze_replication(self, saved_trace, capsys):
        code, out = run_cli(
            capsys, "replay", str(saved_trace), "--figure", "replication"
        )
        assert code == 0
        assert "mean" in out

    def test_analyze_rarest_set(self, saved_trace, capsys):
        code, out = run_cli(
            capsys, "replay", str(saved_trace), "--figure", "rarest-set"
        )
        assert code == 0
        assert "rarest" in out

    def test_analyze_peer_set(self, saved_trace, capsys):
        code, out = run_cli(
            capsys, "replay", str(saved_trace), "--figure", "peer-set"
        )
        assert code == 0
        assert "size" in out

    def test_analyze_interarrival(self, saved_trace, capsys):
        code, out = run_cli(
            capsys, "replay", str(saved_trace), "--figure", "interarrival",
            "--kind", "block",
        )
        assert code == 0
        assert "slowdown" in out

    def test_analyze_fairness(self, saved_trace, capsys):
        code, out = run_cli(
            capsys, "replay", str(saved_trace), "--figure", "fairness"
        )
        assert code == 0
        assert "upload LS" in out


class TestFigureCommand:
    def test_figure_runs_experiment(self, capsys):
        code, out = run_cli(
            capsys, "figure", "entropy", "--torrent", "19",
            "--seed", "5", "--duration", "300",
        )
        assert code == 0
        assert "a/b" in out


class TestModelCommand:
    def test_steady_state_printed(self, capsys):
        code, out = run_cli(
            capsys,
            "model",
            "--arrival-rate", "0.05",
            "--upload", "4096",
            "--content", "131072",
            "--seed-stay", "10",
            "--duration", "500",
        )
        assert code == 0
        assert "steady state" in out
        assert "mean download time" in out

    def test_no_equilibrium_case(self, capsys):
        code, out = run_cli(
            capsys,
            "model",
            "--arrival-rate", "0.05",
            "--upload", "4096",
            "--content", "131072",
            "--seed-stay", "0",
            "--duration", "200",
        )
        assert code == 0
        assert "no finite steady state" in out


class TestFigureVariants:
    @pytest.fixture(scope="class")
    def base_args(self):
        return ["--torrent", "19", "--seed", "5", "--duration", "300"]

    @pytest.mark.parametrize(
        "figure,expect",
        [
            ("replication", "mean"),
            ("rarest-set", "rarest"),
            ("peer-set", "size"),
            ("interarrival", "slowdown"),
            ("fairness", "upload LS"),
        ],
    )
    def test_each_live_figure_renders(self, capsys, base_args, figure, expect):
        code, out = run_cli(capsys, "figure", figure, *base_args)
        assert code == 0
        assert expect in out


class TestTraceAndReplay:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-trace") / "run.jsonl"
        code = main(
            [
                "run",
                "--torrent", "2",
                "--seed", "11",
                "--duration", "300",
                "--trace", str(path),
            ]
        )
        assert code == 0
        return path

    def test_trace_file_is_framed_jsonl(self, trace_file):
        lines = trace_file.read_text().splitlines()
        assert json.loads(lines[0]) == {"type": "trace_start", "v": 1}
        footer = json.loads(lines[-1])
        assert footer["type"] == "trace_end"
        assert footer["events"] == len(lines) - 2

    def test_replay_list_peers(self, trace_file, capsys):
        code, out = run_cli(capsys, "replay", str(trace_file), "--list-peers")
        assert code == 0
        assert out.strip().startswith("10.")

    @pytest.mark.parametrize("figure", ["entropy", "replication", "peer-set"])
    def test_replay_figures_render(self, trace_file, capsys, figure):
        code, out = run_cli(capsys, "replay", str(trace_file), "--figure", figure)
        assert code == 0
        assert out.strip()

    def test_replay_figure_matches_live_run(self, trace_file, capsys):
        live_code, live_out = run_cli(
            capsys,
            "figure", "entropy",
            "--torrent", "2", "--seed", "11", "--duration", "300",
        )
        replay_code, replay_out = run_cli(
            capsys, "replay", str(trace_file), "--figure", "entropy"
        )
        assert live_code == 0 and replay_code == 0
        assert replay_out == live_out

    def test_metrics_command(self, capsys):
        code, out = run_cli(
            capsys,
            "metrics",
            "--torrent", "2", "--seed", "11", "--duration", "150",
        )
        assert code == 0
        assert "messages.sent" in out


def leaf_parsers(parser, prefix=()):
    """Every subcommand parser, keyed by its command path."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found[prefix + (name,)] = sub
                found.update(leaf_parsers(sub, prefix + (name,)))
    return found


class TestSharedFlags:
    RUN_OPTIONS = ("--duration", "--selector", "--playback-rate", "--tracker-sampler")
    FIGURE_OPTIONS = ("--kind", "--leecher-only")
    CAMPAIGN_OPTIONS = ("--replicates", "--workers", "--cache-dir", "--results-dir")

    @pytest.mark.parametrize(
        "flags,commands",
        [
            (RUN_OPTIONS, [("run",), ("figure",), ("metrics",),
                           ("campaign", "run"), ("campaign", "diff")]),
            (FIGURE_OPTIONS, [("figure",), ("replay",)]),
            (CAMPAIGN_OPTIONS, [("campaign", "run"), ("reproduce",)]),
            (("--replicates", "--cache-dir"), [("campaign", "run"), ("campaign", "diff")]),
        ],
        ids=["run-options", "figure-options", "campaign-options", "campaign-spec"],
    )
    def test_declared_once_so_identical_everywhere(self, flags, commands):
        parsers = leaf_parsers(build_parser())
        for flag in flags:
            declared = set()
            for command in commands:
                action = parsers[command]._option_string_actions[flag]
                declared.add(
                    (action.dest, action.type, action.default, action.help,
                     action.metavar)
                )
            assert len(declared) == 1, flag

    def test_figure_choices_are_one_list(self):
        parsers = leaf_parsers(build_parser())
        positional = [a for a in parsers[("figure",)]._actions if a.dest == "name"]
        assert positional[0].choices == (
            parsers[("replay",)]._option_string_actions["--figure"].choices
        )

    def test_removed_commands_and_flags_stay_removed(self):
        parsers = leaf_parsers(build_parser())
        assert ("analyze",) not in parsers
        assert "--save" not in parsers[("run",)]._option_string_actions

    def test_reproduce_adds_one_flag_to_the_shared_ones(self):
        actions = leaf_parsers(build_parser())[("reproduce",)]._option_string_actions
        assert set(actions) == {"-h", "--help", "--claims", *self.CAMPAIGN_OPTIONS}


class TestMistypedOptions:
    """A bad option value is a one-line usage error from the subcommand's
    own parser (exit 2), not a traceback."""

    @pytest.mark.parametrize(
        "argv,prog,message",
        [
            (["run", "--selector", "bogus"], "repro run",
             "unknown selector 'bogus' (have: "),
            (["run", "--tracker-sampler", "bogus"], "repro run",
             "unknown sampler 'bogus' (have: "),
            (["run", "--torrent", "99"], "repro run",
             "no Table-I torrent with id 99"),
            (["campaign", "run", "--scenario", "bogus"], "repro campaign run",
             "unknown scenario 'bogus' (have: "),
            (["campaign", "diff", "--selector", "bogus"], "repro campaign diff",
             "unknown selector 'bogus' (have: "),
            (["campaign", "run", "--tracker-sampler", "bogus"],
             "repro campaign run", "unknown sampler 'bogus' (have: "),
            (["tracker", "serve", "--sampler", "bogus"], "repro tracker serve",
             "unknown sampler 'bogus' (have: "),
            # A misspelt parameter fails before any shard runs or any
            # socket is bound, like a misspelt name.
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--selector", "rarest-first:windw=3"], "repro campaign run",
             "bad parameters for selector 'rarest-first:windw=3'"),
            (["tracker", "serve", "--sampler", "uniform:bias=2"],
             "repro tracker serve",
             "bad parameters for sampler 'uniform:bias=2'"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--backend", "worker-pool:spwan=3"], "repro campaign run",
             "bad parameters for dispatch backend 'worker-pool:spwan=3'"),
        ],
    )
    def test_exit_2_one_line_no_traceback(
        self, argv, prog, message, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # a default --cache-dir must not be made
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("%s: error: %s" % (prog, message))
        assert not list(tmp_path.iterdir())
