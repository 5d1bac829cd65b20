"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.analysis.claims import one_run_claims
from repro.analysis.reproduce import load_run
from repro.campaign import CampaignSpec, ShardCache, expand_spec
from repro.cli import build_parser, main
from repro.instrumentation.replay import iter_trace


#: The figure names of the retired ``figure`` subcommand, and the claims
#: of the table that render each one now.
FIGURE_CLAIMS = {
    "entropy": "F1",
    "replication": "F4",
    "rarest-set": "F6",
    "peer-set": "F5",
    "interarrival": "F7",
    "fairness": "F9,F10,F11",
}


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
        # A figure is chosen by its claim id, checked before anything runs.
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", "absent.jsonl", "--claims", "F12"])
        assert exit_info.value.code == 2


class TestListTorrents:
    def test_prints_26_rows(self, capsys):
        code, out = run_cli(capsys, "list-torrents")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 2 + 26  # header + separator + rows
        assert "transient" in out and "steady" in out


class TestRunAndAnalyze:
    """Offline analysis of a saved run: ``run --trace`` then ``replay
    --claims`` (the one on-disk record of a run), every figure claim."""

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

    @staticmethod
    def replay(capsys, saved_trace, *claims):
        code, out = run_cli(
            capsys, "replay", str(saved_trace), "--torrent", "19", *claims
        )
        assert code == 0
        return out

    def test_run_saves_valid_json(self, saved_trace):
        events = [json.loads(line) for line in saved_trace.read_text().splitlines()]
        assert events[0] == {"type": "trace_start", "v": 1}
        assert len(events) > 2

    def test_analyze_entropy(self, saved_trace, capsys):
        out = self.replay(capsys, saved_trace)  # F1 by default
        lines = out.splitlines()
        assert lines[0].startswith("Figure 1 — entropy characterisation")
        assert "a/b50" in lines[1] and "c/d50" in lines[1]
        assert lines[2].startswith("19 ") and len(lines) == 3

    def test_analyze_replication(self, saved_trace, capsys):
        out = self.replay(capsys, saved_trace, "--claims", "F2,F4")
        assert out.startswith(
            "Figure 2 — copies of pieces in the peer set vs time "
            "(torrent 19, leecher state)\n"
        )
        # A one-peer trace cannot know the swarm's first full copy.
        assert "first full copy pushed at: None\n" in out
        assert "Figure 4 — copies of pieces in the peer set vs time (torrent 19)" in out
        assert out.splitlines()[-1].startswith("local peer became a seed at t=")

    def test_analyze_rarest_set(self, saved_trace, capsys):
        out = self.replay(capsys, saved_trace, "--claims", "F3,F6")
        assert out.startswith("Figure 3 — number of rarest pieces vs time (torrent 19")
        assert "linear fit over the transient window:" in out
        assert "Figure 6 — number of rarest pieces vs time (torrent 19)" in out
        assert "direction changes (sawtooth count): " in out

    def test_analyze_peer_set(self, saved_trace, capsys):
        out = self.replay(capsys, saved_trace, "--claims", "F5")
        lines = out.splitlines()
        assert lines[:2] == [
            "Figure 5 — size of the peer set vs time (torrent 19)",
            "   t (s)   size",
        ]
        assert len(lines) > 3

    def test_analyze_interarrival(self, saved_trace, capsys):
        out = self.replay(capsys, saved_trace, "--claims", "F7,F8")
        assert out.startswith("Figure 7 — CDF of piece interarrival time (torrent 19)")
        assert "first slowdown x" in out
        assert "Figure 8 — CDF of block interarrival time (torrent 19)" in out
        assert "95th-percentile tail vs all" in out

    def test_analyze_fairness(self, saved_trace, capsys):
        out = self.replay(capsys, saved_trace, "--claims", "F11,F9,F10")
        titles = [line for line in out.splitlines() if line.startswith("Figure")]
        assert [title.split(" —")[0] for title in titles] == [
            "Figure 9", "Figure 10", "Figure 11",  # table order
        ]
        assert "unchokes vs interested time (torrent 19)" in titles[1]


class TestRunClaims:
    """``run --claims`` renders the run exactly as ``reproduce`` renders
    the shard the run's flags describe."""

    def test_run_claims_print_the_shard_render(self, capsys, tmp_path):
        spec = CampaignSpec(torrent_ids=(2,), scenarios=("smoke",))
        (shard,) = expand_spec(spec)
        run = load_run(shard, ShardCache(tmp_path))
        ids = "F1,F2,F3,F4,F5,F6,F7,F8,F9,F10,F11"
        expected = "".join(
            claim.report([run], claim.measure([run]))
            for claim in one_run_claims(ids)
        )
        code, out = run_cli(
            capsys, "run", "--torrent", "2", "--seed", str(shard.seed),
            "--duration", "240", "--claims", ids,
        )
        assert code == 0
        assert out.endswith(expected)
        assert "shard trace fingerprint: %s" % run.summary["trace_fingerprint"] in out


class TestFigureCommand:
    """The retired ``figure NAME`` subcommand is ``run --claims F<n>``."""

    def test_figure_runs_experiment(self, capsys):
        code, out = run_cli(
            capsys, "run", "--torrent", "19", "--seed", "5", "--duration", "300",
            "--claims", FIGURE_CLAIMS["entropy"],
        )
        assert code == 0
        figure = out[out.index("Figure 1 — "):].splitlines()
        assert "a/b50" in figure[1] and figure[2].startswith("19 ")


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
            ("fairness", "upload shares"),
        ],
    )
    def test_each_live_figure_renders(self, capsys, base_args, figure, expect):
        code, out = run_cli(
            capsys, "run", *base_args, "--claims", FIGURE_CLAIMS[figure]
        )
        assert code == 0
        assert expect in out[out.index("Figure "):]


@pytest.mark.net
class TestNetRun:
    def test_an_expired_timeout_is_an_outcome_not_a_traceback(
        self, capsys, tmp_path
    ):
        """A swarm still downloading when ``--timeout`` expires prints its
        table, names the stuck peers on stderr, exits 1, and leaves a
        complete trace."""
        path = tmp_path / "net.jsonl"
        code = main([
            "net", "run", "--leechers", "2", "--pieces", "8",
            "--timeout", "0.05", "--trace", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert captured.err.startswith("live swarm incomplete after 0.05s: ")
        assert "peer" in captured.out.splitlines()[0]
        assert "1/3 peers complete" in captured.out
        footer = json.loads(path.read_text().splitlines()[-1])
        assert footer["type"] == "trace_end"
        events = iter_trace(str(path))  # verifies the fingerprint
        assert footer["events"] == len(events)
        assert {event["type"] for event in events} >= {"attach", "finalize"}


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
        claims = FIGURE_CLAIMS[figure]
        code, out = run_cli(
            capsys, "replay", str(trace_file), "--torrent", "2", "--claims", claims
        )
        assert code == 0
        assert out.startswith("Figure %s — " % claims[1:])

    def test_replay_figure_matches_live_run(self, trace_file, capsys):
        # F2 and F3 read the swarm's first full copy, which one peer's
        # events cannot tell; every other figure renders identically.
        claims = "F1,F4,F5,F6,F7,F8,F9,F10,F11"
        live_code, live_out = run_cli(
            capsys, "run", "--torrent", "2", "--seed", "11", "--duration", "300",
            "--claims", claims,
        )
        replay_code, replay_out = run_cli(
            capsys, "replay", str(trace_file), "--torrent", "2", "--claims", claims
        )
        assert live_code == 0 and replay_code == 0
        assert replay_out.count("Figure ") == 9
        assert live_out.endswith(replay_out)

    @pytest.mark.parametrize(
        "line,edit,message",
        [
            (5, lambda text: text[:20], "is not valid JSON"),
            (5, lambda text: "[1, 2]", "is not a JSON object"),
            (-1, lambda text: text.replace('"events":', '"events":1'), "footer says"),
            (1, lambda text: text.replace(',"seed":false', ""), "has no field 'seed'"),
        ],
        ids=["truncated-line", "non-object-line", "edited-footer", "missing-field"],
    )
    def test_replay_of_a_corrupt_trace_is_one_error_line(
        self, trace_file, tmp_path, capsys, line, edit, message
    ):
        lines = trace_file.read_text().splitlines()
        lines[line] = edit(lines[line])
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(lines) + "\n")
        code = main(["replay", str(corrupt)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err

    def test_replay_of_an_untraced_peer_is_one_error_line(self, trace_file, capsys):
        code = main(["replay", str(trace_file), "--peer", "9.9.9.9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: trace holds no events of peer 9.9.9.9 (see --list-peers)\n"
        )

    @pytest.mark.parametrize(
        "command,flags",
        [(["replay"], []), (["replay"], ["--list-peers"]), (["trace", "stats"], [])],
        ids=["replay", "list-peers", "trace-stats"],
    )
    def test_a_missing_trace_file_is_one_error_line(
        self, tmp_path, capsys, command, flags
    ):
        code = main(command + [str(tmp_path / "absent.jsonl")] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "absent.jsonl" in err

    def test_metrics_command(self, capsys):
        # `run` prints the metrics registry after its local-peer line.
        code, out = run_cli(
            capsys, "run", "--torrent", "2", "--seed", "11", "--duration", "150",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("local peer: ")
        assert lines[1] == "counters:"
        assert any(line.split()[0] == "messages.sent" for line in lines[2:])


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
    RUN_OPTIONS = ("--duration",)
    CAMPAIGN_OPTIONS = ("--replicates", "--workers", "--cache-dir", "--results-dir")

    @pytest.mark.parametrize(
        "flags,commands",
        [
            (RUN_OPTIONS, [("run",), ("campaign", "run"), ("campaign", "diff")]),
            (CAMPAIGN_OPTIONS, [("campaign", "run"), ("reproduce",)]),
            (("--replicates", "--cache-dir"), [("campaign", "run"), ("campaign", "diff")]),
        ],
        ids=["run-options", "campaign-options", "campaign-spec"],
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

    def test_removed_commands_and_flags_stay_removed(self):
        parsers = leaf_parsers(build_parser())
        for command in ("analyze", "figure", "metrics"):
            assert (command,) not in parsers
        assert "--save" not in parsers[("run",)]._option_string_actions
        assert "--figure" not in parsers[("replay",)]._option_string_actions
        # Every simulated link is lossless: there is no fault preset.
        assert "--faults" not in parsers[("run",)]._option_string_actions
        # No claim varies the piece selector or the tracker sampler of a
        # whole run: those are built where a claim needs them.
        for command in (("run",), ("campaign", "run"), ("campaign", "diff")):
            actions = parsers[command]._option_string_actions
            assert "--selector" not in actions
            assert "--tracker-sampler" not in actions
        assert "--sampler" not in parsers[("tracker", "serve")]._option_string_actions

    def test_reproduce_adds_one_flag_to_the_shared_ones(self):
        actions = leaf_parsers(build_parser())[("reproduce",)]._option_string_actions
        assert set(actions) == {"-h", "--help", "--claims", *self.CAMPAIGN_OPTIONS}


class TestMistypedOptions:
    """A bad option value is a one-line usage error from the subcommand's
    own parser (exit 2), not a traceback."""

    @pytest.mark.parametrize(
        "argv,prog,message",
        [
            # A run varies no piece selector or tracker sampler: those
            # flags are gone, and so is the serve command's sampler.
            (["run", "--selector", "bogus"], "repro",
             "unrecognized arguments: --selector bogus"),
            (["run", "--tracker-sampler", "bogus"], "repro",
             "unrecognized arguments: --tracker-sampler bogus"),
            (["run", "--torrent", "99"], "repro run",
             "no Table-I torrent with id 99"),
            (["campaign", "run", "--scenario", "bogus"], "repro campaign run",
             "unknown scenario 'bogus' (have: "),
            (["campaign", "diff", "--selector", "bogus"], "repro",
             "unrecognized arguments: --selector bogus"),
            (["campaign", "run", "--tracker-sampler", "bogus"], "repro",
             "unrecognized arguments: --tracker-sampler bogus"),
            (["tracker", "serve", "--sampler", "bogus"], "repro",
             "unrecognized arguments: --sampler bogus"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--selector", "rarest-first:windw=3"], "repro",
             "unrecognized arguments: --selector rarest-first:windw=3"),
            (["tracker", "serve", "--sampler", "uniform:bias=2"], "repro",
             "unrecognized arguments: --sampler uniform:bias=2"),
            # --workers N is the one way to run shards in parallel:
            # there is no --backend flag and no worker command.
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--backend", "local"], "repro",
             "unrecognized arguments: --backend local"),
            # A campaign that describes no shard, or one shard twice, is
            # refused before any shard runs.
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke,smoke"],
             "repro campaign run", "scenario repeated: smoke"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--replicates", "0"], "repro campaign run",
             "replicates must be >= 1, not 0"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--replicates", "-1"], "repro campaign run",
             "replicates must be >= 1, not -1"),
            (["campaign", "run", "--torrents", "", "--scenario", "smoke"],
             "repro campaign run", "a campaign needs at least one torrent id"),
            # A figure is printed from one run only if a claim draws it
            # from one; the check precedes any simulation or trace read.
            (["run", "--claims", "T1"], "repro run",
             "claim T1 is not drawn from one run (have: F1, "),
            (["run", "--claims", "F4,A1"], "repro run",
             "claim A1 is not drawn from one run"),
            (["replay", "absent.jsonl", "--claims", "T1"], "repro replay",
             "claim T1 is not drawn from one run"),
            (["replay", "absent.jsonl", "--claims", "A1"], "repro replay",
             "claim A1 is not drawn from one run"),
            (["replay", "absent.jsonl", "--torrent", "99"], "repro replay",
             "no Table-I torrent with id 99"),
            # Bad values anywhere else: a usage line, not a traceback or
            # a run that cannot mean anything.
            (["trace", "diff", "a.jsonl", "b.jsonl", "--context", "-1"],
             "repro trace diff", "--context must be >= 0, not -1"),
            # A choke interval or timeout that is not a positive number
            # once stalled a live swarm until its timeout.
            (["net", "run", "--choke-interval", "nan"], "repro net run",
             "choke_interval must be finite and > 0, not nan"),
            (["model", "--arrival-rate", "0.05", "--upload", "4096",
              "--content", "0"], "repro model", "--content must be > 0"),
            (["model", "--arrival-rate", "-1", "--upload", "4096",
              "--content", "131072"], "repro model", "arrival_rate must be >= 0"),
            (["net", "run", "--pieces", "0"], "repro net run",
             "num_pieces must be positive"),
            (["net", "run", "--leechers", "-1"], "repro net run",
             "--seeds and --leechers must be >= 0"),
            # A run length that cannot run fails where the run is described.
            (["run", "--torrent", "2", "--duration", "-5"], "repro run",
             "duration must be finite and > 0, not -5.0"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--duration", "-1"], "repro campaign run",
             "duration must be finite and > 0, not -1.0"),
            (["campaign", "diff", "--torrents", "2", "--scenario", "smoke",
              "--duration", "nan"], "repro campaign diff",
             "duration must be finite and > 0, not nan"),
            (["net", "run", "--timeout", "nan"], "repro net run",
             "--timeout must be finite and > 0, not nan"),
            # A negative stay once meant "seeds never leave"; a stay
            # shorter than the 1 s step overflowed to nan.
            (["model", "--arrival-rate", "0.05", "--upload", "4096",
              "--content", "131072", "--seed-stay", "-5"], "repro model",
             "--seed-stay must be >= 0"),
            (["model", "--arrival-rate", "0.05", "--upload", "4096",
              "--content", "131072", "--seed-stay", "0.001"], "repro model",
             "seed_departure_rate * dt = 1000 is too stiff"),
            (["net", "run", "--choke-interval", "0"], "repro net run",
             "choke_interval must be finite and > 0, not 0.0"),
            (["net", "run", "--choke-interval", "inf"], "repro net run",
             "choke_interval must be finite and > 0, not inf"),
            (["net", "run", "--timeout", "0"], "repro net run",
             "--timeout must be finite and > 0, not 0.0"),
            (["net", "run", "--timeout=-1"], "repro net run",
             "--timeout must be finite and > 0, not -1.0"),
            # A tracker setting that would break or switch off the server
            # fails before any socket is bound.
            (["tracker", "serve", "--announce-budget", "0"],
             "repro tracker serve",
             "announces_per_second must be finite and > 0, not 0.0"),
            (["tracker", "serve", "--announce-budget", "nan"],
             "repro tracker serve",
             "announces_per_second must be finite and > 0, not nan"),
            (["tracker", "serve", "--interval", "nan"], "repro tracker serve",
             "interval must be finite and > 0, not nan"),
            (["tracker", "serve", "--expiry-intervals", "nan"],
             "repro tracker serve",
             "expiry_intervals must be finite and > 0, not nan"),
            # Replies carry whole seconds: 0.5 once went out as interval
            # 0 (re-announce at once), 3e9 overflowed every UDP reply.
            (["tracker", "serve", "--interval", "0.5"], "repro tracker serve",
             "interval must be in [1, 2**31 / 1) s, not 0.5"),
            (["tracker", "serve", "--interval", "3e9"], "repro tracker serve",
             "interval must be in [1, 2**31 / 1) s, not 3000000000.0"),
            (["campaign", "worker", "--connect", "127.0.0.1:1"],
             "repro campaign",
             "argument campaign_command: invalid choice: 'worker'"),
            # A worker count, retry budget or shard timeout that cannot
            # run was clamped, or reached setitimer in every shard.
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--workers", "-3"], "repro campaign run",
             "workers must be >= 1, not -3"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--workers", "0"], "repro campaign run",
             "workers must be >= 1, not 0"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--retries", "-2"], "repro campaign run",
             "retries must be >= 0, not -2"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--timeout=-1"], "repro campaign run",
             "timeout must be finite and > 0, not -1.0"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--timeout", "0"], "repro campaign run",
             "timeout must be finite and > 0, not 0.0"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--timeout", "nan"], "repro campaign run",
             "timeout must be finite and > 0, not nan"),
            (["campaign", "run", "--torrents", "2", "--scenario", "smoke",
              "--timeout", "inf"], "repro campaign run",
             "timeout must be finite and > 0, not inf"),
            (["reproduce", "--claims", "A2", "--workers", "0"], "repro reproduce",
             "workers must be >= 1, not 0"),
            # A port outside 0-65535 was an OverflowError from bind.
            (["tracker", "serve", "--port=-5"], "repro tracker serve",
             "--port must be in 0-65535, not -5"),
            (["tracker", "serve", "--udp-port", "70000"], "repro tracker serve",
             "--udp-port must be in 0-65535, not 70000"),
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


def test_a_corrupt_manifest_is_one_error_line(capsys, tmp_path):
    (tmp_path / "manifest.json").write_text("{not json")
    code = main(["campaign", "status", "--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("unreadable manifest at %s" % (tmp_path / "manifest.json"))
