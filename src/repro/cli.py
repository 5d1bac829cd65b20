"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro list-torrents
    python -m repro run --torrent 7 --trace out.jsonl --trace-all
    python -m repro run --torrent 7 --claims F4,F5,F6,F10
    python -m repro replay out.jsonl --torrent 7 --claims F1,F9
    python -m repro trace diff a.jsonl b.jsonl --context 5
    python -m repro trace stats out.jsonl
    python -m repro model --arrival-rate 0.05 --upload 4096 --content 131072
    python -m repro campaign run --workers 4 --cache-dir campaign-cache
    python -m repro campaign run --torrents 2,3,13,19 --scenario smoke --workers 2
    python -m repro campaign status --cache-dir campaign-cache
    python -m repro reproduce --replicates 10 --workers 2

``reproduce`` evaluates the table of claims (Table I, Figs. 1-11, the
six ablations and the open-system stability claim S1:
``repro.analysis.claims``) over replicate seeds, rewrites
``benchmarks/results/<claim>.txt`` and writes ``scorecard.txt``.
``campaign`` runs a whole experiment matrix (torrents x scenarios x
replicates) across worker processes with content-addressed caching —
``repro campaign run`` executes the missing shards and writes a
``manifest.json``; ``repro campaign status`` renders that manifest.
``run`` executes one Table-I experiment with the instrumented client
and prints the local peer's outcome and metrics counters; ``replay``
reconstructs the instrumentation from a structured JSONL trace (``run
--trace``) without re-simulating.  Both print figures the one way
``reproduce`` writes them: ``--claims F4,F5`` renders each named claim
over this one run.  ``trace diff`` locates the first event at which two
traces part (exit 1) and ``trace stats`` summarises one; ``model``
evaluates the Qiu–Srikant fluid model.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Rarest First and Choke Algorithms Are Enough' (IMC 2006)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "list-torrents", help="print Table I (paper and scaled parameters)"
    )

    run_parser = commands.add_parser(
        "run", help="run one Table-I experiment with the instrumented client"
    )
    _experiment_arguments(run_parser)
    run_parser.add_argument(
        "--claims", default=None, metavar="IDS",
        help="after the run, print these figure claims over it, e.g. "
        "F4,F5 (any of F1-F11), as 'reproduce' writes them",
    )

    replay_parser = commands.add_parser(
        "replay",
        help="rebuild the instrumentation from a structured JSONL trace "
        "('run --trace') and print figure claims over it — no simulation",
    )
    replay_parser.set_defaults(usage_error=replay_parser.error)
    replay_parser.add_argument("trace", help="JSONL trace from 'run --trace'")
    replay_parser.add_argument(
        "--claims", default="F1", metavar="IDS",
        help="figure claims to print, e.g. F4,F5 (any of F1-F11; default "
        "F1). A one-peer trace does not know when the swarm pushed its "
        "first full copy: F2 prints None for it and F3 fits its whole series",
    )
    replay_parser.add_argument(
        "--torrent", type=int, default=7,
        help="Table-I id (1-26) the trace was run on, as for 'run' "
        "(default 7): the scenario F1, F3, F9 and F11 read",
    )
    replay_parser.add_argument(
        "--peer", metavar="ADDR", default=None,
        help="which traced peer to reconstruct (default: the first; "
        "relevant for --trace-all traces)",
    )
    replay_parser.add_argument(
        "--list-peers", action="store_true",
        help="just list the traced peer addresses and exit",
    )

    trace_parser = commands.add_parser(
        "trace", help="trace forensics: diff two traces, summarise one"
    )
    trace_commands = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )
    trace_diff = trace_commands.add_parser(
        "diff",
        help="print the first event at which two traces (JSONL or RBT1) "
        "diverge and the per-kind count delta; exit 1 on any divergence",
    )
    trace_diff.set_defaults(usage_error=trace_diff.error)
    trace_diff.add_argument("a", help="left trace")
    trace_diff.add_argument("b", help="right trace")
    trace_diff.add_argument(
        "--context", type=int, default=3, metavar="N",
        help="events of context to print around the divergence (default 3)",
    )
    trace_stats_parser = trace_commands.add_parser(
        "stats",
        help="per-kind counts, per-peer event volumes and time span of a "
        "trace (JSONL or RBT1)",
    )
    trace_stats_parser.add_argument("trace", help="trace to summarise")

    campaign_parser = commands.add_parser(
        "campaign",
        help="run/inspect a sharded, cached, resumable experiment campaign",
    )
    campaign_commands = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )
    def add_campaign_spec_args(parser: argparse.ArgumentParser) -> None:
        """Spec-defining flags shared by ``campaign run`` and ``diff``."""
        parser.add_argument(
            "--name", default="paper-table1",
            help="campaign name (manifest label)",
        )
        parser.add_argument(
            "--torrents", default="all",
            help="'all' (the 26-torrent paper matrix) or e.g. "
            "'2,3,13,19' / '7-9'",
        )
        parser.add_argument(
            "--scenario", default="paper",
            help="comma-separated scenario variants: paper, smoke",
        )
        _run_option_arguments(parser)
        _campaign_arguments(parser, "--replicates")
        parser.add_argument(
            "--campaign-seed", type=int, default=3,
            help="root seed every shard's RNG stream derives from",
        )
        _campaign_arguments(parser, "--cache-dir")
        parser.add_argument(
            "--filter", default=None, metavar="GLOB",
            help="only shards whose id matches (e.g. 't07-*', 'smoke')",
        )

    campaign_run = campaign_commands.add_parser(
        "run",
        help="execute a campaign's missing shards across worker processes",
    )
    add_campaign_spec_args(campaign_run)
    _campaign_arguments(campaign_run, "--workers")
    campaign_run.add_argument(
        "--incremental", action="store_true",
        help="print the spec-vs-cache invalidation report before "
        "executing (the run then executes exactly the invalidated "
        "shards)",
    )
    resume_group = campaign_run.add_mutually_exclusive_group()
    resume_group.add_argument(
        "--resume", dest="resume", action="store_true", default=True,
        help="serve completed shards from the cache (default)",
    )
    resume_group.add_argument(
        "--fresh", dest="resume", action="store_false",
        help="ignore cached shard results and re-execute everything",
    )
    campaign_run.add_argument(
        "--timeout", type=float, default=None,
        help="per-shard wall-clock budget in seconds",
    )
    campaign_run.add_argument(
        "--retries", type=int, default=1,
        help="retries per shard after a worker crash or error",
    )
    _campaign_arguments(campaign_run, "--results-dir")
    campaign_status = campaign_commands.add_parser(
        "status", help="render a campaign's manifest.json"
    )
    campaign_status.add_argument("--cache-dir", default="campaign-cache")
    campaign_status.add_argument(
        "--json", action="store_true", help="dump the raw manifest JSON"
    )
    campaign_diff = campaign_commands.add_parser(
        "diff",
        help="report which shards a run of this spec would (re-)execute, "
        "and why, without executing anything",
    )
    add_campaign_spec_args(campaign_diff)
    campaign_diff.add_argument(
        "--json", action="store_true",
        help="dump the invalidation report as JSON",
    )

    reproduce_parser = commands.add_parser(
        "reproduce",
        help="evaluate the table of claims (Table I, Figs. 1-11, ablations "
        "A1-A6, stability S1) over replicate seeds: per-claim result files + "
        "scorecard.txt",
    )
    reproduce_parser.set_defaults(usage_error=reproduce_parser.error)
    _campaign_arguments(reproduce_parser, *CAMPAIGN_ARGUMENTS)
    reproduce_parser.add_argument(
        "--claims", default=None, metavar="IDS",
        help="comma-separated claim ids to evaluate, e.g. F7,F8 (default: "
        "the whole table)",
    )

    net_parser = commands.add_parser(
        "net", help="live asyncio peer-wire swarms over localhost TCP"
    )
    net_commands = net_parser.add_subparsers(dest="net_command", required=True)
    net_run = net_commands.add_parser(
        "run",
        help="download a synthetic torrent through a live localhost swarm "
        "and report per-peer outcomes",
    )
    net_run.set_defaults(usage_error=net_run.error)
    net_run.add_argument("--seeds", type=int, default=1, help="initial seeds")
    net_run.add_argument("--leechers", type=int, default=5)
    net_run.add_argument("--pieces", type=int, default=24)
    net_run.add_argument(
        "--piece-size", type=int, default=16 * 1024, help="bytes per piece"
    )
    net_run.add_argument(
        "--block-size", type=int, default=4 * 1024, help="bytes per block"
    )
    net_run.add_argument("--seed", type=int, default=0, help="swarm RNG seed")
    net_run.add_argument(
        "--upload", type=float, default=256.0, help="per-peer upload cap, KiB/s"
    )
    net_run.add_argument(
        "--choke-interval", type=float, default=0.5,
        help="seconds between choke rounds (wall clock)",
    )
    net_run.add_argument(
        "--timeout", type=float, default=120.0,
        help="abort if the swarm has not completed after this many seconds",
    )
    net_run.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the swarm-wide schema-v1 JSONL trace to PATH "
        "(replayable with 'repro replay')",
    )
    net_run.add_argument(
        "--check", action="store_true",
        help="run the conformance checks over the trace after the download",
    )

    model_parser = commands.add_parser(
        "model", help="evaluate the Qiu-Srikant fluid model"
    )
    model_parser.set_defaults(usage_error=model_parser.error)
    model_parser.add_argument("--arrival-rate", type=float, required=True)
    model_parser.add_argument(
        "--upload", type=float, required=True, help="peer upload, bytes/s"
    )
    model_parser.add_argument(
        "--content", type=float, required=True, help="content size, bytes"
    )
    model_parser.add_argument(
        "--seed-stay", type=float, default=60.0,
        help="mean seeding time, s (0 = seeds never leave)",
    )
    model_parser.add_argument("--abort-rate", type=float, default=0.0)
    model_parser.add_argument("--effectiveness", type=float, default=1.0)
    model_parser.add_argument("--duration", type=float, default=2000.0)
    model_parser.add_argument(
        "--seed-capacity", type=float, default=0.0, metavar="PER_S",
        help="completions/s injected by a permanent initial seed "
        "(open-system extension)",
    )
    model_parser.add_argument(
        "--open", action="store_true",
        help="open system: volunteer seeds depart instantly "
        "(seed_departure_rate = inf, overrides --seed-stay)",
    )

    tracker_parser = commands.add_parser(
        "tracker", help="run the standalone announce server"
    )
    tracker_commands = tracker_parser.add_subparsers(
        dest="tracker_command", required=True
    )
    tracker_serve = tracker_commands.add_parser(
        "serve",
        help="serve announces over HTTP-style TCP and UDP datagrams",
    )
    tracker_serve.set_defaults(usage_error=tracker_serve.error)
    tracker_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    tracker_serve.add_argument(
        "--port", type=int, default=6969, help="HTTP announce port (0 = ephemeral)"
    )
    tracker_serve.add_argument(
        "--udp-port", type=int, default=None,
        help="UDP announce port (default: same as --port; 0 = ephemeral)",
    )
    tracker_serve.add_argument(
        "--seed", type=int, default=0,
        help="service seed for per-request RNG derivation",
    )
    tracker_serve.add_argument(
        "--interval", type=float, default=None,
        help="announce interval handed to clients (seconds; default 1800)",
    )
    tracker_serve.add_argument(
        "--announce-budget", type=float, default=None, metavar="PER_SECOND",
        help="load-shedding budget in announces/second (default: unlimited)",
    )
    tracker_serve.add_argument(
        "--expiry-intervals", type=float, default=None, metavar="K",
        help="reap peers silent for more than K announce intervals "
        "(default: never expire)",
    )
    tracker_serve.add_argument(
        "--stats-interval", type=float, default=60.0,
        help="seconds between stats lines on stderr (0 = never)",
    )

    return parser


CAMPAIGN_ARGUMENTS = {
    "--replicates": dict(
        type=int, default=1,
        help="replicate seeds per shard (and, for 'reproduce', per ablation)",
    ),
    "--workers": dict(type=int, default=1, help="worker processes"),
    "--cache-dir": dict(
        default="campaign-cache",
        help="content-addressed shard cache + manifest directory",
    ),
    "--results-dir": dict(
        default=None, metavar="DIR",
        help="write result tables into DIR: 'campaign run' adds its "
        "aggregated table there, 'reproduce' writes the per-claim files and "
        "scorecard.txt (its default: benchmarks/results, where it also "
        "refreshes the scorecard block of ./EXPERIMENTS.md)",
    ),
}


def _campaign_arguments(parser: argparse.ArgumentParser, *flags: str) -> None:
    """The flags ``campaign run|diff`` and ``reproduce`` share, declared
    once; each parser names the ones it takes, where its help lists them."""
    for flag in flags:
        parser.add_argument(flag, **CAMPAIGN_ARGUMENTS[flag])


def _run_option_arguments(parser: argparse.ArgumentParser) -> None:
    """The run coordinates a single run and a whole campaign both take
    (``run`` and ``campaign run|diff``), declared once."""
    # A bad value surfaces when the options are resolved, after parsing;
    # the handler reports it through the subcommand's own parser.
    parser.set_defaults(usage_error=parser.error)
    parser.add_argument(
        "--duration", type=float, default=None,
        help="override the simulated run length (seconds) of the run, or "
        "of every shard",
    )


def _experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--torrent", type=int, default=7, help="Table-I id (1-26)")
    parser.add_argument("--seed", type=int, default=3, help="RNG seed")
    _run_option_arguments(parser)
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a structured JSONL event trace (replayable with "
        "'repro replay')",
    )
    parser.add_argument(
        "--trace-all", action="store_true",
        help="trace every peer in the swarm, not just the local one",
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list-torrents": _cmd_list_torrents,
        "run": _cmd_run,
        "replay": _cmd_replay,
        "trace": _cmd_trace,
        "model": _cmd_model,
        "net": _cmd_net,
        "campaign": _cmd_campaign,
        "reproduce": _cmd_reproduce,
        "tracker": _cmd_tracker,
    }[args.command]
    return handler(args)


def _cmd_list_torrents(args: argparse.Namespace) -> int:
    from repro.reporting.render import ascii_table
    from repro.workloads import TABLE1

    rows = []
    for scenario in TABLE1:
        rows.append(
            [
                scenario.torrent_id,
                scenario.paper_seeds,
                scenario.paper_leechers,
                scenario.paper_size_mb,
                scenario.seeds,
                scenario.leechers,
                scenario.num_pieces,
                "transient" if scenario.transient else "steady",
            ]
        )
    print(
        ascii_table(
            ["id", "S", "L", "MB", "S'", "L'", "pieces", "state"], rows
        )
    )
    return 0


def _run_options(args: argparse.Namespace):
    """The coordinates the parsed flags name (flag dest = field name)."""
    from repro.workloads import RunOptions

    named = {
        f.name: getattr(args, f.name)
        for f in fields(RunOptions)
        if hasattr(args, f.name)
    }
    return RunOptions(**named)


def _claims_over(args: argparse.Namespace):
    """The ``--claims`` rows and the Table-I scenario of the run they
    render, checked before anything is simulated or read."""
    from repro.analysis.claims import one_run_claims
    from repro.workloads import scenario_by_id

    try:
        return one_run_claims(args.claims or ""), scenario_by_id(args.torrent)
    except KeyError as exc:
        args.usage_error(exc.args[0])


def _print_claims(claims, run) -> None:
    for claim in claims:
        print(claim.report([run], claim.measure([run])), end="")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.claims import Run
    from repro.campaign import run_summary
    from repro.instrumentation import TraceRecorder
    from repro.workloads import build_experiment, resolve_scenario

    claims, table_scenario = _claims_over(args)
    try:
        options = _run_options(args)
        scenario = resolve_scenario(args.torrent, options)
    except ValueError as exc:
        args.usage_error(exc.args[0])
    print(
        "running torrent %d (%s, %d+%d peers, %d pieces) for %.0f s ..."
        % (scenario.torrent_id, "transient" if scenario.transient else "steady",
           scenario.seeds, scenario.leechers, scenario.num_pieces,
           scenario.duration),
        file=sys.stderr,
    )
    described = options.non_default()
    if described:
        print(
            "run options: %s"
            % ", ".join("%s=%s" % item for item in described.items()),
            file=sys.stderr,
        )
    # A claim reads the trace fingerprint a shard's record carries.
    recorder = TraceRecorder(args.trace) if args.trace or claims else None
    harness = build_experiment(
        scenario, args.seed, options,
        trace_recorder=recorder, trace_all_peers=args.trace_all,
    )
    trace = harness.run()
    fingerprint = recorder.close() if recorder is not None else None
    if args.trace:
        print(
            "structured trace: %s (%d events, fingerprint %s)"
            % (args.trace, recorder.events_emitted, fingerprint[:16]),
            file=sys.stderr,
        )
    print(
        "local peer: %d pieces, seed at t=%s, %d messages sent"
        % (trace.peer.bitfield.count, trace.seed_state_at, trace.messages_sent)
    )
    print(trace.metrics.render())
    summary = run_summary(harness, trace, fingerprint)
    _print_claims(claims, Run(table_scenario, trace, summary))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Exit 0: done; 2: a bad claim or torrent id, or the trace is
    unreadable or lacks the peer."""
    from repro.analysis.claims import Run
    from repro.instrumentation import replay_instrumentation, traced_peers
    from repro.instrumentation.replay import TraceFormatError

    claims, scenario = _claims_over(args)
    try:
        if args.list_peers:
            for address in traced_peers(args.trace):
                print(address)
            return 0
        trace = replay_instrumentation(args.trace, peer=args.peer)
    except (TraceFormatError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(
        "replayed %d events for peer %s"
        % (trace.replayed_from_events, trace.peer.address),
        file=sys.stderr,
    )
    # One peer's events know when it became a seed, not when the swarm
    # pushed its first full copy.
    summary = {"local_completed_at": trace.seed_state_at, "first_full_copy_at": None}
    _print_claims(claims, Run(scenario, trace, summary))
    return 0


def _event_line(event: dict) -> str:
    return json.dumps(event, separators=(",", ":"))


def _cmd_trace(args: argparse.Namespace) -> int:
    """Exit 0: done / identical; 1: the traces diverge; 2: unreadable."""
    from repro.instrumentation.replay import TraceFormatError

    try:
        if args.trace_command == "stats":
            return _trace_stats(args)
        return _trace_diff(args)
    except (TraceFormatError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _trace_stats(args: argparse.Namespace) -> int:
    from repro.instrumentation import trace_stats
    from repro.reporting.render import ascii_table

    stats = trace_stats(args.trace)
    print("%d events from %d peers" % (stats.events, len(stats.peers)))
    if stats.span is not None:
        print("simulated time %r .. %r" % stats.span)
    for column, counts in (("kind", stats.kinds), ("peer", stats.peers)):
        rows = sorted(counts.items(), key=lambda row: (-row[1], row[0]))
        print(ascii_table([column, "events"], rows))
    return 0


def _trace_diff(args: argparse.Namespace) -> int:
    from repro.instrumentation import diff_traces

    if args.context < 0:
        args.usage_error("--context must be >= 0, not %d" % args.context)
    diff = diff_traces(args.a, args.b, context=args.context)
    if diff.identical:
        print("traces are identical: %d events" % diff.events[0])
        return 0
    print("traces diverge at event %d" % diff.index)
    first = diff.index - len(diff.before)
    for offset, event in enumerate(diff.before):
        print("    [%d] %s" % (first + offset, _event_line(event)))
    for label, path, tail in (("A", args.a, diff.left), ("B", args.b, diff.right)):
        print("%s: %s" % (label, path))
        if not tail:
            print("  > [%d] (trace ends here)" % diff.index)
        for offset, event in enumerate(tail):
            print(
                "  %s [%d] %s"
                % (">" if offset == 0 else " ", diff.index + offset, _event_line(event))
            )
    print("events: A %d, B %d" % diff.events)
    if diff.kind_delta:
        print("per-kind count delta (B - A):")
        for kind, count in diff.kind_delta.items():
            print("    %-12s %+d" % (kind, count))
    return 1


def _campaign_spec_from_args(args: argparse.Namespace):
    from repro.campaign import CampaignSpec, expand_spec, parse_torrent_ids

    try:
        spec = CampaignSpec(
            name=args.name,
            torrent_ids=parse_torrent_ids(args.torrents),
            scenarios=tuple(
                name.strip() for name in args.scenario.split(",") if name.strip()
            ),
            replicates=args.replicates,
            campaign_seed=args.campaign_seed,
            duration=args.duration,
        )
        # Unknown scenario, bad run length: fail as a usage error before
        # the cache is read or a worker spawned.
        expand_spec(spec)
    except (KeyError, ValueError) as exc:
        args.usage_error(exc.args[0])
    return spec


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignRunner,
        MANIFEST_NAME,
        render_campaign_table,
        render_manifest_table,
    )

    if args.campaign_command == "status":
        manifest_path = Path(args.cache_dir) / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except OSError:
            print("no manifest at %s (run a campaign first)" % manifest_path,
                  file=sys.stderr)
            return 1
        except ValueError as exc:
            print("unreadable manifest at %s: %s" % (manifest_path, exc),
                  file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(manifest, indent=2))
        else:
            print(render_manifest_table(manifest), end="")
        return 0

    if args.campaign_command == "diff":
        from repro.campaign import diff_spec

        report = diff_spec(
            _campaign_spec_from_args(args), args.cache_dir,
            shard_filter=args.filter,
        )
        if args.json:
            payload = {
                "campaign": report.campaign,
                "counts": report.counts(),
                "shards": [
                    {
                        "shard_id": delta.shard_id,
                        "key": delta.key,
                        "state": delta.state,
                        "reason": delta.reason,
                        "changed_fields": [
                            list(change) for change in delta.changed_fields
                        ],
                    }
                    for delta in report.deltas
                ],
                "removed": report.removed,
            }
            print(json.dumps(payload, indent=2))
        else:
            print(report.render(), end="")
        return 1 if report.invalidated else 0

    spec = _campaign_spec_from_args(args)
    try:
        runner = CampaignRunner(
            spec,
            cache_dir=args.cache_dir,
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            progress=lambda message: print(message, file=sys.stderr),
        )
    except ValueError as exc:
        args.usage_error(exc.args[0])
    if args.incremental:
        from repro.campaign import diff_spec

        report = diff_spec(spec, args.cache_dir, shard_filter=args.filter)
        print(report.render(), end="", file=sys.stderr)
    result = runner.run(resume=args.resume, shard_filter=args.filter)
    table = render_campaign_table(list(result.records.values()))
    summary_path = Path(args.cache_dir) / ("campaign_%s.txt" % spec.name)
    summary_path.write_text(table)
    if args.results_dir:
        results_dir = Path(args.results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / ("campaign_%s.txt" % spec.name)).write_text(table)
    print(table, end="")
    counts = result.counts
    print(
        "shards=%d ok=%d failed=%d timeout=%d cache_hits=%d executed=%d"
        % (
            counts["shards"], counts["ok"], counts["failed"],
            counts["timeout"], counts["cache_hits"], counts["executed"],
        )
    )
    print("manifest: %s" % (Path(args.cache_dir) / MANIFEST_NAME))
    print("manifest_fingerprint: %s" % result.fingerprint)
    return 1 if result.failed_shards() else 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.analysis.claims import select_claims
    from repro.analysis.reproduce import ShardsFailed, publish_scorecard, reproduce

    try:
        claims = select_claims(args.claims)
    except KeyError as exc:
        args.usage_error(exc.args[0])
    if args.replicates < 1:
        args.usage_error("--replicates must be at least 1")
    if args.workers < 1:
        args.usage_error("workers must be >= 1, not %d" % args.workers)
    try:
        scorecard = reproduce(
            claims,
            replicates=args.replicates,
            cache_dir=args.cache_dir,
            results_dir=Path(args.results_dir or "benchmarks/results"),
            workers=args.workers,
            progress=lambda message: print(message, file=sys.stderr),
        )
    except ShardsFailed as exc:
        for entry in exc.args[0]:
            print(
                "%s %s: %s"
                % (entry["status"], entry["shard_id"],
                   "; ".join(entry.get("errors", ()))),
                file=sys.stderr,
            )
        return 1
    print(scorecard, end="")
    # The committed table: all claims, into the default directory.
    document = Path("EXPERIMENTS.md")
    if args.results_dir is None and args.claims is None and document.exists():
        publish_scorecard(document, scorecard)
    # A failing claim is data: the table was produced, so the exit is 0.
    return 0


def _cmd_net(args: argparse.Namespace) -> int:
    from repro.instrumentation import TraceRecorder
    from repro.net.conformance import check_trace
    from repro.net.swarm import LiveSwarm
    from repro.protocol.metainfo import make_metainfo
    from repro.reporting.render import ascii_table
    from repro.sim.config import KIB, PeerConfig

    if min(args.seeds, args.leechers) < 0:
        args.usage_error("--seeds and --leechers must be >= 0")
    if not (math.isfinite(args.timeout) and args.timeout > 0):
        args.usage_error("--timeout must be finite and > 0, not %r" % args.timeout)
    try:
        metainfo = make_metainfo(
            "net-live",
            num_pieces=args.pieces,
            piece_size=args.piece_size,
            block_size=args.block_size,
        )
        config = PeerConfig(
            upload_capacity=args.upload * KIB,
            choke_interval=args.choke_interval,
            rate_window=max(1.0, 2 * args.choke_interval),
            min_peer_set=1,
        )
    except ValueError as exc:
        args.usage_error(exc.args[0])
    recorder = None
    if args.trace is not None or args.check:
        recorder = TraceRecorder(args.trace)
    swarm = LiveSwarm(
        metainfo, seed=args.seed, config=config, recorder=recorder
    )
    swarm.add_peers(args.seeds, args.leechers)
    result = swarm.run_sync(timeout=args.timeout)
    if result.stuck is not None:
        print(result.stuck, file=sys.stderr)

    rows = []
    for address in result.addresses:
        completed = result.completed_at.get(address)
        rows.append(
            [
                address,
                "seed" if completed == 0.0 else "leecher",
                "%.2f" % completed if completed is not None else "-",
                "%.0f" % result.uploaded.get(address, 0.0),
                "%.0f" % result.downloaded.get(address, 0.0),
            ]
        )
    print(ascii_table(["peer", "role", "done at (s)", "up (B)", "down (B)"], rows))
    print(
        "%d/%d peers complete in %.2f s wall clock"
        % (len(result.completed_at), len(result.addresses), result.duration)
    )
    if args.trace is not None:
        print("trace: %s (fingerprint %s)" % (args.trace, result.trace_fingerprint))
    if args.check:
        report = check_trace(recorder, num_pieces=args.pieces)
        print(
            "conformance: %s  %s"
            % (
                "OK" if report.ok else "%d VIOLATIONS" % len(report.violations),
                " ".join(
                    "%s=%d" % item for item in sorted(report.checks.items())
                ),
            )
        )
        for violation in report.violations[:10]:
            print("  " + violation)
        if not report.ok:
            return 1
    return 0 if result.all_complete else 1


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.models.fluid import FluidModel
    from repro.reporting.render import sparkline

    if args.seed_stay < 0:
        args.usage_error("--seed-stay must be >= 0 (0 = seeds never leave)")
    if args.open:
        seed_departure_rate = float("inf")
    else:
        seed_departure_rate = (
            1.0 / args.seed_stay if args.seed_stay > 0 else 0.0
        )
    if args.content <= 0:
        args.usage_error("--content must be > 0")
    try:
        model = FluidModel(
            arrival_rate=args.arrival_rate,
            upload_rate=args.upload / args.content,
            abort_rate=args.abort_rate,
            seed_departure_rate=seed_departure_rate,
            effectiveness=args.effectiveness,
            seed_capacity=args.seed_capacity,
        )
        states = model.integrate(duration=args.duration, dt=1.0)
    except ValueError as exc:
        args.usage_error(exc.args[0])
    leechers = [s.leechers for s in states]
    seeds = [s.seeds for s in states]
    print("leechers: %s" % sparkline(leechers[:: max(1, len(leechers) // 60)]))
    print("seeds:    %s" % sparkline(seeds[:: max(1, len(seeds) // 60)]))
    equilibrium = model.steady_state()
    if equilibrium is not None:
        print(
            "steady state: x*=%.1f leechers, y*=%.1f seeds"
            % (equilibrium.leechers, equilibrium.seeds)
        )
        mean_dl = model.mean_download_time()
        if mean_dl is not None:
            print("mean download time: %.0f s" % mean_dl)
    else:
        print("no finite steady state (unstable: the backlog grows)")
    print(
        "final populations after %.0f s: %.1f leechers, %.1f seeds"
        % (args.duration, leechers[-1], seeds[-1])
    )
    return 0


def _cmd_tracker(args: argparse.Namespace) -> int:
    """``repro tracker serve``: the standalone announce server."""
    import asyncio
    import time

    from repro.tracker.service import AnnounceBudget, TrackerService
    from repro.tracker.server import TrackerServer

    udp_port = args.udp_port if args.udp_port is not None else args.port
    for flag, port in (("--port", args.port), ("--udp-port", udp_port)):
        if not 0 <= port <= 65535:
            args.usage_error("%s must be in 0-65535, not %d" % (flag, port))
    service_kwargs = {
        "seed": args.seed,
        "expiry_intervals": args.expiry_intervals,
    }
    if args.interval is not None:
        service_kwargs["interval"] = args.interval
    try:
        if args.announce_budget is not None:
            service_kwargs["budget"] = AnnounceBudget(
                announces_per_second=args.announce_budget
            )
        service = TrackerService(time.monotonic, **service_kwargs)
    except ValueError as exc:
        args.usage_error(exc.args[0])

    async def serve() -> None:
        server = TrackerServer(
            service, host=args.host, http_port=args.port, udp_port=udp_port
        )
        await server.start()
        reap_task = None
        if service.expiry_intervals is not None:
            # Periodic full-store sweep: lazy per-announce expiry only
            # reaps swarms that still see traffic, so the sweep is what
            # bounds registry growth for abandoned swarms.
            window = service.expiry_intervals * service.interval

            async def reap_loop() -> None:
                while True:
                    await asyncio.sleep(window)
                    reaped = service.reap()
                    if reaped:
                        print(
                            "reaped %d dead peers" % reaped, file=sys.stderr
                        )

            reap_task = asyncio.ensure_future(reap_loop())
        print(
            "tracker serving on http://%s:%d/announce and udp://%s:%d "
            "(%s sampler%s)"
            % (
                args.host,
                server.http_port,
                args.host,
                server.udp_port,
                service.sampler.spec(),
                ", budget %.0f ann/s" % args.announce_budget
                if service.budget is not None
                else "",
            ),
            file=sys.stderr,
        )
        try:
            while True:
                await asyncio.sleep(
                    args.stats_interval if args.stats_interval > 0 else 3600.0
                )
                if args.stats_interval > 0:
                    stats = service.stats()
                    print(
                        "stats: %d announces (%d shed, %d rejected), "
                        "%d swarms, %d peers"
                        % (
                            stats["announces"],
                            stats["shed"],
                            stats["rejected"],
                            stats["swarms"],
                            stats["peers"],
                        ),
                        file=sys.stderr,
                    )
        finally:
            if reap_task is not None:
                reap_task.cancel()
            await server.stop()

    try:
        # Everything imported so far lives as long as the server: keep
        # it out of the collector's full passes.
        import gc
        gc.freeze()
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("tracker stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
