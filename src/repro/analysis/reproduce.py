"""``repro reproduce``: the table of claims, evaluated over replicate seeds.

The shards the claims need run as ordinary campaigns (``replicates=N``)
through the :class:`~repro.campaign.CampaignRunner`; the content-
addressed :class:`~repro.campaign.ShardCache` is the only memo, so
claims that read the same trace share one simulation and a second
invocation replays instead of simulating.  Ablations run inline at N
seeds.  Every claim is measured and checked per replicate; replicate 0
rewrites the per-claim result files, and the replicates together make
``scorecard.txt``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.analysis.claims import Claim, Numbers, Run
from repro.analysis.experiments import MetricSummary, run_replications
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ShardCache,
    ShardSpec,
    execute_shard,
    expand_spec,
)
from repro.workloads import scenario_by_id

#: A check holding at fewer replicates than this is flagged: a finding
#: about the code or about the claim (ROADMAP item 1).
PASS_RATE_FLOOR = 0.95

SCORECARD_BEGIN = "<!-- scorecard:begin (written by `repro reproduce`) -->"
SCORECARD_END = "<!-- scorecard:end -->"


class ShardsFailed(Exception):
    """Some needed shard did not execute; carries the manifest entries."""


def needed_specs(claims: Sequence[Claim], replicates: int) -> List[CampaignSpec]:
    """One campaign per block size, over the union of the torrents the
    claims read at that block size — a pure function of the registry.
    The default block size runs last, so the cache's ``manifest.json``
    (one per directory, overwritten by each run) is the big sweep's."""
    torrents: Dict[object, set] = {}
    for claim in claims:
        if claim.torrents:
            torrents.setdefault(claim.block_size, set()).update(claim.torrents)
    return [
        CampaignSpec(
            name="reproduce",
            torrent_ids=tuple(sorted(ids)),
            block_size=block_size,
            replicates=replicates,
        )
        for block_size, ids in sorted(
            torrents.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)
        )
    ]


def needed_shards(claims: Sequence[Claim], replicates: int) -> List[ShardSpec]:
    return [
        shard
        for spec in needed_specs(claims, replicates)
        for shard in expand_spec(spec)
    ]


def load_run(shard: ShardSpec, cache: ShardCache) -> Run:
    """The shard as a claim sees it: executed, or replayed from the cache."""
    record, trace = execute_shard(shard, cache=cache, want_instrumentation=True)
    return Run(scenario_by_id(shard.torrent_id), trace, record["summary"])


def reproduce(
    claims: Sequence[Claim],
    replicates: int,
    cache_dir: str,
    results_dir: Path,
    workers: int = 1,
    progress: Callable[[str], None] = lambda message: None,
) -> str:
    """Evaluate *claims* over *replicates* seeds; returns the scorecard."""
    failed: List[dict] = []
    for spec in needed_specs(claims, replicates):
        runner = CampaignRunner(
            spec, cache_dir=cache_dir, workers=workers, progress=progress
        )
        failed += runner.run().failed_shards()
    if failed:
        raise ShardsFailed(failed)
    cache = ShardCache(cache_dir)
    shards = needed_shards(claims, replicates)
    results_dir.mkdir(parents=True, exist_ok=True)

    def evaluate(replicate: int) -> Numbers:
        """Every claim's numbers (``id.number``) and check outcomes
        (``id:check``, 1.0 holds / 0.0 does not) at one replicate."""
        runs = {
            (shard.torrent_id, shard.options.block_size): load_run(shard, cache)
            for shard in shards
            if shard.replicate == replicate
        }
        row: Numbers = {}
        for claim in claims:
            if claim.build is not None:
                evidence = claim.build(claim.seed(replicate))
            else:
                evidence = [runs[tid, claim.block_size] for tid in claim.torrents]
            numbers = claim.measure(evidence)
            if replicate == 0:
                (results_dir / (claim.results_name + ".txt")).write_text(
                    claim.report(evidence, numbers)
                )
            for name, value in numbers.items():
                row["%s.%s" % (claim.id, name)] = value
            for check in claim.checks:
                row["%s:%s" % (claim.id, check.name)] = float(check.holds(numbers))
            progress("measured %s r%d" % (claim.id, replicate))
        return row

    scorecard = render_scorecard(
        claims, run_replications(evaluate, range(replicates)), replicates
    )
    (results_dir / "scorecard.txt").write_text(scorecard)
    return scorecard


def render_scorecard(
    claims: Sequence[Claim], stats: Dict[str, MetricSummary], replicates: int
) -> str:
    row = "%-4s %-28s %-68s %-30s %6s %6s%s"
    lines = [
        "Reproduction scorecard — %d claims, %d checks, N=%d replicate seeds"
        % (len(claims), sum(len(claim.checks) for claim in claims), replicates),
        "ours: median [quartiles] of the check's number over the replicates where",
        "it is evaluable (eval); pass: replicates where the check holds — a NaN",
        "does not.  Rows under %d%% are flagged <." % round(100 * PASS_RATE_FLOOR),
        "",
        (row % ("id", "check", "criterion", "ours", "eval", "pass", "")).rstrip(),
    ]
    for claim in claims:
        lines.append("%s — %s" % (claim.id, claim.statement))
        for check in claim.checks:
            number = stats["%s.%s" % (claim.id, check.number)]
            passed = sum(stats["%s:%s" % (claim.id, check.name)].values)
            ours = "%.4g [%.4g, %.4g]" % (number.median, number.q1, number.q3)
            lines.append(
                row
                % (
                    claim.id,
                    check.name,
                    check.criterion,
                    ours if number.n else "-",
                    "%d/%d" % (number.n, replicates),
                    "%d/%d" % (passed, replicates),
                    " <" if passed < PASS_RATE_FLOOR * replicates else "",
                )
            )
    return "\n".join(lines) + "\n"


def publish_scorecard(document: Path, scorecard: str) -> None:
    """Replace the block between the two scorecard markers of *document*."""
    text = document.read_text()
    head, __, rest = text.partition(SCORECARD_BEGIN)
    __, __, tail = rest.partition(SCORECARD_END)
    document.write_text(
        "%s%s\n```\n%s```\n%s%s" % (head, SCORECARD_BEGIN, scorecard, SCORECARD_END, tail)
    )
