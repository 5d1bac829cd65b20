"""The table of claims: every shape result this repository reproduces.

One ordered tuple of :class:`Claim` records, ids exactly DESIGN §4's
``T1, F1..F11, A1..A6, S1``.  A claim declares once its statement (the
paper's, or for S1 the later work it comes from), what it needs
(Table-I campaign shards, or the builder of its bespoke swarms), how its
numbers are measured, the named checks over
those numbers (DESIGN §5 is prose; these are the criteria) and the
renderer of its ``benchmarks/results/<name>.txt``.  ``repro reproduce``
(:mod:`repro.analysis.reproduce`) evaluates the table over replicate
seeds; ``repro run|replay --claims`` render the figure rows over one run.

Numbers are floats.  NaN means *not evaluable* in that replicate — a
check over a NaN number does not hold — and ``inf`` is a time that never
came (a peer that did not complete within the run).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.analysis import ablations, stability
from repro.analysis.ablations import NAN
from repro.analysis.entropy import summarize_entropy
from repro.analysis.fairness import (
    leecher_contribution,
    seed_contribution,
    unchoke_interest_correlation,
)
from repro.analysis.interarrival import interarrival_summary
from repro.analysis.peerset import peer_set_series
from repro.analysis.replication import (
    linearity_r_squared,
    rarest_set_decay_rate,
    rarest_set_series,
    replication_series,
)
from repro.analysis.stats import cdf_at, pearson
from repro.campaign.spec import (
    DEFAULT_CAMPAIGN_SEED,
    PAPER_TORRENT_IDS,
    CampaignSpec,
    derive_shard_seed,
    expand_spec,
)
from repro.instrumentation import Instrumentation
from repro.reporting.render import ascii_table
from repro.workloads import TABLE1, TorrentScenario, scenario_by_id

Numbers = Dict[str, float]

OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq,
}


class Run(NamedTuple):
    """One executed-or-replayed Table-I shard, as a claim sees it."""

    scenario: TorrentScenario
    trace: Instrumentation
    summary: dict
    """Swarm-level facts the analysis cannot recover from the trace."""


@dataclass(frozen=True)
class Check:
    """One named sub-criterion of a claim: ``number op bound``."""

    name: str
    number: str
    op: str
    bound: Union[float, tuple]
    """A constant, or ``(factor, other number[, offset])``."""

    def holds(self, numbers: Numbers) -> bool:
        bound = self.bound
        if isinstance(bound, tuple):
            factor, other, *offset = bound
            bound = factor * numbers[other] + sum(offset)
        # Every comparison with NaN is false: not evaluable, not a pass.
        return OPS[self.op](numbers[self.number], bound)

    @property
    def criterion(self) -> str:
        bound = self.bound
        if not isinstance(bound, tuple):
            return "%s %s %g" % (self.number, self.op, bound)
        factor, other, *offset = bound
        text = other if factor == 1 else "%g x %s" % (factor, other)
        if offset:
            text += " %s %g" % ("+" if offset[0] >= 0 else "-", abs(offset[0]))
        return "%s %s %s" % (self.number, self.op, text)


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    results_name: str
    measure: Callable[..., Numbers]
    """Evidence (the claim's runs in torrent order, or its builder's
    output) -> named numbers."""

    render: Callable[..., List[str]]
    """(evidence, numbers) -> the lines of ``<results_name>.txt``."""

    checks: Tuple[Check, ...]
    torrents: Tuple[int, ...] = ()
    block_size: Optional[int] = None
    build: Optional[Callable[[int], dict]] = None
    """Ablations and S1 only: seed -> every variant's plain numbers."""

    pinned_seed: Optional[int] = None

    def report(self, evidence, numbers: Numbers) -> str:
        """The text of ``<results_name>.txt``."""
        return "\n".join(self.render(evidence, numbers)) + "\n"

    def seed(self, replicate: int) -> int:
        """Replicate 0 is the builder's historical pinned seed; later
        replicates follow :func:`derive_shard_seed`'s sha256 rule."""
        if replicate == 0:
            return self.pinned_seed
        return derive_shard_seed(self.pinned_seed, 0, self.id, replicate)


def _mean(values) -> float:
    return sum(values) / len(values) if values else NAN


def _share(values, predicate) -> float:
    return _mean([1.0 if predicate(value) else 0.0 for value in values])


def _sampled(pattern: str, *columns) -> List[str]:
    """About forty evenly spaced rows of parallel series."""
    rows = list(zip(*columns))
    return [pattern % row for row in rows[:: max(1, len(rows) // 40)]]


def _fingerprint_line(summary: dict) -> List[str]:
    # Pins the result file to the exact run it was derived from.
    if summary.get("trace_fingerprint"):
        return ["shard trace fingerprint: %s" % summary["trace_fingerprint"]]
    return []


# -- T1 ---------------------------------------------------------------------


def _table1_measure(runs) -> Numbers:
    # The table is rendered from the campaign expansion of the default
    # evaluation matrix, so it also checks that `repro campaign run`
    # covers exactly the paper's 26 torrents on their historical streams.
    shards = expand_spec(CampaignSpec())
    seed = DEFAULT_CAMPAIGN_SEED
    off_table = sum(
        1
        for shard, scenario in zip_longest(shards, TABLE1)
        if shard is None or scenario is None or shard.torrent_id != scenario.torrent_id
    )
    off_stream = sum(
        1
        for shard in shards
        if not shard.seed
        == derive_shard_seed(seed, shard.torrent_id, "paper", 0)
        == seed + 37 * shard.torrent_id
    )
    return {
        "torrents": float(len(TABLE1)),
        "no_seed": float(sum(1 for s in TABLE1 if s.paper_seeds == 0)),
        "single_seed": float(sum(1 for s in TABLE1 if s.paper_seeds == 1)),
        "seed_heavy": float(sum(1 for s in TABLE1 if s.paper_ratio > 1)),
        "shards_off_table": float(off_table),
        "seeds_off_stream": float(off_stream),
    }


def _ratio(value: float) -> str:
    return "inf" if math.isinf(value) else "%.2g" % value


def _table1_render(runs, numbers) -> List[str]:
    lines = [
        "Table I — torrent characteristics (paper -> scaled reproduction)",
        "%-3s %8s %8s %9s %7s %8s | %6s %7s %7s %9s %5s"
        % (
            "ID", "# of S", "# of L", "ratio", "maxPS", "size MB",
            "S", "L", "ratio", "pieces", "state",
        ),
    ]
    for shard in expand_spec(CampaignSpec()):
        scenario = scenario_by_id(shard.torrent_id)
        lines.append(
            "%-3d %8d %8d %9s %7d %8d | %6d %7d %7s %9d %5s"
            % (
                scenario.torrent_id, scenario.paper_seeds, scenario.paper_leechers,
                _ratio(scenario.paper_ratio), scenario.paper_max_peer_set,
                scenario.paper_size_mb, scenario.seeds, scenario.leechers,
                _ratio(scenario.scaled_ratio), scenario.num_pieces,
                "T" if scenario.transient else "S",
            )
        )
    return lines


# -- F1 ---------------------------------------------------------------------


def _entropy_measure(runs) -> Numbers:
    steady_ab, transient_ab, steady_cd = [], [], []
    for run in runs:
        summary = summarize_entropy(run.trace)
        if not math.isnan(summary.median_local):
            (transient_ab if run.scenario.transient else steady_ab).append(
                summary.median_local
            )
        if not run.scenario.transient and not math.isnan(summary.median_remote):
            steady_cd.append(summary.median_remote)
    return {
        "steady_ab_near_one": _share(steady_ab, lambda m: m >= 0.9),
        "mean_steady_ab": _mean(steady_ab),
        "mean_transient_ab": _mean(transient_ab),
        "steady_cd_high": _share(steady_cd, lambda m: m >= 0.7),
    }


def _entropy_render(runs, numbers) -> List[str]:
    lines = [
        "Figure 1 — entropy characterisation (per-torrent percentiles)",
        "%-3s %5s | %6s %6s %6s | %6s %6s %6s | %-9s"
        % ("ID", "n", "a/b20", "a/b50", "a/b80", "c/d20", "c/d50", "c/d80", "state"),
    ]
    for scenario, trace, __ in runs:
        summary = summarize_entropy(trace)
        lines.append(
            "%-3d %5d | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f | %-9s"
            % (
                scenario.torrent_id, len(summary.local_in_remote),
                summary.p20_local, summary.median_local, summary.p80_local,
                summary.p20_remote, summary.median_remote, summary.p80_remote,
                "transient" if scenario.transient else "steady",
            )
        )
    return lines


def _torrent(runs) -> int:
    return runs[0].scenario.torrent_id


# -- F2 / F3 (torrent 8, transient) -----------------------------------------


def _replication_rows(series) -> List[str]:
    return ["%8s %6s %8s %6s" % ("t (s)", "min", "mean", "max")] + _sampled(
        "%8.0f %6d %8.2f %6d",
        series.times, series.min_copies, series.mean_copies, series.max_copies,
    )


def _transient_replication_measure(runs) -> Numbers:
    series = replication_series(runs[0].trace, leecher_state_only=True)
    return {
        "rare_fraction": _share(series.min_copies, lambda low: low <= 1),
        "max_copies": float(max(series.max_copies, default=NAN)),
        "mean_copies_first": series.mean_copies[0] if series.times else NAN,
        "mean_copies_last": series.mean_copies[-1] if series.times else NAN,
    }


def _transient_replication_render(runs, numbers) -> List[str]:
    __, trace, summary = runs[0]
    return [
        "Figure 2 — copies of pieces in the peer set vs time (torrent %d, leecher state)"
        % _torrent(runs),
        *_replication_rows(replication_series(trace, leecher_state_only=True)),
        "fraction of samples with rare pieces (min <= 1 copy): %.2f"
        % numbers["rare_fraction"],
        "first full copy pushed at: %s" % summary["first_full_copy_at"],
        *_fingerprint_line(summary),
    ]


def _transient_rarest_measure(runs) -> Numbers:
    scenario, trace, summary = runs[0]
    times, sizes = rarest_set_series(trace, leecher_state_only=True)
    # Fit only the strictly transient window (before the first full copy),
    # as the paper does: after it the set size has collapsed.
    cutoff = summary["first_full_copy_at"] or (times[-1] if times else 0.0)
    fit_times = [t for t in times if t <= cutoff]
    fit_sizes = sizes[: len(fit_times)]
    slope = rarest_set_decay_rate(fit_times, fit_sizes)
    fit = linearity_r_squared(fit_times, fit_sizes)
    return {
        "slope": NAN if slope is None else slope,
        "drain_rate": NAN if slope is None else abs(slope),
        "r_squared": NAN if fit is None else fit,
        "seed_rate_pieces": scenario.initial_seed_upload / scenario.piece_size,
    }


def _transient_rarest_render(runs, numbers) -> List[str]:
    __, trace, summary = runs[0]
    return [
        "Figure 3 — number of rarest pieces vs time (torrent %d, leecher state)"
        % _torrent(runs),
        "%8s %8s" % ("t (s)", "rarest"),
        *_sampled("%8.0f %8d", *rarest_set_series(trace, leecher_state_only=True)),
        "linear fit over the transient window:",
        "  slope = %.4f pieces/s (R^2 = %.3f); initial seed pushes %.4f pieces/s"
        % (numbers["slope"], numbers["r_squared"], numbers["seed_rate_pieces"]),
        *_fingerprint_line(summary),
    ]


# -- F4 / F5 / F6 / F10 (torrent 7, steady) ---------------------------------


def _steady_replication_measure(runs) -> Numbers:
    full = replication_series(runs[0].trace)
    leecher = replication_series(runs[0].trace, leecher_state_only=True)
    out_of_bounds = sum(
        1
        for low, mean, high in zip(full.min_copies, full.mean_copies, full.max_copies)
        if not low <= mean <= high
    )
    return {
        "leecher_samples": float(len(leecher.times)),
        "leecher_min_copies": float(min(leecher.min_copies, default=NAN)),
        "samples_mean_out_of_bounds": float(out_of_bounds),
    }


def _steady_replication_render(runs, numbers) -> List[str]:
    __, trace, summary = runs[0]
    return [
        "Figure 4 — copies of pieces in the peer set vs time (torrent %d)"
        % _torrent(runs),
        *_replication_rows(replication_series(trace)),
        "local peer became a seed at t=%s" % summary["local_completed_at"],
    ]


def _peer_set_measure(runs) -> Numbers:
    times, sizes = peer_set_series(runs[0].trace)
    seed_at = runs[0].summary["local_completed_at"]
    numbers = {
        "max_size": float(max(sizes, default=NAN)),
        "peak_before_seed": NAN,
        "min_after_seed": NAN,
    }
    # The seed transition sheds the seed connections: the size right
    # after completion is compared with the leecher-phase peak.
    if seed_at is not None:
        before = [s for t, s in zip(times, sizes) if t <= seed_at]
        after = [s for t, s in zip(times, sizes) if t >= seed_at]
        numbers["peak_before_seed"] = float(max(before, default=NAN))
        numbers["min_after_seed"] = float(min(after[:6], default=NAN))
    return numbers


def _peer_set_render(runs, numbers) -> List[str]:
    return [
        "Figure 5 — size of the peer set vs time (torrent %d)" % _torrent(runs),
        "%8s %6s" % ("t (s)", "size"),
        *_sampled("%8.0f %6d", *peer_set_series(runs[0].trace)),
    ]


def _direction_changes(values) -> int:
    changes = 0
    last_direction = 0
    for earlier, later in zip(values, values[1:]):
        if later == earlier:
            continue
        direction = 1 if later > earlier else -1
        if last_direction and direction != last_direction:
            changes += 1
        last_direction = direction
    return changes


def _steady_rarest_measure(runs) -> Numbers:
    __, sizes = rarest_set_series(runs[0].trace)
    return {
        "direction_changes": float(_direction_changes(sizes)),
        "last_size": float(sizes[-1]) if sizes else NAN,
        "max_size": float(max(sizes, default=NAN)),
        "tail_mean": _mean(sizes[len(sizes) // 2 :]),
    }


def _steady_rarest_render(runs, numbers) -> List[str]:
    return [
        "Figure 6 — number of rarest pieces vs time (torrent %d)" % _torrent(runs),
        "%8s %8s" % ("t (s)", "rarest"),
        *_sampled("%8.0f %8d", *rarest_set_series(runs[0].trace)),
        "direction changes (sawtooth count): %d" % numbers["direction_changes"],
    ]


def _service_stats(trace, state: str) -> Tuple[float, float, int]:
    """(top-5 share of service time, Pearson(interest, rounds), n) for one
    state of the local peer.

    The discriminating statistic is the share of *service time*
    (unchoked rounds) held by the 5 most-served peers: the leecher choke
    concentrates service on its reciprocating subset, the seed rotation
    spreads it thin and correlates it with interested time instead.
    """
    window = trace.leecher_interval if state == "leecher" else trace.seed_interval
    if window is None:
        return 0.0, 0.0, 0
    start, end = window
    interests, rounds = [], []
    for record in trace.records.values():
        interested = record.remote_interested_in_local.total_clipped(start, end)
        count = (
            record.unchoked_rounds_leecher
            if state == "leecher"
            else record.unchoked_rounds_seed
        )
        if interested > 0 or count > 0:
            interests.append(interested)
            rounds.append(float(count))
    total = sum(rounds)
    if total == 0:
        return 0.0, 0.0, len(rounds)
    top5 = sum(sorted(rounds, reverse=True)[:5]) / total
    return top5, pearson(interests, rounds), len(rounds)


def _unchoke_measure(runs) -> Numbers:
    numbers = {}
    for state in ("leecher", "seed"):
        top5, correlation, n = _service_stats(runs[0].trace, state)
        numbers.update(
            {state + "_top5": top5, state + "_r": correlation, state + "_n": float(n)}
        )
    return numbers


def _unchoke_render(runs, numbers) -> List[str]:
    lines = ["Figure 10 — unchokes vs interested time (torrent %d)" % _torrent(runs)]
    for state, label in (("leecher", "leecher state: "), ("seed", "seed state:    ")):
        lines.append(
            "%sn=%d  top-5 service share = %.2f  Pearson(interest, service) = %.2f"
            % (label, numbers[state + "_n"], numbers[state + "_top5"],
               numbers[state + "_r"])
        )
    lines.append("")
    for state in ("leecher", "seed"):
        points = unchoke_interest_correlation(runs[0].trace, state=state)
        lines.append("%s state (interested s -> unchokes):" % state)
        for interest, count in sorted(
            zip(points.interested_times, points.unchoke_counts)
        )[:: max(1, len(points) // 30)]:
            lines.append("  %8.0f %6d" % (interest, count))
    return lines


# -- F7 / F8 (torrent 10 at 4 blocks per piece) -----------------------------

#: Finer blocks than the workload default: figure 8 shares figure 7's run
#: and needs block-level resolution (4 blocks/piece).
INTERARRIVAL_BLOCK_SIZE = 32 * 1024


def _interarrival(runs, kind: str):
    try:
        return interarrival_summary(runs[0].trace, kind=kind, n=100)
    except ValueError:  # fewer than three arrivals: nothing to compare
        return None


def _interarrival_render(
    runs, figure: int, kind: str, digits: int, details: Callable
) -> List[str]:
    """Title and population medians, then *details(summary)*; a run with
    fewer than three *kind* arrivals has nothing to compare."""
    title = "Figure %d — CDF of %s interarrival time (torrent %d)" % (
        figure, kind, _torrent(runs)
    )
    summary = _interarrival(runs, kind)
    if summary is None:
        return [title, "not evaluable: fewer than three %s arrivals" % kind]
    medians = "population medians: all=%.{0}fs  first-%d=%.{0}fs  last-%d=%.{0}fs"
    return [
        title,
        medians.format(digits)
        % (summary.median_all, summary.n, summary.median_first, summary.n,
           summary.median_last),
        *details(summary),
        *_cdf_rows(summary),
    ]


def _cdf_rows(summary) -> List[str]:
    """The three CDFs on a shared grid of interarrival thresholds."""
    populations = (summary.all_items, summary.first_n, summary.last_n)
    ordered = sorted(summary.all_items)
    grid = sorted({round(v, 3) for v in ordered[:: max(1, len(ordered) // 25)]})
    return ["%10s %8s %8s %8s" % ("t (s)", "all", "first", "last")] + [
        "%10.3f %8.3f %8.3f %8.3f"
        % (threshold, *(cdf_at(items, threshold) for items in populations))
        for threshold in grid
    ]


def _piece_interarrival_measure(runs) -> Numbers:
    summary = _interarrival(runs, "piece")
    return {
        "first_slowdown": summary.first_slowdown() if summary else NAN,
        "last_slowdown": summary.last_slowdown() if summary else NAN,
    }


def _piece_interarrival_render(runs, numbers) -> List[str]:
    return _interarrival_render(runs, 7, "piece", 2, lambda summary: [
        "first slowdown x%.2f, last slowdown x%.2f"
        % (numbers["first_slowdown"], numbers["last_slowdown"]),
    ])


def _block_interarrival_measure(runs) -> Numbers:
    summary = _interarrival(runs, "block")
    # Fluid delivery makes the median block gap 0, so the tail ratio is
    # the robust statistic here.
    first_tail, last_tail = summary.tail_ratio(0.95) if summary else (NAN, NAN)
    return {
        "first_tail": first_tail,
        "last_tail": last_tail,
        "max_gap": max(summary.all_items) if summary else NAN,
        "max_first_gap": max(summary.first_n) if summary else NAN,
        "max_last_gap": max(summary.last_n) if summary else NAN,
    }


def _block_interarrival_render(runs, numbers) -> List[str]:
    return _interarrival_render(runs, 8, "block", 3, lambda summary: [
        "95th-percentile tail vs all: first x%.2f, last x%.2f"
        % (numbers["first_tail"], numbers["last_tail"]),
        "largest gap: all=%.2fs first=%.2fs last=%.2fs"
        % (numbers["max_gap"], numbers["max_first_gap"], numbers["max_last_gap"]),
    ])


# -- F9 / F11 (all torrents) ------------------------------------------------


def _leecher_fairness_measure(runs) -> Numbers:
    top_up, top_down, aligned = [], [], 0
    for run in runs:
        up_shares, down_shares = leecher_contribution(run.trace)
        if sum(up_shares) > 0 and sum(down_shares) > 0:
            top_up.append(up_shares[0])
            top_down.append(down_shares[0])
            if down_shares[0] >= max(down_shares[3:] or [0.0]):
                aligned += 1
    return {
        "torrents": float(len(runs)),
        "torrents_counted": float(len(top_up)),
        "mean_top_upload_share": _mean(top_up),
        "mean_top_download_share": _mean(top_down),
        "aligned_fraction": aligned / len(top_up) if top_up else NAN,
    }


def _leecher_fairness_render(runs, numbers) -> List[str]:
    sets = ("s1", "s2", "s3", "s4", "s5", "s6")
    lines = [
        "Figure 9 — leecher-state contribution by sets of 5 peers",
        "    | upload shares (sets 1..6)           | download shares (same sets)",
        "%-3s | %5s %5s %5s %5s %5s %5s | %5s %5s %5s %5s %5s %5s"
        % (("ID",) + sets + sets),
    ]
    for scenario, trace, __ in runs:
        up_shares, down_shares = leecher_contribution(trace)
        lines.append(
            "%-3d | %5.2f %5.2f %5.2f %5.2f %5.2f %5.2f | %5.2f %5.2f %5.2f %5.2f %5.2f %5.2f"
            % tuple([scenario.torrent_id] + up_shares + down_shares)
        )
    return lines


def _served(trace) -> int:
    return sum(1 for record in trace.records.values() if record.uploaded_seed_state > 0)


def _seed_fairness_measure(runs) -> Numbers:
    seed_top, leech_top = [], []
    for run in runs:
        up_shares, __ = leecher_contribution(run.trace)
        # Torrents where few peers were served concentrate trivially, as
        # the paper notes for its torrents 6 and 15.
        if _served(run.trace) >= 15 and sum(up_shares) > 0:
            seed_top.append(seed_contribution(run.trace)[0])
            leech_top.append(up_shares[0])
    return {
        "torrents_counted": float(len(seed_top)),
        "mean_seed_top_share": _mean(seed_top),
        "mean_leecher_top_share": _mean(leech_top),
    }


def _seed_fairness_render(runs, numbers) -> List[str]:
    lines = [
        "Figure 11 — seed-state upload contribution by sets of 5 peers",
        "%-3s %6s | %5s %5s %5s %5s %5s %5s"
        % ("ID", "served", "s1", "s2", "s3", "s4", "s5", "s6"),
    ]
    for scenario, trace, __ in runs:
        lines.append(
            "%-3d %6d | %5.2f %5.2f %5.2f %5.2f %5.2f %5.2f"
            % tuple([scenario.torrent_id, _served(trace)] + seed_contribution(trace))
        )
    return lines


# -- A1..A6, S1 (evidence: the builder's output) ----------------------------


def _flatten(results: dict, never: Tuple[str, ...] = (), prefix: str = "") -> Numbers:
    """An ablation's nested variants as ``variant.stat`` floats.  None is
    NaN, except for the *never* stats, where it is a time that never
    came."""
    numbers: Numbers = {}
    for key, value in results.items():
        if isinstance(value, dict):
            numbers.update(_flatten(value, never, "%s%s." % (prefix, key)))
        elif value is None:
            numbers[prefix + key] = math.inf if key in never else NAN
        else:
            numbers[prefix + key] = float(value)
    return numbers


def _variants(title: str, header: str, pattern: str, row: Callable) -> Callable:
    """Renderer of an ablation's table: one *pattern* row per variant."""

    def render(results, numbers) -> List[str]:
        return [title, header] + [
            pattern % ((name,) + row(stats)) for name, stats in results.items()
        ]

    return render


def _piece_selection_measure(results) -> Numbers:
    numbers = _flatten(results)
    numbers["steady.oracle_gap_delta"] = abs(
        numbers["steady.rarest-first.gap"] - numbers["steady.global-rarest.gap"]
    )
    return numbers


def _piece_selection_render(results, numbers) -> List[str]:
    lines = ["Ablation A1 — piece-selection strategies"]
    for regime in ("steady", "transient"):
        lines += _variants(
            "--- %s ---" % regime,
            "%-14s %8s %8s %10s %10s" % ("strategy", "a/b", "c/d", "gap", "mean dl"),
            "%-14s %8.2f %8.2f %10.1f %10.0f",
            lambda s: (s["ab"], s["cd"], s["gap"], s["mean_dl"]),
        )(results[regime], numbers)
    return lines + [
        "network coding (idealised) mean dl: %.0f s" % results["coding_mean_dl"]
    ]


def _verdict(stable: bool) -> str:
    return "stable" if stable else "unstable"


def _stability_render(results, numbers) -> List[str]:
    rows = [
        [
            "%.3f" % stats["arrival_rate"],
            "%.0f" % stats["seed_upload"],
            policy,
            _verdict(stats["sim"]),
            _verdict(stats["fluid"]),
            "yes" if stats["agree"] else "NO",
        ]
        for cell in results.values()
        for policy, stats in cell.items()
    ]
    return [
        "Claim S1 — open-system stability: simulation vs fluid model",
        *ascii_table(
            ["arrival/s", "seed B/s", "policy", "sim", "fluid", "agree"], rows
        ).splitlines(),
        "sim-vs-fluid agreement: %d/%d cells"
        % (sum(row[-1] == "yes" for row in rows), len(rows)),
    ]


#: One check per S1 cell: the simulation agrees with the fluid model.
_S1_CHECKS = tuple(
    Check(
        "%s %s" % (stability.s1_cell(rate, upload), policy),
        "%s.%s.agree" % (stability.s1_cell(rate, upload), policy),
        "==",
        1,
    )
    for rate in stability.S1_ARRIVAL_RATES
    for upload in stability.S1_SEED_UPLOADS
    for policy in stability.S1_POLICIES
)


# -- the table ---------------------------------------------------------------

CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "T1",
        "Table I: 26 torrents spanning the no-seed, single-seed and seed-heavy regimes",
        "table1",
        _table1_measure,
        _table1_render,
        (
            Check("covers-26-torrents", "torrents", "==", 26),
            Check("one-without-seed", "no_seed", "==", 1),
            Check("ten-single-seed", "single_seed", "==", 10),
            Check("seed-heavy-tail", "seed_heavy", ">=", 4),
            # The default campaign covers exactly Table I, one shard per
            # torrent, each on its historical RNG stream (seed + 37 * id).
            Check("campaign-covers-table", "shards_off_table", "==", 0),
            Check("historical-streams", "seeds_off_stream", "==", 0),
        ),
    ),
    Claim(
        "F1",
        "Fig. 1: most torrents have both peer-availability ratios close to 1; "
        "torrents in their startup phase sit visibly lower on a/b",
        "fig1_entropy",
        _entropy_measure,
        _entropy_render,
        (
            Check("steady-ab-near-one", "steady_ab_near_one", ">=", 0.8),
            Check("transient-ab-lower", "mean_transient_ab", "<",
                  (1, "mean_steady_ab", -0.15)),
            Check("steady-cd-high", "steady_cd_high", ">=", 0.6),
        ),
        torrents=PAPER_TORRENT_IDS,
    ),
    Claim(
        "F2",
        "Fig. 2: in a transient torrent the least replicated piece stays rare "
        "for most of the run, the mean climbs, the max hugs the peer set",
        "fig2_transient_replication",
        _transient_replication_measure,
        _transient_replication_render,
        (
            # The paper's min-at-zero curve, shifted by the seed's own
            # membership: the scaled swarm fits inside the peer set, so
            # pieces only the initial seed holds read as one copy, not 0.
            Check("rare-pieces-persist", "rare_fraction", ">", 0.7),
            Check("max-near-peer-set", "max_copies", ">=", 20),
            Check("mean-climbs", "mean_copies_last", ">", (1, "mean_copies_first")),
        ),
        torrents=(8,),
    ),
    Claim(
        "F3",
        "Fig. 3: the rarest-pieces set shrinks linearly, at the rate the "
        "initial seed pushes pieces",
        "fig3_transient_rarest_set",
        _transient_rarest_measure,
        _transient_rarest_render,
        (
            Check("decreasing", "slope", "<", 0),
            Check("linear", "r_squared", ">", 0.9),
            Check("cannot-beat-source", "drain_rate", "<", (1.5, "seed_rate_pieces")),
            Check("tracks-source", "drain_rate", ">", (0.3, "seed_rate_pieces")),
        ),
        torrents=(8,),
    ),
    Claim(
        "F4",
        "Fig. 4: in steady state the least replicated piece always has a copy "
        "in the peer set",
        "fig4_steady_replication",
        _steady_replication_measure,
        _steady_replication_render,
        (
            Check("was-a-leecher", "leecher_samples", ">", 0),
            Check("no-piece-vanishes", "leecher_min_copies", ">=", 1),
            Check("mean-between-min-and-max", "samples_mean_out_of_bounds", "==", 0),
        ),
        torrents=(7,),
    ),
    Claim(
        "F5",
        "Fig. 5: the peer set fills toward its cap of 80 and drops when the "
        "local peer becomes a seed and closes its connections to seeds",
        "fig5_peer_set",
        _peer_set_measure,
        _peer_set_render,
        (
            Check("cap-honoured", "max_size", "<=", 80),
            Check("fills-up", "max_size", ">=", 30),
            Check("drops-at-seed-transition", "min_after_seed", "<",
                  (1, "peak_before_seed")),
        ),
        torrents=(7,),
    ),
    Claim(
        "F6",
        "Fig. 6: in steady state the rarest-pieces set is a sawtooth: spikes "
        "on churn, fast collapses, no divergence",
        "fig6_steady_rarest_set",
        _steady_rarest_measure,
        _steady_rarest_render,
        (
            Check("sawtooth", "direction_changes", ">=", 8),
            Check("no-divergence", "last_size", "<=", (1, "max_size")),
            # The collapses keep the set bounded well below the peak.
            Check("collapses-bound-it", "tail_mean", "<", (1, "max_size")),
        ),
        torrents=(7,),
    ),
    Claim(
        "F7",
        "Fig. 7: a first-pieces problem (the 100 first pieces arrive slower) "
        "and no last-pieces problem",
        "fig7_piece_interarrival",
        _piece_interarrival_measure,
        _piece_interarrival_render,
        (
            Check("first-pieces-slower", "first_slowdown", ">", 1.5),
            Check("no-last-pieces-problem", "last_slowdown", "<", 1.5),
        ),
        torrents=(10,),
        block_size=INTERARRIVAL_BLOCK_SIZE,
    ),
    Claim(
        "F8",
        "Fig. 8: the largest block gaps are among the first 100 blocks; the "
        "last blocks do not slow down",
        "fig8_block_interarrival",
        _block_interarrival_measure,
        _block_interarrival_render,
        (
            Check("largest-gaps-first", "max_first_gap", ">=", (1, "max_last_gap")),
            Check("first-blocks-heavy-tail", "first_tail", ">=", 1.5),
            Check("no-last-blocks-problem", "last_tail", "<=", 2.0),
        ),
        torrents=(10,),
        block_size=INTERARRIVAL_BLOCK_SIZE,
    ),
    Claim(
        "F9",
        "Fig. 9: in leecher state the 5 best downloaders get a large share of "
        "the upload and the same sets dominate the download (reciprocation)",
        "fig9_leecher_fairness",
        _leecher_fairness_measure,
        _leecher_fairness_render,
        (
            Check("enough-torrents", "torrents_counted", ">=", (0.6, "torrents")),
            Check("top-set-dominates-upload", "mean_top_upload_share", ">", 0.35),
            # Reciprocation is measurable, not an artefact of empty columns.
            Check("reciprocation-measurable", "mean_top_download_share", ">", 0.1),
            Check("directions-aligned", "aligned_fraction", ">=", 0.6),
        ),
        torrents=PAPER_TORRENT_IDS,
    ),
    Claim(
        "F10",
        "Fig. 10: leecher state unchokes a small stable subset whatever the "
        "interest time; seed state serves in proportion to time interested",
        "fig10_unchoke_correlation",
        _unchoke_measure,
        _unchoke_render,
        (
            Check("enough-leecher-state-peers", "leecher_n", ">=", 10),
            Check("enough-seed-state-peers", "seed_n", ">=", 10),
            Check("leecher-concentrates", "leecher_top5", ">", (1.2, "seed_top5")),
            Check("seed-spreads", "seed_top5", "<", 0.3),
            Check("seed-tracks-interest", "seed_r", ">", 0.3),
            Check("only-seed-tracks-interest", "seed_r", ">", (1, "leecher_r", 0.2)),
        ),
        torrents=(7,),
    ),
    Claim(
        "F11",
        "Fig. 11: in seed state service is spread across the sets of 5 far "
        "more evenly than in leecher state",
        "fig11_seed_fairness",
        _seed_fairness_measure,
        _seed_fairness_render,
        (
            Check("enough-torrents", "torrents_counted", ">=", 5),
            Check("seed-spreads-service", "mean_seed_top_share", "<",
                  (1, "mean_leecher_top_share")),
        ),
        torrents=PAPER_TORRENT_IDS,
    ),
    Claim(
        "A1",
        "§I, §IV-A.4: rarest first >= random >= sequential on diversity; "
        "global knowledge and network coding add little",
        "ablation_piece_selection",
        _piece_selection_measure,
        _piece_selection_render,
        (
            Check("rarest-beats-random", "steady.rarest-first.gap", "<",
                  (1, "steady.random.gap")),
            Check("random-beats-sequential", "steady.random.gap", "<=",
                  (1.1, "steady.sequential.gap")),
            Check("oracle-adds-nothing", "steady.oracle_gap_delta", "<",
                  (0.25, "steady.rarest-first.gap", 1.0)),
            Check("sequential-collapses", "transient.sequential.mean_dl", ">",
                  (1.5, "transient.rarest-first.mean_dl")),
            Check("coding-not-far-ahead", "transient.rarest-first.mean_dl", "<",
                  (2.0, "coding_mean_dl")),
        ),
        build=ablations.piece_selection_swarms,
        pinned_seed=19,
    ),
    Claim(
        "A2",
        "§IV-B.3: the new seed choke equalises service time; the old one lets "
        "fast downloaders and free riders monopolise the seed",
        "ablation_seed_choke",
        _flatten,
        _variants(
            "Ablation A2 — seed-state choke: new (SKU/SRU) vs old (rate-ranked)",
            "%-6s %14s %16s %14s"
            % ("algo", "service Jain", "top-3 rounds", "rider share"),
            "%-6s %14.2f %15.0f%% %13.0f%%",
            lambda s: (
                s["rounds_jain"], 100 * s["top3_rounds_share"], 100 * s["rider_share"]
            ),
        ),
        (
            Check("new-spreads-service", "new.rounds_jain", ">", (1, "old.rounds_jain")),
            Check("old-concentrates", "old.top3_rounds_share", ">", 0.5),
            Check("rider-clipped", "old.rider_share", ">", (1, "new.rider_share")),
        ),
        build=ablations.seed_choke_swarms,
        pinned_seed=47,
    ),
    Claim(
        "A3",
        "§IV-B.1: bit-level tit-for-tat strands excess capacity that the choke "
        "algorithm delivers to asymmetric leechers",
        "ablation_tft",
        partial(_flatten, never=("asymmetric_done", "rider_done")),
        _variants(
            "Ablation A3 — mainline choke vs bit-level tit-for-tat",
            "%-6s %18s %14s %12s" % ("algo", "asymmetric done", "rider done", "mean dl"),
            "%-6s %17.0fs %13.0fs %11.0fs",
            lambda s: (
                s["asymmetric_done"] or NAN, s["rider_done"] or NAN, s["mean_dl"] or NAN
            ),
        ),
        (
            Check("asymmetric-completes", "choke.asymmetric_done", "<", math.inf),
            # Never completing under TFT (inf) counts, as it always has.
            Check("choke-faster-than-tft", "choke.asymmetric_done", "<",
                  (1, "tft.asymmetric_done")),
            # Contributors do not pay for that generosity.
            Check("contributors-unharmed", "choke.mean_dl", "<=", (1.3, "tft.mean_dl")),
        ),
        build=ablations.tit_for_tat_swarms,
        pinned_seed=59,
    ),
    Claim(
        "A4",
        "§II-C.1: strict priority caps partial pieces; end game mode has "
        "little impact on overall performance",
        "ablation_policies",
        _flatten,
        _variants(
            "Ablation A4 — strict priority and end game mode",
            "%-11s %10s %14s %14s %9s"
            % ("variant", "dl (s)", "tail-20 (s)", "max partial", "endgame"),
            "%-11s %10.0f %14.1f %14d %9s",
            lambda s: (
                s["done"] or NAN, s["tail_20_blocks"] or NAN, s["max_partial_pieces"],
                "yes" if s["endgame_entered"] else "no",
            ),
        ),
        (
            Check("strict-caps-partials", "baseline.max_partial_pieces", "<",
                  (1, "no-strict.max_partial_pieces")),
            Check("endgame-engages-when-enabled", "baseline.endgame_entered", "==", 1),
            Check("endgame-stays-off", "no-endgame.endgame_entered", "==", 0),
            Check("endgame-little-impact", "baseline.done", "<=",
                  (1.25, "no-endgame.done")),
        ),
        build=ablations.policy_swarms,
        pinned_seed=67,
    ),
    Claim(
        "A5",
        "§IV-A.4: super-seeding keeps the initial seed's duplicate service "
        "low in transient state",
        "ablation_super_seeding",
        partial(_flatten, never=("first_copy",)),
        _variants(
            "Ablation A5 — super-seeding vs plain initial seed (transient state)",
            "%-7s %14s %22s %10s"
            % ("seed", "1st copy (s)", "copies served by then", "mean dl"),
            "%-7s %14.0f %22.2f %10.0f",
            lambda s: (
                s["first_copy"] or NAN, s["copies_served"] or NAN, s["mean_dl"] or NAN
            ),
        ),
        (
            Check("plain-first-copy-exists", "plain.first_copy", "<", math.inf),
            Check("super-first-copy-exists", "super.first_copy", "<", math.inf),
            # (Close to) exactly one copy served before the first full copy.
            Check("one-copy-served", "super.copies_served", "<=", 1.3),
            Check("tighter-than-plain", "super.copies_served", "<=",
                  (1, "plain.copies_served", 0.05)),
            Check("crowd-unharmed", "super.mean_dl", "<=", (1.3, "plain.mean_dl")),
        ),
        build=ablations.super_seeding_swarms,
        pinned_seed=71,
    ),
    Claim(
        "A6",
        "§V: 15-peer sets inflate the diameter of the graph rarest first works "
        "on; the 80-peer sets of real torrents are much denser",
        "ablation_peer_set",
        _flatten,
        _variants(
            "Ablation A6 — peer-set size: mainline 80 vs simulation-study 15",
            "%-12s %9s %10s %8s %8s %10s"
            % ("peer set", "diameter", "avg path", "degree", "a/b med", "mean dl"),
            "%-12s %9d %10.2f %8.1f %8.2f %10.0f",
            lambda s: (
                s["diameter"], s["average_path_length"], s["mean_degree"], s["ab"],
                s["mean_dl"],
            ),
        ),
        (
            Check("diameter", "mainline-80.diameter", "<=", (1, "small-15.diameter")),
            Check("path-length", "mainline-80.average_path_length", "<",
                  (1, "small-15.average_path_length")),
            Check("degree", "mainline-80.mean_degree", ">", (2, "small-15.mean_degree")),
            # The torrent does not get faster by knowing fewer peers.
            Check("no-faster-knowing-fewer", "mainline-80.mean_dl", "<=",
                  (1.2, "small-15.mean_dl")),
        ),
        build=ablations.peer_set_swarms,
        pinned_seed=83,
    ),
    Claim(
        "S1",
        "RFwPMS (arXiv 2211.00213), not the source paper: in an open system "
        "rarest first is unstable once arrivals outpace the seed's piece "
        "rate, mode suppression is not; the sim agrees with the fluid model",
        "s1_stability",
        _flatten,
        _stability_render,
        _S1_CHECKS,
        build=stability.stability_swarms,
        pinned_seed=3,
    ),
)


def select_claims(ids: Optional[str]) -> Tuple[Claim, ...]:
    """The rows a ``--claims F7,F8`` argument names (all when None), in
    table order; an unknown id is a ``KeyError``."""
    if ids is None:
        return CLAIMS
    known = [claim.id for claim in CLAIMS]
    wanted = [part.strip() for part in ids.split(",") if part.strip()]
    for claim_id in wanted:
        if claim_id not in known:
            raise KeyError(
                "unknown claim %r (have: %s)" % (claim_id, ", ".join(known))
            )
    return tuple(claim for claim in CLAIMS if claim.id in wanted)


def one_run_claims(ids: str) -> Tuple[Claim, ...]:
    """The rows ``repro run|replay --claims IDS`` renders from a single
    Table-I run; a row drawn from none (T1, the ablations) is a
    ``KeyError``, like an unknown id."""
    claims = select_claims(ids)
    for claim in claims:
        if not claim.torrents:
            raise KeyError(
                "claim %s is not drawn from one run (have: %s)"
                % (claim.id, ", ".join(c.id for c in CLAIMS if c.torrents))
            )
    return claims
