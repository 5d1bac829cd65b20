"""Merge per-shard campaign results into human-readable tables.

The aggregation step is deliberately dumb and deterministic: it reads
only the shard *records* (never the traces), orders everything by shard
id, and renders the same fixed-width tables ``repro reproduce`` writes
into ``benchmarks/results/`` — so a campaign run slots its output next
to the per-figure artefacts, and two byte-identical campaigns render
byte-identical tables.
"""

from __future__ import annotations

from typing import List


def _fmt(value, pattern: str = "%.1f", missing: str = "-") -> str:
    if value is None:
        return missing
    return pattern % value


def render_campaign_table(records: List[dict]) -> str:
    """One row per shard: swarm outcome facts plus the trace fingerprint.

    Failure records render too (status column), so a partially failed
    campaign's table shows exactly which coordinates are missing.
    """
    lines = [
        "Campaign results — one row per shard",
        "%-16s %-7s %6s | %10s %5s %5s %10s %10s  %s"
        % (
            "shard", "status", "cache", "1st copy", "S", "L",
            "local done", "mean dl", "fingerprint",
        ),
    ]
    for record in sorted(records, key=lambda r: r["shard_id"]):
        summary = record.get("summary") or {}
        fingerprint = record.get("trace_fingerprint") or "-"
        lines.append(
            "%-16s %-7s %6s | %10s %5s %5s %10s %10s  %s"
            % (
                record["shard_id"],
                record["status"],
                "hit" if record.get("cache_hit") else "run",
                _fmt(summary.get("first_full_copy_at"), "%.0f"),
                _fmt(summary.get("final_seeds"), "%d"),
                _fmt(summary.get("final_leechers"), "%d"),
                _fmt(summary.get("local_completed_at"), "%.0f"),
                _fmt(summary.get("mean_download_time"), "%.0f"),
                fingerprint[:16],
            )
        )
    return "\n".join(lines) + "\n"


def render_manifest_table(manifest: dict) -> str:
    """The ``repro campaign status`` view of a manifest."""
    counts = manifest["counts"]
    lines = [
        "campaign: %s  (workers=%s)"
        % (manifest["campaign"]["name"], manifest.get("workers")),
        "shards=%d ok=%d failed=%d timeout=%d cache_hits=%d executed=%d"
        % (
            counts["shards"], counts["ok"], counts["failed"],
            counts["timeout"], counts["cache_hits"], counts["executed"],
        ),
        "%-16s %-7s %5s %8s %8s  %s"
        % ("shard", "status", "hit", "attempts", "wall (s)", "fingerprint"),
    ]
    for entry in manifest["shards"]:
        fingerprint = entry.get("trace_fingerprint") or "-"
        lines.append(
            "%-16s %-7s %5s %8d %8s  %s"
            % (
                entry["shard_id"],
                entry["status"],
                "yes" if entry["cache_hit"] else "no",
                entry.get("attempts") or 0,
                _fmt(entry.get("wall_seconds"), "%.2f"),
                fingerprint[:16],
            )
        )
    lines.append("manifest_fingerprint: %s" % manifest["manifest_fingerprint"])
    return "\n".join(lines) + "\n"
