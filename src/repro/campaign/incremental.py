"""Incremental campaign execution: diff a spec against the cache.

A campaign's cache is content-addressed — a shard's key covers its
fully resolved spec plus the code-relevant versions — so "what would a
re-run actually execute?" is a pure function of the spec and the cache
directory.  :func:`diff_spec` answers it exactly, shard by shard, and
explains *why* each invalidated shard lost its entry:

* ``cached`` — the key has a complete entry; a run serves it for free.
* ``new`` — the shard id has never run into this cache (a torrent,
  scenario or replicate the spec just grew).
* ``changed`` — the shard id ran before under a *different* key; the
  report names the exact coordinates that moved (``duration: 240.0 ->
  120.0``), read by comparing the old cached record's payload against
  the new shard's.  A key change with *no* payload diff is a
  code/version invalidation (cache schema, trace schema or package
  version bump).
* ``evicted`` — the previous run used this *same* key but the entry is
  gone (interrupted commit, manual cleanup): pure re-execution, no
  spec change.

``repro campaign diff`` renders the report and exits non-zero when
work is pending (so scripts can gate on "is this spec fully cached?"),
and ``repro campaign run --incremental`` prints it before executing —
the executed-shard set is pinned to equal the invalidated set by the
property tests in ``tests/test_campaign_dispatch.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional, Tuple

from repro.campaign.cache import ShardCache, shard_cache_key
from repro.campaign.runner import MANIFEST_NAME
from repro.campaign.spec import CampaignSpec, expand_spec
from repro.workloads import RunOptions

#: Delta states in severity order (render order).
DELTA_STATES = ("new", "changed", "evicted", "cached")


@dataclass
class ShardDelta:
    """One shard's fate under the spec-vs-cache diff."""

    shard_id: str
    key: str
    state: str
    reason: str = ""
    changed_fields: List[Tuple[str, object, object]] = field(default_factory=list)

    @property
    def invalidated(self) -> bool:
        return self.state != "cached"


@dataclass
class InvalidationReport:
    """The exact work a run of this spec would (re-)execute."""

    campaign: str
    deltas: List[ShardDelta]
    removed: List[str]
    """Shard ids present in the previous manifest but no longer in the
    spec's expansion (shrunk torrent set, dropped scenario, ...) — no
    work, but worth surfacing: their cache entries are now garbage."""

    @property
    def cached(self) -> List[ShardDelta]:
        return [d for d in self.deltas if d.state == "cached"]

    @property
    def invalidated(self) -> List[ShardDelta]:
        return [d for d in self.deltas if d.invalidated]

    def counts(self) -> dict:
        out = {state: 0 for state in DELTA_STATES}
        for delta in self.deltas:
            out[delta.state] += 1
        out["shards"] = len(self.deltas)
        out["invalidated"] = len(self.invalidated)
        out["removed"] = len(self.removed)
        return out

    def render(self) -> str:
        from repro.reporting.render import ascii_table

        rows = []
        order = {state: rank for rank, state in enumerate(DELTA_STATES)}
        for delta in sorted(
            self.deltas, key=lambda d: (order[d.state], d.shard_id)
        ):
            rows.append(
                [delta.shard_id, delta.state, delta.reason or "-",
                 delta.key[:12]]
            )
        for shard_id in self.removed:
            rows.append([shard_id, "removed", "no longer in the spec", "-"])
        counts = self.counts()
        summary = (
            "%(shards)d shards: %(cached)d cached, %(invalidated)d invalidated "
            "(%(new)d new, %(changed)d changed, %(evicted)d evicted), "
            "%(removed)d removed" % counts
        )
        return (
            ascii_table(["shard", "state", "why", "key"], rows)
            + "\n" + summary + "\n"
        )


def _field_diff(old_payload: dict, new_payload: dict) -> List[Tuple[str, object, object]]:
    """Which coordinates moved between two payloads of one shard id.

    The id fixes torrent, scenario and replicate, so what can move is the
    seed and the :class:`RunOptions` coordinates, walked in declaration
    order; one absent from a payload is at its default.
    """
    defaults = {"seed": None}
    defaults.update((f.name, f.default) for f in fields(RunOptions))
    changes = []
    for name, default in defaults.items():
        old = old_payload.get(name, default)
        new = new_payload.get(name, default)
        if old != new:
            changes.append((name, old, new))
    return changes


def _describe_changes(changes: List[Tuple[str, object, object]]) -> str:
    return ", ".join(
        "%s: %r -> %r" % (name, old, new) for name, old, new in changes
    )


def load_manifest(cache_root) -> Optional[dict]:
    """The previous run's manifest under *cache_root*, or None."""
    try:
        return json.loads((Path(cache_root) / MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return None


def diff_spec(
    spec: CampaignSpec,
    cache_dir,
    shard_filter: Optional[str] = None,
) -> InvalidationReport:
    """Diff *spec* against the cache directory; nothing is executed."""
    cache = ShardCache(cache_dir)
    manifest = load_manifest(cache.root)
    previous = {}
    if manifest is not None:
        previous = {
            entry["shard_id"]: entry for entry in manifest.get("shards", [])
        }

    shards = expand_spec(spec, shard_filter=shard_filter)
    deltas: List[ShardDelta] = []
    for shard in shards:
        key = shard_cache_key(shard)
        if cache.load(key) is not None:
            deltas.append(ShardDelta(shard.shard_id, key, "cached"))
            continue
        old_entry = previous.get(shard.shard_id)
        if old_entry is None:
            deltas.append(
                ShardDelta(
                    shard.shard_id, key, "new",
                    reason="never ran into this cache",
                )
            )
            continue
        if old_entry.get("key") == key:
            deltas.append(
                ShardDelta(
                    shard.shard_id, key, "evicted",
                    reason="same key, cache entry lost",
                )
            )
            continue
        # The shard ran before under another key: the old record (still
        # cached under the *old* key unless cleaned) carries the full
        # old payload, so the diff can name the moved coordinates.
        old_record = cache.load(old_entry["key"])
        if old_record is None:
            deltas.append(
                ShardDelta(
                    shard.shard_id, key, "changed",
                    reason="spec changed (previous record unavailable)",
                )
            )
            continue
        changes = _field_diff(old_record, shard.as_payload())
        if changes:
            reason = _describe_changes(changes)
        else:
            reason = "code/version change (cache key schema)"
        deltas.append(
            ShardDelta(
                shard.shard_id, key, "changed",
                reason=reason, changed_fields=changes,
            )
        )

    current_ids = {shard.shard_id for shard in shards}
    removed = sorted(
        shard_id for shard_id in previous if shard_id not in current_ids
    )
    return InvalidationReport(
        campaign=spec.name, deltas=deltas, removed=removed
    )
