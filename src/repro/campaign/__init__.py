"""Parallel, cached, resumable experiment campaigns.

The paper's evaluation — 26 Table-I torrents behind Table I and
figures 1-11 — is one *campaign*: a declarative
:class:`~repro.campaign.spec.CampaignSpec` expanded into independent
run shards, executed across worker processes by the
:class:`~repro.campaign.runner.CampaignRunner`, content-addressed into
an on-disk :class:`~repro.campaign.cache.ShardCache`, and merged back
into the ``benchmarks/results/`` tables plus a ``manifest.json``.

Determinism contract: a shard's RNG seed is a pure function of
``(campaign_seed, torrent_id, scenario, replicate)``, so the campaign's
aggregated output is byte-identical at any worker count — `repro
campaign run --workers 4` is just faster, never different.
"""

from repro.campaign.aggregate import (
    mean_download_times,
    render_campaign_table,
    render_manifest_table,
)
from repro.campaign.cache import (
    CACHE_SCHEMA_VERSION,
    DurationBook,
    ShardCache,
    shard_cache_key,
)
from repro.campaign.dispatch import (
    BACKENDS,
    LocalBackend,
    WorkerPoolBackend,
    estimate_shard_cost,
    resolve_backend,
    schedule_shards,
)
from repro.campaign.incremental import (
    InvalidationReport,
    ShardDelta,
    diff_spec,
)
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    MANIFEST_NAME,
    ShardTimeout,
    execute_shard,
    manifest_fingerprint,
    run_shard_payload,
    run_summary,
)
from repro.campaign.spec import (
    DEFAULT_CAMPAIGN_SEED,
    DEFAULT_SCENARIO,
    PAPER_TORRENT_IDS,
    SCENARIOS,
    CampaignSpec,
    ScenarioVariant,
    ShardSpec,
    derive_shard_seed,
    expand_spec,
    parse_torrent_ids,
)
from repro.campaign.worker import main_worker, run_worker

__all__ = [
    "BACKENDS",
    "CACHE_SCHEMA_VERSION",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "DEFAULT_CAMPAIGN_SEED",
    "DEFAULT_SCENARIO",
    "DurationBook",
    "InvalidationReport",
    "LocalBackend",
    "MANIFEST_NAME",
    "PAPER_TORRENT_IDS",
    "SCENARIOS",
    "ScenarioVariant",
    "ShardCache",
    "ShardDelta",
    "ShardSpec",
    "ShardTimeout",
    "WorkerPoolBackend",
    "derive_shard_seed",
    "diff_spec",
    "estimate_shard_cost",
    "execute_shard",
    "expand_spec",
    "main_worker",
    "manifest_fingerprint",
    "mean_download_times",
    "parse_torrent_ids",
    "render_campaign_table",
    "render_manifest_table",
    "resolve_backend",
    "run_shard_payload",
    "run_summary",
    "run_worker",
    "schedule_shards",
    "shard_cache_key",
]
