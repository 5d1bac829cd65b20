"""Declarative experiment-campaign specifications.

A *campaign* is the cross product ``torrent ids x scenarios x
replicates`` — the paper's evaluation is the default campaign: all 26
Table-I torrents, the ``paper`` scenario, one replicate.  A campaign
expands into independent :class:`ShardSpec` run shards, each carrying
everything a worker process needs to execute it: the resolved RNG seed,
the scenario overrides (duration, block size) and a
stable identity (:attr:`ShardSpec.shard_id`).

**Seed derivation.**  Each shard's RNG seed is a pure function of
``(campaign_seed, torrent_id, scenario, replicate)``
(:func:`derive_shard_seed`), so results are byte-identical regardless
of worker count, scheduling order, or which shards were served from
cache.  Replicate 0 of the default ``paper`` scenario reproduces the
historical per-torrent stream ``campaign_seed + 37 * torrent_id`` that
the figure runs have always used (the claims registry,
``repro.analysis.claims``, reads these shards), keeping the committed
``benchmarks/results`` files and any cached results valid; every other
coordinate draws an independent stream from a stable SHA-256 mix of the
full tuple.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from fnmatch import fnmatch
from typing import List, Optional, Tuple

from repro.workloads import RunOptions

DEFAULT_CAMPAIGN_SEED = 3
DEFAULT_SCENARIO = "paper"
PAPER_TORRENT_IDS: Tuple[int, ...] = tuple(range(1, 27))


@dataclass(frozen=True)
class ScenarioVariant:
    """A named transform applied on top of a Table-I scenario."""

    name: str
    options: RunOptions = RunOptions()


def _variant(name: str, **coordinates) -> ScenarioVariant:
    return ScenarioVariant(name, RunOptions(**coordinates))


#: The scenario registry.  ``paper`` is the evaluation as published;
#: ``smoke`` is the same swarm on a short window (CI and tests).
SCENARIOS = {
    "paper": _variant("paper"),
    "smoke": _variant("smoke", duration=240.0),
}


def derive_shard_seed(
    campaign_seed: int, torrent_id: int, scenario: str, replicate: int
) -> int:
    """Deterministic per-shard RNG seed.

    Replicate 0 of the default scenario preserves the historical
    ``seed + 37 * id`` stream (module docstring); other coordinates get
    an independent 64-bit stream from a stable hash of the tuple.
    """
    if scenario == DEFAULT_SCENARIO and replicate == 0:
        return campaign_seed + 37 * torrent_id
    payload = repr((campaign_seed, torrent_id, scenario, replicate)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


_IDENTITY_FIELDS = ("torrent_id", "scenario", "replicate", "seed")


@dataclass(frozen=True)
class ShardSpec:
    """One independent run of a campaign: a fully resolved experiment."""

    torrent_id: int
    scenario: str
    replicate: int
    seed: int
    options: RunOptions = RunOptions()

    @property
    def shard_id(self) -> str:
        return "t%02d-%s-r%d" % (self.torrent_id, self.scenario, self.replicate)

    def as_payload(self) -> dict:
        """A picklable/JSON-safe dict from which the shard can be rebuilt:
        the identity, then :meth:`RunOptions.as_payload`."""
        payload = {name: getattr(self, name) for name in _IDENTITY_FIELDS}
        payload.update(self.options.as_payload())
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardSpec":
        return cls(
            *(payload[name] for name in _IDENTITY_FIELDS),
            options=RunOptions.from_payload(payload),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative description of a campaign.

    The fields that share a name with a :class:`RunOptions` coordinate
    (``duration``, ``block_size``) apply to every shard and,
    when set, take precedence over the scenario variant's own value
    (they are the explicit knob, the variant is the default).
    """

    name: str = "paper-table1"
    torrent_ids: Tuple[int, ...] = PAPER_TORRENT_IDS
    scenarios: Tuple[str, ...] = (DEFAULT_SCENARIO,)
    replicates: int = 1
    campaign_seed: int = DEFAULT_CAMPAIGN_SEED
    duration: Optional[float] = None
    block_size: Optional[int] = None

    def describe(self) -> dict:
        described = {f.name: getattr(self, f.name) for f in fields(self)}
        described["torrent_ids"] = list(self.torrent_ids)
        described["scenarios"] = list(self.scenarios)
        return described

    def overrides(self) -> RunOptions:
        """The campaign-level coordinates, as the options they override."""
        return RunOptions(
            **{
                f.name: getattr(self, f.name)
                for f in fields(RunOptions)
                if hasattr(self, f.name)
            }
        )


def expand_spec(
    spec: CampaignSpec, shard_filter: Optional[str] = None
) -> List[ShardSpec]:
    """Expand a spec into its shards, in deterministic order.

    Shards are ordered by ``(torrent_id, scenario position, replicate)``
    — the order is part of the campaign's identity and independent of
    how the shards are later scheduled.  ``shard_filter`` keeps only
    shards whose :attr:`~ShardSpec.shard_id` matches the glob (or
    contains it as a substring), e.g. ``"t07-*"`` or ``"smoke"``.

    An unknown scenario raises ``KeyError`` and a bad run length or
    block size ``ValueError`` here (``RunOptions`` validates
    itself), before any worker is spawned.  So does a spec that
    describes no shard or one shard twice: ``replicates < 1``, no
    torrent id or scenario, or a repeated one.
    """
    overrides = spec.overrides()
    if spec.replicates < 1:
        raise ValueError("replicates must be >= 1, not %d" % spec.replicates)
    for kind, values in (
        ("torrent id", spec.torrent_ids),
        ("scenario", spec.scenarios),
    ):
        if not values:
            raise ValueError("a campaign needs at least one %s" % kind)
        repeated = [v for v in dict.fromkeys(values) if values.count(v) > 1]
        if repeated:
            raise ValueError(
                "%s repeated: %s" % (kind, ", ".join(map(str, repeated)))
            )
    merged = {}
    for scenario in spec.scenarios:
        variant = SCENARIOS.get(scenario)
        if variant is None:
            raise KeyError(
                "unknown scenario %r (have: %s)"
                % (scenario, ", ".join(sorted(SCENARIOS)))
            )
        merged[scenario] = overrides.over(variant.options)
    shards: List[ShardSpec] = []
    for torrent_id in spec.torrent_ids:
        for scenario in spec.scenarios:
            for replicate in range(spec.replicates):
                shard = ShardSpec(
                    torrent_id=torrent_id,
                    scenario=scenario,
                    replicate=replicate,
                    seed=derive_shard_seed(
                        spec.campaign_seed, torrent_id, scenario, replicate
                    ),
                    options=merged[scenario],
                )
                if shard_filter and not _matches(shard.shard_id, shard_filter):
                    continue
                shards.append(shard)
    return shards


def _matches(shard_id: str, pattern: str) -> bool:
    return fnmatch(shard_id, pattern) or pattern in shard_id


def parse_torrent_ids(text: str) -> Tuple[int, ...]:
    """Parse a ``--torrents`` argument: ``all`` or ``1,2,7-9``."""
    if text.strip().lower() == "all":
        return PAPER_TORRENT_IDS
    ids: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            low, high = part.split("-", 1)
            ids.extend(range(int(low), int(high) + 1))
        else:
            ids.append(int(part))
    for torrent_id in ids:
        if not 1 <= torrent_id <= 26:
            raise ValueError("torrent id %d outside Table I (1-26)" % torrent_id)
    return tuple(dict.fromkeys(ids))
