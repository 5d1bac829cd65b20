"""A run is described once: ``RunOptions`` is the list of coordinates.

Pins the four things that keep it so: shard payloads and cache keys are
byte-identical to the hand-enumerated form they replaced (golden
digests), ``repro run`` and a campaign shard build the same experiment
from the same description (both hand it to ``build_experiment``), a
coordinate that ``resolve_scenario`` and ``build_experiment`` both
ignore fails here, and so does one that no scenario variant and no
caller in ``src/`` sets.
"""

import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro import cli
from repro.campaign import (
    SCENARIOS,
    CampaignSpec,
    ShardSpec,
    derive_shard_seed,
    execute_shard,
    expand_spec,
    shard_cache_key,
)
from repro.workloads import RunOptions, build_experiment, resolve_scenario

ROOT = Path(__file__).resolve().parent.parent

OVERRIDES = dict(duration=300.0, block_size=8192)

#: sha256 over shard_cache_key(s) + json.dumps(s.as_payload()) for every
#: shard in expansion order.  Both digests were derived from the code that
#: still had the fault plan, the ``faults`` coordinate and the
#: ``faults-light`` / ``faults-heavy`` variants: each spec expanded there
#: (over all four variants), its ``faults-*`` shards dropped, the
#: ``"faults": null`` key removed from every other payload and each cache
#: key recomputed as ``shard_cache_key`` does (schema and package
#: versions unchanged).  So the only change to a surviving payload or key
#: is the dropped coordinate.  The digests before that were computed the
#: same way when the two open-system scenarios and the ``selector`` and
#: ``tracker_sampler`` coordinates went.
GOLDEN = [
    (
        CampaignSpec(scenarios=tuple(SCENARIOS), replicates=2),
        104,
        "2096dfc67238c96021b6b7828a6629f7c416b8af1fbb6e196bce62beb9a0c0ba",
    ),
    (
        CampaignSpec(torrent_ids=(2, 7), scenarios=tuple(SCENARIOS), **OVERRIDES),
        4,
        "826c55741940ceeaf4f8a466846af3791065ef573021778db01d7331f185f535",
    ),
]


@pytest.mark.parametrize("spec,count,digest", GOLDEN, ids=["registry", "overridden"])
def test_payloads_and_cache_keys_are_byte_identical(spec, count, digest):
    shards = expand_spec(spec)
    sha = hashlib.sha256()
    for shard in shards:
        sha.update(shard_cache_key(shard).encode())
        sha.update(json.dumps(shard.as_payload()).encode())
        assert ShardSpec.from_payload(shard.as_payload()) == shard
    assert (len(shards), sha.hexdigest()) == (count, digest)


def test_campaign_level_value_wins_over_the_variants():
    for shard in expand_spec(GOLDEN[1][0]):
        variant = SCENARIOS[shard.scenario].options
        for name, value in OVERRIDES.items():
            assert getattr(shard.options, name) == value
        assert shard.options == dataclasses.replace(variant, **OVERRIDES)


def test_bad_specs_fail_where_the_run_is_described():
    # A run length or a geometry that cannot run.
    for bad, message in (
        (dict(duration=0.0), "duration must be finite and > 0, not 0.0"),
        (dict(duration=-5.0), "duration must be finite and > 0, not -5.0"),
        (dict(duration=float("inf")), "duration must be finite and > 0, not inf"),
        (dict(duration=float("nan")), "duration must be finite and > 0, not nan"),
        (dict(block_size=0), "block_size must be >= 1, not 0"),
    ):
        with pytest.raises(ValueError, match=message):
            RunOptions(**bad)
    with pytest.raises(ValueError, match="block_size must be >= 1"):
        expand_spec(CampaignSpec(torrent_ids=(), block_size=0))
    # A spec that describes no shard, or one shard twice.
    for bad, message in (
        (dict(scenarios=("smoke", "smoke")), "scenario repeated: smoke"),
        (dict(torrent_ids=(2, 2)), "torrent id repeated: 2"),
        (dict(replicates=0), "replicates must be >= 1"),
        (dict(replicates=-1), "replicates must be >= 1"),
        (dict(torrent_ids=()), "at least one torrent id"),
        (dict(scenarios=()), "at least one scenario"),
    ):
        spec = dataclasses.replace(CampaignSpec(torrent_ids=(2,)), **bad)
        with pytest.raises(ValueError, match=message):
            expand_spec(spec)


#: One non-default value per coordinate.  A new field must be added here,
#: and must then change what build_experiment builds.
SAMPLES = dict(duration=123.0, block_size=4096)


def built(options):
    """What ``build_experiment`` made of *options*, as comparable text."""
    harness = build_experiment(resolve_scenario(2, options), 3, options)
    swarm = harness.swarm
    return repr((
        harness.scenario,
        swarm.config,
        swarm.metainfo.geometry.block_size,
        [(peer.config, peer.selector) for peer in swarm.peers.values()],
    ))


def test_every_coordinate_is_applied_and_keyed():
    names = [f.name for f in dataclasses.fields(RunOptions)]
    assert sorted(SAMPLES) == sorted(names)
    # Leave one out of the full set: some coordinates only act with
    # another.
    every = RunOptions(**SAMPLES)
    every_built = built(every)
    base = ShardSpec(7, "paper", 0, 3)
    for name in names:
        without = dataclasses.replace(every, **{name: getattr(RunOptions(), name)})
        assert built(without) != every_built, (
            "%s is declared but build_experiment ignores it" % name
        )
        options = RunOptions(**{name: SAMPLES[name]})
        shard = dataclasses.replace(base, options=options)
        assert shard_cache_key(shard) != shard_cache_key(base), name
        assert shard.as_payload()[name] == SAMPLES[name]


def keyword_setters():
    """The keywords some call to ``CampaignSpec`` or ``RunOptions`` in
    ``src/`` passes, the CLI aside: the CLI offers a coordinate, it does
    not vary one."""
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee in ("CampaignSpec", "RunOptions"):
                found |= {keyword.arg for keyword in node.keywords}
    return found


def test_every_coordinate_is_varied_by_something():
    """A run varies only what a claim varies: a coordinate that no
    scenario variant and no caller in ``src/`` sets is an option with no
    run behind it, and goes."""
    varied = keyword_setters()
    for variant in SCENARIOS.values():
        varied |= set(variant.options.non_default())
    unset = [
        f.name for f in dataclasses.fields(RunOptions) if f.name not in varied
    ]
    assert not unset, "coordinates nothing varies: %s" % ", ".join(unset)


def shard_of(scenario, torrent_id=2):
    return expand_spec(
        CampaignSpec(torrent_ids=(torrent_id,), scenarios=(scenario,), duration=240.0)
    )[0]


@pytest.mark.parametrize("scenario", ["smoke"])
def test_repro_run_builds_the_same_experiment_as_the_shard(scenario, tmp_path):
    """Pins (it held before too, by coincidence of two hand-written
    ladders): the same description gives the same trace either way."""
    shard = shard_of(scenario)
    record, __ = execute_shard(shard)

    path = tmp_path / "run.jsonl"
    argv = ["run", "--torrent", "2", "--seed", str(shard.seed), "--trace", str(path)]
    for name, value in shard.options.non_default().items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert cli._cmd_run(cli.build_parser().parse_args(argv)) == 0
    footer = json.loads(path.read_text().splitlines()[-1])
    assert footer["fingerprint"] == record["trace_fingerprint"]


def test_baseline_campaign_fingerprint_is_pinned():
    """The only pin of the t02-smoke-r0 trace: a default shard keeps its
    fingerprint whatever coordinates are added to or removed from
    RunOptions."""
    shard = shard_of("smoke")
    assert shard.seed == derive_shard_seed(3, 2, "smoke", 0)
    record, __ = execute_shard(shard)
    # Regenerated when tracker announces moved to caller-RNG sampling
    # (each peer's draws became a function of its own announce sequence
    # instead of a shared tracker stream).
    assert record["trace_fingerprint"] == (
        "11873d630ec8ec07258e1cfe1424d5ebf5a3c1ebb465b967a02bb70f4e7662f3"
    )
