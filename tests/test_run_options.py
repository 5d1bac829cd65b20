"""A run is described once: ``RunOptions`` is the list of coordinates.

Pins the three things that keep it so: shard payloads and cache keys are
byte-identical to the hand-enumerated form they replaced (golden digest
computed at the parent commit), ``repro run`` and a campaign shard build
the same experiment from the same description (both hand it to
``build_experiment``), and a coordinate that ``resolve_scenario`` and
``build_experiment`` both ignore fails here.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import cli
from repro.campaign import (
    SCENARIOS,
    CampaignSpec,
    ShardSpec,
    execute_shard,
    expand_spec,
    shard_cache_key,
)
from repro.workloads import RunOptions, build_experiment, resolve_scenario

OVERRIDES = dict(
    duration=300.0,
    block_size=8192,
    selector="random",
    playback_rate=1000.0,
    arrival_rate=0.1,
    seed_upload=5000.0,
    tracker_sampler="seed-biased:seed_fraction=0.5",
)

#: sha256 over shard_cache_key(s) + json.dumps(s.as_payload()) for every
#: shard in expansion order, computed at the commit before RunOptions.
GOLDEN = [
    (
        CampaignSpec(scenarios=tuple(SCENARIOS), replicates=2),
        468,
        "59a40092c7d36defdfabbce8d6a77dfcd6d437c206852e55fdf4f7190bb941e8",
    ),
    (
        CampaignSpec(torrent_ids=(2, 7), scenarios=tuple(SCENARIOS), **OVERRIDES),
        18,
        "9fa5af080e1874299b4c57cfed47b9395a96060b6701c7542f747c4e66080015",
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
    for bad in (
        dict(selector="bogus"),
        dict(tracker_sampler="bogus"),
        dict(faults="bogus"),
    ):
        with pytest.raises(ValueError, match="unknown .* 'bogus' \\(have: "):
            RunOptions(**bad)
    with pytest.raises(ValueError, match="unknown selector"):
        expand_spec(CampaignSpec(torrent_ids=(), selector="bogus"))


#: One non-default value per coordinate.  A new field must be added here,
#: and must then change what build_experiment builds.
SAMPLES = dict(
    duration=123.0,
    block_size=4096,
    faults="light",
    selector="random",
    playback_rate=2048.0,
    playback_startup_pieces=5,
    arrival_rate=0.25,
    seed_upload=9000.0,
    num_pieces=32,
    piece_size=64 * 1024,
    depart_on_completion=True,
    flash_crowd_size=7,
    stability_interval=15.0,
    tracker_sampler="rarity-aware:bias=1.0",
)


def built(options):
    """What ``build_experiment`` made of *options*, as comparable text."""
    harness = build_experiment(resolve_scenario(2, options), 3, options)
    swarm = harness.swarm
    return repr((
        harness.scenario,
        swarm.config,
        swarm.metainfo.geometry.block_size,
        harness.stability is not None,
        [(peer.config, peer.selector) for peer in swarm.peers.values()],
    ))


def test_every_coordinate_is_applied_and_keyed():
    names = [f.name for f in dataclasses.fields(RunOptions)]
    assert sorted(SAMPLES) == sorted(names)
    # Leave one out of the full set: some coordinates only act with
    # another (a startup threshold needs a playback rate).
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


def shard_of(scenario, torrent_id=2):
    return expand_spec(
        CampaignSpec(torrent_ids=(torrent_id,), scenarios=(scenario,), duration=240.0)
    )[0]


@pytest.mark.parametrize(
    "scenario", ["smoke", "faults-light", "streaming-seqwin", "flash-crowd"]
)
def test_repro_run_builds_the_same_experiment_as_the_shard(scenario, tmp_path):
    """Pins (it held before too, by coincidence of two hand-written
    ladders): the same description gives the same trace either way."""
    shard = shard_of(scenario)
    record, __ = execute_shard(shard)

    path = tmp_path / "run.jsonl"
    argv = ["run", "--torrent", "2", "--seed", str(shard.seed), "--trace", str(path)]
    flagged = vars(cli.build_parser().parse_args(argv))
    unflagged = {}
    for name, value in shard.options.non_default().items():
        if name in flagged:
            argv += ["--" + name.replace("_", "-"), str(value)]
        else:
            unflagged[name] = value
    args = cli.build_parser().parse_args(argv)
    # The open-system coordinates have no flag: complete the parsed
    # namespace by hand, which is all a flag would do.
    vars(args).update(unflagged)
    assert cli._cmd_run(args) == 0
    footer = json.loads(path.read_text().splitlines()[-1])
    assert footer["fingerprint"] == record["trace_fingerprint"]
