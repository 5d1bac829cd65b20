"""Old-vs-new equivalence: the production picker must be a pure speedup.

The availability matrix and the array selection kernels claim to be
behaviour-preserving: given the same seed, a swarm of production
pickers must execute the *identical* schedule as a swarm of naive
pickers (``tests/reference_piece_picker.py``) — same RNG consumption,
same piece selections, same completion order, same rarest-pieces-set
trajectory.  These tests run the same seeded scenario twice, once on
the production pickers and once on the oracle, reached through the
``twins`` fixture, and compare the traces event for event.
"""

from random import Random

import pytest

from repro.core.rarest_first import make_selector
from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm

from tests.conftest import ENGINE_TWINS
from tests.reference_piece_picker import NaivePiecePicker

#: Every built-in strategy (with non-default parameters for the
#: parameterised ones), as make_selector specs.
ALL_SELECTOR_SPECS = [
    "rarest-first",
    "mode-suppression:suppression=0.7",
    "random",
    "sequential",
]


def build_swarm(seed, num_pieces, num_leechers, churn=False, selector_spec=None):
    metainfo = make_metainfo(
        "equivalence-%d" % seed,
        num_pieces=num_pieces,
        piece_size=4 * KIB,
        block_size=1 * KIB,
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=seed))
    rng = Random(seed)

    def config():
        return PeerConfig(
            upload_capacity=rng.choice([2, 4, 8]) * KIB,
            seeding_time=(rng.choice([20.0, None]) if churn else None),
        )

    def kwargs():
        # A fresh selector per peer: mode suppression carries a per-peer
        # scarcity binding and must never be shared.
        if selector_spec is None:
            return {}
        return {"selector": make_selector(selector_spec)}

    swarm.add_peer(config=config(), is_seed=True, **kwargs())
    for __ in range(num_leechers):
        delay = rng.uniform(0.0, 30.0)
        swarm.schedule_arrival(delay, config=config(), **kwargs())
    return swarm


def run_traced(seed, num_pieces, num_leechers, churn=False, selector_spec=None):
    """Run one swarm, recording every piece replication and per-tick
    rarest-pieces-set snapshots of every online peer."""
    swarm = build_swarm(
        seed, num_pieces, num_leechers, churn, selector_spec=selector_spec
    )
    replications = []
    original = swarm.on_piece_replicated

    def record(peer, piece):
        replications.append((swarm.simulator.now, peer.address, piece))
        original(peer, piece)

    swarm.on_piece_replicated = record
    rarest_snapshots = []

    def snapshot(now):
        rarest_snapshots.append(
            [
                (address, swarm.peers[address].picker.rarest_pieces_set())
                for address in sorted(swarm.peers)
            ]
        )

    swarm.on_tick(snapshot)
    result = swarm.run(250)
    final_bitfields = {
        address: list(peer.bitfield.have_indices())
        for address, peer in swarm.peers.items()
    }
    return {
        "replications": replications,
        "rarest_snapshots": rarest_snapshots,
        "completions": sorted(result.completions.items()),
        "bytes_moved": result.bytes_moved,
        "final_bitfields": final_bitfields,
    }


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_indexed_and_naive_traces_identical(seed, twins):
    with twins("naive-picker"):
        naive = run_traced(seed, num_pieces=16, num_leechers=5)
    indexed = run_traced(seed, num_pieces=16, num_leechers=5)
    # Piece completions happen at the same instants, by the same peers,
    # in the same order...
    assert indexed["replications"] == naive["replications"]
    # ...the availability view evolves identically tick for tick...
    assert indexed["rarest_snapshots"] == naive["rarest_snapshots"]
    # ...and the aggregate outcome is bit-identical.
    assert indexed["completions"] == naive["completions"]
    assert indexed["bytes_moved"] == naive["bytes_moved"]
    assert indexed["final_bitfields"] == naive["final_bitfields"]


def test_traces_identical_under_churn(twins):
    """Seed departures exercise the peer_left / on_peer_gone paths."""
    with twins("naive-picker"):
        naive = run_traced(3, num_pieces=12, num_leechers=4, churn=True)
    indexed = run_traced(3, num_pieces=12, num_leechers=4, churn=True)
    assert indexed["replications"] == naive["replications"]
    assert indexed["rarest_snapshots"] == naive["rarest_snapshots"]
    assert indexed["final_bitfields"] == naive["final_bitfields"]


@pytest.mark.parametrize("spec", ALL_SELECTOR_SPECS)
def test_indexed_equals_naive_for_every_selector(spec, twins):
    """Every built-in strategy's array kernel must consume the same RNG
    and pick the same pieces as its list-based reference."""
    with twins("naive-picker"):
        naive = run_traced(5, num_pieces=16, num_leechers=5, selector_spec=spec)
    indexed = run_traced(5, num_pieces=16, num_leechers=5, selector_spec=spec)
    assert indexed["replications"] == naive["replications"]
    assert indexed["rarest_snapshots"] == naive["rarest_snapshots"]
    assert indexed["completions"] == naive["completions"]
    assert indexed["bytes_moved"] == naive["bytes_moved"]
    assert indexed["final_bitfields"] == naive["final_bitfields"]


@pytest.mark.parametrize("spec", ALL_SELECTOR_SPECS)
def test_fast_engine_equals_reference_for_every_selector(spec, twins):
    """The mega-swarm fast paths (fused HAVE fan-out + vectorised
    allocator) must stay trace-invisible for *every* strategy."""
    with twins(*ENGINE_TWINS):
        reference = run_traced(9, num_pieces=16, num_leechers=5, selector_spec=spec)
    fast = run_traced(9, num_pieces=16, num_leechers=5, selector_spec=spec)
    assert fast["replications"] == reference["replications"]
    assert fast["rarest_snapshots"] == reference["rarest_snapshots"]
    assert fast["completions"] == reference["completions"]
    assert fast["bytes_moved"] == reference["bytes_moved"]
    assert fast["final_bitfields"] == reference["final_bitfields"]


def test_sequential_selector_on_fast_engine_matches_naive_reference(twins):
    """Regression: a non-rarest strategy on the full fast engine
    (vectorised allocator, availability matrix) was once hijacked by a
    rarest-first-only matrix kernel.  The matrix dispatch must run the configured strategy
    faithfully and match the reference engine on naive pickers."""
    fast = run_traced(11, num_pieces=12, num_leechers=4, selector_spec="sequential")
    with twins(*ENGINE_TWINS, "naive-picker"):
        reference = run_traced(
            11, num_pieces=12, num_leechers=4, selector_spec="sequential"
        )
    assert fast["replications"] == reference["replications"]
    assert fast["completions"] == reference["completions"]
    assert fast["final_bitfields"] == reference["final_bitfields"]
    # And the run actually downloads: the old dispatch either raised or
    # silently fell back to rarest first (different replication order).
    assert any(fast["final_bitfields"].values())


def test_modes_are_actually_different_code_paths(twins):
    """Guard against the equivalence test passing vacuously: the oracle
    swarm must pick through the naive picker, the default one must not."""
    with twins("naive-picker"):
        naive_swarm = build_swarm(1, 8, 1)
    indexed_swarm = build_swarm(1, 8, 1)
    assert naive_swarm.peers and indexed_swarm.peers
    assert all(
        type(peer.picker) is NaivePiecePicker for peer in naive_swarm.peers.values()
    )
    assert not any(
        isinstance(peer.picker, NaivePiecePicker)
        for peer in indexed_swarm.peers.values()
    )
