"""Cross-cutting simulator invariants, checked on randomised small swarms.

These are the conservation laws the fluid model and the protocol layer
must respect regardless of topology, capacities or churn:

* bytes are conserved: total uploaded == total downloaded;
* the local availability accounting equals the sum of the connected
  remotes' bitfields at every instant;
* nobody downloads more than the content size per completion;
* the active peer set never exceeds the configured unchoke slots;
* completed peers hold hash-consistent content (when verification is on).
"""

from random import Random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, UNCHOKE_SLOTS, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm


def build_random_swarm(seed, num_pieces, num_leechers, verify=False):
    metainfo = make_metainfo(
        "invariants-%d" % seed,
        num_pieces=num_pieces,
        piece_size=4 * KIB,
        block_size=1 * KIB,
    )
    swarm = Swarm(
        metainfo, SwarmConfig(seed=seed, verify_piece_hashes=verify)
    )
    rng = Random(seed)
    swarm.add_peer(
        config=PeerConfig(upload_capacity=rng.choice([2, 4, 8]) * KIB),
        is_seed=True,
    )
    for __ in range(num_leechers):
        swarm.add_peer(
            config=PeerConfig(
                upload_capacity=rng.choice([0.5, 1, 2, 4]) * KIB,
                download_capacity=rng.choice([None, 8 * KIB]),
            )
        )
    return swarm


swarm_params = st.tuples(
    st.integers(0, 10_000),  # seed
    st.integers(2, 12),      # pieces
    st.integers(1, 6),       # leechers
)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(swarm_params)
def test_bytes_conserved(params):
    seed, num_pieces, num_leechers = params
    swarm = build_random_swarm(seed, num_pieces, num_leechers)
    swarm.run(200)
    uploaded = sum(peer.total_uploaded for peer in swarm.peers.values())
    downloaded = sum(peer.total_downloaded for peer in swarm.peers.values())
    assert uploaded == pytest.approx(downloaded)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(swarm_params)
# Pinned: this example caught ``have_indices`` reading a stale set
# mirror when the fused HAVE fan-out wrote view bitmaps directly.  The
# mirror is gone; the bitmap is what this (batched) run counts.
@example((1, 8, 6))
def test_availability_matches_bitfields(params):
    seed, num_pieces, num_leechers = params
    swarm = build_random_swarm(seed, num_pieces, num_leechers)
    swarm.run(73)  # an arbitrary mid-download instant
    for peer in swarm.peers.values():
        expected = [0] * num_pieces
        for connection in peer.connections.values():
            view = connection.remote_bitfield
            for piece in view.have_indices():
                expected[piece] += 1
        assert list(peer.picker.availability) == expected


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(swarm_params)
def test_download_bounded_by_content(params):
    seed, num_pieces, num_leechers = params
    swarm = build_random_swarm(seed, num_pieces, num_leechers)
    swarm.run(400)
    content = swarm.metainfo.geometry.total_size
    for peer in swarm.peers.values():
        # End-game duplicates may deliver a few extra blocks, never more
        # than a handful of block sizes beyond the content.
        assert peer.total_downloaded <= content + 16 * KIB


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(swarm_params)
def test_unchoke_slots_never_exceeded(params):
    seed, num_pieces, num_leechers = params
    swarm = build_random_swarm(seed, num_pieces, num_leechers)
    violations = []

    def probe(now):
        for peer in swarm.peers.values():
            active = sum(
                1
                for connection in peer.connections.values()
                if not connection.am_choking and connection.peer_interested
            )
            if active > UNCHOKE_SLOTS:
                violations.append((now, peer.address, active))

    swarm.on_tick(probe)
    swarm.run(150)
    assert not violations


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000))
def test_verified_download_is_hash_consistent(seed):
    swarm = build_random_swarm(seed, num_pieces=4, num_leechers=2, verify=True)
    swarm.run(400)
    for peer in swarm.peers.values():
        if peer.is_seed:
            # Every completed peer passed SHA-1 on every piece (the
            # verify path raises/fails the piece otherwise).
            assert peer.bitfield.is_complete()


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(swarm_params, st.integers(10, 200))
def test_global_counts_never_negative(params, horizon):
    seed, num_pieces, num_leechers = params
    swarm = build_random_swarm(seed, num_pieces, num_leechers)
    swarm.run(horizon)
    assert all(count >= 0 for count in swarm.global_counts)
    assert all(
        count <= len(swarm.peers) for count in swarm.global_counts
    )
