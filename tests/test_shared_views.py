"""The shared-view contract of DESIGN §12.

Every simulated link delivers synchronously and losslessly, so a
neighbour's view of a peer *is* that peer's bitfield, and a completed
piece raises every neighbour's copy count in one batched add.  Three
things pin that down:

* **identity** — which views are shared, and that the per-link message
  route (the ``twins`` fixture's ``"per-link"``) shares none;
* **differential runs** — shared views against that per-link reference
  for every registered selector, with observers on no peer, on one peer
  and on every peer;
* **churn** — availability row ≡ Σ views over a peer's links on every
  tick through join, leave and rejoin.
"""

from random import Random

import pytest

from repro.core.rarest_first import SELECTOR_REGISTRY
from repro.instrumentation import Instrumentation, TraceRecorder, TracingObserver
from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm


def make_swarm(seed=11, pieces=24, **config):
    metainfo = make_metainfo(
        "shared-%d" % seed, num_pieces=pieces, piece_size=4 * KIB, block_size=1 * KIB
    )
    return Swarm(metainfo, SwarmConfig(seed=seed, **config))


def populate(swarm, leechers=5, super_seeding=False, selector=None):
    """One seed now, *leechers* arriving over the first 30 s."""
    rng = Random(swarm.config.seed)

    def kwargs():
        # A fresh selector per peer: mode suppression holds per-peer state.
        return {} if selector is None else {"selector": SELECTOR_REGISTRY[selector]()}

    swarm.add_peer(
        config=PeerConfig(upload_capacity=8 * KIB, super_seeding=super_seeding),
        is_seed=True,
        **kwargs(),
    )
    for __ in range(leechers):
        swarm.schedule_arrival(
            rng.uniform(0.0, 30.0),
            config=PeerConfig(upload_capacity=rng.choice([2, 4, 8]) * KIB),
            **kwargs(),
        )


def links(swarm):
    """Every link endpoint in the swarm."""
    return [
        connection
        for peer in swarm.peers.values()
        for connection in peer.connections.values()
    ]


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------


class TestIdentity:
    def test_batched_views_are_the_remotes_bitfield(self):
        swarm = make_swarm()
        populate(swarm)
        seen = []

        def probe(now):
            for connection in links(swarm):
                assert connection.remote_bitfield is connection.remote.bitfield
                seen.append(connection)

        swarm.on_tick(probe)
        swarm.run(120)
        assert seen

    def test_views_of_a_super_seeder_stay_per_link(self):
        swarm = make_swarm()
        populate(swarm, super_seeding=True)
        kinds = set()

        def probe(now):
            for connection in links(swarm):
                remote = connection.remote
                shared = connection.remote_bitfield is remote.bitfield
                assert shared != remote.super_seeding
                kinds.add(shared)
                if remote.super_seeding:
                    # It advertised nothing and reveals piece by piece.
                    assert connection.remote_bitfield.count < remote.bitfield.count

        swarm.on_tick(probe)
        swarm.run(120)
        assert kinds == {True, False}

    def test_no_view_is_shared_on_the_per_link_twin(self, twins):
        seen = []
        with twins("per-link"):
            swarm = make_swarm()
            populate(swarm)

            def probe(now):
                for connection in links(swarm):
                    assert (
                        connection.remote_bitfield is not connection.remote.bitfield
                    )
                    seen.append(connection)

            swarm.on_tick(probe)
            swarm.run(120)
        assert seen


# ---------------------------------------------------------------------------
# shared views vs the per-link reference
# ---------------------------------------------------------------------------


def run_observed(selector, observed):
    """One seeded run; everything an outside reader can tell apart."""
    swarm = make_swarm(seed=9, pieces=16)
    recorder = TraceRecorder()
    if observed == "every":
        swarm.observer_factory = lambda: TracingObserver(recorder)
    populate(swarm, selector=selector)
    logger = None
    if observed == "local":
        # The logger is the one observer that reads a view at hook time.
        logger = Instrumentation()
        swarm.add_peer(
            config=PeerConfig(upload_capacity=4 * KIB),
            selector=SELECTOR_REGISTRY[selector](),
            observer=logger,
        )
    replications = []
    original = swarm.on_piece_replicated

    def record(peer, piece):
        replications.append((swarm.simulator.now, peer.address, piece))
        original(peer, piece)

    swarm.on_piece_replicated = record
    rarest = []
    swarm.on_tick(
        lambda now: rarest.append(
            [
                (address, swarm.peers[address].picker.rarest_pieces_set())
                for address in sorted(swarm.peers)
            ]
        )
    )
    result = swarm.run(250)
    outcome = {
        "replications": replications,
        "rarest": rarest,
        "completions": sorted(result.completions.items()),
        "bytes_moved": result.bytes_moved,
        "trace": recorder.close(),
    }
    if logger is not None:
        logger.finalize()
        outcome["logger"] = sorted(
            (
                address,
                record.remote_seed_since,
                record.presence.intervals,
                record.local_interested_in_remote.intervals,
                record.remote_interested_in_local.intervals,
            )
            for address, record in logger.records.items()
        )
        outcome["pieces"] = logger.piece_completions
    return outcome


@pytest.mark.parametrize("observed", ["none", "local", "every"])
@pytest.mark.parametrize("selector", sorted(SELECTOR_REGISTRY))
def test_shared_views_equal_the_per_link_reference(selector, observed, twins):
    shared = run_observed(selector, observed)
    # The per-link reference: parsed views, one ``_send`` per HAVE.
    # Nothing else is de-optimised, so a difference can only come from
    # the views.
    with twins("per-link"):
        reference = run_observed(selector, observed)
    assert shared["replications"], "nothing was downloaded"
    assert shared == reference


# ---------------------------------------------------------------------------
# churn and invalidation
# ---------------------------------------------------------------------------


def sum_of_views(peer):
    expected = [0] * peer.bitfield.num_pieces
    for connection in peer.connections.values():
        for piece in connection.remote_bitfield.have_indices():
            expected[piece] += 1
    return expected


def test_row_equals_sum_of_views_through_join_leave_and_rejoin():
    swarm = make_swarm(seed=5, pieces=32)
    everyone = [
        swarm.add_peer(config=PeerConfig(upload_capacity=16 * KIB), is_seed=True)
    ]
    for __ in range(6):
        everyone.append(swarm.add_peer(config=PeerConfig(upload_capacity=4 * KIB)))
    # Two leechers depart on completion; later arrivals keep joining.
    for delay in (5.0, 15.0):
        swarm.schedule_arrival(
            delay, config=PeerConfig(upload_capacity=4 * KIB, seeding_time=10.0)
        )
    ticks = []
    mirrored = []

    def probe(now):
        ticks.append(now)
        for peer in set(everyone) | set(swarm.peers.values()):
            # The cached fan-out targets, when held, are never stale: the
            # same slots in the same order (an index array, so compared
            # element-wise).
            held_targets = peer._have_targets
            if held_targets is not None:
                fresh = peer._collect_have_targets()
                assert list(held_targets) == list(fresh), (now, peer)
            # The fused fan-out filters on the sender-side mirrors of the
            # twin's flags: on a link open at both ends they are equal.
            for connection in peer.connections.values():
                twin = connection.twin
                if connection.closed or twin is None or twin.closed:
                    continue
                assert connection.peer_interested == twin.am_interested, (now, peer)
                assert connection.am_choking == twin.peer_choking, (now, peer)
                mirrored.append(connection)
            if peer.online:
                assert list(peer.picker.availability) == sum_of_views(peer), (
                    now,
                    peer,
                )

    swarm.on_tick(probe)
    swarm.run(12)

    # -- clean leave, then rejoin on a re-acquired slot -----------------
    leaver = everyone[2]
    leaver.leave()
    assert leaver.picker.matrix_slot is None
    swarm.run(6)
    leaver.join()
    assert leaver.picker.matrix_slot is not None
    swarm.run(6)

    # -- a leave mid-download: every neighbour drops its view at once ---
    victim = everyone[3]
    neighbours = [connection.remote for connection in victim.connections.values()]
    assert neighbours
    held = victim.bitfield.count
    victim.leave()
    for neighbour in neighbours:
        assert victim.address not in neighbour.connections
    swarm.run(6)
    assert victim.bitfield.count == held

    # -- the victim comes back and downloads on from a newcomer ---------
    swarm.add_peer(config=PeerConfig(upload_capacity=16 * KIB), is_seed=True)
    victim.join()
    swarm.run(120)
    assert victim.bitfield.count > held
    assert len(ticks) > 100 and mirrored
    # Closing every link subtracts every view: nothing may go negative.
    for peer in list(swarm.peers.values()):
        peer.leave()
