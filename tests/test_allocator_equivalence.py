"""Differential trace-equivalence harness for the mega-swarm engine.

The fast engine paths — vectorised max-min allocator, shared views
with the fused HAVE fan-out, and the binary trace container — are each
*claimed* to be observably identical to the reference implementations
they replace.  This suite pins those claims down three
ways:

* **property tests** drive the production allocator and the python
  oracle of ``tests/reference_allocator.py`` over random networks and
  require bit-identical rates (not approximately equal: the oracle was
  restructured so both charge residuals with the same arithmetic);
* **differential swarm runs** execute the same seeded scenario on the
  fast paths and on their reference twins (reached through the
  ``twins`` fixture: the python allocator, PeerCore's per-link message
  route and traced deliveries through both observer hooks) and
  require identical trace fingerprints and final swarm state —
  including under churn and rejoins;
* **format tests** require the binary trace to reproduce the JSONL
  trace byte for byte, and to fail loudly when truncated or corrupted.
"""

import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.instrumentation import (
    BinaryTraceRecorder,
    TraceRecorder,
    TracingObserver,
    binary_to_jsonl,
    iter_trace,
    jsonl_to_binary,
    replay_instrumentation,
)
from repro.instrumentation.replay import TraceFormatError
from repro.core.peer_core import PeerCore
from repro.protocol.messages import Have, Request
from repro.protocol.metainfo import make_metainfo
import repro.sim.swarm
from repro.sim.bandwidth import (
    Flow,
    max_min_allocation,
    max_min_rates,
    resolve_allocator,
)
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.peer import Peer
from repro.sim.swarm import Swarm

from random import Random

from tests.conftest import ENGINE_TWINS
from tests.reference_allocator import (
    reference_max_min_allocation,
    reference_max_min_rates,
)
from tests.reference_piece_picker import NaivePiecePicker


# ---------------------------------------------------------------------------
# allocator property suite
# ---------------------------------------------------------------------------

@st.composite
def networks(draw):
    """A random bipartite flow network with optional capacity gaps."""
    num_nodes = draw(st.integers(min_value=1, max_value=8))
    nodes = ["n%d" % i for i in range(num_nodes)]
    caps = st.one_of(
        st.none(),  # unconstrained direction
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
    uploads = {
        node: cap
        for node in nodes
        if (cap := draw(caps, label="upload %s" % node)) is not None
    }
    downloads = {
        node: cap
        for node in nodes
        if (cap := draw(caps, label="download %s" % node)) is not None
    }
    num_flows = draw(st.integers(min_value=0, max_value=24))
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    flows = [draw(pairs) for __ in range(num_flows)]
    return flows, uploads, downloads


class TestAllocatorEquivalence:
    @given(networks())
    @settings(max_examples=200, deadline=None)
    def test_numpy_matches_reference_bit_for_bit(self, network):
        pairs, uploads, downloads = network
        reference = [Flow(u, d) for u, d in pairs]
        vectorized = [Flow(u, d) for u, d in pairs]
        reference_max_min_allocation(reference, uploads, downloads)
        max_min_allocation(vectorized, uploads, downloads)
        # Bit-identical, not approximately equal: both paths perform the
        # same residual arithmetic in the same order.
        assert [f.rate for f in reference] == [f.rate for f in vectorized]

    @given(networks())
    @settings(max_examples=100, deadline=None)
    def test_numpy_allocation_is_feasible(self, network):
        pairs, uploads, downloads = network
        flows = [Flow(u, d) for u, d in pairs]
        max_min_allocation(flows, uploads, downloads)
        tolerance = 1e-6
        for node, cap in uploads.items():
            used = sum(f.rate for f in flows if f.uploader == node)
            if used != float("inf"):
                assert used <= cap + tolerance
        for node, cap in downloads.items():
            used = sum(f.rate for f in flows if f.downloader == node)
            if used != float("inf"):
                assert used <= cap + tolerance

    def test_resolve_allocator_names(self, twins):
        """No name picks the allocator: there is one, and the fixture
        swaps the binding the swarm looks up for the oracle."""
        assert resolve_allocator() is max_min_rates
        with twins("reference-allocator"):
            assert repro.sim.swarm.resolve_allocator() is reference_max_min_rates
        assert repro.sim.swarm.resolve_allocator() is max_min_rates
        with pytest.raises(TypeError):
            resolve_allocator("reference")


# ---------------------------------------------------------------------------
# differential swarm runs
# ---------------------------------------------------------------------------

def run_swarm(
    seed=17,
    leechers=12,
    pieces=128,
    horizon=150.0,
    churn=False,
    recorder=None,
):
    """One seeded scenario; returns (fingerprint, state, swarm)."""
    metainfo = make_metainfo(
        "equiv", num_pieces=pieces, piece_size=4 * KIB, block_size=4 * KIB
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=seed))
    if recorder is not None:
        swarm.observer_factory = lambda: TracingObserver(recorder)
    rng = Random(seed)
    swarm.add_peer(
        config=PeerConfig(upload_capacity=64 * KIB), is_seed=True
    )
    for index in range(leechers):
        peer_config = PeerConfig(
            upload_capacity=rng.choice([16, 32, 64]) * KIB,
            seeding_time=rng.uniform(5.0, 30.0) if churn and index % 3 == 0 else None,
        )
        swarm.schedule_arrival(rng.uniform(0.0, 30.0), config=peer_config)
    result = swarm.run(horizon)
    fingerprint = None
    if recorder is not None and isinstance(recorder, TraceRecorder):
        fingerprint = recorder.close()
    state = (
        result.bytes_moved,
        result.first_full_copy_at,
        sorted(result.completions.items()),
        {
            address: list(peer.bitfield.have_indices())
            for address, peer in swarm.peers.items()
        },
    )
    return fingerprint, state, swarm


class TestEngineDifferential:
    @pytest.mark.parametrize(
        "twin, selects_twin",
        [
            (
                "reference-allocator",
                lambda swarm: swarm._allocate is reference_max_min_rates,
            ),
            (
                # What the run delivered that way is checked by
                # test_per_link_twin_takes_the_message_route.
                "per-link",
                lambda swarm: all(
                    type(peer)._remote_view is PeerCore._remote_view
                    for peer in swarm.peers.values()
                ),
            ),
            (
                "unpaired",
                lambda swarm: all(
                    peer.observer.pair_recorder is None
                    for peer in swarm.peers.values()
                ),
            ),
            (
                "naive-picker",
                lambda swarm: all(
                    type(peer.picker) is NaivePiecePicker
                    for peer in swarm.peers.values()
                ),
            ),
        ],
        ids=["allocator", "have_fanout", "unpaired", "picker"],
    )
    def test_each_reference_value_selects_its_twin(self, twin, selects_twin, twins):
        """Guard against a vacuous differential: the fixture really
        selects each twin, and the default swarm holds none of them."""
        with twins(twin):
            __, __, twin_swarm = run_swarm(horizon=40.0, recorder=TraceRecorder())
            assert selects_twin(twin_swarm)
        __, __, fast = run_swarm(horizon=40.0, recorder=TraceRecorder())
        assert twin_swarm.peers and fast.peers
        assert not selects_twin(fast)

    def test_fast_path_trace_equals_reference(self, twins):
        fast_fp, fast_state, __ = run_swarm(recorder=TraceRecorder())
        with twins(*ENGINE_TWINS):
            ref_fp, ref_state, __ = run_swarm(recorder=TraceRecorder())
        assert fast_fp == ref_fp
        assert fast_state == ref_state

    def test_fast_path_equals_reference_under_churn(self, twins):
        fast_fp, fast_state, __ = run_swarm(churn=True, recorder=TraceRecorder())
        with twins(*ENGINE_TWINS):
            ref_fp, ref_state, __ = run_swarm(churn=True, recorder=TraceRecorder())
        assert fast_fp == ref_fp
        assert fast_state == ref_state

    def test_per_link_twin_takes_the_message_route(self, twins, monkeypatch):
        """Guard against the oracle collapsing into the fused path: on
        the ``per-link`` twin HAVEs and REQUESTs reach the far end
        through ``Peer._receive``; on the fast path, with nobody
        observing, none does."""
        counts = []
        receive = Peer._receive

        def counted(peer, connection, message, observe=True):
            counts[-1][type(message)] += 1
            receive(peer, connection, message, observe)

        monkeypatch.setattr(Peer, "_receive", counted)
        counts.append(Counter())
        with twins("per-link"):
            run_swarm(horizon=60.0)
        counts.append(Counter())
        run_swarm(horizon=60.0)
        per_link, fast = counts
        for kind in (Have, Request):
            assert per_link[kind] > 0, kind
            assert fast[kind] == 0, kind

    def test_leave_and_rejoin_reacquires_matrix_slot(self):
        metainfo = make_metainfo(
            "rejoin", num_pieces=16, piece_size=4 * KIB, block_size=4 * KIB
        )
        swarm = Swarm(metainfo, SwarmConfig(seed=3))
        seed_peer = swarm.add_peer(
            config=PeerConfig(upload_capacity=64 * KIB), is_seed=True
        )
        leecher = swarm.add_peer(config=PeerConfig(upload_capacity=64 * KIB))
        swarm.run(20.0)
        leecher.leave()
        assert leecher.picker.matrix_slot is None
        leecher.join()
        assert leecher.picker.matrix_slot is not None
        swarm.run(200.0)
        assert leecher.bitfield.is_complete()
        assert seed_peer.is_seed


class TestFlowCacheUnderChurn:
    def test_cached_rates_survive_churn_hammer(self):
        """The per-tick allocation cache must stay coherent while peers
        leave and rejoin mid-transfer: forcing a recompute on every tick
        must not change any outcome (regression: stale cached rates for
        departed uploaders)."""

        def run_once(force_recompute):
            metainfo = make_metainfo(
                "hammer", num_pieces=32, piece_size=4 * KIB, block_size=4 * KIB
            )
            swarm = Swarm(metainfo, SwarmConfig(seed=29, tick_interval=1.0))
            swarm.add_peer(
                config=PeerConfig(upload_capacity=32 * KIB), is_seed=True
            )
            leechers = [
                swarm.add_peer(config=PeerConfig(upload_capacity=16 * KIB))
                for __ in range(8)
            ]
            rng = Random(29)

            def churn():
                # Every 5 s each leecher leaves or rejoins with a fixed
                # draw, so both runs churn alike.
                for peer in leechers:
                    if rng.random() < 0.15:
                        if peer.online:
                            peer.leave()
                        else:
                            peer.join()
                swarm.simulator.schedule(5.0, churn)

            swarm.simulator.schedule(5.0, churn)
            if force_recompute:
                def invalidate(now):
                    swarm._members_generation += 1

                swarm.on_tick(invalidate)
            result = swarm.run(120.0)
            return (
                result.bytes_moved,
                sorted(result.completions.items()),
                {a: p.bitfield.count for a, p in swarm.peers.items()},
            )

        assert run_once(False) == run_once(True)


# ---------------------------------------------------------------------------
# binary trace format
# ---------------------------------------------------------------------------

def traced_pair(tmp_path=None):
    """The same tiny run recorded by the JSONL and binary recorders."""
    jsonl = TraceRecorder()
    run_swarm(seed=5, leechers=4, pieces=32, horizon=80.0, recorder=jsonl)
    jsonl.close()
    binary = BinaryTraceRecorder()
    run_swarm(seed=5, leechers=4, pieces=32, horizon=80.0, recorder=binary)
    binary.close()
    return jsonl, binary


class TestBinaryTrace:
    def test_live_binary_recorder_reproduces_jsonl_bytes(self):
        jsonl, binary = traced_pair()
        assert binary_to_jsonl(binary) == jsonl.lines()

    def test_fingerprints_agree_across_formats(self):
        jsonl, binary = traced_pair()
        events_jsonl = iter_trace(jsonl)
        events_binary = iter_trace(binary_to_jsonl(binary))
        assert events_jsonl == events_binary
        assert jsonl.events_emitted == binary.events_emitted

    def test_round_trip_is_byte_identical(self):
        jsonl, __ = traced_pair()
        binary_one = jsonl_to_binary(jsonl.lines())
        lines = binary_to_jsonl(binary_one)
        binary_two = jsonl_to_binary(lines)
        assert lines == jsonl.lines()
        assert binary_one == binary_two

    def test_binary_is_substantially_smaller(self):
        jsonl, __ = traced_pair()
        binary = jsonl_to_binary(jsonl.lines())
        jsonl_size = sum(len(line) + 1 for line in jsonl.lines())
        assert len(binary) < jsonl_size / 2

    def test_replay_from_binary_file_matches_jsonl(self, tmp_path):
        jsonl, __ = traced_pair()
        path = os.fspath(tmp_path / "trace.bin")
        jsonl_to_binary(jsonl.lines(), path=path)
        peer = next(
            event["peer"]
            for event in iter_trace(jsonl)
            if event["type"] == "attach"
        )
        from_jsonl = replay_instrumentation(jsonl, peer=peer)
        from_binary = replay_instrumentation(path, peer=peer)
        assert [vars(s) for s in from_jsonl.snapshots] == [
            vars(s) for s in from_binary.snapshots
        ]

    def test_truncated_binary_fails_loudly(self):
        jsonl, __ = traced_pair()
        binary = jsonl_to_binary(jsonl.lines())
        for cut in (3, 4, len(binary) // 2, len(binary) - 7):
            with pytest.raises(TraceFormatError):
                binary_to_jsonl(binary[:cut])

    def test_corrupt_tag_fails_loudly(self):
        jsonl, __ = traced_pair()
        binary = bytearray(jsonl_to_binary(jsonl.lines()))
        binary[4] = 0x7F  # first record tag -> unknown
        with pytest.raises(TraceFormatError):
            binary_to_jsonl(bytes(binary))

    def test_bad_magic_fails_loudly(self):
        with pytest.raises(TraceFormatError):
            binary_to_jsonl(b"NOPE" + b"\x00" * 64)

    def test_event_count_mismatch_fails_loudly(self):
        jsonl, __ = traced_pair()
        binary = bytearray(jsonl_to_binary(jsonl.lines()))
        # The end record's count field sits right after its tag byte,
        # 37 bytes from the end (4 count + 1 state + 32 fingerprint).
        offset = len(binary) - 37
        binary[offset] ^= 0xFF
        with pytest.raises(TraceFormatError):
            binary_to_jsonl(bytes(binary))

    def test_jsonl_to_binary_rejects_garbage(self):
        with pytest.raises(TraceFormatError):
            jsonl_to_binary(["not json at all"])
        with pytest.raises(TraceFormatError):
            jsonl_to_binary([])
