"""Tests for the instrumented local peer's trace recorder."""

import pytest

from repro.instrumentation import Instrumentation
from repro.instrumentation.logger import _IntervalTracker
from repro.protocol.bitfield import Bitfield
from repro.sim.config import KIB

from tests.conftest import fast_config, tiny_swarm


def instrumented_swarm(num_pieces=8, leechers=3, seed=5, local_upload=8 * KIB):
    swarm = tiny_swarm(num_pieces=num_pieces, seed=seed)
    swarm.add_peer(config=fast_config(), is_seed=True)
    for __ in range(leechers):
        swarm.add_peer(config=fast_config(upload=2 * KIB))
    instrumentation = Instrumentation()
    local = swarm.add_peer(
        config=fast_config(upload=local_upload), observer=instrumentation
    )
    instrumentation.start_sampling()
    return swarm, local, instrumentation


class TestIntervalTracker:
    def test_basic_interval(self):
        tracker = _IntervalTracker()
        tracker.set_on(1.0)
        tracker.set_off(5.0)
        assert tracker.intervals == [(1.0, 5.0)]
        assert tracker.total() == 4.0

    def test_set_on_idempotent(self):
        tracker = _IntervalTracker()
        tracker.set_on(1.0)
        tracker.set_on(2.0)
        tracker.set_off(5.0)
        assert tracker.total() == 4.0

    def test_set_off_without_on(self):
        tracker = _IntervalTracker()
        tracker.set_off(5.0)
        assert tracker.intervals == []

    def test_clipping(self):
        tracker = _IntervalTracker()
        tracker.set_on(0.0)
        tracker.set_off(10.0)
        tracker.set_on(20.0)
        tracker.set_off(30.0)
        assert tracker.total_clipped(5.0, 25.0) == pytest.approx(10.0)
        assert tracker.total_clipped(50.0, 60.0) == 0.0

    def test_close_open_interval(self):
        tracker = _IntervalTracker()
        tracker.set_on(3.0)
        tracker.close(7.0)
        assert tracker.total() == 4.0


class TestTraceRecording:
    def test_records_every_remote(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(200)
        trace.finalize()
        assert len(trace.records) == 4  # seed + 3 leechers

    def test_presence_intervals_cover_run(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(200)
        trace.finalize()
        for record in trace.records.values():
            assert record.presence.total() > 0

    def test_piece_completions_count(self):
        swarm, local, trace = instrumented_swarm(num_pieces=8)
        swarm.run(400)
        assert len(trace.piece_completions) == 8
        assert trace.seed_state_at is not None
        completed_pieces = {piece for __, piece in trace.piece_completions}
        assert completed_pieces == set(range(8))

    def test_block_arrivals_sum_to_content(self):
        swarm, local, trace = instrumented_swarm(num_pieces=8)
        swarm.run(400)
        total = sum(length for *__, length in trace.block_arrivals)
        assert total == swarm.metainfo.geometry.total_size

    def test_seed_state_event(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(400)
        assert local.is_seed
        assert trace.seed_state_at == swarm.result.completions[local.address]

    def test_endgame_event(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(400)
        assert trace.endgame_at is not None
        assert trace.endgame_at <= trace.seed_state_at

    def test_snapshots_sampled(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(100)
        assert len(trace.snapshots) >= 10
        for snapshot in trace.snapshots:
            assert snapshot.min_copies <= snapshot.mean_copies <= snapshot.max_copies
            assert snapshot.peer_set_size >= 0

    def test_message_counts_positive(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(100)
        assert trace.messages_sent > 0
        assert trace.messages_received > 0

    def test_choke_rounds_recorded(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(100)
        assert len(trace.choke_rounds) >= 8  # one per ~10 s

    def test_unchoke_times_recorded(self):
        # 32 pieces so the download spans several choke rounds: the
        # 8-piece swarm can finish inside ~3 rounds, where remote
        # interest in the local peer may never overlap a round boundary.
        swarm, local, trace = instrumented_swarm(num_pieces=32)
        swarm.run(300)
        total_unchokes = sum(
            len(record.unchoke_times) for record in trace.records.values()
        )
        assert total_unchokes > 0

    def test_leecher_interval(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(400)
        start, end = trace.leecher_interval
        assert start == local.joined_at
        assert end == trace.seed_state_at
        seed_interval = trace.seed_interval
        assert seed_interval is not None
        assert seed_interval[0] == trace.seed_state_at

    def test_byte_split_by_local_state(self):
        swarm, local, trace = instrumented_swarm(num_pieces=16)
        swarm.run(800)
        trace.finalize()
        uploaded_ls = sum(r.uploaded_leecher_state for r in trace.records.values())
        uploaded_ss = sum(r.uploaded_seed_state for r in trace.records.values())
        assert uploaded_ls + uploaded_ss == pytest.approx(local.total_uploaded)
        downloaded = sum(
            r.downloaded_leecher_state + r.downloaded_seed_state
            for r in trace.records.values()
        )
        assert downloaded == pytest.approx(local.total_downloaded)

    def test_remote_seed_detection(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(400)
        trace.finalize()
        seed_records = [
            record
            for record in trace.records.values()
            if record.remote_seed_since is not None
        ]
        assert seed_records  # at least the initial seed

    def test_finalize_idempotent(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(100)
        trace.finalize()
        first = {
            address: record.presence.total()
            for address, record in trace.records.items()
        }
        trace.finalize()
        second = {
            address: record.presence.total()
            for address, record in trace.records.items()
        }
        assert first == second

    def test_rate_samples_disabled_by_default(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(100)
        assert trace.rate_samples == []

    def test_rate_samples_recorded_when_enabled(self):
        # Rate samples fire once per choke round per live link; 32
        # pieces keeps the link alive past the first round (a 4-piece
        # download can finish before any round runs).
        swarm = tiny_swarm(num_pieces=32)
        swarm.add_peer(config=fast_config(), is_seed=True)
        trace = Instrumentation(record_rates=True)
        swarm.add_peer(config=fast_config(), observer=trace)
        trace.start_sampling()
        swarm.run(60)
        assert len(trace.rate_samples) > 0
        now, address, down, up = trace.rate_samples[0]
        assert down >= 0 and up >= 0

    def test_client_id_captured(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(50)
        for record in trace.records.values():
            assert record.client_id == "M4-0-2"


class TestBitfieldSeedDetection:
    """Regression: spare padding bits of a raw BITFIELD must not count
    toward seed detection (piece counts not divisible by 8)."""

    def linked_pair(self, num_pieces=12):
        from repro.protocol.messages import Bitfield as BitfieldMessage  # noqa: F401

        swarm = tiny_swarm(num_pieces=num_pieces)
        trace = Instrumentation()
        local = swarm.add_peer(config=fast_config(), observer=trace)
        other = swarm.add_peer(config=fast_config())
        swarm.run(5.0)  # let the handshake + real (empty) bitfields flow
        connection = local.connections[other.address]
        return swarm, trace, connection, other

    def test_padded_leecher_bitfield_not_mistaken_for_seed(self):
        from repro.protocol.messages import Bitfield as BitfieldMessage

        swarm, trace, connection, other = self.linked_pair(num_pieces=12)
        record = trace.records[other.address]
        assert record.remote_seed_since is None
        # 8 of 12 pieces set, plus all 4 spare padding bits set: 12 one
        # bits in total, but only 8 real pieces — still a leecher.
        padded = BitfieldMessage(bits=bytes([0xFF, 0x0F]))
        trace.on_message_received(swarm.simulator.now, other.address, padded)
        assert record.remote_seed_since is None

    def test_true_seed_bitfield_still_detected(self):
        from repro.protocol.messages import Bitfield as BitfieldMessage

        swarm, trace, connection, other = self.linked_pair(num_pieces=12)
        record = trace.records[other.address]
        complete = BitfieldMessage(bits=bytes([0xFF, 0xF0]))
        trace.on_message_received(swarm.simulator.now, other.address, complete)
        assert record.remote_seed_since == swarm.simulator.now

    def test_multiple_of_eight_unaffected(self):
        from repro.protocol.messages import Bitfield as BitfieldMessage

        swarm, trace, connection, other = self.linked_pair(num_pieces=8)
        record = trace.records[other.address]
        trace.on_message_received(
            swarm.simulator.now, other.address, BitfieldMessage(bits=bytes([0xFF]))
        )
        assert record.remote_seed_since == swarm.simulator.now


class TestHaveSeedDetection:
    """The HAVE hook answers "is the remote complete once this message
    is applied?" from what the remote announced on the link, its
    BITFIELD and the HAVEs since, counting a piece once however often it
    is announced."""

    @staticmethod
    def announce(view, haves):
        """The remote's BITFIELD (*view*) at t=41, then a HAVE of each
        piece of *haves* at t=42, 43, ...; its ``remote_seed_since``."""
        from repro.instrumentation.replay import ReplayedPeer
        from repro.protocol.messages import Bitfield as BitfieldMessage, Have

        trace = Instrumentation()
        trace.on_attached(ReplayedPeer("10.0.0.1", view.num_pieces))
        trace.on_connection_open(40.0, "10.0.0.9", None, False, False, True)
        trace.on_message_received(
            41.0, "10.0.0.9", BitfieldMessage(bits=view.to_bytes())
        )
        for step, piece in enumerate(haves):
            trace.on_message_received(42.0 + step, "10.0.0.9", Have(piece=piece))
        return trace.records["10.0.0.9"].remote_seed_since

    def test_view_that_already_holds_the_final_piece(self):
        view = Bitfield.full(12)
        view.clear(7)
        # The repeat announces nothing new: the seed time stays.
        assert self.announce(view, [7, 7]) == 42.0

    def test_view_still_missing_the_final_piece(self):
        lagging = Bitfield.full(12)
        lagging.clear(7)
        assert self.announce(lagging, []) is None
        assert self.announce(lagging, [7]) == 42.0

    def test_remote_that_misses_another_piece_is_no_seed(self):
        view = Bitfield.full(12)
        view.clear(3)
        view.clear(7)
        assert self.announce(view, [7, 7]) is None  # 7 counted once
        assert self.announce(view, [7, 3]) == 43.0


class TestFlushBytesAcrossReconnect:
    def test_no_double_count_across_connection_generations(self):
        """Byte totals must track each connection generation separately:
        a disconnect/reconnect of the same address must not re-count the
        first generation's bytes."""
        swarm = tiny_swarm(num_pieces=8)
        seeder = swarm.add_peer(config=fast_config(upload=2 * KIB), is_seed=True)
        trace = Instrumentation()
        local = swarm.add_peer(config=fast_config(upload=2 * KIB), observer=trace)
        swarm.run(15.0)  # partial download over generation 1
        first = local.connections[seeder.address]
        gen1_down = first.downloaded.total
        assert 0 < gen1_down < swarm.metainfo.geometry.total_size
        seeder.leave()  # closes the link -> generation 1 is flushed
        assert seeder.address not in local.connections
        seeder.join()  # same address, fresh Connection objects
        swarm.run(600.0)
        assert local.is_seed
        trace.finalize()
        record = trace.records[seeder.address]
        recorded = (
            record.downloaded_leecher_state + record.downloaded_seed_state
        )
        # The peer-level counter accumulates across both generations.
        assert recorded == pytest.approx(local.total_downloaded)
        assert recorded >= swarm.metainfo.geometry.total_size

    def test_finalize_idempotent_with_open_connections(self):
        swarm, local, trace = instrumented_swarm()
        swarm.run(6.0)
        assert local.connections  # still mid-download, links open
        trace.finalize()
        totals = {
            address: (
                record.downloaded_leecher_state,
                record.uploaded_leecher_state,
                record.presence.total(),
            )
            for address, record in trace.records.items()
        }
        trace.finalize()  # same timestamp: early return
        trace.finalize(now=swarm.simulator.now + 10.0)  # states already cleared
        after = {
            address: (
                record.downloaded_leecher_state,
                record.uploaded_leecher_state,
                record.presence.total(),
            )
            for address, record in trace.records.items()
        }
        assert after == totals
