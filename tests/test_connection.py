"""Unit tests for the per-link connection state machine."""

from collections import deque

import pytest

from repro.protocol.metainfo import BlockRef

from tests.conftest import fast_config, tiny_swarm
from tests.probes import queued_upload_bytes, total_in_window


def linked_pair(num_pieces=8):
    """Two peers with an established connection; returns both endpoints."""
    swarm = tiny_swarm(num_pieces=num_pieces)
    a = swarm.add_peer(config=fast_config(), is_seed=True)
    b = swarm.add_peer(config=fast_config())
    conn_ab = a.connections[b.address]
    conn_ba = b.connections[a.address]
    return swarm, a, b, conn_ab, conn_ba


class TestTwinMirroring:
    def test_twins_cross_linked(self):
        __, a, b, conn_ab, conn_ba = linked_pair()
        assert conn_ab.twin is conn_ba
        assert conn_ba.twin is conn_ab

    def test_initiator_flags_opposite(self):
        __, a, b, conn_ab, conn_ba = linked_pair()
        assert conn_ab.initiated_by_local != conn_ba.initiated_by_local

    def test_interest_mirrors(self):
        __, a, b, conn_ab, conn_ba = linked_pair()
        # b (empty) is interested in a (seed); a is not interested in b.
        assert conn_ba.am_interested
        assert conn_ab.peer_interested
        assert not conn_ab.am_interested
        assert not conn_ba.peer_interested

    def test_choke_state_mirrors_after_round(self):
        swarm, a, b, conn_ab, conn_ba = linked_pair()
        swarm.run(30)  # at least one choke round
        assert conn_ab.am_choking == conn_ba.peer_choking
        assert conn_ba.am_choking == conn_ab.peer_choking


class TestIdleEndpoint:
    def test_containers_are_allocated_on_first_use(self):
        """An endpoint that never carries a byte holds no rate-window deque
        and an empty list for its upload queue; reads answer the same."""
        __, a, b, conn_ab, conn_ba = linked_pair()
        counters = [
            counter
            for connection in (conn_ab, conn_ba)
            for counter in (connection.uploaded, connection.downloaded)
        ]
        for connection in (conn_ab, conn_ba):
            assert type(connection.upload_queue) is list
            assert connection.upload_queue == []
        for counter in counters:
            assert not isinstance(counter._samples, deque)
            assert counter.rate(5.0) == 0.0
            assert total_in_window(counter, 5.0) == 0.0
        counter = conn_ab.uploaded
        counter.add(5.0, 1000.0)
        assert isinstance(counter._samples, deque)
        assert counter.rate(5.0) == 1000.0 / counter.window
        assert total_in_window(counter, 5.0) == 1000.0
        counter.reset()
        assert not isinstance(counter._samples, deque)
        assert counter.rate(5.0) == 0.0
        assert total_in_window(counter, 5.0) == 0.0
        assert counter.total == 1000.0  # the lifetime total survives


class TestUploadQueue:
    def test_advance_completes_blocks_in_order(self):
        __, a, b, conn_ab, __b = linked_pair()
        conn_ab.upload_queue.extend(
            [BlockRef(0, 0, 1024), BlockRef(0, 1024, 1024)]
        )
        completed = conn_ab.advance_upload(1024)
        assert completed == [BlockRef(0, 0, 1024)]
        completed = conn_ab.advance_upload(1024)
        assert completed == [BlockRef(0, 1024, 1024)]

    def test_partial_progress_accumulates(self):
        __, a, b, conn_ab, __b = linked_pair()
        conn_ab.upload_queue.append(BlockRef(0, 0, 1024))
        assert conn_ab.advance_upload(500) == []
        assert conn_ab.upload_progress == 500
        assert conn_ab.advance_upload(524) == [BlockRef(0, 0, 1024)]
        assert conn_ab.upload_progress == 0.0

    def test_multiple_blocks_in_one_advance(self):
        __, a, b, conn_ab, __b = linked_pair()
        blocks = [BlockRef(0, i * 256, 256) for i in range(4)]
        conn_ab.upload_queue.extend(blocks)
        completed = conn_ab.advance_upload(1024)
        assert completed == blocks

    def test_queued_upload_bytes(self):
        __, a, b, conn_ab, __b = linked_pair()
        conn_ab.upload_queue.extend([BlockRef(0, 0, 1000), BlockRef(0, 1000, 24)])
        conn_ab.advance_upload(100)
        assert queued_upload_bytes(conn_ab) == pytest.approx(924)

    def test_one_block_budget_visits_one_block_of_a_long_queue(self):
        """Complexity guard: serving a budget costs the blocks it covers,
        not the queue behind them (counted, not timed)."""

        class CountingQueue(list):
            visits = 0

            def __iter__(self):
                for block in list.__iter__(self):
                    CountingQueue.visits += 1
                    yield block

        __, a, b, conn_ab, __b = linked_pair()
        conn_ab.am_choking = False
        conn_ab.upload_queue = CountingQueue(
            BlockRef(0, index * 1024, 1024) for index in range(1000)
        )
        moved = a.advance_uploads(conn_ab, 1024.0)
        assert len(conn_ab.upload_queue) == 999
        assert CountingQueue.visits <= 2
        assert moved == 1024.0
        # A budget the queue cannot cover is the one case that reads it all.
        assert a.advance_uploads(conn_ab, 1e9) == 999 * 1024.0
        assert not conn_ab.upload_queue

    def test_cancel_head_block_loses_progress(self):
        __, a, b, conn_ab, __b = linked_pair()
        conn_ab.upload_queue.extend([BlockRef(0, 0, 1000), BlockRef(0, 1000, 1000)])
        conn_ab.advance_upload(500)
        assert conn_ab.cancel_queued_block(BlockRef(0, 0, 1000))
        assert conn_ab.upload_progress == 0.0
        assert list(conn_ab.upload_queue) == [BlockRef(0, 1000, 1000)]

    def test_cancel_middle_block_keeps_progress(self):
        __, a, b, conn_ab, __b = linked_pair()
        conn_ab.upload_queue.extend([BlockRef(0, 0, 1000), BlockRef(0, 1000, 1000)])
        conn_ab.advance_upload(500)
        assert conn_ab.cancel_queued_block(BlockRef(0, 1000, 1000))
        assert conn_ab.upload_progress == 500

    def test_cancel_missing_block(self):
        __, a, b, conn_ab, __b = linked_pair()
        assert not conn_ab.cancel_queued_block(BlockRef(0, 0, 1000))

    def test_clear_upload_queue(self):
        __, a, b, conn_ab, __b = linked_pair()
        conn_ab.upload_queue.append(BlockRef(0, 0, 1000))
        conn_ab.advance_upload(10)
        conn_ab.clear_upload_queue()
        assert not conn_ab.upload_queue
        assert conn_ab.upload_progress == 0.0

    def test_has_active_upload_requires_unchoked(self):
        __, a, b, conn_ab, __b = linked_pair()
        conn_ab.upload_queue.append(BlockRef(0, 0, 1000))
        conn_ab.am_choking = True
        assert not conn_ab.has_active_upload()
        conn_ab.am_choking = False
        assert conn_ab.has_active_upload()
        conn_ab.closed = True
        assert not conn_ab.has_active_upload()


class TestRepr:
    def test_flags_rendered(self):
        __, a, b, conn_ab, __b = linked_pair()
        text = repr(conn_ab)
        assert a.address in text and b.address in text
