"""The every-link HAVE fan-out, kept as the differential oracle.

This is ``repro.sim.peer.Peer.broadcast_have_fused`` and
``Peer._collect_have_targets`` as they stood before the flood learned to
visit only the links that can react: every link of the sender gets a
turn whether or not anything on it can change, and the batched add is
handed a plain list of slots that ``AvailabilityMatrix.increment``
checks and converts on every call.  The loop body is the production
body, line for line — production differs only in the list it walks —
which is what ``tests/test_have_fanout_equivalence.py`` needs to hold the
filter to "a superset of the links that can react".  Two edits are
forced: the per-peer target cache now holds an index array, so the
oracle collects its targets afresh on each flood instead of reading it;
and every picker now owns a matrix row, so the targets are slots alone.

A seed never floods: it completes no piece, and ``World.flood`` in that
test returns for a sender that became one.  So, like production, the
oracle has no branch for a seed sender.

Lives in the test tree on purpose: nothing under ``src/`` may import it.
"""

from repro.core.peer_core import PeerState
from repro.protocol.messages import Have, Interested, NotInterested


def reference_collect_have_targets(self):
    """The matrix slots of the neighbours that count our pieces (far end
    still open), as a plain list for one batched add."""
    return [
        connection.remote.picker.matrix_slot
        for connection in self.connections.values()
        if connection.twin is not None and not connection.twin.closed
    ]


def reference_broadcast_have_fused(self, message: Have) -> None:
    """One fused HAVE flood of the sim :class:`Peer` *self*."""
    piece = message.piece
    now = self.simulator.now
    slots = reference_collect_have_targets(self)
    if slots:
        self.swarm.availability_matrix.increment(slots, piece)
    byte_index = piece >> 3
    bit_mask = 0x80 >> (piece & 7)
    # Sender-side interest recheck support, hoisted: all constant
    # across the loop, own state only changes afterwards.
    not_ours = ~self.bitfield.as_int()
    own_count = self.bitfield.count
    observer = self.observer
    seed_state = PeerState.SEED
    sender_addr = self.address
    for connection in list(self.connections.values()):
        if not connection.closed:
            twin = connection.twin
            if twin is not None and not twin.closed:
                receiver = connection.remote
                recorder = connection.trace_pair
                if recorder is not None:
                    # Both hooks' lines in one call, as in ``_send``.
                    recorder.emit_have_pair(
                        now, sender_addr, receiver.address, piece
                    )
                else:
                    if observer:
                        observer.on_message_sent(now, connection.remote_key, message)
                    if receiver.observer is not None:
                        receiver.observer.on_message_received(
                            now, sender_addr, message
                        )
            else:
                twin = receiver = None
                if observer:
                    observer.on_message_sent(now, connection.remote_key, message)
            if twin is not None:
                # -- the receiver's reactions (_handle_have) --
                if (
                    receiver.super_seeding
                    and receiver._active_reveal.get(sender_addr) == piece
                ):
                    del receiver._active_reveal[sender_addr]
                    receiver._reveal_next(twin)
                if not twin.am_interested:
                    if receiver.state is not seed_state and not (
                        receiver.bitfield._bits[byte_index] & bit_mask
                    ):
                        twin.am_interested = True
                        receiver._send(twin, Interested())
                if not twin.peer_choking and twin.am_interested:
                    receiver._fill_pipeline(twin)
        # -- sender-side interest recheck (the reference loop's tail).
        # Completing a piece can only shrink the interesting set, and
        # only by that piece, so links whose remote lacks it are
        # skipped; so are remotes holding MORE pieces than we do,
        # which necessarily hold one we miss (both prefilters exact).
        if connection.am_interested:
            remote_bits = connection.remote_bitfield
            if remote_bits._count <= own_count and (
                remote_bits._bits[byte_index] & bit_mask
            ):
                if not (remote_bits.as_int() & not_ours):
                    connection.am_interested = False
                    self._send(connection, NotInterested())
