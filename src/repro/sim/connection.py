"""The simulator's link endpoint: a :class:`LinkState` with a twin.

Every established link is represented by *two* :class:`Connection`
objects, one per endpoint, cross-linked through :attr:`Connection.twin`.
Each endpoint mutates only its own object; the four protocol booleans
(am_choking / peer_choking / am_interested / peer_interested) therefore
mirror each other across the twins.  Those, and every other field the
protocol logic reads, are declared in
:class:`repro.core.peer_core.LinkState`.  ``remote_bitfield`` is the
endpoint's view of the remote's pieces: a per-link copy parsed from
BITFIELD/HAVE messages, or, under the shared-view contract of DESIGN
§12, the remote's own bitfield, which the endpoint only reads.

What this class adds is the fluid-transfer machinery of the uploading
direction: the byte progress into the head block of the upload queue
that the per-tick bandwidth allocation advances, how much of a tick's
budget the queue can absorb, the link's nodes in the swarm's flow set,
and keeping that set current as the queue changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.peer_core import LinkState
from repro.protocol.metainfo import BlockRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.peer import Peer


class Connection(LinkState):
    """One endpoint's view of a link to ``remote``."""

    __slots__ = ("twin", "upload_progress", "flow_key", "flow_nodes", "trace_pair")

    def __init__(
        self,
        local: "Peer",
        remote: "Peer",
        initiated_by_local: bool,
        rate_window: float = 20.0,
    ):
        super().__init__(local, remote, initiated_by_local, rate_window)
        self.twin: Optional["Connection"] = None
        self.upload_progress = 0.0  # bytes already sent of the head block
        # The uploading direction's place in the swarm's allocation order
        # and its (upload node, download node) pair in the allocator's
        # capacity array, set by the swarm when the link first has
        # something to serve and kept for the link's life.
        self.flow_key: Optional[Tuple[str, str]] = None
        self.flow_nodes: Optional[Tuple[int, int]] = None
        # The recorder both ends trace into when a delivery on this link
        # may be rendered as one sent+received pair (set by the peer when
        # the link is established; see ``Peer._trace_pair``).
        self.trace_pair = None

    # -- transfer helpers --------------------------------------------------

    def transferable_bytes(self, budget: float) -> float:
        """``min(budget, bytes still queued)``, walking the queue only as
        far as the block that covers *budget*.

        Exact, not approximate: block lengths are positive integers,
        so the prefix sums only grow and so does ``prefix - progress``;
        once one of them reaches *budget* the full sum does too.
        """
        queued = 0
        progress = self.upload_progress
        for block in self.upload_queue:
            queued += block.length
            if queued - progress >= budget:
                return budget
        return min(budget, queued - progress)

    def has_active_upload(self) -> bool:
        """True when this endpoint is actively serving the remote."""
        return not self.am_choking and bool(self.upload_queue) and not self.closed

    def advance_upload(self, num_bytes: float) -> list:
        """Push *num_bytes* of fluid progress into the upload queue.

        Returns the list of :class:`BlockRef` blocks completed by this
        advance, in service order.
        """
        completed = []
        remaining = num_bytes
        while remaining > 0 and self.upload_queue:
            head = self.upload_queue[0]
            need = head.length - self.upload_progress
            if remaining >= need - 1e-9:
                self.upload_queue.pop(0)
                self.upload_progress = 0.0
                remaining -= need
                completed.append(head)
            else:
                self.upload_progress += remaining
                remaining = 0.0
        return completed

    def cancel_queued_block(self, block: BlockRef) -> bool:
        """Partial progress into a cancelled head block is lost, as
        partially received blocks are discarded by the protocol."""
        if self.upload_queue and self.upload_queue[0] == block:
            self.upload_progress = 0.0
        return super().cancel_queued_block(block)

    def enqueue_upload(self, block: BlockRef) -> None:
        if block not in self.upload_queue:
            self.upload_queue.append(block)
            self.local.swarm.note_upload_activity(self)

    def clear_upload_queue(self) -> None:
        self.upload_queue.clear()
        self.upload_progress = 0.0
        self.local.swarm.forget_upload(self)

    def __repr__(self) -> str:
        flags = "".join(
            flag if value else "-"
            for flag, value in (
                ("C", self.am_choking),
                ("c", self.peer_choking),
                ("I", self.am_interested),
                ("i", self.peer_interested),
            )
        )
        return "Connection(%s -> %s, %s)" % (
            self.local.address,
            self.remote.address,
            flags,
        )
