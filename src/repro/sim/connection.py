"""Per-link protocol state.

Every established link is represented by *two* :class:`Connection`
objects, one per endpoint, cross-linked through :attr:`Connection.twin`.
Each endpoint mutates only its own object; the four protocol booleans
(am_choking / peer_choking / am_interested / peer_interested) therefore
mirror each other across the twins.  :attr:`Connection.remote_bitfield`
is the endpoint's view of the remote's pieces: a per-link copy parsed
from BITFIELD/HAVE messages, or, under the shared-view contract of
DESIGN §12, the remote's own bitfield, which the endpoint only reads.

A connection also carries the fluid-transfer machinery of the uploading
direction: the queue of blocks the remote requested, and the byte
progress into the head block that the per-tick bandwidth allocation
advances.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.core.rate_estimator import ByteCounter
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import BlockRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.peer import Peer


class Connection:
    """One endpoint's view of a link to ``remote``."""

    __slots__ = (
        "local",
        "remote",
        "twin",
        "remote_bitfield",
        "am_choking",
        "peer_choking",
        "am_interested",
        "peer_interested",
        "initiated_by_local",
        "established_at",
        "closed",
        "upload_queue",
        "upload_progress",
        "uploaded",
        "downloaded",
        "outstanding",
        "request_times",
        "last_message_at",
        "last_unchoked_local",
        "unchokes_given",
    )

    def __init__(
        self,
        local: "Peer",
        remote: "Peer",
        now: float,
        initiated_by_local: bool,
        rate_window: float = 20.0,
    ):
        self.local = local
        self.remote = remote
        self.twin: Optional["Connection"] = None
        self.remote_bitfield = Bitfield(local.metainfo.geometry.num_pieces)
        self.am_choking = True
        self.peer_choking = True
        self.am_interested = False
        self.peer_interested = False
        self.initiated_by_local = initiated_by_local
        self.established_at = now
        self.closed = False
        # Upload direction (local serves remote).
        self.upload_queue: Deque[BlockRef] = deque()
        self.upload_progress = 0.0  # bytes already sent of the head block
        self.uploaded = ByteCounter(rate_window)
        self.downloaded = ByteCounter(rate_window)
        # Download direction (local requests from remote).
        self.outstanding: set = set()  # BlockRefs requested, not yet received
        self.request_times: Dict[BlockRef, float] = {}  # request issue times
        self.last_message_at = now  # last time anything arrived on this link
        # Choke bookkeeping for the seed algorithm and figure 10.
        self.last_unchoked_local: Optional[float] = None
        self.unchokes_given = 0

    # -- transfer helpers --------------------------------------------------

    def queued_upload_bytes(self) -> float:
        """Bytes still to send to satisfy the remote's pending requests."""
        return sum(block.length for block in self.upload_queue) - self.upload_progress

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
                self.upload_queue.popleft()
                self.upload_progress = 0.0
                remaining -= need
                completed.append(head)
            else:
                self.upload_progress += remaining
                remaining = 0.0
        return completed

    def cancel_queued_block(self, block: BlockRef) -> bool:
        """Remove a block from the upload queue (CANCEL handling).

        Partial progress into a cancelled head block is lost, as partially
        received blocks are discarded by the protocol.
        """
        try:
            index = self.upload_queue.index(block)
        except ValueError:
            return False
        if index == 0:
            self.upload_progress = 0.0
        del self.upload_queue[index]
        return True

    def clear_upload_queue(self) -> None:
        self.upload_queue.clear()
        self.upload_progress = 0.0

    # -- liveness ----------------------------------------------------------

    @property
    def half_open(self) -> bool:
        """True when the remote endpoint is gone (crashed peer) but this
        endpoint has not noticed yet."""
        return not self.closed and (self.twin is None or self.twin.closed)

    # -- identity ----------------------------------------------------------

    @property
    def remote_key(self) -> str:
        return self.remote.address

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
