"""One endpoint's view of a live TCP link.

A :class:`NetConnection` is a :class:`repro.core.peer_core.LinkState` —
the link fields the shared protocol logic reads, ``remote_key`` set from
the handshake — plus what a socket needs: the asyncio stream pair, the
incremental frame decoder, the event that wakes the uploader task when
the upload queue fills, and the two tasks serving the link.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time
from typing import TYPE_CHECKING, Optional

from repro.core.peer_core import LinkState
from repro.protocol.metainfo import BlockRef
from repro.protocol.stream import MessageStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.peer import NetPeer


class WallClock:
    """Monotonic seconds since the swarm started.

    Shared by every peer of a :class:`~repro.net.swarm.LiveSwarm` so all
    trace timestamps live on one axis.  Duck-types the one attribute the
    core reads from the simulator (``simulator.now``), which is what
    lets the sim's instrumentation attach to live peers unchanged.
    """

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0


class NetConnection(LinkState):
    """Link state plus the transport of one live link endpoint."""

    __slots__ = (
        "reader",
        "writer",
        "stream",
        "upload_ready",
        "reader_task",
        "uploader_task",
    )

    def __init__(
        self,
        local: "NetPeer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        initiated_by_local: bool,
        rate_window: float = 20.0,
    ):
        # The far end is known by its address alone, once the handshake
        # ends: the peer sets ``remote_key`` then.
        super().__init__(local, None, initiated_by_local, rate_window)
        self.reader = reader
        self.writer = writer
        # The handshake is consumed separately (fixed 68-byte read), so
        # the frame decoder starts directly on length-prefixed messages.
        self.stream = MessageStream(expect_handshake=False)
        self.upload_ready = asyncio.Event()
        self.reader_task: Optional[asyncio.Task] = None
        self.uploader_task: Optional[asyncio.Task] = None

    # -- upload queue (the uploader task sleeps on ``upload_ready``) --------

    def enqueue_upload(self, block: BlockRef) -> None:
        if block not in self.upload_queue:
            self.upload_queue.append(block)
            self.upload_ready.set()

    def pop_upload(self) -> Optional[BlockRef]:
        if self.upload_queue:
            return self.upload_queue.pop(0)
        self.upload_ready.clear()
        return None

    def clear_upload_queue(self) -> None:
        self.upload_queue.clear()
        self.upload_ready.clear()

    # -- transport ---------------------------------------------------------

    def write_raw(self, data: bytes) -> None:
        """Best-effort write; transport errors surface on the reader."""
        if self.closed or self.writer.is_closing():
            return
        try:
            self.writer.write(data)
        except (OSError, RuntimeError):
            # Write after EOF/close during teardown races: the reader
            # loop is the single place link death is handled.
            pass

    def abort(self) -> None:
        """RST the link (crash semantics: no FIN, remotes see a reset)."""
        transport = self.writer.transport
        if transport is not None:
            # transport.abort() alone only guarantees an RST when send
            # data is pending; with an empty buffer the kernel sends a
            # polite FIN and the remote sees a clean EOF instead of a
            # crash.  SO_LINGER(on, 0) forces the RST either way.
            sock = transport.get_extra_info("socket")
            if sock is not None:
                try:
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                except OSError:  # pragma: no cover - already dead
                    pass
            transport.abort()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NetConnection(%s -> %s%s)" % (
            self.local.address,
            self.remote_key or "?",
            ", closed" if self.closed else "",
        )
