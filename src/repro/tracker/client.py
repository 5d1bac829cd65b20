"""Async announce clients for the live tracker tier.

:func:`announce_http` and :func:`announce_udp` speak the two wire
shapes :mod:`repro.tracker.server` serves; both return the decoded
:class:`~repro.tracker.wire.AnnounceResponse`.  A tracker *failure
response* (bencoded ``failure reason``, or a UDP ``error`` action)
raises :class:`~repro.tracker.tracker.TrackerUnavailable`, so callers
see the same exception surface as the in-process tracker.
"""

from __future__ import annotations

import asyncio
import struct
from urllib.parse import quote_from_bytes

from repro.tracker.server import (
    UDP_ANNOUNCE,
    UDP_CONNECT,
    UDP_ERROR,
    build_udp_announce,
    build_udp_connect,
)
from repro.tracker.service import AnnounceRequest
from repro.tracker.tracker import TrackerUnavailable
from repro.tracker.wire import AnnounceResponse, decode_announce_response, unpack_peers

DEFAULT_TIMEOUT = 5.0


def build_announce_target(request: AnnounceRequest, listen_port: int) -> str:
    """The HTTP request target (path + query) for one announce."""
    ip, port = request.address.rpartition(":")[0::2]
    params = [
        ("info_hash", quote_from_bytes(request.infohash)),
        ("port", port or str(listen_port)),
        ("ip", ip or "127.0.0.1"),
        ("numwant", str(request.num_want)),
        ("left", "0" if request.is_seed else "1"),
    ]
    if request.event:
        params.append(("event", request.event))
    if request.have_count is not None:
        params.append(("have", str(request.have_count)))
    return "/announce?" + "&".join("%s=%s" % kv for kv in params)


async def announce_http(
    host: str,
    port: int,
    request: AnnounceRequest,
    timeout: float = DEFAULT_TIMEOUT,
) -> AnnounceResponse:
    """One HTTP-style announce; raises on failure responses."""
    listen_port = int(request.address.rpartition(":")[2] or 0)
    target = build_announce_target(request, listen_port)

    async def _roundtrip() -> bytes:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                b"GET %s HTTP/1.0\r\nHost: %s\r\n\r\n"
                % (target.encode("latin-1"), host.encode())
            )
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
        return raw

    raw = await asyncio.wait_for(_roundtrip(), timeout)
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise TrackerUnavailable("malformed tracker HTTP response")
    try:
        return decode_announce_response(body)
    except ValueError as exc:
        # decode_announce_response folds bencoded failure reasons into
        # ValueError; surface them as tracker unavailability.
        raise TrackerUnavailable(str(exc)) from exc


class _UdpClientProtocol(asyncio.DatagramProtocol):
    def __init__(self) -> None:
        self.replies: asyncio.Queue = asyncio.Queue()

    def connection_made(self, transport) -> None:
        pass

    def datagram_received(self, data: bytes, addr) -> None:
        self.replies.put_nowait(data)

    def error_received(self, exc: Exception) -> None:
        # A closed port answers with ICMP "port unreachable", which the
        # connected socket reports as ECONNREFUSED: a dead tracker is
        # known at once, not after the timeout.
        self.replies.put_nowait(exc)

    async def reply(self, timeout: float) -> bytes:
        reply = await asyncio.wait_for(self.replies.get(), timeout)
        if isinstance(reply, Exception):
            raise TrackerUnavailable("UDP tracker unreachable: %s" % reply)
        return reply


async def announce_udp(
    host: str,
    port: int,
    request: AnnounceRequest,
    timeout: float = DEFAULT_TIMEOUT,
    transaction_id: int = 0x5EED,
) -> AnnounceResponse:
    """One UDP announce (connect handshake + announce packet).

    A port nobody listens on raises :class:`TrackerUnavailable` as soon
    as the kernel reports it refused, not after ``timeout``.
    """
    loop = asyncio.get_event_loop()
    transport, protocol = await loop.create_datagram_endpoint(
        _UdpClientProtocol, remote_addr=(host, port)
    )
    try:
        transport.sendto(build_udp_connect(transaction_id))
        reply = await protocol.reply(timeout)
        if len(reply) < 16:
            raise TrackerUnavailable("short UDP connect reply (%d bytes)" % len(reply))
        action, tid, connection_id = struct.unpack(">iiq", reply[:16])
        if action != UDP_CONNECT or tid != transaction_id:
            raise TrackerUnavailable("bad UDP connect reply")
        listen_port = int(request.address.rpartition(":")[2] or 0)
        transport.sendto(
            build_udp_announce(
                connection_id, transaction_id + 1, request, listen_port
            )
        )
        reply = await protocol.reply(timeout)
        if len(reply) < 8:
            raise TrackerUnavailable("short UDP announce reply (%d bytes)" % len(reply))
        action, tid = struct.unpack(">ii", reply[:8])
        if action == UDP_ERROR:
            raise TrackerUnavailable(reply[8:].decode("utf-8", "replace"))
        if action != UDP_ANNOUNCE or tid != transaction_id + 1:
            raise TrackerUnavailable("bad UDP announce reply")
        if len(reply) < 20 or (len(reply) - 20) % 6:
            raise TrackerUnavailable("bad UDP announce reply length %d" % len(reply))
        __, __, interval, leechers, seeds = struct.unpack(">iiiii", reply[:20])
        return AnnounceResponse(
            interval=interval,
            complete=seeds,
            incomplete=leechers,
            peers=unpack_peers(reply[20:]),
        )
    finally:
        transport.close()
