"""The standalone asyncio announce server.

One :class:`TrackerServer` fronts a :class:`~repro.tracker.service.TrackerService`
over two wire shapes on localhost:

* **HTTP-style GET** (BEP 3): ``GET /announce?info_hash=...&port=...``
  over TCP, answered with a bencoded compact response
  (:mod:`repro.tracker.wire`) — the format every BitTorrent client
  speaks.  A minimal HTTP/1.0 frontend is implemented here as one
  :class:`asyncio.Protocol` per connection: it buffers until the blank
  line ending the headers (or EOF), answers the first line with one
  write and closes.  A line longer than 64 KiB is a 400, after which the
  connection is half-closed and its input discarded until EOF (a
  lingering close, so the client reads the answer and not a reset).
  Every connection is closed :data:`IDLE_TIMEOUT` seconds after it
  opened, whatever it has sent by then.

* **UDP datagram framing** (BEP 15 shape): a 16-byte ``connect``
  handshake issuing a connection id, then fixed-layout ``announce``
  packets answered with ``interval/leechers/seeders`` plus the same
  6-byte compact peer blob.

Both frontends funnel into ``service.announce`` with no RNG of their
own, so a given announce sequence produces byte-identical peer lists
through either wire or through direct in-process calls — the
differential the ``tracker``-marked conformance tests pin.  Both build
the compact blob from a bounded memo of each address's 6 bytes, so an
address is packed once, not once per answer that samples it.

Failures are first-class: a load-shedding rejection becomes a bencoded
``failure reason`` (HTTP) or an ``error`` action (UDP), never a
dropped connection, so clients can fail over.
So does a bad announce, checked before anything is registered: an
address a compact peer list cannot carry would otherwise break every
later answer that samples it.  One that is registered in process
anyway is left out of every answer.  A UDP connection id is only
honoured from the address it was issued to.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple
from urllib.parse import unquote_to_bytes

from repro.protocol.bencode import bencode
from repro.tracker.service import (
    AnnounceRequest,
    TrackerOverloaded,
    TrackerService,
)
from repro.tracker.state import check_have
from repro.tracker.tracker import TrackerUnavailable
from repro.tracker.wire import encode_failure

DEFAULT_NUM_WANT = 50

#: The most peers one announce is answered with, whatever it asks for.
#: ``numwant`` comes from outside the program (an unbounded integer on
#: the HTTP path) and feeds sampler arithmetic; real trackers cap it too.
MAX_NUM_WANT = 200

#: BEP 15 magic constant opening every UDP connect request.
UDP_PROTOCOL_ID = 0x41727101980
UDP_CONNECT = 0
UDP_ANNOUNCE = 1
UDP_ERROR = 3

#: Connection ids the UDP frontend remembers: the most recently issued
#: ones.  One client connects once per announce, so without a bound the
#: table would grow by one entry per announce for the server's lifetime.
MAX_CONNECTION_IDS = 1 << 16

#: Addresses whose compact 6 bytes are remembered.  A swarm answers
#: from the same few hundred registered addresses over and over, so a
#: bound far above a swarm's size keeps them all while capping memory.
COMPACT_MEMO_SIZE = 1 << 16

#: The longest HTTP line accepted (asyncio's default stream limit).
MAX_LINE = 1 << 16

#: Seconds an HTTP connection may stay open, however much it has sent:
#: a client that stalls mid-request, or keeps writing after a 400, is
#: closed when it runs out.
IDLE_TIMEOUT = 30.0

#: UDP event codes (BEP 15) -> announce event strings.
_UDP_EVENTS = {0: "", 1: "completed", 2: "started", 3: "stopped"}
_UDP_EVENT_CODES = {v: k for k, v in _UDP_EVENTS.items()}


def parse_query(query: str) -> Dict[str, bytes]:
    """Split an announce query string, percent-decoding to raw bytes.

    ``info_hash`` is 20 *binary* bytes percent-encoded, so the text-mode
    stdlib helpers (which decode through UTF-8) cannot be used.
    """
    params: Dict[str, bytes] = {}
    for part in query.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        params[key] = unquote_to_bytes(value.replace("+", "%20"))
    return params


def _bounded_num_want(num_want: int) -> int:
    """Negative asks for the default (BEP 15's -1); the rest is capped."""
    return min(num_want, MAX_NUM_WANT) if num_want >= 0 else DEFAULT_NUM_WANT


def split_address(address: str) -> Tuple[str, int]:
    """``"ip:port"`` -> (ip, port); port 0 for sim-style bare addresses."""
    host, sep, port = address.rpartition(":")
    if not sep:
        return address, 0
    return host, int(port)


@lru_cache(maxsize=COMPACT_MEMO_SIZE)
def _compact_address(address: str) -> bytes:
    """``"ip:port"`` -> its 6 compact bytes (BEP 23), or ``b""`` for an
    address a compact list cannot carry, which leaves it out."""
    try:
        host, port = split_address(address)
        if 0 < port < 65536:
            return socket.inet_aton(host) + struct.pack(">H", port)
    except (OSError, ValueError):
        pass
    return b""


def compact_peers(addresses: Iterable[str]) -> bytes:
    """The compact peer blob both frontends answer with."""
    return b"".join(map(_compact_address, addresses))


def _check_peer_address(host: str, port: int) -> None:
    """Raise :class:`ValueError` unless ``host:port`` is what a compact
    peer list (BEP 23) can carry: a dotted-quad IPv4 host and a port in
    1..65535.  Both frontends check before registering, because one
    unencodable entry would fail every later answer that samples it."""
    if not 0 < port < 65536:
        raise ValueError("port %d outside 1..65535" % port)
    try:
        socket.inet_pton(socket.AF_INET, host)
    except (OSError, ValueError):
        raise ValueError("ip %r is not an IPv4 address" % host) from None


def _request_from_params(
    params: Dict[str, bytes], peer_host: str
) -> AnnounceRequest:
    if "info_hash" not in params or not params["info_hash"]:
        raise ValueError("missing info_hash")
    infohash = params["info_hash"]
    if "port" not in params:
        raise ValueError("missing port")
    port = int(params["port"])
    ip = params.get("ip", peer_host.encode()).decode()
    _check_peer_address(ip, port)
    event = params.get("event", b"").decode()
    if event not in ("", "started", "stopped", "completed"):
        raise ValueError("unknown event %r" % event)
    num_want = int(params.get("numwant", b"%d" % DEFAULT_NUM_WANT))
    left = params.get("left")
    have = params.get("have")
    have_count = int(have) if have is not None else None
    check_have(have_count)
    return AnnounceRequest(
        infohash=infohash,
        address="%s:%d" % (ip, port),
        event=event,
        num_want=_bounded_num_want(num_want),
        is_seed=(left == b"0") or event == "completed",
        have_count=have_count,
    )


def encode_result(result) -> bytes:
    """Bencode a service result exactly as the HTTP frontend does.

    Shared with the in-process side of the wire differential tests: both
    paths meet at these bytes.
    """
    return bencode(
        {
            b"interval": int(result.interval),
            b"complete": result.seeds,
            b"incomplete": result.leechers,
            b"peers": compact_peers(result.peers),
        }
    )


class _HttpTrackerProtocol(asyncio.Protocol):
    """One HTTP connection: buffer to the end of the headers, answer the
    first line once, close.

    The first line is the request line, whatever it holds; header lines
    are read up to the first blank one and ignored; EOF before that
    answers what was read; any line of more than :data:`MAX_LINE` bytes
    before its newline is a 400.
    """

    def __init__(self, server: "TrackerServer"):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._request_line: Optional[bytes] = None
        self._answered = False
        self._timer: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._timer = asyncio.get_running_loop().call_later(
            IDLE_TIMEOUT, transport.close
        )

    def data_received(self, data: bytes) -> None:
        if self._answered:
            return  # lingering after a 400: discard until EOF
        buffer = self._buffer
        buffer += data
        while True:
            end = buffer.find(b"\n")
            if end < 0:
                if len(buffer) > MAX_LINE:
                    self._answer_line_too_long()
                return
            if end > MAX_LINE:
                self._answer_line_too_long()
                return
            if self._request_line is None:
                self._request_line = bytes(buffer[:end])
            elif end == 0 or (end == 1 and buffer[0] == 13):  # b"\n", b"\r\n"
                self._answer(self._request_line)
                return
            del buffer[: end + 1]

    def eof_received(self) -> bool:
        if not self._answered:
            line = self._request_line
            self._answer(bytes(self._buffer) if line is None else line)
        return False  # the transport closes once the answer is flushed

    def connection_lost(self, exc) -> None:
        if self._timer is not None:
            self._timer.cancel()

    def _answer(self, request_line: bytes) -> None:
        peername = self.transport.get_extra_info("peername") or ("127.0.0.1", 0)
        body, status = self.server.handle_http_request(
            request_line.decode("latin-1").strip(), peername[0]
        )
        self._write(body, status)
        self.transport.close()

    def _answer_line_too_long(self) -> None:
        self._write(encode_failure("request line too long"), 400)
        # Closing with unread input would send a reset that can destroy
        # the answer in flight; half-close and drain instead.
        self.transport.write_eof()
        self._buffer.clear()

    def _write(self, body: bytes, status: int) -> None:
        self._answered = True
        self.transport.write(
            b"HTTP/1.0 %d %s\r\n"
            b"Content-Type: text/plain\r\n"
            b"Content-Length: %d\r\n\r\n%s"
            % (status, b"OK" if status == 200 else b"Bad Request", len(body), body)
        )


class _UdpTrackerProtocol(asyncio.DatagramProtocol):
    def __init__(self, server: "TrackerServer"):
        self.server = server
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        reply = self.server.handle_datagram(data, addr)
        if reply is not None and self.transport is not None:
            self.transport.sendto(reply, addr)


class TrackerServer:
    """Serve one :class:`TrackerService` over HTTP-style TCP and UDP."""

    def __init__(
        self,
        service: TrackerService,
        host: str = "127.0.0.1",
        http_port: int = 0,
        udp_port: int = 0,
    ):
        self.service = service
        self.host = host
        self._http_port = http_port
        self._udp_port = udp_port
        self._server: Optional[asyncio.AbstractServer] = None
        self._udp_transport: Optional[asyncio.DatagramTransport] = None
        self._connection_ids: Dict[int, Tuple[str, int]] = {}
        self._next_connection_id = 1
        self.http_requests = 0
        self.udp_requests = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def http_port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def udp_port(self) -> int:
        assert self._udp_transport is not None, "server not started"
        return self._udp_transport.get_extra_info("sockname")[1]

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _HttpTrackerProtocol(self), self.host, self._http_port
        )
        self._udp_transport, __ = await loop.create_datagram_endpoint(
            lambda: _UdpTrackerProtocol(self),
            local_addr=(self.host, self._udp_port),
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._udp_transport is not None:
            self._udp_transport.close()
            self._udp_transport = None

    async def __aenter__(self) -> "TrackerServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- HTTP frontend -----------------------------------------------------

    def handle_http_request(
        self, request_line: str, peer_host: str
    ) -> Tuple[bytes, int]:
        """(body, status) for one request line; factored out for tests."""
        self.http_requests += 1
        try:
            method, target, *__ = request_line.split(" ")
        except ValueError:
            return encode_failure("malformed request line"), 400
        if method != "GET":
            return encode_failure("only GET is supported"), 400
        path, _, query = target.partition("?")
        if path == "/scrape":
            return self._handle_scrape(query), 200
        if path != "/announce":
            return encode_failure("unknown path %s" % path), 400
        try:
            request = _request_from_params(parse_query(query), peer_host)
        except (ValueError, KeyError) as exc:
            return encode_failure("bad announce: %s" % exc), 400
        try:
            result = self.service.announce(request)
        except TrackerOverloaded as exc:
            return (
                encode_failure(
                    "%s; retry in %d" % (exc, int(exc.retry_after))
                ),
                200,
            )
        except TrackerUnavailable as exc:
            return encode_failure(str(exc)), 200
        return encode_result(result), 200

    def _handle_scrape(self, query: str) -> bytes:
        params = parse_query(query)
        infohash = params.get("info_hash")
        if infohash is None:
            return encode_failure("scrape needs an info_hash")
        seeds, leechers = self.service.scrape(infohash)
        state = self.service.store.get(infohash)
        return bencode(
            {
                b"files": {
                    infohash: {
                        b"complete": seeds,
                        b"incomplete": leechers,
                        b"downloaded": (
                            state.completed_count if state is not None else 0
                        ),
                    }
                }
            }
        )

    # -- UDP frontend ------------------------------------------------------

    def handle_datagram(self, data: bytes, addr) -> Optional[bytes]:
        """Decode one datagram and return the reply (None = drop)."""
        self.udp_requests += 1
        if len(data) < 16:
            return None
        if len(data) == 16:
            protocol_id, action, transaction_id = struct.unpack(">qii", data)
            if protocol_id != UDP_PROTOCOL_ID or action != UDP_CONNECT:
                return None
            connection_id = self._next_connection_id
            self._next_connection_id += 1
            ids = self._connection_ids
            ids[connection_id] = addr
            # Ids are issued in sequence, so the oldest one remembered is
            # exactly this far behind: forgetting it is one O(1) pop.
            ids.pop(connection_id - MAX_CONNECTION_IDS, None)
            return struct.pack(">iiq", UDP_CONNECT, transaction_id, connection_id)
        if len(data) < 98:
            return None
        (
            connection_id,
            action,
            transaction_id,
            infohash,
            __peer_id,
            __downloaded,
            left,
            __uploaded,
            event_code,
            ip,
            __key,
            num_want,
            port,
        ) = struct.unpack(">qii20s20sqqqiIIiH", data[:98])
        if action != UDP_ANNOUNCE:
            return self._udp_error(transaction_id, "unsupported action")
        issued_to = self._connection_ids.get(connection_id)
        if issued_to is None:
            return self._udp_error(transaction_id, "unknown connection id")
        if issued_to != addr:
            # BEP 15: an id proves its holder can receive at the address
            # it was issued to; from anywhere else it proves nothing.
            return self._udp_error(
                transaction_id, "connection id issued to another address"
            )
        host = (
            "%d.%d.%d.%d" % (ip >> 24 & 255, ip >> 16 & 255, ip >> 8 & 255, ip & 255)
            if ip
            else addr[0]
        )
        event = _UDP_EVENTS.get(event_code)
        if event is None:
            return self._udp_error(transaction_id, "unknown event")
        try:
            _check_peer_address(host, port)
        except ValueError as exc:
            return self._udp_error(transaction_id, "bad announce: %s" % exc)
        request = AnnounceRequest(
            infohash=infohash,
            address="%s:%d" % (host, port),
            event=event,
            num_want=_bounded_num_want(num_want),
            is_seed=(left == 0) or event == "completed",
        )
        try:
            result = self.service.announce(request)
        except TrackerUnavailable as exc:
            return self._udp_error(transaction_id, str(exc))
        return struct.pack(
            ">iiiii",
            UDP_ANNOUNCE,
            transaction_id,
            int(result.interval),
            result.leechers,
            result.seeds,
        ) + compact_peers(result.peers)

    @staticmethod
    def _udp_error(transaction_id: int, message: str) -> bytes:
        return struct.pack(">ii", UDP_ERROR, transaction_id) + message.encode()


def build_udp_connect(transaction_id: int) -> bytes:
    """Client-side connect request (shared with the UDP client/tests)."""
    return struct.pack(">qii", UDP_PROTOCOL_ID, UDP_CONNECT, transaction_id)


def build_udp_announce(
    connection_id: int,
    transaction_id: int,
    request: AnnounceRequest,
    port: int,
    key: int = 0,
) -> bytes:
    """Client-side announce packet for :func:`handle_datagram`'s layout.

    The BEP 15 ip field carries the requester's address from
    ``request.address`` when it is a dotted quad (0 — "use the packet
    source" — otherwise), so distinct announcers behind one socket stay
    distinct registry entries.
    """
    host = request.address.rpartition(":")[0]
    try:
        ip = int.from_bytes(socket.inet_aton(host), "big")
    except OSError:
        ip = 0
    return struct.pack(
        ">qii20s20sqqqiIIiH",
        connection_id,
        UDP_ANNOUNCE,
        transaction_id,
        request.infohash,
        b"\x00" * 20,
        0,
        0 if request.is_seed else 1,
        0,
        _UDP_EVENT_CODES[request.event],
        ip,
        key,
        request.num_want,
        port,
    )
