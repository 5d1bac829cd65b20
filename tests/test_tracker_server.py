"""Live announce-server conformance (``tracker`` marker).

Every test here starts real asyncio servers on localhost and drives
them through the async clients in :mod:`repro.tracker.client`.  The
centrepiece is the sim-vs-live differential: the same announce
sequence through the wire and through direct in-process service calls
must produce *byte-identical* bencoded responses.
"""

import asyncio
import hashlib
import socket
import struct
import time
from urllib.parse import quote_from_bytes

import pytest
from hypothesis import given, settings, strategies as st

from repro.tracker import server as server_module
from repro.tracker.client import (
    announce_http,
    announce_udp,
    build_announce_target,
)
from repro.tracker.sampling import make_sampler
from repro.tracker.server import (
    COMPACT_MEMO_SIZE,
    MAX_LINE,
    UDP_ANNOUNCE,
    UDP_CONNECT,
    UDP_ERROR,
    TrackerServer,
    _compact_address,
    _HttpTrackerProtocol,
    build_udp_announce,
    build_udp_connect,
    compact_peers,
    encode_result,
    split_address,
)
from repro.tracker.service import (
    AnnounceBudget,
    AnnounceRequest,
    TrackerService,
)
from repro.tracker.tracker import TrackerUnavailable
from repro.tracker.wire import decode_announce_response, unpack_peers
from repro.protocol.bencode import bdecode

pytestmark = pytest.mark.tracker

INFOHASH = hashlib.sha1(b"conformance-torrent").digest()
TIMEOUT = 5.0


class _Clock:
    """Deterministic service clock so wire runs replay exactly."""

    def __init__(self, step=0.5):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def make_service(**kwargs):
    return TrackerService(_Clock(), seed=17, num_shards=4, **kwargs)


def announce_sequence(count=30):
    """A mixed, deterministic announce sequence (joins, refreshes,
    completions, departures)."""
    requests = []
    for index in range(count):
        address = "10.7.0.%d:6881" % (index % 12 + 1)
        if index < 12:
            event, is_seed = "started", index % 4 == 0
        elif index % 7 == 0:
            event, is_seed = "completed", True
        elif index % 11 == 0:
            event, is_seed = "stopped", False
        else:
            event, is_seed = "", index % 4 == 0
        requests.append(
            AnnounceRequest(
                infohash=INFOHASH,
                address=address,
                event=event,
                num_want=0 if event == "stopped" else 15,
                is_seed=is_seed,
                have_count=(index * 13) % 100,
            )
        )
    return requests


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


class TestHttpRoundTrip:
    def test_announce_returns_peers(self):
        async def scenario():
            async with TrackerServer(make_service()) as server:
                for request in announce_sequence(12):
                    last = await announce_http(
                        "127.0.0.1", server.http_port, request, TIMEOUT
                    )
                return last

        response = run(scenario())
        assert response.interval == 30 * 60
        assert response.complete + response.incomplete == 12
        assert len(response.peers) == 11  # everyone but the requester
        assert server_port_types(response)

    def test_scrape_over_http(self):
        async def scenario():
            async with TrackerServer(make_service()) as server:
                for request in announce_sequence(12):
                    await announce_http(
                        "127.0.0.1", server.http_port, request, TIMEOUT
                    )
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.http_port
                )
                from urllib.parse import quote_from_bytes

                writer.write(
                    b"GET /scrape?info_hash=%s HTTP/1.0\r\n\r\n"
                    % quote_from_bytes(INFOHASH).encode()
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw.partition(b"\r\n\r\n")[2]

        body = bdecode(run(scenario()))
        entry = body[b"files"][INFOHASH]
        assert entry[b"complete"] + entry[b"incomplete"] == 12
        assert entry[b"downloaded"] == 0

    def test_malformed_requests_get_failure_responses(self):
        service = make_service()
        server = TrackerServer(service)
        for line, fragment in (
            ("POST /announce HTTP/1.0", b"only GET"),
            ("GET /nonsense HTTP/1.0", b"unknown path"),
            ("GET /announce?port=1 HTTP/1.0", b"info_hash"),
            ("GET /announce?info_hash=x&event=explode HTTP/1.0", b"bad announce"),
            ("garbage", b""),
        ):
            body, status = server.handle_http_request(line, "127.0.0.1")
            assert status == 400
            assert b"failure reason" in body
            assert fragment in body
        # None of the garbage touched the registry.
        assert service.store.total_swarms == 0


def server_port_types(response):
    return all(
        isinstance(host, str) and 0 < port < 65536
        for host, port in response.peers
    )


class TestHostileAnnounces:
    """One bad request must cost its sender a 400 and nobody else
    anything: before the bounds check a single ``have=-1`` was stored,
    and every later announce of that swarm died in the sampler's float
    arithmetic without a response."""

    #: (sampler spec, hostile ``have``): division by zero, an int no
    #: float can hold, and a negative base under a fractional exponent.
    CASES = (
        ("rarity-aware", "-1"),
        ("rarity-aware", "9" * 400),
        ("rarity-aware:bias=0.5", "-5"),
    )

    @staticmethod
    def rarity_service(spec):
        service = make_service(sampler=make_sampler(spec))
        for request in announce_sequence(12):
            service.announce(request)
        return service

    @staticmethod
    def hostile_line(have):
        target = build_announce_target(
            AnnounceRequest(infohash=INFOHASH, address="10.7.0.66:6881",
                            event="started", num_want=15),
            6881,
        )
        return "GET %s&have=%s HTTP/1.0" % (target, have)

    HONEST = AnnounceRequest(
        infohash=INFOHASH, address="10.7.0.3:6881", num_want=15, have_count=40
    )

    @pytest.mark.parametrize(
        "spec,have", CASES, ids=["zero-weight", "400-digits", "complex-key"]
    )
    def test_bad_have_is_a_400_and_the_swarm_keeps_answering(self, spec, have):
        service = self.rarity_service(spec)
        server = TrackerServer(service)
        state = service.store.get(INFOHASH)
        before = (state.announce_seq, state.addresses(), list(state.have))

        body, status = server.handle_http_request(
            self.hostile_line(have), "127.0.0.1"
        )
        assert status == 400
        assert b"bad announce" in bdecode(body)[b"failure reason"]
        assert (state.announce_seq, state.addresses(), state.have) == before

        body, status = server.handle_http_request(
            "GET %s HTTP/1.0" % build_announce_target(self.HONEST, 6881),
            "127.0.0.1",
        )
        assert status == 200
        assert len(decode_announce_response(body).peers) == 11

    def test_unbounded_numwant_is_capped_not_fatal(self):
        # A 400-digit numwant parsed, reached the seed-biased sampler's
        # round(num_want * seed_fraction) and escaped as OverflowError:
        # no response, connection dropped.  It is answered like any
        # request for more peers than exist, and so is the next one.
        service = self.rarity_service("seed-biased")
        server = TrackerServer(service)
        target = build_announce_target(
            AnnounceRequest(infohash=INFOHASH, address="10.7.0.66:6881",
                            event="started", num_want=15),
            6881,
        ).replace("numwant=15", "numwant=" + "9" * 400)
        body, status = server.handle_http_request(
            "GET %s HTTP/1.0" % target, "127.0.0.1"
        )
        assert status == 200
        assert len(decode_announce_response(body).peers) == 12

        body, status = server.handle_http_request(
            "GET %s HTTP/1.0" % build_announce_target(self.HONEST, 6881),
            "127.0.0.1",
        )
        assert status == 200
        assert len(decode_announce_response(body).peers) == 12

    def test_over_a_real_socket(self):
        # The three bad announces and a request line past the 64 KiB
        # stream limit, each on its own connection and each answered
        # (status line and all, not a reset); then an honest announce.
        lines = [self.hostile_line(have).encode() for __, have in self.CASES]
        lines.append(b"GET /announce?junk=" + b"a" * (65 * 1024) + b" HTTP/1.0")

        async def scenario():
            heads = []
            async with TrackerServer(self.rarity_service("rarity-aware")) as server:
                for line in lines:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.http_port
                    )
                    writer.write(line + b"\r\n\r\n")
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.read(), TIMEOUT)
                    writer.close()
                    heads.append(raw)
                honest = await announce_http(
                    "127.0.0.1", server.http_port, self.HONEST, TIMEOUT
                )
            return heads, honest

        heads, honest = run(scenario())
        for raw in heads:
            head, __, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.0 400 Bad Request")
            assert b"failure reason" in bdecode(body)
        assert b"too long" in heads[-1]
        assert len(honest.peers) == 11


class TestUnencodableAddresses:
    """Regression: the HTTP frontend registered whatever ``ip``/``port``
    it was given (a missing port as ``:0``) and the UDP frontend any
    port.  Every later answer sampling that entry then raised in the
    compact encoder, outside the handler's ``try``: the next well-formed
    announce to the swarm got an exception, and on a live server its
    client read 0 bytes."""

    HOSTILE = AnnounceRequest(
        infohash=INFOHASH, address="10.7.0.66:6881", event="started", num_want=15
    )

    @classmethod
    def hostile_line(cls, edit):
        target = build_announce_target(cls.HOSTILE, 6881)
        old, new = edit
        assert old in target
        return "GET %s HTTP/1.0" % target.replace(old, new)

    @staticmethod
    def honest_answer(server):
        body, status = server.handle_http_request(
            "GET %s HTTP/1.0"
            % build_announce_target(TestHostileAnnounces.HONEST, 6881),
            "127.0.0.1",
        )
        assert status == 200
        return decode_announce_response(body)

    @staticmethod
    def populated_server():
        service = make_service()
        for request in announce_sequence(12):
            service.announce(request)
        return TrackerServer(service)

    @pytest.mark.parametrize(
        "edit",
        [("port=6881&", ""), ("port=6881", "port=-5"), ("ip=10.7.0.66", "ip=not-an-ip")],
        ids=["port-omitted", "port-negative", "ip-not-ipv4"],
    )
    def test_http_announce_is_a_400_and_the_swarm_keeps_answering(self, edit):
        server = self.populated_server()
        body, status = server.handle_http_request(self.hostile_line(edit), "127.0.0.1")
        assert status == 400
        assert b"bad announce" in bdecode(body)[b"failure reason"]
        response = self.honest_answer(server)
        assert len(response.peers) == 11
        assert server_port_types(response)

    def test_udp_port_zero_is_an_error_and_http_keeps_answering(self):
        server = self.populated_server()
        address = ("127.0.0.1", 9)
        __, __, connection_id = struct.unpack(
            ">iiq", server.handle_datagram(build_udp_connect(1), address)
        )
        packet = build_udp_announce(connection_id, 2, self.HOSTILE, port=0)
        reply = server.handle_datagram(packet, address)
        action, tid = struct.unpack(">ii", reply[:8])
        assert action == UDP_ERROR and tid == 2
        assert b"bad announce" in reply[8:]
        response = self.honest_answer(server)
        assert len(response.peers) == 11
        assert server_port_types(response)

    def test_over_a_real_socket(self):
        line = self.hostile_line(("port=6881&", "")).encode()

        async def scenario():
            service = make_service()
            for request in announce_sequence(12):
                service.announce(request)
            async with TrackerServer(service) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.http_port
                )
                writer.write(line + b"\r\n\r\n")
                await writer.drain()
                hostile = await asyncio.wait_for(reader.read(), TIMEOUT)
                writer.close()
                honest = await announce_http(
                    "127.0.0.1",
                    server.http_port,
                    TestHostileAnnounces.HONEST,
                    TIMEOUT,
                )
            return hostile, honest

        hostile, honest = run(scenario())
        assert hostile.startswith(b"HTTP/1.0 400 Bad Request")
        assert len(honest.peers) == 11
        assert server_port_types(honest)


#: Where hostile datagrams come from: the honest client's own address
#: among them, so a hostile connect can hand it an id.
UDP_SOURCES = [("127.0.0.1", 9), ("127.0.0.1", 10), ("10.9.9.9", 4444)]

QUERY_KEYS = ["info_hash", "port", "ip", "event", "numwant", "left", "have"]
QUERY_VALUES = st.one_of(
    st.sampled_from(
        [b"", b"0", b"-5", b"65536", b"6881", b"1", b"started", b"stopped",
         b"not-an-ip", b"10.7.0.9", b"::1", b"1.2.3", b"9" * 40, INFOHASH]
    ),
    st.binary(max_size=24),
)


@st.composite
def http_requests(draw):
    """(request line, peer host): raw text, or a GET whose query mixes
    the announce keys with arbitrary ones and arbitrary values."""
    peer_host = draw(st.sampled_from(["127.0.0.1", "10.7.0.77", "::1", "host"]))
    if draw(st.booleans()):
        return draw(st.text(max_size=80)), peer_host
    params = draw(
        st.dictionaries(
            st.one_of(st.sampled_from(QUERY_KEYS), st.text(max_size=6)),
            QUERY_VALUES,
            max_size=8,
        )
    )
    if draw(st.booleans()):
        params["info_hash"] = INFOHASH
    query = "&".join(
        "%s=%s" % (quote_from_bytes(key.encode()), quote_from_bytes(value))
        for key, value in params.items()
    )
    method = draw(st.sampled_from(["GET", "GET", "POST", ""]))
    path = draw(st.sampled_from(["/announce", "/announce", "/scrape", "/x"]))
    return "%s %s?%s HTTP/1.0" % (method, path, query), peer_host


@st.composite
def datagrams(draw, issued):
    """(bytes, source): arbitrary bytes, a connect, or an announce with
    well-formed layout and hostile fields."""
    source = draw(st.sampled_from(UDP_SOURCES))
    kind = draw(st.sampled_from(["bytes", "connect", "announce", "announce"]))
    if kind == "bytes":
        return draw(st.binary(max_size=120)), source
    if kind == "connect":
        return build_udp_connect(draw(st.integers(-(2**31), 2**31 - 1))), source
    int32 = st.integers(-(2**31), 2**31 - 1)
    packet = struct.pack(
        ">qii20s20sqqqiIIiH",
        draw(st.one_of(st.sampled_from(issued or [0]), st.integers(-(2**63), 2**63 - 1))),
        draw(st.one_of(st.just(UDP_ANNOUNCE), int32)),
        draw(int32),
        draw(st.one_of(st.just(INFOHASH), st.binary(min_size=20, max_size=20))),
        bytes(20),
        0,
        draw(st.integers(-(2**63), 2**63 - 1)),
        0,
        draw(st.one_of(st.integers(0, 3), int32)),
        draw(st.one_of(st.just(0), st.integers(0, 2**32 - 1))),
        0,
        draw(int32),
        draw(st.one_of(st.sampled_from([0, 1, 6881, 65535]), st.integers(0, 65535))),
    )
    return packet + draw(st.binary(max_size=4)), source


class TestHandlersAreTotal:
    """Hypothesis over the two server-side request handlers: no request
    line, query or datagram makes either raise, and after any hostile
    sequence a well-formed announce to the same swarm, over either
    frontend, is answered with peers whose ports are all in 1..65535."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_no_hostile_sequence_breaks_the_next_answer(self, data):
        service = make_service()
        for request in announce_sequence(6):
            service.announce(request)
        server = TrackerServer(service)
        issued = []
        for __ in range(data.draw(st.integers(1, 12), label="steps")):
            if data.draw(st.booleans(), label="http"):
                line, peer_host = data.draw(http_requests())
                body, status = server.handle_http_request(line, peer_host)
                assert status in (200, 400) and bdecode(body)
            else:
                packet, source = data.draw(datagrams(issued))
                reply = server.handle_datagram(packet, source)
                if reply is not None and len(packet) == 16:
                    issued.append(struct.unpack(">iiq", reply)[2])

        response = TestUnencodableAddresses.honest_answer(server)
        assert len(response.peers) >= 5 and server_port_types(response)

        honest = TestHostileAnnounces.HONEST
        source = UDP_SOURCES[0]
        __, __, connection_id = struct.unpack(
            ">iiq", server.handle_datagram(build_udp_connect(7), source)
        )
        reply = server.handle_datagram(
            build_udp_announce(connection_id, 8, honest, port=6881), source
        )
        assert struct.unpack(">ii", reply[:8]) == (UDP_ANNOUNCE, 8)
        peers = unpack_peers(reply[20:])
        assert len(peers) >= 5 and all(0 < port < 65536 for __, port in peers)


class TestIntervalOnTheWire:
    @staticmethod
    def udp_interval(service):
        """The interval one UDP connect + announce is answered with."""
        server = TrackerServer(service)
        source = ("127.0.0.1", 9)
        __, __, connection_id = struct.unpack(
            ">iiq", server.handle_datagram(build_udp_connect(1), source)
        )
        request = AnnounceRequest(infohash=INFOHASH, address="10.0.0.1:6881")
        reply = server.handle_datagram(
            build_udp_announce(connection_id, 2, request, port=6881), source
        )
        action, tid, interval = struct.unpack(">iii", reply[:12])
        assert (action, tid) == (UDP_ANNOUNCE, 2)
        return interval

    def test_an_interval_the_udp_reply_cannot_carry_is_refused(self):
        # Once accepted, every UDP announce then raised struct.error in
        # the datagram handler, and the client got no reply.
        with pytest.raises(ValueError, match=r"2\*\*31 / 1\) s"):
            self.udp_interval(make_service(interval=3e9))

    def test_the_largest_interval_still_answers(self):
        assert self.udp_interval(make_service(interval=2**31 - 1)) == 2**31 - 1


class _ScriptedUdpTracker(asyncio.DatagramProtocol):
    """Answers a UDP connect and announce with well-formed heads cut (or
    padded) to the given sizes."""

    def __init__(self, connect_size, announce_size):
        self.sizes = {UDP_CONNECT: connect_size, UDP_ANNOUNCE: announce_size}

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        action, transaction_id = struct.unpack_from(">ii", data, 8)
        reply = struct.pack(">ii", action, transaction_id) + bytes(32)
        self.transport.sendto(reply[: self.sizes[action]], addr)


class TestUdpRoundTrip:
    def test_connect_then_announce(self):
        async def scenario():
            async with TrackerServer(make_service()) as server:
                for request in announce_sequence(12):
                    last = await announce_udp(
                        "127.0.0.1", server.udp_port, request, TIMEOUT
                    )
                return last

        response = run(scenario())
        assert response.interval == 30 * 60
        assert len(response.peers) == 11
        assert server_port_types(response)

    def test_bogus_datagrams_dropped_or_errored(self):
        server = TrackerServer(make_service())
        # Too short: dropped silently (no amplification for junk).
        assert server.handle_datagram(b"\x00" * 8, ("127.0.0.1", 9)) is None
        # Bad magic on a connect-sized packet: dropped.
        assert (
            server.handle_datagram(
                struct.pack(">qii", 0xDEAD, 0, 1), ("127.0.0.1", 9)
            )
            is None
        )
        # Announce with an unknown connection id: explicit error action.
        packet = build_udp_announce(
            connection_id=999_999,
            transaction_id=7,
            request=AnnounceRequest(infohash=INFOHASH, address="10.0.0.1:6881"),
            port=6881,
        )
        reply = server.handle_datagram(packet, ("127.0.0.1", 9))
        action, tid = struct.unpack(">ii", reply[:8])
        assert action == UDP_ERROR and tid == 7
        assert b"connection id" in reply[8:]

    def test_connect_issues_fresh_connection_ids(self):
        server = TrackerServer(make_service())
        first = server.handle_datagram(build_udp_connect(1), ("127.0.0.1", 1))
        second = server.handle_datagram(build_udp_connect(2), ("127.0.0.1", 2))
        __, __, id_a = struct.unpack(">iiq", first)
        __, __, id_b = struct.unpack(">iiq", second)
        assert id_a != id_b

    def test_connection_id_is_honoured_only_from_its_address(self):
        """Regression: an id issued to one address was accepted from any
        other, which is what a BEP 15 connection id exists to prevent."""
        server = TrackerServer(make_service())
        issued_to, elsewhere = ("127.0.0.1", 9), ("10.9.9.9", 4444)
        __, __, connection_id = struct.unpack(
            ">iiq", server.handle_datagram(build_udp_connect(1), issued_to)
        )
        packet = build_udp_announce(
            connection_id,
            2,
            AnnounceRequest(infohash=INFOHASH, address="10.0.0.1:6881"),
            port=6881,
        )
        action, __ = struct.unpack(">ii", server.handle_datagram(packet, elsewhere)[:8])
        assert action == UDP_ERROR
        assert server.service.announce_count == 0
        action, __ = struct.unpack(">ii", server.handle_datagram(packet, issued_to)[:8])
        assert action == UDP_ANNOUNCE

    def test_connection_id_table_keeps_the_newest_65536(self):
        """Regression: every connect added an entry and none was ever
        dropped, and a client connects once per announce."""
        server = TrackerServer(make_service())
        address = ("127.0.0.1", 9)
        connect = build_udp_connect(1)
        ids = [
            struct.unpack(">iiq", server.handle_datagram(connect, address))[2]
            for __ in range(65_536 + 1)
        ]
        assert len(server._connection_ids) == 65_536

        def announce(connection_id):
            packet = build_udp_announce(
                connection_id,
                3,
                AnnounceRequest(infohash=INFOHASH, address="10.0.0.1:6881"),
                port=6881,
            )
            return server.handle_datagram(packet, address)

        evicted = announce(ids[0])
        assert struct.unpack(">i", evicted[:4])[0] == UDP_ERROR
        assert b"unknown connection id" in evicted
        for kept in (ids[1], ids[-1]):
            assert struct.unpack(">i", announce(kept)[:4])[0] == UDP_ANNOUNCE

    @pytest.mark.parametrize(
        "connect_size, announce_size",
        [(8, None), (15, None), (16, 4), (16, 19), (16, 23)],
        ids=["connect-8", "connect-15", "announce-4", "announce-19", "announce-23"],
    )
    def test_short_replies_are_tracker_unavailable(self, connect_size, announce_size):
        """Regression: a connect reply under 16 bytes or an announce reply
        under 20 (or with a ragged peer blob) escaped as struct.error."""

        async def scenario():
            transport, __ = await asyncio.get_running_loop().create_datagram_endpoint(
                lambda: _ScriptedUdpTracker(connect_size, announce_size),
                local_addr=("127.0.0.1", 0),
            )
            port = transport.get_extra_info("sockname")[1]
            try:
                with pytest.raises(TrackerUnavailable):
                    await announce_udp(
                        "127.0.0.1",
                        port,
                        AnnounceRequest(infohash=INFOHASH, address="10.0.0.1:6881"),
                        TIMEOUT,
                    )
            finally:
                transport.close()

        run(scenario())


class TestSimVsLiveDifferential:
    def test_wire_responses_byte_identical_to_in_process(self):
        # The same seed, same announce sequence, through two frontends:
        # direct service calls encoded with the shared encoder vs the
        # HTTP server over localhost.  Byte equality, not approximate.
        requests = announce_sequence(30)

        in_process = []
        service = make_service()
        for request in requests:
            try:
                in_process.append(encode_result(service.announce(request)))
            except TrackerUnavailable as exc:
                in_process.append(repr(str(exc)).encode())

        async def scenario():
            bodies = []
            async with TrackerServer(make_service()) as server:
                for request in requests:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.http_port
                    )
                    from repro.tracker.client import build_announce_target

                    target = build_announce_target(
                        request, int(request.address.rpartition(":")[2])
                    )
                    writer.write(
                        b"GET %s HTTP/1.0\r\n\r\n" % target.encode("latin-1")
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    bodies.append(raw.partition(b"\r\n\r\n")[2])
            return bodies

        over_wire = run(scenario())
        assert over_wire == in_process

    def test_sampler_choice_survives_the_wire(self):
        # A non-default sampler spec produces the same sample through
        # the wire as in process (the per-request RNG derivation is a
        # pure function of the announce sequence, not the frontend).
        from repro.tracker.sampling import make_sampler

        def build():
            return TrackerService(
                _Clock(), seed=5, num_shards=2,
                sampler=make_sampler("seed-biased:seed_fraction=0.5"),
            )

        requests = announce_sequence(20)
        direct = build()
        expected = [encode_result(direct.announce(r)) for r in requests]

        async def scenario():
            bodies = []
            async with TrackerServer(build()) as server:
                for request in requests:
                    response = await announce_http(
                        "127.0.0.1", server.http_port, request, TIMEOUT
                    )
                    bodies.append(response)
            return bodies

        responses = run(scenario())
        decoded = [decode_announce_response(b) for b in expected]
        assert responses == decoded


class TestLoadSheddingOverWire:
    def test_rejection_is_a_failure_response_not_a_drop(self):
        budget = AnnounceBudget(announces_per_second=0.1, window=5.0,
                                reject_factor=2.0)

        async def scenario():
            async with TrackerServer(make_service(budget=budget)) as server:
                failures = 0
                for request in announce_sequence(25):
                    if request.event == "stopped":
                        continue
                    try:
                        await announce_http(
                            "127.0.0.1", server.http_port, request, TIMEOUT
                        )
                    except TrackerUnavailable as exc:
                        failures += 1
                        assert "retry in" in str(exc)
                return failures, server.service.rejected_announces

        failures, rejected = run(scenario())
        assert failures > 0
        assert failures == rejected


def _dead_udp_port():
    """A UDP port nothing listens on: bound, then closed."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestDeadUdpTracker:
    """Regression: the UDP client dropped the kernel's ECONNREFUSED, so a
    dead UDP tracker cost the full timeout where a dead HTTP one failed
    in a millisecond."""

    def test_dead_endpoint_fails_at_once(self):
        async def scenario():
            started = time.monotonic()
            with pytest.raises(TrackerUnavailable):
                await announce_udp(
                    "127.0.0.1", _dead_udp_port(), announce_sequence(1)[0], timeout=5.0
                )
            return time.monotonic() - started

        assert run(scenario()) < 1.0


@pytest.fixture
def short_idle(monkeypatch):
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.2)


class TestHttpConnectionLifetime:
    """Every HTTP connection is closed when its timer runs out, and the
    400 for an over-long line is followed by a lingering close."""

    @staticmethod
    def exchange(payload, junk=b"", half_close=False):
        """Send ``payload`` then ``junk`` on one connection and read
        whatever comes back until the server closes."""

        async def scenario():
            async with TrackerServer(make_service()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.http_port
                )
                writer.write(payload + junk)
                await asyncio.wait_for(writer.drain(), TIMEOUT)
                if half_close:
                    writer.write_eof()
                try:
                    return await asyncio.wait_for(reader.read(), TIMEOUT)
                finally:
                    writer.close()

        return run(scenario())

    def test_silent_connection_is_closed(self, short_idle):
        assert self.exchange(b"") == b""

    def test_half_a_request_is_closed(self, short_idle):
        assert self.exchange(b"GET /announce?info_hash=") == b""

    def test_over_long_line_then_junk_reads_the_full_400(self, short_idle):
        line = b"GET /announce?junk=" + b"a" * (65 * 1024) + b" HTTP/1.0\r\n"
        raw = self.exchange(line, junk=b"x" * (1 << 20), half_close=True)
        head, __, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 400 Bad Request")
        assert b"Content-Length: %d" % len(body) in head
        assert bdecode(body) == {b"failure reason": b"request line too long"}


class _RecordingTransport:
    """What :class:`_HttpTrackerProtocol` needs of a TCP transport."""

    def __init__(self):
        self.written = bytearray()
        self.closed = self.half_closed = False

    def get_extra_info(self, name, default=None):
        return ("127.0.0.1", 50000) if name == "peername" else default

    def write(self, data):
        assert not (self.closed or self.half_closed)
        self.written += data

    def write_eof(self):
        self.half_closed = True

    def close(self):
        self.closed = True


def serve_chunks(server, chunks, eof=True):
    """Feed ``chunks`` to one connection's protocol, then EOF; returns
    every byte the protocol wrote."""

    async def scenario():
        transport = _RecordingTransport()
        protocol = _HttpTrackerProtocol(server)
        protocol.connection_made(transport)
        for chunk in chunks:
            if transport.closed:
                break
            protocol.data_received(chunk)
        if eof and not transport.closed and not protocol.eof_received():
            transport.close()
        protocol.connection_lost(None)
        return bytes(transport.written)

    return asyncio.run(scenario())


populated_server = TestUnencodableAddresses.populated_server


@st.composite
def valid_requests(draw):
    """The raw bytes of one well-formed announce with a few headers."""
    request = draw(st.sampled_from(announce_sequence(12)))
    newline = draw(st.sampled_from([b"\r\n", b"\n"]))
    headers = draw(
        st.lists(st.sampled_from([b"Host: 127.0.0.1", b"User-Agent: x", b"X:"]),
                 max_size=3)
    )
    lines = [b"GET %s HTTP/1.0" % build_announce_target(request, 6881).encode()]
    return newline.join(lines + headers + [b"", b""])


def split_at(raw, cuts):
    bounds = [0] + sorted(set(cuts)) + [len(raw)]
    return [raw[a:b] for a, b in zip(bounds, bounds[1:])]


def responses_in(written):
    """Split protocol output into (head, body) answers by Content-Length."""
    answers = []
    while written:
        head, sep, rest = written.partition(b"\r\n\r\n")
        assert sep and head.startswith(b"HTTP/1.0 ")
        length = int(head.rpartition(b"Content-Length: ")[2])
        answers.append((head, rest[:length]))
        written = rest[length:]
    return answers


class TestHttpFraming:
    """Hypothesis over the protocol's framing: it answers what a one-shot
    request gets however the bytes arrive, and nothing escapes it."""

    @settings(max_examples=60, deadline=None)
    @given(raw=valid_requests(), cuts=st.lists(st.integers(0, 400), max_size=12),
           bytewise=st.booleans())
    def test_any_split_gets_the_one_shot_answer(self, raw, cuts, bytewise):
        one_shot = serve_chunks(populated_server(), [raw])
        if bytewise:
            chunks = [raw[i:i + 1] for i in range(len(raw))]
        else:
            chunks = split_at(raw, [cut for cut in cuts if cut < len(raw)])
        assert serve_chunks(populated_server(), chunks) == one_shot
        ((head, body),) = responses_in(one_shot)
        assert head.startswith(b"HTTP/1.0 200 OK") and bdecode(body)

    @settings(max_examples=150, deadline=None)
    @given(
        chunks=st.lists(
            st.one_of(
                st.binary(max_size=40),
                st.sampled_from(
                    [b"\n", b"\r\n", b"\r", b"GET /announce?info_hash=a&port=1 HTTP/1.0",
                     b"GET /scrape HTTP/1.0", b"a" * (MAX_LINE + 1), b"a" * MAX_LINE]
                ),
            ),
            max_size=8,
        ),
        eof=st.booleans(),
    )
    def test_arbitrary_streams_never_raise(self, chunks, eof):
        answers = responses_in(serve_chunks(populated_server(), chunks, eof))
        assert len(answers) <= 1
        if eof:
            assert len(answers) == 1
        for head, body in answers:
            assert bdecode(body)

    def test_a_line_of_exactly_max_line_bytes_is_read(self):
        # StreamReader's rule: the limit bounds the bytes before "\n".
        line = b"GET /x?" + b"a" * (MAX_LINE - len(b"GET /x? HTTP/1.0")) + b" HTTP/1.0"
        assert len(line) == MAX_LINE
        ((head, body),) = responses_in(serve_chunks(populated_server(), [line + b"\n\n"]))
        assert b"unknown path" in body
        ((head, body),) = responses_in(
            serve_chunks(populated_server(), [b"a" + line + b"\n\n"])
        )
        assert b"too long" in body


ENCODABLE = st.builds(
    "{}:{}".format, st.ip_addresses(v=4).map(str), st.integers(1, 65535)
)


class TestCompactEncoder:
    """The memoised compact blob decodes to the split addresses, cold or
    warm, and after the memo has evicted them."""

    @settings(max_examples=100, deadline=None)
    @given(addresses=st.lists(ENCODABLE, max_size=60))
    def test_memoised_blob_decodes_to_the_addresses(self, addresses):
        expected = compact_peers(addresses)
        assert unpack_peers(expected) == [split_address(a) for a in addresses]
        assert compact_peers(addresses) == expected  # every entry warm

    def test_blob_survives_an_eviction(self):
        early = ["10.200.%d.%d:6881" % (i >> 8, i & 255) for i in range(64)]
        expected = compact_peers(early)
        assert unpack_peers(expected) == [split_address(a) for a in early]
        filler = (
            "10.%d.%d.%d:7000" % (i >> 16 & 255, i >> 8 & 255, i & 255)
            for i in range(COMPACT_MEMO_SIZE)
        )
        compact_peers(filler)
        assert _compact_address.cache_info().currsize == COMPACT_MEMO_SIZE
        assert compact_peers(early) == expected

    def test_unencodable_addresses_are_left_out(self):
        mixed = ["1.2.3.4:80", "bare", "5.6.7.8:0", "host:x", "not-an-ip:1", "9.9.9.9:1"]
        assert compact_peers(mixed) == compact_peers(["1.2.3.4:80", "9.9.9.9:1"])

    def test_both_frontends_skip_an_in_process_registration(self):
        """Only an in-process registration can hold an address the
        frontends would refuse; both answer without it."""
        server = populated_server()
        server.service.announce(
            AnnounceRequest(infohash=INFOHASH, address="sim-peer", event="started")
        )
        assert len(TestUnencodableAddresses.honest_answer(server).peers) == 11
        source = UDP_SOURCES[0]
        __, __, connection_id = struct.unpack(
            ">iiq", server.handle_datagram(build_udp_connect(1), source)
        )
        reply = server.handle_datagram(
            build_udp_announce(connection_id, 2, TestHostileAnnounces.HONEST, 6881),
            source,
        )
        assert len(unpack_peers(reply[20:])) == 11
