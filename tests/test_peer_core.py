"""The protocol brain with no engine and no socket.

A :class:`ScriptedPeer` is the smallest possible driver of
:class:`repro.core.peer_core.PeerCore`: ``_send`` appends to a list and
the clock is a number the test sets.  Every test feeds it messages and
reads what it would have put on the wire.
"""

import dataclasses
import hashlib
import inspect
from random import Random
from types import SimpleNamespace

import pytest

from repro.core import peer_core
from repro.core.choke import ChokeDecision
from repro.core.peer_core import LinkState, PeerCore, PeerState
from repro.core.piece_picker import PiecePicker
from repro.net.peer import NetPeer
from repro.protocol.bitfield import Bitfield
from repro.protocol.messages import (
    Bitfield as BitfieldMessage,
    Cancel,
    Choke,
    Have,
    Interested,
    NotInterested,
    Piece,
    Request,
    Unchoke,
)
from repro.protocol.metainfo import BlockRef, make_metainfo
from repro.sim.config import KIB, PeerConfig
from repro.sim.peer import Peer

DEPTH = 4


@pytest.fixture(autouse=True)
def short_pipeline(monkeypatch):
    """Scripts answer requests one by one, so a 4-deep pipeline keeps the
    transcripts short; the core reads its depth at every fill."""
    monkeypatch.setattr(peer_core, "REQUEST_PIPELINE_DEPTH", DEPTH)


class ScriptedChoker:
    """Unchokes whatever the test says; counts resets."""

    def __init__(self):
        self.unchoke = []
        self.resets = 0

    def round(self, interested, candidates, now, rng):
        return ChokeDecision(unchoked=list(self.unchoke))

    def reset(self):
        self.resets += 1


class ScriptedPeer(PeerCore):
    def __init__(self, num_pieces=8, blocks_per_piece=2, have=(), seed=11, **config):
        metainfo = make_metainfo(
            "core", num_pieces, piece_size=blocks_per_piece * KIB, block_size=KIB
        )
        super().__init__(
            "10.0.0.1", metainfo, PeerConfig(**config), SimpleNamespace(now=0.0),
            Random(seed), Bitfield(num_pieces, have=have),
            leecher_choker=ScriptedChoker(), seed_choker=ScriptedChoker(),
        )
        # No random-first warm-up: every script picks rarest first.
        self.picker = PiecePicker(
            metainfo.geometry, self.bitfield, self.selector, self.rng,
            random_first_threshold=0,
        )
        self.online = True
        self.sent = []  # (remote address, message), in send order
        self.seed_links_closed = []

    def _send(self, connection, message):
        self.sent.append((connection.remote_key, message))

    def _close_seed_link(self, connection):
        self.seed_links_closed.append(connection.remote_key)

    def link(self, address, have=None, initiated=True):
        """A fresh link whose remote then advertises *have* (default: all)."""
        connection = LinkState(self, SimpleNamespace(address=address), initiated)
        self._add_link(connection)
        num_pieces = self.bitfield.num_pieces
        pieces = range(num_pieces) if have is None else have
        bits = Bitfield(num_pieces, have=pieces).to_bytes()
        self._receive(connection, BitfieldMessage(bits=bits))
        return connection

    def take_sent(self):
        sent, self.sent = self.sent, []
        return sent


def requested_blocks(sent, address):
    return [
        BlockRef(message.piece, message.offset, message.length)
        for remote, message in sent
        if remote == address and isinstance(message, Request)
    ]


def block_payload(peer, block):
    payload = peer.metainfo.piece_payload(block.piece)
    return Piece(
        piece=block.piece,
        offset=block.offset,
        data=payload[block.offset : block.offset + block.length],
    )


class TestInterestAndPipeline:
    def test_opening_bitfield_raises_interest(self):
        peer = ScriptedPeer()
        connection = peer.link("10.0.0.2")
        assert peer.sent == [("10.0.0.2", Interested())]
        assert connection.am_interested
        assert connection.remote_bitfield.is_complete()

    def test_bitfield_offering_nothing_new_stays_quiet(self):
        peer = ScriptedPeer(have=[0, 1])
        connection = peer.link("10.0.0.2", have=[1])
        assert peer.sent == []
        assert not connection.am_interested

    def test_unchoke_fills_the_pipeline_with_rarest_pieces(self):
        peer = ScriptedPeer()
        peer.link("10.0.0.3", have=range(6))
        peer.link("10.0.0.4", have=range(6))
        full = peer.link("10.0.0.2")  # the only holder of pieces 6 and 7
        peer.take_sent()
        peer.simulator.now = 3.5
        peer._receive(full, Unchoke())
        requests = requested_blocks(peer.sent, "10.0.0.2")
        assert len(peer.sent) == len(requests) == DEPTH
        assert {block.piece for block in requests} == {6, 7}
        assert set(full.request_times) == set(requests)
        assert set(full.request_times.values()) == {3.5}

    def test_choke_returns_blocks_for_another_link(self):
        peer = ScriptedPeer()
        first = peer.link("10.0.0.2")
        second = peer.link("10.0.0.3")
        for address in ("10.0.0.4", "10.0.0.5"):
            peer.link(address, have=range(6))  # pieces 6 and 7 stay rarest
        peer.take_sent()
        peer._receive(first, Unchoke())
        lost = requested_blocks(peer.take_sent(), "10.0.0.2")
        assert len(lost) == DEPTH
        peer._receive(first, Choke())
        assert peer.sent == []
        assert not first.request_times
        peer._receive(second, Unchoke())
        assert set(requested_blocks(peer.sent, "10.0.0.3")) == set(lost)

    def test_closed_link_hears_nothing(self):
        peer = ScriptedPeer()
        connection = peer.link("10.0.0.2")
        peer.take_sent()
        connection.closed = True
        peer._receive(connection, Unchoke())
        assert peer.sent == [] and connection.peer_choking


class TestUploadQueue:
    def make(self):
        peer = ScriptedPeer(have=range(8))
        assert peer.state is PeerState.SEED
        connection = peer.link("10.0.0.2", have=[])
        return peer, connection

    def test_request_while_choking_is_dropped(self):
        peer, connection = self.make()
        peer._receive(connection, Request(piece=0, offset=0, length=KIB))
        assert not connection.upload_queue

    def test_duplicate_request_is_queued_once_and_cancel_removes_it(self):
        peer, connection = self.make()
        connection.am_choking = False
        request = Request(piece=0, offset=0, length=KIB)
        peer._receive(connection, request)
        peer._receive(connection, request)
        assert list(connection.upload_queue) == [BlockRef(0, 0, KIB)]
        peer._receive(connection, Cancel(piece=0, offset=KIB, length=KIB))
        assert len(connection.upload_queue) == 1  # unknown block: no-op
        peer._receive(connection, Cancel(piece=0, offset=0, length=KIB))
        assert not connection.upload_queue

    def test_request_for_a_missing_piece_is_dropped(self):
        peer = ScriptedPeer(have=[1])
        connection = peer.link("10.0.0.2", have=[])
        connection.am_choking = False
        peer._receive(connection, Request(piece=0, offset=0, length=KIB))
        assert not connection.upload_queue


class TestEndGameAndCompletion:
    def test_endgame_piece_cancels_in_sorted_key_order(self):
        peer = ScriptedPeer(num_pieces=2, blocks_per_piece=1)
        # Link order is deliberately not address order.
        links = {
            address: peer.link(address)
            for address in ("10.0.0.9", "10.0.0.3", "10.0.0.5")
        }
        for connection in links.values():
            peer._receive(connection, Unchoke())
        assert peer.picker.in_endgame
        assert all(len(c.request_times) == 2 for c in links.values())
        peer.take_sent()
        block = BlockRef(0, 0, KIB)
        peer._receive(links["10.0.0.5"], block_payload(peer, block))
        cancels = [
            (remote, message)
            for remote, message in peer.sent
            if isinstance(message, Cancel)
        ]
        cancel = Cancel(piece=0, offset=0, length=KIB)
        assert cancels == [("10.0.0.3", cancel), ("10.0.0.9", cancel)]
        assert all(block not in c.request_times for c in links.values())

    def test_last_piece_announces_and_turns_seed(self):
        peer = ScriptedPeer(num_pieces=2, blocks_per_piece=1, have=[0])
        seed = peer.link("10.0.0.2")
        partial = peer.link("10.0.0.3", have=[1])
        empty = peer.link("10.0.0.4", have=[])
        assert seed.am_interested and partial.am_interested
        assert not empty.am_interested
        peer._receive(seed, Unchoke())
        peer.take_sent()
        peer.simulator.now = 42.0
        peer._receive(seed, block_payload(peer, BlockRef(1, 0, KIB)))
        have = Have(piece=1)
        assert peer.sent == [
            ("10.0.0.2", have),
            ("10.0.0.2", NotInterested()),
            ("10.0.0.3", have),
            ("10.0.0.3", NotInterested()),
            ("10.0.0.4", have),
        ]
        assert peer.is_seed and peer.became_seed_at == 42.0
        assert peer.seed_links_closed == ["10.0.0.2"]
        assert peer.seed_choker.resets == 1
        assert peer.choker is peer.seed_choker

    def test_wrong_payload_fails_the_hash_and_is_downloaded_again(self):
        peer = ScriptedPeer(num_pieces=2, blocks_per_piece=1)
        peer._materialize = True
        connection = peer.link("10.0.0.2")
        peer._receive(connection, Unchoke())
        peer.take_sent()
        peer._receive(connection, Piece(piece=0, offset=0, data=b"\0" * KIB))
        assert not peer.bitfield.has(0)
        assert not any(isinstance(message, Have) for __, message in peer.sent)
        # The piece went back to the picker and is asked for again.
        assert BlockRef(0, 0, KIB) in requested_blocks(peer.sent, "10.0.0.2")
        peer._receive(connection, block_payload(peer, BlockRef(0, 0, KIB)))
        assert peer.bitfield.has(0)


class TestChokeRound:
    def test_round_sends_only_the_differences(self):
        peer = ScriptedPeer(have=range(8))
        a, b, c = (peer.link(address, have=[]) for address in ("a", "b", "c"))
        peer.simulator.now = 10.0
        peer.choker.unchoke = ["a", "b"]
        peer._choke_round()
        assert peer.take_sent() == [("a", Unchoke()), ("b", Unchoke())]
        assert (a.last_unchoked_local, c.last_unchoked_local) == (10.0, None)
        peer._receive(b, Request(piece=0, offset=0, length=KIB))
        assert b.upload_queue
        peer.simulator.now = 20.0
        peer.choker.unchoke = ["a", "c"]
        peer._choke_round()
        assert peer.take_sent() == [("b", Choke()), ("c", Unchoke())]
        assert not b.upload_queue and b.am_choking
        assert a.last_unchoked_local == 10.0  # kept its slot: nothing sent

    def test_offline_peer_runs_no_round(self):
        peer = ScriptedPeer(have=range(8))
        peer.link("a", have=[])
        peer.choker.unchoke = ["a"]
        peer.online = False
        peer._choke_round()
        assert peer.sent == []


def run_script(seed):
    """One scripted download: three uneven remotes, each request answered
    in turn, a choke part-way through; returns the outbound transcript."""
    peer = ScriptedPeer(num_pieces=12, blocks_per_piece=2, seed=seed)
    links = [
        peer.link("10.0.0.7", have=range(0, 12, 2)),
        peer.link("10.0.0.2"),
        peer.link("10.0.0.5", have=range(3, 12)),
    ]
    for connection in links:
        peer._receive(connection, Unchoke())
    answered = 0
    cursor = 0
    while not peer.is_seed:
        assert cursor < len(peer.sent), "the download stalled"
        remote, message = peer.sent[cursor]
        cursor += 1
        if not isinstance(message, Request):
            continue
        connection = peer.connections[remote]
        block = BlockRef(message.piece, message.offset, message.length)
        if block not in connection.request_times:
            continue  # given up by a choke or cancelled in end game
        peer.simulator.now += 0.25
        peer._receive(connection, block_payload(peer, block))
        answered += 1
        if answered == 7:
            peer._receive(links[1], Choke())
        elif answered == 11:
            peer._receive(links[1], Unchoke())
    return [
        (remote, type(message).__name__) + dataclasses.astuple(message)
        for remote, message in peer.sent
    ], peer


class TestPinnedTranscript:
    DIGEST = "745d3c2cdfb2507a2f66bd4b279616dd619426a1a09925b900951bf0a720157a"

    def test_transcript_is_pinned(self):
        transcript, peer = run_script(seed=20050915)
        assert peer.seed_links_closed == ["10.0.0.2"]
        kinds = {entry[1] for entry in transcript}
        assert kinds == {"Interested", "Request", "Cancel", "Have", "NotInterested"}
        digest = hashlib.sha256(repr(transcript).encode()).hexdigest()
        assert digest == self.DIGEST

    def test_transcript_depends_on_the_rng_alone(self):
        assert run_script(seed=3)[0] == run_script(seed=3)[0]
        assert run_script(seed=3)[0] != run_script(seed=4)[0]


class TestPeerSet:
    """Who may join the peer set (§II-B), one refusal per case, and what
    a link takes with it when it leaves."""

    def test_a_new_leecher_is_welcome(self):
        peer = ScriptedPeer()
        assert peer.may_accept("10.0.0.2") and peer.may_initiate("10.0.0.2")

    def test_refuses_itself(self):
        peer = ScriptedPeer()
        assert not peer.may_accept(peer.address)
        assert not peer.may_initiate(peer.address)

    def test_refuses_a_duplicate(self):
        peer = ScriptedPeer()
        peer.link("10.0.0.2")
        assert not peer.may_accept("10.0.0.2")
        assert not peer.may_initiate("10.0.0.2")

    def test_refuses_past_a_full_set(self):
        peer = ScriptedPeer(max_peer_set=2, min_peer_set=1)
        peer.link("10.0.0.2", initiated=False)
        assert peer.may_accept("10.0.0.4")
        peer.link("10.0.0.3", initiated=False)
        assert not peer.may_accept("10.0.0.4")
        assert not peer.may_initiate("10.0.0.4")

    def test_refuses_a_link_between_two_seeds(self):
        seed = ScriptedPeer(have=range(8))
        assert not seed.may_accept("10.0.0.2", remote_is_seed=True)
        assert not seed.may_initiate("10.0.0.2", remote_is_seed=True)
        assert seed.may_accept("10.0.0.2")
        assert ScriptedPeer().may_initiate("10.0.0.2", remote_is_seed=True)

    def test_refuses_past_the_initiate_cap_only_when_dialing(self):
        peer = ScriptedPeer(max_initiated=1)
        dialed = peer.link("10.0.0.2")
        peer.link("10.0.0.3", initiated=False)
        assert peer.initiated_count == 1
        assert not peer.may_initiate("10.0.0.4")
        assert peer.may_accept("10.0.0.4")
        peer._drop_link(dialed)
        assert peer.initiated_count == 0
        assert peer.may_initiate("10.0.0.4")

    def test_an_offline_peer_admits_nobody(self):
        peer = ScriptedPeer()
        peer.online = False
        assert not peer.may_accept("10.0.0.2")

    def test_a_dropped_link_gives_its_blocks_to_another(self):
        peer = ScriptedPeer()
        first = peer.link("10.0.0.2")
        second = peer.link("10.0.0.3", initiated=False)
        for address in ("10.0.0.4", "10.0.0.5"):
            peer.link(address, have=range(6), initiated=False)
        peer._receive(first, Unchoke())
        lost = requested_blocks(peer.take_sent(), "10.0.0.2")
        assert lost and first.request_times
        peer._drop_link(first)
        assert first.closed and "10.0.0.2" not in peer.connections
        assert not first.request_times
        assert peer.initiated_count == 0
        assert peer.picker.availability[6] == 1  # only the other full remote
        peer._receive(second, Unchoke())
        assert set(requested_blocks(peer.sent, "10.0.0.3")) == set(lost)


class TestWrittenOnce:
    """Neither driver may grow its own copy of a core method back."""

    HOOKS = {
        "_send",
        "_send_request",
        "_remote_view",
        "_verify_and_store",
        "_announce_piece",
        "_announce_completed",
        "_close_seed_link",
        "_on_became_seed",
    }
    # Sim-only preludes (super-seeding, fault CHOKE resend) that end in
    # the core's method.
    SIM_PRELUDES = {"_handle_have", "_serve_request"}

    def core_methods(self):
        return [
            name
            for name, value in vars(PeerCore).items()
            if inspect.isfunction(value) or isinstance(value, property)
        ]

    def test_drivers_resolve_unhooked_methods_to_the_core(self):
        names = self.core_methods()
        assert {"_receive", "_choke_round", "_handle_piece", "is_seed"} <= set(names)
        # The peer-set rules and the announce call, shadowed by neither.
        assert {
            "may_accept", "may_initiate", "_add_link", "_drop_link",
            "_tracker_announce",
        } <= set(names)
        for driver, allowed in (
            (Peer, self.HOOKS | self.SIM_PRELUDES | {"__init__"}),
            (NetPeer, self.HOOKS | {"__init__"}),
        ):
            for name in names:
                if name not in allowed:
                    assert getattr(driver, name) is getattr(PeerCore, name), (
                        "%s.%s shadows the core" % (driver.__name__, name)
                    )

    def test_drivers_keep_no_peer_set_rule_of_their_own(self):
        for driver in (Peer, NetPeer):
            source = inspect.getsource(inspect.getmodule(driver))
            for phrase in ("initiated_count", "max_initiated", "tracker.announce("):
                assert phrase not in source, (driver.__name__, phrase)

    def test_dispatch_reaches_the_driver_overrides(self):
        assert Peer._handlers[Have] is vars(Peer)["_handle_have"]
        # A REQUEST is decoded by the core and served by the driver's
        # block-level prelude.
        assert Peer._handlers[Request] is vars(PeerCore)["_handle_request"]
        assert NetPeer._handlers[Request] is vars(PeerCore)["_handle_request"]
        assert Peer._handlers[Piece] is NetPeer._handlers[Piece]
