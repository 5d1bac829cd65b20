"""The filtered HAVE fan-out against the every-link reference.

``Peer.broadcast_have_fused`` walks only the links on which a completed
piece can make something happen; ``tests/reference_have_fanout.py``
walks them all.  The loop body is the same text in both, so the contract
is that the filter keeps a *superset* of the links that can react.  Two
worlds are built from the same arbitrary script — 0 to 12 links whose
remotes hold subsets, supersets, all or none of the sender's pieces,
observed or not, super-seeding or not; interest and choke flips on
either side; a remote that leaves the torrent; an observer attached
late; a link closed between two floods; a leecher or a seed doing the
flooding — and after every flood they must agree on
the message transcript, the observers' streams, every link's flags,
``request_times`` and upload queue, every availability row and every
peer's ``rng.getstate()``.

The counting guard holds the point of the filter: 80 idle links give the
loop body no turn at all, where the reference gives it 80.
"""

from types import MethodType

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.peer_core import LinkState
from repro.protocol.bitfield import Bitfield
from repro.protocol.messages import (
    Choke,
    Have,
    Interested,
    NotInterested,
    Request,
    Unchoke,
)
from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.connection import Connection
from repro.sim.observer import PeerObserver
from repro.sim.swarm import Swarm

from tests.reference_have_fanout import reference_broadcast_have_fused
from tests.probes import missing_indices

PIECES = 12


class RecordingObserver(PeerObserver):
    """Keeps the two hooks a flood can reach, in arrival order."""

    def __init__(self):
        self.events = []

    def on_message_sent(self, now, remote, message):
        self.events.append(("sent", remote, message))

    def on_message_received(self, now, remote, message):
        self.events.append(("received", remote, message))


class World:
    """One sender, its remotes, and a transcript of everything sent."""

    def __init__(self, script, reference):
        metainfo = make_metainfo(
            "fanout", num_pieces=PIECES, piece_size=2 * KIB, block_size=KIB
        )
        self.swarm = Swarm(metainfo, SwarmConfig(seed=1906))
        self.reference = reference
        self.transcript = []
        self.observers = []
        held, sender_is_seed = script["sender"]
        self.sender = self.add(held, seed=sender_is_seed)
        self.remotes = []
        for held, kind in script["remotes"]:
            remote = self.add(
                held,
                seed=kind in ("seed", "super-seed"),
                super_seeding=kind == "super-seed",
                observed=kind == "observed",
            )
            self.remotes.append(remote)
            self.sender._establish(remote, initiated_by_local=True)

    def add(self, held, seed=False, super_seeding=False, observed=False):
        peer = self.swarm.add_peer(
            config=PeerConfig(upload_capacity=8 * KIB, super_seeding=super_seeding),
            is_seed=seed,
            initial_bitfield=None if seed else Bitfield(PIECES, have=held),
            observer=self.observer() if observed else None,
            join=False,
        )
        if self.reference:
            peer.broadcast_have_fused = MethodType(
                reference_broadcast_have_fused, peer
            )
        plain_send = peer._send
        plain_send_request = peer._send_request

        def recording_send(connection, message):
            if not isinstance(message, Request):  # recorded below
                self.transcript.append((peer.address, connection.remote_key, message))
            plain_send(connection, message)

        def recording_send_request(connection, block):
            # A request on an unobserved link is a call, not a ``_send``.
            request = Request(block.piece, block.offset, block.length)
            self.transcript.append((peer.address, connection.remote_key, request))
            plain_send_request(connection, block)

        peer._send = recording_send
        peer._send_request = recording_send_request
        return peer

    def observer(self):
        observer = RecordingObserver()
        self.observers.append(observer)
        return observer

    # -- the script's operations, each a real protocol action ---------------

    def link(self, index, side):
        """The *index*-th surviving link, seen from the sender (side 0)
        or from the remote (side 1); None when the sender has none."""
        connections = list(self.sender.connections.values())
        if not connections:
            return None
        connection = connections[index % len(connections)]
        if side == 0 or connection.twin is None or connection.twin.closed:
            return connection
        return connection.twin

    def apply(self, op):
        kind, index, side = op
        if kind == "flood":
            return self.flood(index)
        connection = self.link(index, side)
        if connection is None:
            return
        local = connection.local
        if kind == "choke":
            # As the choke round writes it: the flag, then the message.
            connection.am_choking = not connection.am_choking
            if connection.am_choking:
                connection.clear_upload_queue()
            local._send(connection, Choke() if connection.am_choking else Unchoke())
        elif kind == "interest":
            connection.am_interested = not connection.am_interested
            local._send(
                connection,
                Interested() if connection.am_interested else NotInterested(),
            )
        elif kind == "observe":
            # Late, and without a word to the target cache.  Side 1 is the
            # sender itself: an observed sender walks every link.
            connection.remote.observer = self.observer()
        elif kind == "leave":
            victim = self.link(index, 0).remote  # a remote, never the sender
            # Built offline (join=False): enter it into the books first.
            self.swarm.on_peer_joined(victim)
            victim.online = True
            victim.leave()
        elif kind == "close":
            local._close_connection(connection, notify_remote=True)

    def flood(self, index):
        sender = self.sender
        if sender.is_seed:
            # A seed completes nothing, so it floods no HAVE.
            return
        startable = [
            piece
            for piece in missing_indices(sender.bitfield)
            if piece not in sender.picker.active_pieces
        ]
        if not startable:
            return
        piece = startable[index % len(startable)]
        # Download it from a source outside the peer set, through the
        # picker, so the picker's books and the bitfield agree as they do
        # when the last PIECE of a piece arrives.
        offer = Bitfield(PIECES, have=[piece])
        completed = False
        while not completed:
            block = sender.picker.next_request(offer, "elsewhere")
            assert block.piece == piece
            completed, __ = sender.picker.on_block_received(block, "elsewhere")
        sender._on_piece_completed(piece)

    # -- everything an outside reader can tell apart --------------------------

    def state(self):
        peers = [self.sender] + self.remotes
        return {
            "transcript": list(self.transcript),
            "observed": [list(observer.events) for observer in self.observers],
            "links": [
                (
                    peer.address,
                    key,
                    c.closed,
                    c.am_choking,
                    c.peer_choking,
                    c.am_interested,
                    c.peer_interested,
                    sorted(c.request_times, key=repr),
                    list(c.upload_queue),
                    c.remote_bitfield.to_bytes(),
                )
                for peer in peers
                for key, c in peer.connections.items()
            ],
            "rows": [
                None if peer.picker.matrix_slot is None else peer.picker.availability
                for peer in peers
            ],
            "held": [peer.bitfield.to_bytes() for peer in peers],
            "states": [peer.state for peer in peers],
            "rng": [peer.rng.getstate() for peer in peers],
        }


pieces = st.sets(st.integers(0, PIECES - 1), max_size=PIECES - 1)


@st.composite
def scripts(draw):
    sender_held = sorted(draw(pieces))
    remotes = []
    for __ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["plain", "observed", "seed", "super-seed"]))
        held = draw(pieces)
        relation = draw(st.sampled_from(["subset", "superset", "any"]))
        if relation == "subset":
            held &= set(sender_held)
        elif relation == "superset":
            held |= set(sender_held)
        remotes.append((sorted(held), kind))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["choke", "choke", "interest", "flood", "flood",
                     "observe", "leave", "close"]
                ),
                st.integers(0, 40),
                st.integers(0, 1),
            ),
            max_size=24,
        )
    )
    return {
        "sender": (sender_held, False),
        "remotes": remotes,
        "ops": ops + [("flood", 0, 0), ("flood", 1, 0)],
    }


@settings(max_examples=150, deadline=None)
@given(script=scripts())
def test_filtered_fanout_is_the_every_link_fanout(script):
    production = World(script, reference=False)
    reference = World(script, reference=True)
    assert production.state() == reference.state()
    for op in script["ops"]:
        production.apply(op)
        reference.apply(op)
        assert production.state() == reference.state(), op


#: One link per clause of the filter: every *other* clause lets the link
#: go, and the flood of piece 1 makes exactly one thing happen on it.
CLAUSES = {
    "not-peer-interested": (
        # Neither side wants anything; our first piece interests the remote.
        {"sender": ([], False), "remotes": [([], "plain")], "ops": []},
        lambda world: ("10.0.0.2", "10.0.0.1", Interested()) in world.transcript,
    ),
    "not-am-choking": (
        # The remote wants our piece 0 and we unchoke it: it asks for the
        # new piece the moment it hears of it.
        {"sender": ([0], False), "remotes": [([], "plain")], "ops": [("choke", 0, 0)]},
        lambda world: any(
            origin == "10.0.0.2" and getattr(message, "piece", None) == 1
            for origin, __, message in world.transcript
        ),
    ),
    "own-recheck": (
        # We wanted the remote's only piece and now hold it.
        {"sender": ([0], False), "remotes": [([1], "plain")], "ops": []},
        lambda world: ("10.0.0.1", "10.0.0.2", NotInterested()) in world.transcript,
    ),
    "observed-remote": (
        # Interested in us, choked, without the piece: only its observer
        # has anything to do.
        {"sender": ([0], False), "remotes": [([5], "observed")], "ops": []},
        lambda world: ("received", "10.0.0.1", Have(piece=1))
        in world.observers[0].events,
    ),
}


@pytest.mark.parametrize("clause", sorted(CLAUSES))
def test_each_clause_keeps_a_link_that_reacts(clause):
    script, reacted = CLAUSES[clause]
    states = []
    for reference in (False, True):
        world = World(script, reference)
        for op in script["ops"]:
            world.apply(op)
        assert [peer.address for peer in [world.sender] + world.remotes] == [
            "10.0.0.1",
            "10.0.0.2",
        ]
        assert not reacted(world)
        world.flood(0 if 0 in script["sender"][0] else 1)  # completes piece 1
        assert world.sender.bitfield.has(1)
        assert reacted(world), clause
        states.append(world.state())
    assert states[0] == states[1]


def test_a_super_seeder_keeps_its_turn_whatever_its_flags_say():
    """A super-seeder is a seed, so it is never interested and the
    ``not peer_interested`` clause alone would keep its link; the filter
    names it anyway, and this pins that clause on a link every other
    clause lets go: the super-seeder claims interest, is choked, we
    claim none in it — and it still owes us the next reveal."""
    script = {"sender": ([], False), "remotes": [([], "super-seed")], "ops": []}
    states = []
    for reference in (False, True):
        world = World(script, reference)
        sender, (remote,) = world.sender, world.remotes
        world.apply(("interest", 0, 1))
        world.apply(("interest", 0, 0))
        (connection,) = sender.connections.values()
        assert connection.peer_interested and connection.am_choking
        assert not connection.am_interested
        revealed = remote._active_reveal[sender.address]
        world.flood(list(missing_indices(sender.bitfield)).index(revealed))
        assert sender.bitfield.has(revealed)
        # The reaction: a second piece revealed to us.
        reveals = [
            message.piece
            for origin, __, message in world.transcript
            if origin == remote.address and isinstance(message, Have)
        ]
        assert len(reveals) == 2 and reveals[0] == revealed
        states.append(world.state())
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# counting guard
# ---------------------------------------------------------------------------


class CountingConnection(Connection):
    """A link that counts the loop body's first read (``closed``); the
    filter reads link flags only, so every count is one turn of the body."""

    __slots__ = ()
    turns = 0

    @property
    def closed(self):
        CountingConnection.turns += 1
        return LinkState.closed.__get__(self)

    @closed.setter
    def closed(self, value):
        LinkState.closed.__set__(self, value)


@pytest.mark.parametrize("reference, expected", [(False, 0), (True, 80)])
def test_idle_links_get_no_turn(reference, expected):
    """80 links, every remote interested in us, choked, and without the
    piece: nothing on any of them can react to the HAVE."""
    script = {
        "sender": ([0, 1], False),
        "remotes": [([5], "plain")] * 80,
        "ops": [],
    }
    world = World(script, reference)
    sender = world.sender
    assert len(sender.connections) == 80
    for connection in sender.connections.values():
        assert connection.peer_interested and connection.am_choking
        assert connection.am_interested  # the remote holds piece 5, we do not
        connection.__class__ = CountingConnection
    before = [list(remote.picker.availability) for remote in world.remotes]
    CountingConnection.turns = 0
    world.flood(0)  # completes piece 2
    assert sender.bitfield.has(2)
    assert CountingConnection.turns == expected
    # The turns are skipped, the counting is not.
    for remote, row in zip(world.remotes, before):
        row[2] += 1
        assert list(remote.picker.availability) == row
