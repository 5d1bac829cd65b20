"""The per-block pair as calls, against the message path (DESIGN §12).

With nobody observing either end of a link, a block
request is a call on the remote's ``_serve_request`` and a finished
block a call on its ``_receive_block``: no ``Request`` or ``Piece`` is
built, and neither goes through ``_send`` and ``_receive``.  The
``per-link`` twin keeps the message path on every link.  Two checks:

* **counting guard** — an unobserved run builds no
  ``Request`` and no ``Piece``; the same run on ``per-link`` builds one
  per request sent and one per block finished, and both end alike;
* **mixed links** — one swarm where some links take the calls and some
  the messages (an observed peer, a super-seeding seed refusing an
  unrevealed piece, end-game CANCELs, hash-checked payloads, a request
  that arrives while choked, a neighbour leaving mid-upload) equals
  its ``per-link`` run, step by step, in the transcript, every link's
  flags, upload queue and ``request_times``, and every peer's
  ``rng.getstate()``.
"""

import hashlib
from collections import Counter
from random import Random

import pytest

from repro.protocol.messages import Cancel, Have, Piece, Request
from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.connection import Connection
from repro.sim.observer import PeerObserver
from repro.sim.peer import Peer
from repro.sim.swarm import Swarm

PIECES = 16


def make_swarm(verify=False):
    metainfo = make_metainfo(
        "blocks", num_pieces=PIECES, piece_size=4 * KIB, block_size=KIB
    )
    return Swarm(metainfo, SwarmConfig(seed=23, verify_piece_hashes=verify))


def link_state(connection):
    return (
        connection.remote_key,
        connection.closed,
        connection.am_choking,
        connection.peer_choking,
        connection.am_interested,
        connection.peer_interested,
        sorted(connection.request_times.items()),
        list(connection.upload_queue),
        connection.upload_progress,
        connection.remote_bitfield.to_bytes(),
    )


def peer_state(peer):
    return (
        peer.address,
        peer.state,
        peer.bitfield.to_bytes(),
        peer.total_uploaded,
        peer.total_downloaded,
        peer.rng.getstate(),
        [link_state(connection) for connection in peer.connections.values()],
    )


# ---------------------------------------------------------------------------
# counting guard
# ---------------------------------------------------------------------------


def count_blocks(patch, counts):
    """Count the ``Request`` and ``Piece`` objects built, the requests
    sent and the blocks an upload finished."""
    for message_type in (Request, Piece):
        build = message_type.__init__

        def counted(self, *args, _build=build, _name=message_type.__name__, **kw):
            counts[_name] += 1
            _build(self, *args, **kw)

        patch.setattr(message_type, "__init__", counted)
    send_request = Peer._send_request

    def counted_request(self, connection, block):
        counts["requests sent"] += 1
        send_request(self, connection, block)

    advance = Connection.advance_upload

    def counted_advance(self, num_bytes):
        finished = advance(self, num_bytes)
        counts["blocks finished"] += len(finished)
        return finished

    patch.setattr(Peer, "_send_request", counted_request)
    patch.setattr(Connection, "advance_upload", counted_advance)


def counted_run(twins, *twin_names):
    counts = Counter()
    with twins(*twin_names), pytest.MonkeyPatch.context() as patch:
        count_blocks(patch, counts)
        swarm = make_swarm()
        rng = Random(5)
        swarm.add_peer(config=PeerConfig(upload_capacity=8 * KIB), is_seed=True)
        for __ in range(6):
            swarm.schedule_arrival(
                rng.uniform(0.0, 20.0),
                config=PeerConfig(upload_capacity=rng.choice([2, 4, 8]) * KIB),
            )
        result = swarm.run(150)
    peers = sorted(swarm.peers.values(), key=lambda peer: peer.address)
    outcome = {
        "completions": sorted(result.completions.items()),
        "bytes_moved": result.bytes_moved,
        "bytes": [(p.address, p.total_uploaded, p.total_downloaded) for p in peers],
        "pieces": [(p.address, p.bitfield.to_bytes()) for p in peers],
        "fingerprint": hashlib.sha256(
            repr([peer_state(peer) for peer in peers]).encode()
        ).hexdigest(),
    }
    return counts, outcome


def test_unobserved_links_build_no_block_message(twins):
    calls, outcome = counted_run(twins)
    messages, reference = counted_run(twins, "per-link")
    assert outcome == reference
    assert len(outcome["completions"]) == 6, "not every leecher finished"
    assert calls["requests sent"] > 0 and calls["blocks finished"] > 0
    assert calls["Request"] == calls["Piece"] == 0
    assert messages["Request"] == messages["requests sent"] == calls["requests sent"]
    assert messages["Piece"] == messages["blocks finished"] == calls["blocks finished"]


# ---------------------------------------------------------------------------
# mixed links
# ---------------------------------------------------------------------------


class RecordingObserver(PeerObserver):
    def __init__(self):
        self.events = []

    def on_message_sent(self, now, remote, message):
        self.events.append((now, "sent", remote, message))

    def on_message_received(self, now, remote, message):
        self.events.append((now, "received", remote, message))

    def on_block_received(self, now, remote, piece, offset, length):
        self.events.append((now, "block", remote, piece, offset))

    def on_hash_failure(self, now, piece):
        self.events.append((now, "hash failure", piece))


def record_transcript(patch, transcript):
    """What every peer says and hears, at points both paths pass.

    A HAVE flood is one entry: the fused fan-out skips ``_send`` for the
    HAVE itself, per-link delivery does not.  A request is recorded when
    sent and when served, a block when an upload finishes it and when it
    is received; each of those is one call on both paths.
    """
    flooding = set()

    def wrap(cls, name, entry):
        plain = getattr(cls, name)

        def recorded(self, *args):
            record = entry(self, *args)
            if record is not None:
                transcript.append((self.simulator.now,) + record)
            return plain(self, *args)

        patch.setattr(cls, name, recorded)

    def sent(peer, connection, message):
        if isinstance(message, (Request, Piece)):
            return None  # recorded by the block-level entries
        if isinstance(message, Have) and peer.address in flooding:
            return None  # part of the flood entry
        return ("send", peer.address, connection.remote_key, message)

    def block_call(kind):
        def entry(peer, connection, block, *data):
            return (kind, peer.address, connection.remote_key, block) + tuple(
                len(payload) for payload in data
            )

        return entry

    wrap(Peer, "_send", sent)
    wrap(Peer, "_send_request", block_call("request"))
    wrap(Peer, "_serve_request", block_call("serve"))
    wrap(Peer, "_receive_block", block_call("block"))
    plain_flood = Peer._announce_piece

    def flood(peer, piece):
        transcript.append((peer.simulator.now, "flood", peer.address, piece))
        flooding.add(peer.address)
        try:
            plain_flood(peer, piece)
        finally:
            flooding.discard(peer.address)

    patch.setattr(Peer, "_announce_piece", flood)
    advance = Connection.advance_upload

    def finished(connection, num_bytes):
        blocks = advance(connection, num_bytes)
        if blocks:
            transcript.append(
                (
                    connection.local.simulator.now,
                    "finished",
                    connection.local.address,
                    connection.remote_key,
                    connection.twin.closed,
                    blocks,
                )
            )
        return blocks

    patch.setattr(Connection, "advance_upload", finished)


def pick(candidates):
    """The first of the sorted candidates (a deterministic choice)."""
    candidates = sorted(candidates, key=repr)
    assert candidates
    return candidates[0][-1]


class MixedRun:
    """One scripted swarm; ``steps`` holds its state after every step."""

    def __init__(self, twins, *twin_names):
        self.transcript = []
        self.steps = []
        self.kinds = set()  # (qualifies for calls?) over every link seen
        with twins(*twin_names), pytest.MonkeyPatch.context() as patch:
            record_transcript(patch, self.transcript)
            self.swarm = make_swarm(verify=True)
            self.script()

    def snapshot(self, label):
        everyone = [self.seed, self.observed] + self.leechers
        for peer in everyone:
            for connection in peer.connections.values():
                self.kinds.add(peer._calls_blocks(connection))
        self.steps.append(
            (
                label,
                list(self.transcript),
                [peer_state(peer) for peer in everyone],
                list(self.observer.events),
            )
        )

    def script(self):
        swarm = self.swarm
        self.seed = swarm.add_peer(
            config=PeerConfig(upload_capacity=8 * KIB, super_seeding=True),
            is_seed=True,
        )
        self.observer = RecordingObserver()
        self.observed = swarm.add_peer(
            config=PeerConfig(upload_capacity=4 * KIB), observer=self.observer
        )
        self.leechers = [
            swarm.add_peer(config=PeerConfig(upload_capacity=capacity * KIB))
            for capacity in (2, 4, 8, 4, 2)
        ]
        swarm.run(30)
        self.snapshot("started")
        self.request_while_choked()
        self.snapshot("request while choked")
        self.super_seeder_refuses()
        self.snapshot("super-seeder refuses")
        self.leave()
        self.snapshot("leave")
        swarm.run(400)
        self.snapshot("end")

    def request_while_choked(self):
        """A leecher asks a choking neighbour for a piece it holds; the
        neighbour drops it."""
        connection = pick(
            (leecher.address, connection.remote_key, connection)
            for leecher in self.leechers
            for connection in leecher.connections.values()
            if connection.peer_choking
            and connection.remote not in (self.seed, self.observed)
            and connection.remote.bitfield.count
        )
        remote = connection.remote
        piece = next(iter(remote.bitfield.have_indices()))
        block = self.swarm.metainfo.geometry.block_ref(piece, 0)
        connection.local._send_request(connection, block)
        assert block not in connection.twin.upload_queue

    def super_seeder_refuses(self):
        """A leecher the super-seeder unchokes asks it for a piece it has
        not revealed to that leecher; the super-seeder drops it."""
        seed = self.seed
        for __ in range(120):
            unchoked = [
                (twin.remote_key, twin)
                for twin in seed.connections.values()
                if not twin.am_choking and twin.remote is not self.observed
            ]
            if unchoked:
                break
            self.swarm.run(1)
        twin = pick(unchoked)
        revealed = seed._revealed_to.get(twin.remote_key, set())
        piece = min(set(range(PIECES)) - revealed)
        block = self.swarm.metainfo.geometry.block_ref(piece, 0)
        queued = list(twin.upload_queue)
        twin.remote._send_request(twin.twin, block)
        assert twin.upload_queue == queued

    def leave(self):
        """A leecher an unobserved neighbour is uploading to leaves: its
        links close at both ends with blocks in flight."""
        self.victim = pick(
            (leecher.address, leecher)
            for leecher in self.leechers
            if any(
                c.twin.upload_queue and c.remote is not self.observed
                for c in leecher.connections.values()
            )
        )
        self.victim.leave()


def test_mixed_links_equal_the_per_link_reference(twins):
    calls = MixedRun(twins)
    messages = MixedRun(twins, "per-link")
    assert calls.kinds == {True, False}  # both kinds of link, in one swarm
    assert messages.kinds == {False}
    for step, reference in zip(calls.steps, messages.steps):
        assert step == reference, step[0]
    assert len(calls.steps) == len(messages.steps)
    # The script reached what it names.
    transcript = calls.transcript
    assert any(
        entry[1] == "send" and isinstance(entry[-1], Cancel) for entry in transcript
    ), "no end-game CANCEL"
    # Every payload passed its hash check: a wrong one is fetched again
    # and again, and its piece never completes.
    survivors = [peer for peer in calls.leechers if peer is not calls.victim]
    assert all(peer.is_seed for peer in survivors + [calls.observed])
    assert not any(event[1] == "hash failure" for event in calls.observer.events)
