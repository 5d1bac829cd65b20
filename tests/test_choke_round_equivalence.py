"""The production choke round against the every-link reference, and the
two exact shortcuts of the fluid loop against their plain forms.

``PeerCore._choke_round`` answers an idle link's rate without an expiry,
hands the choker the interested keys and snapshots of only the
interested links that moved, and tests ``am_choking`` before it probes
the unchoke set; ``tests/reference_choke_round.py`` snapshots every link
for the full-list chokers of ``tests/reference_chokers.py`` and does
none of that.  The contract is that the two are the same function.  Two
drivers are put through the *same* arbitrary script — bytes credited to
either direction of any link, interest flips, clock jumps that leave
windows never used, warm, holding only already-expired samples, or
emptied by an earlier round — and they must agree, round by round, on
what the choker was handed (the production round exactly the
reference's interested keys, and the reference's candidates filtered to
the snapshot rule) and its decision, on the CHOKE/UNCHOKE transcript,
the ``on_rate_sample`` stream and the RNG state, and at the end, bit for
bit, on every rate window.

The Hypothesis properties below hold the single-frame
``ByteCounter.add`` to ``RateEstimator`` and the bounded queue walk to
the whole-queue sum, with ``==`` throughout: every saving here is meant
to be exact, not close.
"""

from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.choke import (
    ChokeCandidate,
    LeecherChoker,
    OldSeedChoker,
    SeedChoker,
    TitForTatChoker,
)
from repro.core.peer_core import LinkState, PeerCore
from repro.core.rate_estimator import ByteCounter, RateEstimator
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import BlockRef, make_metainfo
from repro.sim.config import KIB, PeerConfig

from tests.conftest import fast_config, tiny_swarm
from tests.reference_choke_round import reference_choke_round
from tests.reference_chokers import (
    ReferenceLeecherChoker,
    ReferenceOldSeedChoker,
    ReferenceSeedChoker,
    ReferenceTitForTatChoker,
    moved,
)
from tests.probes import queued_upload_bytes

WINDOW = 20.0

#: name -> (production choker, its full-list reference).
CHOKERS = {
    "leecher": (LeecherChoker, ReferenceLeecherChoker),
    "seed-new": (SeedChoker, ReferenceSeedChoker),
    "seed-old": (OldSeedChoker, ReferenceOldSeedChoker),
    "tit-for-tat": (
        lambda: TitForTatChoker(deficit_threshold=3000.0),
        lambda: ReferenceTitForTatChoker(deficit_threshold=3000.0),
    ),
}


FIELDS = (
    "key",
    "interested",
    "choked",
    "download_rate",
    "upload_rate",
    "uploaded_to",
    "downloaded_from",
    "last_unchoked",
)


def fields(candidate):
    return tuple(getattr(candidate, name) for name in FIELDS)


class RecordingChoker:
    """Delegates to a real choker; keeps what went in and what came out.

    A production round is recorded as its two inputs; a reference round,
    which passes every link, as those inputs derived from its full list
    (the interested keys, and the interested candidates that moved), so
    equal records mean the production round handed over exactly that.
    """

    def __init__(self, inner):
        self.inner = inner
        self.rounds = []

    def round(self, *inputs):
        *given, now, rng = inputs
        decision = self.inner.round(*given, now, rng)
        if len(given) == 2:
            interested, snapshots = given
            handed = (list(interested), [fields(c) for c in snapshots])
        else:
            full = [c for c in given[0] if c.interested]
            handed = ([c.key for c in full], [fields(c) for c in full if moved(c)])
        self.rounds.append(
            (handed, now, list(decision.unchoked), decision.optimistic)
        )
        return decision

    def reset(self):
        self.inner.reset()


class RecordingObserver:
    def __init__(self):
        self.events = []

    def on_rate_sample(self, now, remote, download_rate, upload_rate):
        self.events.append(("rate", now, remote, download_rate, upload_rate))

    def on_choke_round(self, now, unchoked, local_seed):
        self.events.append(("round", now, list(unchoked), local_seed))


class RoundDriver(PeerCore):
    """The smallest driver a choke round needs: ``_send`` keeps a
    transcript and the clock is a number the script sets."""

    def __init__(self, choker_name, observed, links, reference=False):
        metainfo = make_metainfo("round", 4, piece_size=KIB, block_size=KIB)
        choker = RecordingChoker(CHOKERS[choker_name][reference]())
        super().__init__(
            "10.0.0.1",
            metainfo,
            PeerConfig(),
            SimpleNamespace(now=0.0),
            Random(1906),
            Bitfield(4),
            leecher_choker=choker,
            seed_choker=choker,
            observer=RecordingObserver() if observed else None,
        )
        self.online = True
        self.sent = []
        # Addresses whose string order is not their insertion order: the
        # chokers break ties by str(key), the round applies in dict order.
        for index, (interested, choking, last_unchoked) in enumerate(links):
            address = "10.0.0.%d" % (index + 2)
            connection = LinkState(
                self, SimpleNamespace(address=address), True, WINDOW
            )
            connection.peer_interested = interested
            connection.am_choking = choking
            connection.last_unchoked_local = last_unchoked
            self.connections[address] = connection

    def _send(self, connection, message):
        self.sent.append((connection.remote_key, message))

    def windows(self):
        """Every rate window of every link, down to the last bit."""
        return [
            (key, counter._total, list(counter._samples), counter.total)
            for key, connection in self.connections.items()
            for counter in (connection.downloaded, connection.uploaded)
        ]

    def flags(self):
        return [
            (key, c.am_choking, c.last_unchoked_local)
            for key, c in self.connections.items()
        ]


# Clock steps chosen around the window's edge: a sample exactly
# window-old has aged out, one a hair younger has not.
STEPS = st.sampled_from([0.0, 0.25, 1.0, 5.0, 10.0, 19.75, 20.0, 20.25, 45.0])


@st.composite
def scripts(draw):
    num_links = draw(st.integers(0, 12))
    links = [
        (
            draw(st.booleans()),
            draw(st.booleans()),
            draw(st.none() | st.sampled_from([0.0, 3.5, 12.0])),
        )
        for __ in range(num_links)
    ]
    link = st.integers(0, max(0, num_links - 1))
    operation = st.one_of(
        st.tuples(st.just("round"), STEPS),
        st.tuples(
            st.just("bytes"),
            STEPS,
            link,
            st.sampled_from(["downloaded", "uploaded"]),
            st.one_of(st.just(0.0), st.floats(0.0, 65536.0)),
        ),
        st.tuples(st.just("interest"), link, st.booleans()),
    )
    operations = draw(st.lists(operation, max_size=40))
    # Always end on a round, well past the window, then one more: the
    # first sees stale samples, the second windows it emptied itself.
    operations += [("round", 45.0), ("round", 10.0)]
    return links, operations


def play(driver, choke_round, operations):
    links = list(driver.connections.values())
    clock = driver.simulator
    for operation in operations:
        if operation[0] == "round":
            clock.now += operation[1]
            choke_round(driver)
        elif not links:
            continue
        elif operation[0] == "bytes":
            __, step, index, direction, num_bytes = operation
            clock.now += step
            getattr(links[index], direction).add(clock.now, num_bytes)
        else:
            __, index, interested = operation
            links[index].peer_interested = interested


@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
@pytest.mark.parametrize("choker_name", sorted(CHOKERS))
@settings(max_examples=40, deadline=None)
@given(script=scripts())
def test_round_matches_reference(choker_name, observed, script):
    links, operations = script
    production = RoundDriver(choker_name, observed, links)
    reference = RoundDriver(choker_name, observed, links, reference=True)
    play(production, PeerCore._choke_round, operations)
    play(reference, reference_choke_round, operations)
    assert production.choker.rounds == reference.choker.rounds
    assert production.sent == reference.sent
    assert production.flags() == reference.flags()
    assert production.rng.getstate() == reference.rng.getstate()
    assert production.windows() == reference.windows()
    if observed:
        assert production.observer.events == reference.observer.events
        rounds = sum(1 for operation in operations if operation[0] == "round")
        assert len(production.observer.events) == rounds * (len(links) + 1)


def test_candidates_are_immutable_keyword_built_tuples():
    """What ``repro.coding`` and the choker tests rely on: construction
    by keyword with the rate and byte fields defaulted, no mutation."""
    candidate = ChokeCandidate(key="a", interested=True, choked=False)
    assert candidate._fields == FIELDS
    assert candidate == ("a", True, False, 0.0, 0.0, 0.0, 0.0, None)
    assert candidate._replace(choked=True).choked
    with pytest.raises(AttributeError):
        candidate.choked = True


def test_idle_round_expires_nothing(monkeypatch):
    """Complexity guard: a peer set of 80 links whose windows are all
    empty (never used, or emptied by an earlier round) costs no expiry
    at all, whatever the choker."""
    driver = RoundDriver("leecher", True, [(True, True, None)] * 80)
    driver._choke_round()  # nothing moved yet: 80 keys, no snapshot
    (keys, snapshots), *__ = driver.choker.rounds[-1]
    assert len(keys) == 80 and snapshots == []
    for connection in list(driver.connections.values())[:8]:
        connection.downloaded.add(1.0, 4096.0)
        connection.uploaded.add(1.0, 4096.0)
    driver.simulator.now = 30.0
    driver._choke_round()  # ages the sixteen warm windows out
    expiries = []
    original = RateEstimator._expire

    def counting(self, now):
        expiries.append(self)
        original(self, now)

    monkeypatch.setattr(RateEstimator, "_expire", counting)
    unchoked = {key for key, c in driver.connections.items() if not c.am_choking}
    driver.simulator.now = 40.0
    driver._choke_round()
    assert expiries == []
    (keys, snapshots), *__ = driver.choker.rounds[-1]
    # Only the eight links with a lifetime total and the unchoked ones
    # are snapshotted.
    assert len(keys) == 80
    assert [snapshot[0] for snapshot in snapshots] == [
        key for key in keys if key in keys[:8] or key in unchoked
    ]
    # The guard must be able to fail: one warm window is one expiry.
    driver.connections["10.0.0.2"].downloaded.add(41.0, 1.0)
    driver.simulator.now = 50.0
    driver._choke_round()
    assert len(expiries) == 1


# ---------------------------------------------------------------------------
# ByteCounter: one frame per add, the same numbers as RateEstimator
# ---------------------------------------------------------------------------

counter_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), STEPS, st.floats(0.0, 1e9)),
        st.tuples(st.just("rate"), STEPS, st.just(0.0)),
        st.tuples(st.just("reset"), STEPS, st.just(0.0)),
        st.tuples(st.just("negative"), STEPS, st.floats(-1e9, -1e-9)),
        st.tuples(st.just("backwards"), st.sampled_from([0.25, 20.0]), st.floats(0.0, 1e6)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    window=st.sampled_from([0.5, 20.0, 33.3]),
    operations=counter_operations,
)
def test_byte_counter_is_bit_equal_to_rate_estimator(window, operations):
    counter, estimator = ByteCounter(window), RateEstimator(window)
    now = 0.0
    lifetime = 0.0
    for kind, step, num_bytes in operations:
        if kind == "backwards":
            # Time running backwards is an error only past a sample.
            for target in (counter, estimator):
                if estimator._samples:
                    with pytest.raises(ValueError, match="non-decreasing"):
                        target.add(estimator._samples[-1][0] - step, num_bytes)
            continue
        now += step
        if kind == "negative":
            for target in (counter, estimator):
                with pytest.raises(ValueError, match="non-negative"):
                    target.add(now, num_bytes)
        elif kind == "add":
            counter.add(now, num_bytes)
            estimator.add(now, num_bytes)
            lifetime += num_bytes
        elif kind == "reset":
            # Back to the untouched window; the lifetime total stays.
            counter.reset()
            estimator.reset()
        else:
            assert counter.rate(now) == estimator.rate(now)
        assert counter._total == estimator._total
        assert counter._samples == estimator._samples
        assert counter.total == lifetime
    assert counter.rate(now + 2 * window) == estimator.rate(now + 2 * window) == 0.0
    assert counter._total == estimator._total == 0.0


# ---------------------------------------------------------------------------
# the bounded queue walk: min(budget, queued bytes) without the whole queue
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def uploading_link():
    swarm = tiny_swarm()
    seed = swarm.add_peer(config=fast_config(), is_seed=True)
    leecher = swarm.add_peer(config=fast_config())
    return seed, seed.connections[leecher.address]


def whole_queue_bytes(connection):
    """``Connection.queued_upload_bytes`` as it stood: the whole queue."""
    return (
        sum(block.length for block in connection.upload_queue)
        - connection.upload_progress
    )


@st.composite
def queue_states(draw):
    lengths = draw(st.lists(st.integers(1, 1 << 20), max_size=30))
    head = lengths[0] if lengths else 0
    progress = draw(st.one_of(st.just(0.0), st.floats(0.0, float(head))))
    total = sum(lengths)
    prefix = sum(lengths[: draw(st.integers(0, len(lengths)))])
    budget = draw(
        st.one_of(
            st.just(0.0),
            st.just(prefix - progress),  # exactly covered by a prefix
            st.just(float(total) + 1.0),  # more than the queue holds
            st.just(float("inf")),
            st.floats(0.0, 2.0 * total + 1.0),
            st.floats(-10.0, 0.0),
        )
    )
    return lengths, progress, budget


@settings(max_examples=300, deadline=None)
@given(state=queue_states())
def test_bounded_walk_is_min_of_budget_and_queue(uploading_link, state):
    __, connection = uploading_link
    lengths, progress, budget = state
    connection.upload_queue = [
        BlockRef(0, offset, length) for offset, length in enumerate(lengths)
    ]
    connection.upload_progress = progress
    expected = min(budget, whole_queue_bytes(connection))
    assert connection.transferable_bytes(budget) == expected
    assert queued_upload_bytes(connection) == whole_queue_bytes(connection)
