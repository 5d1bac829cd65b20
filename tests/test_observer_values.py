"""Observer hooks carry values, not simulator objects.

Every :class:`~repro.sim.observer.PeerObserver` hook but ``on_attached``
is handed what its trace event records — addresses, flags, byte totals,
the message, the snapshot — so a trace replays through the very same
hooks with each event's fields and nothing has to stand in for a peer, a
link or a byte counter (DESIGN §9).  A small traced swarm and one replay
of its trace are driven through recording observers, and every argument
of every hook call must be such a value: never a ``LinkState``, a
``PeerCore``, a ``ByteCounter``, a ``Bitfield`` or any other object of
the simulator or the live stack.
"""

import pytest

from repro.instrumentation import Instrumentation, TraceRecorder, TracingObserver
from repro.instrumentation.logger import Snapshot
from repro.instrumentation.replay import replay_instrumentation
from repro.protocol.messages import Message
from repro.sim.observer import FanoutObserver, PeerObserver

from tests.conftest import fast_config, tiny_swarm

#: Every value-carrying hook of the observer interface.
HOOKS = sorted(
    name for name in vars(PeerObserver) if name.startswith("on_") and name != "on_attached"
)

#: Hooks the swarm below must reach at least once, live and replayed.
EXERCISED = {
    "on_connection_open",
    "on_connection_close",
    "on_message_sent",
    "on_message_received",
    "on_choke_round",
    "on_rate_sample",
    "on_block_received",
    "on_piece_completed",
    "on_seed_state",
    "on_snapshot",
}


def is_value(argument) -> bool:
    """A plain value: a number, a string, a flag, ``None``, a message or
    a snapshot, or a list, tuple or dict of values."""
    if argument is None or isinstance(argument, (str, int, float, Message, Snapshot)):
        return True
    if isinstance(argument, (list, tuple)):
        return all(is_value(item) for item in argument)
    if isinstance(argument, dict):
        return all(is_value(key) and is_value(item) for key, item in argument.items())
    return False


def recording(name, calls, hook):
    """*hook*, first appending ``(name, args)`` of each call to *calls*."""

    def recorded(self, *args):
        calls.append((name, args))
        return hook(self, *args)

    return recorded


class RecordingObserver(PeerObserver):
    """Keeps every hook call, in order."""

    def __init__(self):
        self.calls = []
        self.attached = []

    def on_attached(self, peer):
        self.attached.append(peer)


def _keep(name):
    def hook(self, *args):
        self.calls.append((name, args))

    return hook


for _name in HOOKS:
    setattr(RecordingObserver, _name, _keep(_name))


def assert_values(calls):
    for name, args in calls:
        for argument in args:
            assert is_value(argument), "%s handed %r" % (name, argument)


@pytest.fixture(scope="module")
def traced_run():
    """Seed, three leechers and the observed leecher, every one of them
    observed, the observed one also instrumented and traced; run to the
    observed leecher's seed state and past it."""
    swarm = tiny_swarm(num_pieces=12, seed=3)
    recorder = TraceRecorder()
    observers = []
    swarm.add_peer(config=fast_config(), is_seed=True, observer=RecordingObserver())
    for __ in range(3):
        observer = RecordingObserver()
        observers.append(observer)
        swarm.add_peer(config=fast_config(upload=2048), observer=observer)
    watched = RecordingObserver()
    instrumentation = Instrumentation(record_rates=True)
    tracer = TracingObserver(recorder, record_rates=True)
    local = swarm.add_peer(
        config=fast_config(),
        observer=FanoutObserver(watched, instrumentation, tracer),
    )
    instrumentation.start_sampling()
    swarm.run(600)
    assert local.is_seed
    instrumentation.finalize()
    tracer.finalize()
    recorder.close()
    return local, watched, observers, instrumentation, recorder


def test_live_hooks_carry_values(traced_run):
    local, watched, observers, __, __ = traced_run
    assert {name for name, __ in watched.calls} >= EXERCISED
    assert watched.attached == [local]  # the one hook handed the peer
    for observer in [watched] + observers:
        assert observer.calls
        assert_values(observer.calls)


def test_remote_is_the_link_key(traced_run):
    local, watched, __, __, __ = traced_run
    addresses = set(local.swarm.peers) - {local.address}
    for name, args in watched.calls:
        if name in ("on_connection_open", "on_message_sent", "on_block_received"):
            assert args[1] in addresses, (name, args)


def test_replay_calls_the_same_hooks_with_values(traced_run, monkeypatch):
    from repro.instrumentation.replay import ReplayedPeer

    __, watched, __, live, recorder = traced_run
    calls = []
    attached = []
    for name in HOOKS + ["on_finalize"]:
        monkeypatch.setattr(
            Instrumentation,
            name,
            recording(name, calls, getattr(Instrumentation, name)),
        )
    monkeypatch.setattr(
        Instrumentation,
        "on_attached",
        recording("on_attached", attached, Instrumentation.on_attached),
    )
    replayed = replay_instrumentation(recorder)
    assert {name for name, __ in calls} >= EXERCISED | {"on_finalize"}
    assert_values(calls)
    # The attach event's values are all replay keeps of the peer.
    assert [args[0] for __, args in attached] == [replayed.peer]
    assert isinstance(replayed.peer, ReplayedPeer)
    assert is_value(tuple(replayed.peer))
    # The value hooks the live peer called, replayed with equal values.
    live_calls = [
        (name, args)
        for name, args in watched.calls
        if name in ("on_connection_open", "on_connection_close", "on_seed_state")
    ]
    replayed_calls = [
        (name, tuple(args))
        for name, args in calls
        if name in ("on_connection_open", "on_connection_close", "on_seed_state")
    ]
    assert [(name, tuple(map(_plain, args))) for name, args in replayed_calls] == [
        (name, tuple(map(_plain, args))) for name, args in live_calls
    ]
    assert replayed.records.keys() == live.records.keys()


def _plain(argument):
    """Sequences compared as lists: a trace hands back lists for tuples."""
    if isinstance(argument, (list, tuple)):
        return [_plain(item) for item in argument]
    return argument
