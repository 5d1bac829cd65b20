"""Pair rendering holds to the per-hook path (DESIGN §12).

Under synchronous delivery a traced peer's ``msg_sent`` line and its
neighbour's ``msg_recv`` line are adjacent, so ``Peer._send`` and the
fused HAVE flood render both in one recorder call when both ends are
stock :class:`TracingObserver`\\ s on one recorder.  Each test runs
the same seeded swarm once through the pair paths and once inside the
``unpaired`` twin, where every delivery goes through both observer
hooks, and requires the same lines and the same fingerprint.  Pair
order follows ``connections`` dict order, so the ``determinism`` CI
lane runs this file under other hash seeds.
"""

from random import Random

import pytest

from repro.instrumentation import (
    BinaryTraceRecorder,
    TraceRecorder,
    TracingObserver,
    binary_to_jsonl,
)
from repro.sim.churn import poisson_arrivals
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.workloads import build_experiment, scaled_copy, scenario_by_id

from tests.conftest import abort_downloads, fast_config, noise_peers, tiny_swarm


class PairCounter:
    """Counts the pair calls a recorder receives."""

    def __init__(self, patch):
        self.calls = 0
        for cls in (TraceRecorder, BinaryTraceRecorder):
            for name in ("emit_message_pair", "emit_have_pair"):
                patch.setattr(cls, name, self._counting(getattr(cls, name)))

    def _counting(self, method):
        def counted(recorder, *args):
            self.calls += 1
            return method(recorder, *args)

        return counted


def both_ways(twins, run):
    """``run()`` through the pair paths, then unpaired: both recorders,
    and how many pair calls the first run made."""
    with pytest.MonkeyPatch.context() as patch:
        counter = PairCounter(patch)
        paired = run()
    with twins("unpaired"):
        unpaired = run()
    return paired, unpaired, counter.calls


def assert_same_trace(paired, unpaired):
    assert paired.fingerprint == unpaired.fingerprint
    assert paired.lines() == unpaired.lines()


def traced_experiment(recorder, seed=3, duration=120.0):
    """Table-I torrent 13 with every peer traced: the local peer through
    a FanoutObserver next to its Instrumentation, the rest stock."""
    scenario = scaled_copy(scenario_by_id(13), duration=duration)
    harness = build_experiment(
        scenario,
        seed=seed,
        swarm_config=SwarmConfig(seed=seed, duration=duration),
        trace_recorder=recorder,
        trace_all_peers=True,
    )
    harness.run()
    recorder.close()
    return recorder


def churned_swarm(recorder, observer_type=TracingObserver, seed=9):
    """A small swarm with arrivals, aborts, noise peers and a leave, so
    links open and close throughout the run."""
    swarm = tiny_swarm(num_pieces=24, seed=seed)
    swarm.observer_factory = lambda: observer_type(recorder)
    swarm.add_peer(config=fast_config(upload=16 * KIB), is_seed=True)
    for __ in range(6):
        swarm.add_peer(config=fast_config())
    poisson_arrivals(
        swarm,
        rate=0.1,
        duration=150.0,
        config_factory=lambda rng: PeerConfig(upload_capacity=4 * KIB),
        rng=Random(seed),
    )
    abort_downloads(swarm, probability=0.2, check_interval=40.0, rng=Random(seed + 1))
    noise_peers(swarm, count=4, duration=120.0, rng=Random(seed + 2))
    leaving = swarm.add_peer(config=fast_config())
    swarm.simulator.schedule(35.0, leaving.leave)
    swarm.run(200.0)
    for peer in swarm.peers.values():
        peer.observer.finalize()
    recorder.close()
    return recorder


def test_churn_traces_identically_through_pairs(twins):
    paired, unpaired, pairs = both_ways(
        twins, lambda: churned_swarm(TraceRecorder())
    )
    assert pairs > 0, "the pair paths never engaged"
    assert_same_trace(paired, unpaired)


def test_fanout_local_peer_traces_identically_through_pairs(twins, tmp_path):
    paired, unpaired, pairs = both_ways(
        twins, lambda: traced_experiment(TraceRecorder(str(tmp_path / "t.jsonl")))
    )
    assert pairs > 0
    assert_same_trace(paired, unpaired)
    # The local peer's deliveries went through its hooks, and its lines
    # are there on both sides.
    local = paired.events()[0]["peer"]
    assert any(
        event["type"] == "msg_recv" and event["peer"] == local
        for event in paired.events()
    )


class HookCounter(TracingObserver):
    """Overrides the message hooks: it must see every call."""

    sent = 0
    received = 0

    def on_message_sent(self, now, remote, message):
        HookCounter.sent += 1
        super().on_message_sent(now, remote, message)

    def on_message_received(self, now, remote, message):
        HookCounter.received += 1
        super().on_message_received(now, remote, message)


def test_hook_overriding_subclass_sees_every_call(twins):
    HookCounter.sent = HookCounter.received = 0
    paired, unpaired, pairs = both_ways(
        twins, lambda: churned_swarm(TraceRecorder(), observer_type=HookCounter)
    )
    assert pairs == 0
    assert_same_trace(paired, unpaired)
    counts = {"msg_sent": 0, "msg_recv": 0}
    for event in paired.events():
        if event["type"] in counts:
            counts[event["type"]] += 1
    # Both runs went through the hooks, once each.
    assert HookCounter.sent == 2 * counts["msg_sent"] > 0
    assert HookCounter.received == 2 * counts["msg_recv"] > 0


def test_binary_recorder_pairs_decode_to_the_jsonl_trace(twins):
    jsonl = traced_experiment(TraceRecorder())
    binary, unpaired, pairs = both_ways(
        twins, lambda: traced_experiment(BinaryTraceRecorder())
    )
    assert pairs > 0
    assert binary_to_jsonl(binary) == binary_to_jsonl(unpaired) == jsonl.lines()


def test_churned_binary_recorder_decodes_to_the_jsonl_trace(twins):
    jsonl = churned_swarm(TraceRecorder())
    binary, unpaired, __ = both_ways(
        twins, lambda: churned_swarm(BinaryTraceRecorder())
    )
    assert binary_to_jsonl(binary) == binary_to_jsonl(unpaired) == jsonl.lines()
