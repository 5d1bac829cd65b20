"""Tests for the client-mix workload and swarm utilisation accounting."""

from collections import Counter
from random import Random

import pytest

from repro.sim.config import KIB
from repro.workloads.clients import CLIENT_MIX_2005, sample_client_id

from tests.conftest import fast_config, tiny_swarm
from tests.probes import utilization


class TestClientMix:
    def test_sample_returns_known_ids(self):
        rng = Random(1)
        known = {client_id for client_id, __ in CLIENT_MIX_2005}
        for __ in range(200):
            assert sample_client_id(rng) in known

    def test_mix_weights_respected(self):
        rng = Random(2)
        samples = [sample_client_id(rng) for __ in range(4000)]
        counts = Counter(samples)
        assert counts["-AZ2304"] / len(samples) == pytest.approx(0.35, abs=0.04)
        assert counts["M4-0-2"] / len(samples) == pytest.approx(0.20, abs=0.04)

    def test_client_ids_flow_into_traces(self):
        """Workload populations carry mixed client IDs end to end when a
        mix is requested; the default stays a mainline monoculture."""
        from repro.workloads import build_experiment, scaled_copy, scenario_by_id

        scenario = scaled_copy(
            scenario_by_id(13), seeds=1, leechers=10, num_pieces=8,
            duration=60.0, arrival_rate=0.0, local_join_time=5.0,
        )
        harness = build_experiment(scenario, seed=9, client_mix=CLIENT_MIX_2005)
        harness.run()
        ids = {
            record.client_id
            for record in harness.instrumentation.records.values()
        }
        assert len(ids) >= 2  # a mixed population, not a monoculture

        plain = build_experiment(scenario, seed=9)
        plain.run()
        plain_ids = {
            record.client_id
            for record in plain.instrumentation.records.values()
        }
        assert plain_ids == {"M4-0-2"}

    def test_peer_ids_parse_back(self):
        """Generated peer IDs round-trip through the identification rule
        for the formats it recognises."""
        from repro.protocol.peer_id import make_peer_id, parse_client_id

        rng = Random(3)
        for client_id, __ in CLIENT_MIX_2005:
            raw = make_peer_id(client_id, rng).raw
            parsed = parse_client_id(raw)
            if parsed is not None:
                assert client_id.startswith(parsed) or parsed == client_id


class TestUtilization:
    def test_bounded_by_one(self):
        swarm = tiny_swarm(num_pieces=16)
        swarm.add_peer(config=fast_config(upload=2 * KIB), is_seed=True)
        for __ in range(4):
            swarm.add_peer(config=fast_config(upload=2 * KIB))
        result = swarm.run(300)
        used = utilization(result)
        assert used is not None
        assert 0.0 <= used <= 1.0 + 1e-9

    def test_busy_swarm_uses_most_capacity(self):
        """While everyone is leeching, most upload capacity is in use —
        the high efficiency of [21] that the paper confirms."""
        swarm = tiny_swarm(num_pieces=256, seed=21)
        swarm.add_peer(config=fast_config(upload=4 * KIB), is_seed=True)
        for __ in range(7):
            swarm.add_peer(config=fast_config(upload=4 * KIB))
        result = swarm.run(200)  # mid-download, nobody has finished
        assert utilization(result) > 0.5

    def test_idle_swarm_wastes_capacity(self):
        """All-seed swarms move nothing: utilisation falls toward zero."""
        swarm = tiny_swarm(num_pieces=8)
        for __ in range(3):
            swarm.add_peer(config=fast_config(), is_seed=True)
        result = swarm.run(100)
        assert utilization(result) == pytest.approx(0.0)

    def test_none_before_any_tick(self):
        swarm = tiny_swarm(num_pieces=8)
        assert utilization(swarm.result) is None

    def test_bytes_moved_matches_downloads(self):
        swarm = tiny_swarm(num_pieces=8)
        swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        result = swarm.run(300)
        assert result.bytes_moved == pytest.approx(leecher.total_downloaded)
