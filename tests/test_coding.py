"""Tests for the idealised network-coding comparator."""

from repro.coding.network_coding import CodingSwarm
from repro.sim.config import KIB, PeerConfig, SwarmConfig


def coding_swarm(total_kib=64, seed=3, **config_kwargs):
    config = SwarmConfig(seed=seed, **config_kwargs)
    return CodingSwarm(total_size=total_kib * KIB, config=config)


class TestCodingSwarm:
    def test_single_leecher_completes(self):
        swarm = coding_swarm()
        swarm.add_peer("seed", PeerConfig(upload_capacity=8 * KIB), is_seed=True)
        swarm.add_peer("leech", PeerConfig(upload_capacity=8 * KIB))
        result = swarm.run(300)
        assert "leech" in result.completions
        assert result.download_time("leech") > 0

    def test_completion_bounded_by_seed_capacity(self):
        # 64 kiB through a 2 kiB/s source: not before 32 s.
        swarm = coding_swarm()
        swarm.add_peer("seed", PeerConfig(upload_capacity=2 * KIB), is_seed=True)
        swarm.add_peer("leech", PeerConfig(upload_capacity=8 * KIB))
        result = swarm.run(600)
        assert result.completions["leech"] >= 32.0

    def test_provenance_cap_binds(self):
        """Two leechers served by one slow seed cannot finish faster than
        the seed can emit one copy of the information."""
        swarm = coding_swarm()
        swarm.add_peer("seed", PeerConfig(upload_capacity=2 * KIB), is_seed=True)
        swarm.add_peer("a", PeerConfig(upload_capacity=100 * KIB))
        swarm.add_peer("b", PeerConfig(upload_capacity=100 * KIB))
        result = swarm.run(600)
        for name in ("a", "b"):
            assert result.completions[name] >= 32.0

    def test_many_leechers_complete(self):
        swarm = coding_swarm()
        swarm.add_peer("seed", PeerConfig(upload_capacity=16 * KIB), is_seed=True)
        for index in range(8):
            swarm.add_peer("l%d" % index, PeerConfig(upload_capacity=8 * KIB))
        result = swarm.run(600)
        assert len(result.completions) == 8
        assert result.mean_download_time() is not None

    def test_interest_is_ideal(self):
        """Coding interest: any incomplete peer wants any non-empty peer."""
        swarm = coding_swarm()
        swarm.add_peer("seed", PeerConfig(upload_capacity=8 * KIB), is_seed=True)
        swarm.add_peer("a", PeerConfig(upload_capacity=8 * KIB))
        swarm.add_peer("b", PeerConfig(upload_capacity=8 * KIB))
        swarm._build_graph()
        a = swarm.peers["a"]
        b = swarm.peers["b"]
        seed = swarm.peers["seed"]
        assert not a.interested_in(b)  # b has nothing yet
        b.rank = 1.0
        assert a.interested_in(b)  # any information is innovative
        assert not seed.interested_in(b)  # seeds want nothing

    def test_determinism(self):
        def run():
            swarm = coding_swarm(seed=5)
            swarm.add_peer("seed", PeerConfig(upload_capacity=8 * KIB), is_seed=True)
            for index in range(5):
                swarm.add_peer("l%d" % index, PeerConfig(upload_capacity=4 * KIB))
            return sorted(swarm.run(600).completions.items())

        assert run() == run()

    def test_empty_result_helpers(self):
        swarm = coding_swarm()
        result = swarm.run(10)
        assert result.mean_download_time() is None
        assert result.download_time("ghost") is None
