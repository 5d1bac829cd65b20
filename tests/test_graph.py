"""Tests for the swarm connectivity-graph analysis."""

import networkx as nx

from repro.analysis.graph import graph_stats, swarm_graph
from repro.sim.config import KIB, PeerConfig

from tests.conftest import fast_config, tiny_swarm


class TestGraphStats:
    def test_empty_graph(self):
        stats = graph_stats(nx.Graph())
        assert stats.num_peers == 0
        assert stats.connected

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node("a")
        stats = graph_stats(graph)
        assert stats.num_peers == 1
        assert stats.diameter == 0
        assert stats.mean_degree == 0.0

    def test_path_graph(self):
        graph = nx.path_graph(5)
        stats = graph_stats(graph)
        assert stats.diameter == 4
        assert stats.connected
        assert stats.max_degree == 2
        assert stats.min_degree == 1

    def test_complete_graph(self):
        graph = nx.complete_graph(6)
        stats = graph_stats(graph)
        assert stats.diameter == 1
        assert stats.mean_degree == 5.0
        assert stats.average_path_length == 1.0

    def test_disconnected_graph_uses_largest_component(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (3, 4)])
        stats = graph_stats(graph)
        assert not stats.connected
        assert stats.diameter == 2  # the 0-1-2 component


class TestSwarmGraph:
    def test_reflects_connections(self):
        swarm = tiny_swarm(num_pieces=4)
        a = swarm.add_peer(config=fast_config(), is_seed=True)
        b = swarm.add_peer(config=fast_config())
        c = swarm.add_peer(config=fast_config())
        graph = swarm_graph(swarm)
        assert graph.number_of_nodes() == 3
        assert graph.has_edge(a.address, b.address)
        assert graph.has_edge(b.address, c.address)

    def test_small_swarm_is_fully_connected(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        for __ in range(8):
            swarm.add_peer(config=fast_config())
        stats = graph_stats(swarm_graph(swarm))
        assert stats.connected
        assert stats.diameter <= 2  # everyone fits in everyone's peer set

    def test_capped_peer_set_raises_diameter(self):
        def diameter_with(max_peer_set, max_initiated, min_peer_set):
            swarm = tiny_swarm(num_pieces=4, seed=17)
            config_kwargs = dict(
                max_peer_set=max_peer_set,
                max_initiated=max_initiated,
                min_peer_set=min_peer_set,
            )
            swarm.add_peer(
                config=PeerConfig(upload_capacity=4 * KIB, **config_kwargs),
                is_seed=True,
            )
            for __ in range(40):
                swarm.add_peer(
                    config=PeerConfig(upload_capacity=4 * KIB, **config_kwargs)
                )
            stats = graph_stats(swarm_graph(swarm))
            return stats

        big = diameter_with(80, 40, 20)
        small = diameter_with(4, 2, 2)
        assert big.mean_degree > small.mean_degree
        assert big.average_path_length <= small.average_path_length

    def test_departed_peers_not_in_graph(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        leecher.leave()
        graph = swarm_graph(swarm)
        assert leecher.address not in graph.nodes
