"""Swarm connectivity-graph analysis (paper §I and §V).

The paper's critique of earlier simulation studies is structural: "all
the simulations of BitTorrent we are aware of consider that each peer
only knows few other peers [...] The consequence is that BitTorrent
builds a random graph [...] that has a larger diameter in simulations
than in real torrents.  However, the diameter has a fundamental impact
on the efficiency of the rarest first algorithm."

This module materialises the swarm's connection graph and computes the
statistics that argument rests on: diameter, average shortest path,
degree distribution, connectivity.  Ablation A6
(``repro.analysis.ablations.peer_set_swarms``) uses it to reproduce the
§V point by rerunning a torrent with mainline's 80-peer sets against
the 15-peer sets of [5].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import networkx as nx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.swarm import Swarm


@dataclass(frozen=True)
class GraphStats:
    """Summary of one swarm connectivity graph."""

    num_peers: int
    num_connections: int
    connected: bool
    diameter: int
    """Diameter of the largest connected component."""

    average_path_length: float
    mean_degree: float
    max_degree: int
    min_degree: int


def swarm_graph(swarm: "Swarm") -> nx.Graph:
    """The undirected connection graph of the swarm's online peers."""
    graph = nx.Graph()
    for address, peer in swarm.peers.items():
        graph.add_node(address)
        for remote_address in peer.connections:
            graph.add_edge(address, remote_address)
    return graph


def graph_stats(graph: nx.Graph) -> GraphStats:
    """Compute the §V statistics for a connection graph."""
    if graph.number_of_nodes() == 0:
        return GraphStats(0, 0, True, 0, 0.0, 0.0, 0, 0)
    connected = nx.is_connected(graph)
    if connected:
        component = graph
    else:
        largest = max(nx.connected_components(graph), key=len)
        component = graph.subgraph(largest)
    if component.number_of_nodes() > 1:
        diameter = nx.diameter(component)
        average_path = nx.average_shortest_path_length(component)
    else:
        diameter = 0
        average_path = 0.0
    degrees = [degree for __, degree in graph.degree()]
    return GraphStats(
        num_peers=graph.number_of_nodes(),
        num_connections=graph.number_of_edges(),
        connected=connected,
        diameter=diameter,
        average_path_length=average_path,
        mean_degree=sum(degrees) / len(degrees),
        max_degree=max(degrees),
        min_degree=min(degrees),
    )
