"""The pure-python max–min allocator, kept as the differential oracle.

This is ``repro.sim.bandwidth.max_min_allocation`` as it stood while it
was the numpy-free twin of the vectorised filling: one progressive-
filling pass per round over per-node dicts keyed by ``("up"/"down",
node)``, charging each node ``increment * degree`` — the arithmetic the
vectorised allocator performs elementwise.  It is slow and obviously
right, which is what ``tests/test_allocator_equivalence.py`` needs to
hold the production allocator to (bit-identical rates on any topology),
and the ``twins`` fixture's ``"reference-allocator"`` hands it, behind
the swarm's node-index signature (:func:`reference_max_min_rates`), to
every swarm built inside the block.

Lives in the test tree on purpose: nothing under ``src/`` may import it.
"""

from typing import Dict, List, Mapping

import numpy as np

from repro.sim.bandwidth import INF, Flow, NodeId


def reference_max_min_rates(up_nodes, down_nodes, capacities, epsilon=1e-9):
    """:func:`reference_max_min_allocation` behind the signature of
    ``repro.sim.bandwidth.max_min_rates``: flows named by node indices,
    one capacity array, ``inf`` for no cap.  Node *n* becomes node id
    *n* of the capacity map its direction reads, so the upload and the
    download index sets must be disjoint, as the swarm's ``2s`` /
    ``2s + 1`` nodes are."""
    flows = [Flow(int(up), int(down)) for up, down in zip(up_nodes, down_nodes)]
    caps = {
        node: float(cap) for node, cap in enumerate(capacities) if cap != INF
    }
    reference_max_min_allocation(flows, caps, caps, epsilon)
    return np.array([flow.rate for flow in flows], dtype=np.float64)


def reference_max_min_allocation(
    flows: List[Flow],
    upload_capacity: Mapping[NodeId, float],
    download_capacity: Mapping[NodeId, float],
    epsilon: float = 1e-9,
) -> None:
    """Assign a max–min fair ``rate`` to every flow, in place.

    ``upload_capacity`` / ``download_capacity`` map node ids to access-link
    capacities in bytes/second.  A missing entry means unconstrained in
    that direction (the paper's local peer has no download cap, §III-C).
    Flows whose uploader has zero capacity get rate 0.
    """
    for flow in flows:
        flow.rate = 0.0
    if not flows:
        return

    # Node bookkeeping: residual capacity, live (unfrozen) degree, and the
    # flow lists, all keyed by ("up"/"down", node).
    residual: Dict[tuple, float] = {}
    degree: Dict[tuple, int] = {}
    node_flows: Dict[tuple, List[int]] = {}
    flow_nodes: List[tuple] = []  # per flow: its constrained node keys
    live: List[bool] = []
    unfrozen_count = 0

    for index, flow in enumerate(flows):
        up_cap = upload_capacity.get(flow.uploader)
        down_cap = download_capacity.get(flow.downloader)
        if (up_cap is not None and up_cap <= epsilon) or (
            down_cap is not None and down_cap <= epsilon
        ):
            live.append(False)
            flow_nodes.append(())
            continue
        live.append(True)
        unfrozen_count += 1
        keys = []
        if up_cap is not None:
            key = ("up", flow.uploader)
            if key not in residual:
                residual[key] = up_cap
                degree[key] = 0
                node_flows[key] = []
            degree[key] += 1
            node_flows[key].append(index)
            keys.append(key)
        if down_cap is not None:
            key = ("down", flow.downloader)
            if key not in residual:
                residual[key] = down_cap
                degree[key] = 0
                node_flows[key] = []
            degree[key] += 1
            node_flows[key].append(index)
            keys.append(key)
        flow_nodes.append(tuple(keys))

    if unfrozen_count == 0:
        return

    while unfrozen_count > 0:
        # Find the bottleneck node: smallest fair share among live nodes.
        bottleneck_share = None
        for key, capacity in residual.items():
            node_degree = degree[key]
            if node_degree == 0:
                continue
            share = capacity / node_degree
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
        if bottleneck_share is None:
            # Every remaining flow is unconstrained in both directions.
            # The model treats these as infinitely fast; callers avoid
            # this by always giving peers finite upload capacity.
            for index, flow in enumerate(flows):
                if live[index]:
                    flow.rate = float("inf")
                    live[index] = False
            break
        increment = bottleneck_share
        # Grow every unfrozen flow and charge each node once for all the
        # live flows through it.  The per-node multiply (instead of one
        # subtraction per flow) is what the vectorized path computes, so
        # both paths see bit-identical residuals.
        for index, flow in enumerate(flows):
            if live[index]:
                flow.rate += increment
        for key, node_degree in degree.items():
            if node_degree:
                residual[key] -= increment * node_degree
        # Freeze flows through saturated nodes.
        froze_any = False
        for key in residual:
            if residual[key] <= epsilon and degree[key] > 0:
                for index in node_flows[key]:
                    if live[index]:
                        live[index] = False
                        froze_any = True
                        unfrozen_count -= 1
                        for other_key in flow_nodes[index]:
                            degree[other_key] -= 1
        if not froze_any:
            # Numerical corner: nothing saturated despite a finite share.
            # Freeze everything at current rates to guarantee termination.
            break
