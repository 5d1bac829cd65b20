"""Max–min fair fluid bandwidth allocation.

The paper's experiments target "peer-to-peer file replication in the
Internet", where peers "are well connected without severe network
bottlenecks" (§I): capacity is constrained by access links (per-peer
upload and download caps), not by the core.  The classical fluid model for
that regime is max–min fairness over the bipartite graph of active
transfers, computed by progressive filling:

1. every unfrozen flow grows at the same rate;
2. the first link (an uploader's or downloader's access capacity) to
   saturate freezes all flows through it;
3. repeat with the remaining capacity until every flow is frozen.

:func:`max_min_allocation` runs those rounds vectorised: each round
computes the bottleneck share with one elementwise divide + reduction,
grows every live flow, and charges each node ``increment * live_degree``.
Every operation is an IEEE-754 double operation applied elementwise or
in an order-insensitive reduction, so its rates are bit-identical to a
scalar progressive-filling loop's; that loop lives in the test tree
(``tests/reference_allocator.py``) as the oracle the differential tests
hold this one to.  :func:`resolve_allocator` is where the swarm looks
the allocator up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping

import numpy as _np

NodeId = Hashable


@dataclass
class Flow:
    """One active transfer from ``uploader`` to ``downloader``.

    ``rate`` is filled in by :func:`max_min_allocation` (bytes/second).
    """

    uploader: NodeId
    downloader: NodeId
    rate: float = field(default=0.0, compare=False)


def max_min_allocation(
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

    Unconstrained directions are modelled as infinite-capacity nodes:
    their fair share is always ``inf``, so they never become the
    bottleneck and never saturate.  When *every* live flow is
    unconstrained on both sides the bottleneck share itself is ``inf``
    and the flows are frozen at infinite rate.
    """
    num_flows = len(flows)
    for flow in flows:
        flow.rate = 0.0
    if not flows:
        return

    inf = float("inf")
    # Node tables: one slot per distinct constrained endpoint, plus a
    # shared "unconstrained" slot 0 with infinite capacity.
    node_index: Dict[tuple, int] = {}
    capacities: List[float] = [inf]
    flow_up = _np.zeros(num_flows, dtype=_np.intp)
    flow_down = _np.zeros(num_flows, dtype=_np.intp)
    live = _np.zeros(num_flows, dtype=bool)

    for index, flow in enumerate(flows):
        up_cap = upload_capacity.get(flow.uploader)
        down_cap = download_capacity.get(flow.downloader)
        if (up_cap is not None and up_cap <= epsilon) or (
            down_cap is not None and down_cap <= epsilon
        ):
            continue  # dead flow: rate stays 0, never live
        live[index] = True
        if up_cap is not None:
            key = ("up", flow.uploader)
            slot = node_index.get(key)
            if slot is None:
                slot = node_index[key] = len(capacities)
                capacities.append(up_cap)
            flow_up[index] = slot
        if down_cap is not None:
            key = ("down", flow.downloader)
            slot = node_index.get(key)
            if slot is None:
                slot = node_index[key] = len(capacities)
                capacities.append(down_cap)
            flow_down[index] = slot

    if not live.any():
        return

    num_nodes = len(capacities)
    residual = _np.array(capacities, dtype=_np.float64)
    rates = _np.zeros(num_flows, dtype=_np.float64)

    def live_degree():
        return _np.bincount(
            flow_up[live], minlength=num_nodes
        ) + _np.bincount(flow_down[live], minlength=num_nodes)

    degree = live_degree()
    degree[0] = 0  # the unconstrained slot never constrains anything

    while live.any():
        active_nodes = degree > 0
        if not active_nodes.any():
            rates[live] = inf
            break
        shares = residual[active_nodes] / degree[active_nodes]
        increment = float(shares.min())
        if increment == inf:
            # Only infinite-capacity nodes remain.
            rates[live] = inf
            break
        rates[live] += increment
        residual[active_nodes] -= increment * degree[active_nodes]
        saturated = (residual <= epsilon) & active_nodes
        newly_frozen = live & (saturated[flow_up] | saturated[flow_down])
        if not newly_frozen.any():
            break  # numerical corner: nothing saturated, stop here
        live &= ~newly_frozen
        degree = live_degree()
        degree[0] = 0

    for index, flow in enumerate(flows):
        flow.rate = float(rates[index])


Allocator = Callable[[List[Flow], Mapping, Mapping], None]

def resolve_allocator() -> Allocator:
    """The allocator a swarm runs: :func:`max_min_allocation`."""
    return max_min_allocation


def allocation_summary(flows: List[Flow]) -> Dict[NodeId, float]:
    """Total allocated upload rate per uploader (handy in tests)."""
    totals: Dict[NodeId, float] = {}
    for flow in flows:
        totals[flow.uploader] = totals.get(flow.uploader, 0.0) + flow.rate
    return totals
