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

Two implementations share this module:

* :func:`max_min_allocation` — the pure-python reference.  One
  progressive-filling pass per simulation tick over the active flows,
  with per-node degree counters so each pass costs
  O(iterations x (nodes + flows)).
* :func:`max_min_allocation_numpy` — the vectorized path used by large
  swarms.  Same rounds, same arithmetic: each round computes the
  bottleneck share with one elementwise divide + reduction, grows every
  live flow, and charges each node ``increment * live_degree`` exactly
  as the reference does, so the two paths produce **bit-identical**
  rates (every operation is the same IEEE-754 double operation applied
  in an order-insensitive reduction or elementwise).

:func:`resolve_allocator` picks the vectorized path when numpy is
importable and the reference otherwise: the reference is the numpy-free
fallback and, for that reason, the oracle of the differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping

try:  # numpy is an optional dependency; every caller must tolerate None
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

HAVE_NUMPY = _np is not None

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


def max_min_allocation_numpy(
    flows: List[Flow],
    upload_capacity: Mapping[NodeId, float],
    download_capacity: Mapping[NodeId, float],
    epsilon: float = 1e-9,
) -> None:
    """Vectorized progressive filling; bit-identical to the reference.

    Unconstrained directions are modelled as infinite-capacity nodes:
    their fair share is always ``inf``, so they never become the
    bottleneck and never saturate — exactly the reference's behaviour of
    leaving them out of the residual map.  When *every* live flow is
    unconstrained on both sides the bottleneck share itself is ``inf``
    and the flows are frozen at infinite rate, mirroring the reference's
    ``bottleneck_share is None`` branch.
    """
    if _np is None:  # pragma: no cover - callers gate on HAVE_NUMPY
        raise RuntimeError("numpy is not available; use max_min_allocation")
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
            # Only infinite-capacity nodes remain: the reference's
            # "bottleneck_share is None" branch.
            rates[live] = inf
            break
        rates[live] += increment
        residual[active_nodes] -= increment * degree[active_nodes]
        saturated = (residual <= epsilon) & active_nodes
        newly_frozen = live & (saturated[flow_up] | saturated[flow_down])
        if not newly_frozen.any():
            break  # numerical corner, as in the reference
        live &= ~newly_frozen
        degree = live_degree()
        degree[0] = 0

    for index, flow in enumerate(flows):
        flow.rate = float(rates[index])


Allocator = Callable[[List[Flow], Mapping, Mapping], None]

def resolve_allocator() -> Allocator:
    """The vectorized max–min path when numpy is importable, the
    reference otherwise — safe because the two are bit-identical."""
    return max_min_allocation_numpy if HAVE_NUMPY else max_min_allocation


def allocation_summary(flows: List[Flow]) -> Dict[NodeId, float]:
    """Total allocated upload rate per uploader (handy in tests)."""
    totals: Dict[NodeId, float] = {}
    for flow in flows:
        totals[flow.uploader] = totals.get(flow.uploader, 0.0) + flow.rate
    return totals
