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

:func:`max_min_rates` runs those rounds vectorised over node indices: a
flow is the pair of its uploader's and its downloader's node, and one
array holds every node's capacity (``inf`` for a direction without a
cap).  Each round computes the bottleneck share with one elementwise
divide + reduction, grows every live flow, and charges each node
``increment * live_degree``.  Every operation is an IEEE-754 double
operation applied elementwise or in an order-insensitive reduction, so
its rates are bit-identical to a scalar progressive-filling loop's; that
loop lives in the test tree (``tests/reference_allocator.py``) as the
oracle the differential tests hold this one to.
:func:`max_min_allocation` is the same kernel behind a ``Flow`` list and
two capacity maps.  :func:`resolve_allocator` is where the swarm looks
the allocator up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping

import numpy as _np

NodeId = Hashable

INF = float("inf")

# The ufuncs' own reductions: ``ndarray.min`` / ``.any`` are Python-level
# wrappers around exactly these, and the filling loop calls them every
# round.
_minimum = _np.minimum.reduce
_any = _np.logical_or.reduce
_bincount = _np.bincount


@dataclass
class Flow:
    """One active transfer from ``uploader`` to ``downloader``.

    ``rate`` is filled in by :func:`max_min_allocation` (bytes/second).
    """

    uploader: NodeId
    downloader: NodeId
    rate: float = field(default=0.0, compare=False)


def max_min_rates(
    up_nodes: _np.ndarray,
    down_nodes: _np.ndarray,
    capacities: _np.ndarray,
    epsilon: float = 1e-9,
) -> _np.ndarray:
    """Max–min fair rates of the flows ``up_nodes[i] -> down_nodes[i]``.

    The node arrays are ``intp`` indices into ``capacities``, a float64
    array of access-link capacities in bytes/second; ``inf`` marks a
    node without a cap.  An uploader's and a downloader's node are
    distinct entries even for one peer.  A flow through a node whose
    capacity is at most *epsilon* is dead: rate 0.

    An infinite node's fair share is ``inf``, so it never becomes the
    bottleneck and never saturates.  When *every* live flow runs through
    infinite nodes only, the bottleneck share itself is ``inf`` and the
    flows are frozen at infinite rate.

    Every flow still live after round *k* has the same rate, the running
    sum ``level`` of the first *k* increments, so a flow's rate is the
    level at the round it freezes: the additions a per-flow ``+=`` would
    perform, in the same order.
    """
    rates = _np.zeros(len(up_nodes))
    if not len(up_nodes):
        return rates
    live = (capacities[up_nodes] > epsilon) & (capacities[down_nodes] > epsilon)
    if not _any(live):
        return rates
    num_nodes = len(capacities)
    residual = _np.array(capacities, dtype=_np.float64)
    degree = _bincount(up_nodes[live], minlength=num_nodes) + _bincount(
        down_nodes[live], minlength=num_nodes
    )
    level = 0.0
    while True:
        active = degree > 0
        increment = float(_minimum(residual[active] / degree[active]))
        if increment == INF:
            # Only infinite-capacity nodes remain.
            rates[live] = INF
            return rates
        level += increment
        # A node without live flows is charged ``increment * 0``: its
        # residual does not move.
        residual -= increment * degree
        # A saturated node without live flows (a dead one, or one that
        # saturated in an earlier round) freezes nothing: ``live`` masks
        # every flow through it.
        saturated = residual <= epsilon
        frozen = live & (saturated[up_nodes] | saturated[down_nodes])
        if not _any(frozen):
            break  # numerical corner: nothing saturated, stop here
        rates[frozen] = level
        live &= ~frozen
        if not _any(live):
            return rates
        degree -= _bincount(up_nodes[frozen], minlength=num_nodes) + _bincount(
            down_nodes[frozen], minlength=num_nodes
        )
    rates[live] = level
    return rates


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
    Flows whose uploader has zero capacity get rate 0.  The rates are
    :func:`max_min_rates` over one node per (direction, node id).
    """
    nodes: Dict[tuple, int] = {}
    capacities: List[float] = []
    indices: List[int] = []
    for flow in flows:
        for key, caps in (
            (("up", flow.uploader), upload_capacity),
            (("down", flow.downloader), download_capacity),
        ):
            index = nodes.get(key)
            if index is None:
                index = nodes[key] = len(capacities)
                cap = caps.get(key[1])
                capacities.append(INF if cap is None else cap)
            indices.append(index)
    pairs = _np.array(indices, dtype=_np.intp).reshape(-1, 2)
    rates = max_min_rates(
        pairs[:, 0], pairs[:, 1], _np.array(capacities, dtype=_np.float64), epsilon
    )
    for flow, rate in zip(flows, rates.tolist()):
        flow.rate = rate


Allocator = Callable[[_np.ndarray, _np.ndarray, _np.ndarray], _np.ndarray]


def resolve_allocator() -> Allocator:
    """The allocator a swarm runs: :func:`max_min_rates`."""
    return max_min_rates
