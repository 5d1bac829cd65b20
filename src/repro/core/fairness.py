"""Fairness measures over per-peer transfer totals (§IV-B.1).

The paper rejects bit-level tit-for-tat fairness and proposes instead:

1. **Leecher criterion** — any leecher *i* with upload speed ``U_i``
   should get a *lower* download speed than any other leecher *j* with
   upload speed ``U_j > U_i``: contribution orders service, but excess
   capacity may still flow to slow contributors and even free riders.
2. **Seed criterion** — a seed should give the *same service time* to
   each leecher.

The claims read them through figures 9 and 11's aggregations
(:func:`contribution_sets`, :func:`reciprocation_shares`) and, for the
seed criterion, through :func:`jain_index` of the seed-state unchoke
rounds each leecher got (ablation A2).
"""

from __future__ import annotations

import math
from typing import Hashable, List, Mapping, Sequence, Tuple

PeerKey = Hashable


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]."""
    values = [v for v in values if not math.isnan(v)]
    if not values:
        return 1.0
    total = sum(values)
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        return 1.0
    return (total * total) / (len(values) * square_sum)


def contribution_sets(
    totals: Mapping[PeerKey, float], set_size: int = 5, num_sets: int = 6
) -> List[float]:
    """The paper's figures 9/11 aggregation: rank peers by bytes received
    from the local peer, group them in consecutive sets of ``set_size``,
    and return each set's share of the grand total.

    Peers beyond ``num_sets * set_size`` are ignored, as in the figures
    (sets go "from black for the set containing the 5 best remote
    downloaders, to white for the set containing the 25 to 30 best").
    """
    ranked = sorted(totals.items(), key=lambda item: (-item[1], str(item[0])))
    grand_total = sum(totals.values())
    shares: List[float] = []
    for set_index in range(num_sets):
        chunk = ranked[set_index * set_size : (set_index + 1) * set_size]
        chunk_bytes = sum(value for __, value in chunk)
        shares.append(chunk_bytes / grand_total if grand_total > 0 else 0.0)
    return shares


def reciprocation_shares(
    uploaded_to: Mapping[PeerKey, float],
    downloaded_from: Mapping[PeerKey, float],
    set_size: int = 5,
    num_sets: int = 6,
) -> Tuple[List[float], List[float]]:
    """Figure 9's paired view: group peers by bytes *uploaded to* them,
    then report each group's share of bytes uploaded (top graph) and of
    bytes downloaded from leechers (bottom graph).

    The same grouping is used for both directions, which is what exposes
    reciprocation: if choke reciprocates, the black set dominates both.
    """
    ranked = sorted(uploaded_to.items(), key=lambda item: (-item[1], str(item[0])))
    up_total = sum(uploaded_to.values())
    down_total = sum(downloaded_from.get(key, 0.0) for key in uploaded_to)
    up_shares: List[float] = []
    down_shares: List[float] = []
    for set_index in range(num_sets):
        chunk = ranked[set_index * set_size : (set_index + 1) * set_size]
        chunk_up = sum(value for __, value in chunk)
        chunk_down = sum(downloaded_from.get(key, 0.0) for key, __ in chunk)
        up_shares.append(chunk_up / up_total if up_total > 0 else 0.0)
        down_shares.append(chunk_down / down_total if down_total > 0 else 0.0)
    return up_shares, down_shares
