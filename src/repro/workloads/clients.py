"""Client-implementation mix.

The paper's peer-identification section (§III-D) observes "around 20
different BitTorrent clients, each client existing in several different
versions".  This module provides a representative 2005/2006 mix so that
simulated populations carry realistic client IDs (Azureus dominated,
then mainline, BitComet, uTorrent's first releases, BitTornado, ...),
which the instrumentation records per remote peer.
"""

from __future__ import annotations

from random import Random
from typing import Sequence, Tuple

CLIENT_MIX_2005: Sequence[Tuple[str, float]] = (
    ("-AZ2304", 0.35),  # Azureus
    ("M4-0-2", 0.20),   # mainline 4.0.2, the instrumented client's kin
    ("-BC0059", 0.15),  # BitComet
    ("-UT1300", 0.10),  # uTorrent 1.3
    ("T03I----", 0.08),  # BitTornado (shadow-style)
    ("-lt0B01", 0.06),  # libtorrent
    ("-TR0006", 0.04),  # Transmission
    ("-BB0021", 0.02),  # BitBuddy
)


def sample_client_id(rng: Random, mix: Sequence[Tuple[str, float]] = CLIENT_MIX_2005) -> str:
    """Draw one client ID from the weighted *mix*."""
    total = sum(weight for __, weight in mix)
    point = rng.uniform(0.0, total)
    acc = 0.0
    for client_id, weight in mix:
        acc += weight
        if point <= acc:
            return client_id
    return mix[-1][0]
