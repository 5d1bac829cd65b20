"""Yang & de Veciana's service-capacity bound [25] (paper §I, §IV-A).

In a flash crowd the capacity of service grows exponentially: each
served copy can itself serve, so a piece the source has pushed is
replicated with doubling behaviour — the reason "available pieces are
replicated with an exponential capacity of service but rare pieces are
served by the initial seed at a constant rate" (§IV-A.1).  The bound
that follows, the **minimum distribution time** for one content of size
``s`` from a source of upload capacity ``u`` to ``n`` identical peers
of capacity ``b``, is ``(s/u) + log2(n) * (s/b)``-shaped: one source
copy plus a binary relay tree.  ``examples/model_vs_simulation.py``
holds the simulator against it.
"""

from __future__ import annotations

import math


def minimum_distribution_time(
    content_size: float,
    source_upload: float,
    peer_upload: float,
    num_peers: int,
    num_pieces: int = 1,
) -> float:
    """Lower bound on distributing the content to ``num_peers`` peers.

    With the content split in ``num_pieces`` pieces and pipelined relay
    (the benefit [25] and [6] attribute to splitting), the bound is::

        content/source_upload            (the source pushes one copy)
      + ceil(log2(n)) * piece/peer_upload  (the last piece's relay depth)

    With one piece (no splitting) the whole content pays the relay
    depth, which is why splitting is "a key improvement" (§I).
    """
    if content_size <= 0 or source_upload <= 0 or peer_upload <= 0:
        raise ValueError("sizes and capacities must be positive")
    if num_peers < 1 or num_pieces < 1:
        raise ValueError("num_peers and num_pieces must be >= 1")
    source_time = content_size / source_upload
    piece_size = content_size / num_pieces
    relay_depth = math.ceil(math.log2(num_peers)) if num_peers > 1 else 0
    return source_time + relay_depth * piece_size / peer_upload
