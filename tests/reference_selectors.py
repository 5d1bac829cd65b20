"""The list-based piece selectors, kept as the differential oracle.

These are the ``select`` bodies of ``repro.core.rarest_first``'s five
strategies as they stood when each strategy had a list form beside its
array form: a candidate list in ascending order, an ``availability``
sequence indexed by piece, and plain Python ``min`` / comprehensions /
``rng.choice``.  They are slow and obviously right, which is what
``tests/test_selection_kernel.py`` and the naive picker of
``tests/reference_piece_picker.py`` need to hold the production array
kernels to (same piece or ``None``, same ``rng.getstate()``).

:func:`reference_select` dispatches on the selector's class and reads
the selector's parameters and bound oracles (scarcity, global counts)
off the instance.

Lives in the test tree on purpose: nothing under ``src/`` may import it.
"""

from random import Random
from typing import List, Optional, Sequence

import numpy as np

from repro.core.rarest_first import (
    GlobalRarestSelector,
    ModeSuppressionSelector,
    PieceSelector,
    RandomSelector,
    RarestFirstSelector,
    SequentialSelector,
)


def _rarest_first(selector, candidates, availability, rng):
    rarest_count = min(availability[piece] for piece in candidates)
    rarest_set = [
        piece for piece in candidates if availability[piece] == rarest_count
    ]
    return rng.choice(rarest_set)


def _mode_suppression(selector, candidates, availability, rng):
    offered_min = min(int(availability[piece]) for piece in candidates)
    if selector.suppression > 0.0:
        rarest_wanted = selector._scarcity()
        if rarest_wanted is not None and offered_min > rarest_wanted:
            if rng.random() < selector.suppression:
                return None
    ties = [piece for piece in candidates if availability[piece] == offered_min]
    return rng.choice(ties)


def _random(selector, candidates, availability, rng):
    return rng.choice(candidates)


def _sequential(selector, candidates, availability, rng):
    return min(candidates)


def _global_rarest(selector, candidates, availability, rng):
    counts = selector._global_counts()
    rarest_count = min(counts[piece] for piece in candidates)
    rarest_set = [piece for piece in candidates if counts[piece] == rarest_count]
    return rng.choice(rarest_set)


REFERENCE_SELECT = {
    RarestFirstSelector: _rarest_first,
    ModeSuppressionSelector: _mode_suppression,
    RandomSelector: _random,
    SequentialSelector: _sequential,
    GlobalRarestSelector: _global_rarest,
}


def reference_select(
    selector: PieceSelector,
    candidates: List[int],
    availability: Sequence[int],
    rng: Random,
) -> Optional[int]:
    """The list form of ``selector.select``: *candidates* is a non-empty
    ascending list and ``availability[piece]`` the copies of ``piece``."""
    return REFERENCE_SELECT[type(selector)](selector, candidates, availability, rng)


def kernel_select(
    selector: PieceSelector,
    candidates: List[int],
    availability: Sequence[int],
    rng: Random,
) -> Optional[int]:
    """The production kernel over the same inputs, as the picker hands
    them over: the candidates ascending and their counts gathered."""
    pieces = sorted(candidates)
    return selector.select(
        np.array(pieces, dtype=np.intp),
        np.array([availability[piece] for piece in pieces], dtype=np.int32),
        rng,
    )
