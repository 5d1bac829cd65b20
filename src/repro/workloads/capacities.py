"""Peer access-capacity distributions.

The paper runs against live 2005/2006 Internet peers: a mix of
asymmetric home broadband (ADSL/cable), a few fast academic or seedbox
hosts, and a tail of very slow uploaders.  ``INTERNET_2005`` reproduces
that mix; an experiment can substitute any other
:class:`CapacityDistribution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import List, Optional, Sequence, Tuple

KIB = 1024


@dataclass(frozen=True)
class CapacityClass:
    """One access-link class: (weight, upload B/s, download B/s|None)."""

    weight: float
    upload: float
    download: Optional[float]
    label: str = ""


class CapacityDistribution:
    """Weighted mixture of capacity classes."""

    def __init__(self, classes: Sequence[CapacityClass]):
        if not classes:
            raise ValueError("need at least one capacity class")
        total = sum(c.weight for c in classes)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self._classes = list(classes)
        self._total = total

    def sample(self, rng: Random) -> Tuple[float, Optional[float]]:
        """Draw one (upload, download) pair."""
        point = rng.uniform(0.0, self._total)
        acc = 0.0
        for capacity_class in self._classes:
            acc += capacity_class.weight
            if point <= acc:
                return capacity_class.upload, capacity_class.download
        last = self._classes[-1]
        return last.upload, last.download

    @property
    def classes(self) -> List[CapacityClass]:
        return list(self._classes)

    def mean_upload(self) -> float:
        return (
            sum(c.weight * c.upload for c in self._classes) / self._total
        )


INTERNET_2005 = CapacityDistribution(
    [
        CapacityClass(0.20, 10 * KIB, 120 * KIB, "slow ADSL"),
        CapacityClass(0.40, 20 * KIB, 250 * KIB, "ADSL"),
        CapacityClass(0.25, 50 * KIB, 500 * KIB, "cable"),
        CapacityClass(0.10, 100 * KIB, 1000 * KIB, "fast cable/FTTH"),
        CapacityClass(0.05, 400 * KIB, None, "academic/seedbox"),
    ]
)
"""Heterogeneous, mostly asymmetric mix modelled on 2005 access links."""
