"""Analysis of instrumented-peer traces into the paper's figures.

Each module maps to one group of figures:

* :mod:`repro.analysis.entropy` — figure 1 (peer-availability ratios);
* :mod:`repro.analysis.replication` — figures 2, 3, 4, 6 (copies in the
  peer set, rarest-set size);
* :mod:`repro.analysis.peerset` — figure 5 (peer-set size over time);
* :mod:`repro.analysis.interarrival` — figures 7 and 8 (piece/block
  interarrival CDFs);
* :mod:`repro.analysis.fairness` — figures 9, 10, 11 (contribution sets,
  unchoke/interest correlation, seed service uniformity);
* :mod:`repro.analysis.stats` — shared percentile/CDF helpers;
* :mod:`repro.analysis.stability` — claim S1, the open-system
  stability boundary, simulation vs fluid model.
"""

from repro.analysis.entropy import EntropySummary, entropy_ratios, summarize_entropy
from repro.analysis.fairness import (
    UnchokeCorrelation,
    leecher_contribution,
    seed_contribution,
    unchoke_interest_correlation,
)
from repro.analysis.interarrival import InterarrivalSummary, interarrival_summary
from repro.analysis.peerset import peer_set_series
from repro.analysis.replication import rarest_set_series, replication_series
from repro.analysis.stability import (
    POLICY_EFFECTIVENESS,
    classify_fluid,
    fluid_model_for_policy,
    stability_swarms,
)
from repro.analysis.stats import pearson, percentile

__all__ = [
    "EntropySummary",
    "InterarrivalSummary",
    "POLICY_EFFECTIVENESS",
    "UnchokeCorrelation",
    "classify_fluid",
    "entropy_ratios",
    "fluid_model_for_policy",
    "interarrival_summary",
    "leecher_contribution",
    "pearson",
    "peer_set_series",
    "percentile",
    "rarest_set_series",
    "replication_series",
    "seed_contribution",
    "stability_swarms",
    "summarize_entropy",
    "unchoke_interest_correlation",
]
