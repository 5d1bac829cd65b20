"""Analytical models of BitTorrent-like replication (paper §V).

The paper positions its measurements against two analytical studies that
assume global knowledge:

* Yang & de Veciana [25] — branching-process view of the *service
  capacity*, and the minimum distribution time it bounds
  (:mod:`repro.models.service_capacity`);
* Qiu & Srikant [21] — a deterministic fluid model of the leecher/seed
  populations with closed-form steady state
  (:mod:`repro.models.fluid`).

The paper's point — and the reason these live in this repository — is
that "the efficiency on real torrents is close to the one predicted by
the models" even though real peers only have local knowledge.  The
model-vs-simulation comparison is exercised by
``examples/model_vs_simulation.py`` and the model tests.
"""
