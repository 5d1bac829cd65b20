"""The paper's primary contribution: BitTorrent's two core algorithms.

* :mod:`repro.core.rarest_first` — the local rarest first piece-selection
  algorithm with its three auxiliary policies (random first, strict
  priority, end game mode) plus random / sequential / global-rarest
  baselines;
* :mod:`repro.core.piece_picker` — availability accounting, partial-piece
  tracking and block scheduling shared by every strategy;
* :mod:`repro.core.choke` — the choke peer-selection algorithm: leecher
  state, the *new* seed state (SKU/SRU round robin of mainline ≥ 4.0.0),
  the old rate-based seed state, and a bit-level tit-for-tat baseline;
* :mod:`repro.core.rate_estimator` — the sliding-window transfer-rate
  estimator feeding the choke algorithm;
* :mod:`repro.core.peer_core` — the client that runs the two algorithms:
  what a peer does on each peer-wire message, transport-free, under both
  the simulator's ``Peer`` and the live ``NetPeer``;
* :mod:`repro.core.fairness` — Jain's index and the contribution-set
  aggregations the fairness claims read (§IV-B.1);
* :mod:`repro.core.free_rider` — free-riding client behaviour.
"""
