"""Discrete-event BitTorrent swarm simulator.

This package is the substrate the paper's live-torrent experiments run on
in this reproduction.  It provides:

* :mod:`repro.sim.engine` — a deterministic discrete-event loop;
* :mod:`repro.sim.bandwidth` — max–min fair fluid bandwidth allocation;
* :mod:`repro.sim.config` — all protocol constants (defaults match the
  paper's section III-C);
* :mod:`repro.sim.connection` — per-link protocol state;
* :mod:`repro.sim.peer` — a complete BitTorrent client;
* :mod:`repro.sim.swarm` — scenario orchestration;
* :mod:`repro.sim.churn` — arrival/departure processes.
"""
