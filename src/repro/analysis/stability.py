"""Claim S1: the open-system stability boundary, simulation vs fluid model.

The claim is not the source paper's: it is the RFwPMS result
(arXiv 2211.00213).  In an *open system* leechers arrive as a Poisson
process and depart the instant they finish.  Plain rarest first is then
unstable once arrivals outpace the origin seed's piece rate, and mode
suppression fixes it.  Two sides classify each operating point:

* the **simulation**: :func:`stability_swarms` builds one swarm per
  ``arrival rate x seed upload x policy`` cell, as
  :mod:`repro.analysis.ablations` builds its swarms, and a
  :class:`~repro.workloads.open_system.StabilityDetector` reads its
  leecher-population trajectory;
* the **model**: the open-system extension of
  :class:`~repro.models.fluid.FluidModel` (``seed_capacity``,
  ``seed_departure_rate = inf``) is stable iff it has a finite steady
  state (:func:`classify_fluid`).

**Calibration.**  The fluid effectiveness ``eta`` is per policy.  Plain
rarest first in the one-club regime contributes nothing to completions
— everyone holds the same all-but-one set — so ``eta = 0`` and the only
completion flow is the seed injecting the missing piece at
``seed_upload / piece_size`` completions/s: the swarm is stable iff the
arrival rate stays below that.  Mode suppression keeps chunk diversity,
so leecher-to-leecher exchange works at full effectiveness (``eta = 1``,
the seed merely contributes ``seed_upload / content_size``) and the
swarm self-scales at any arrival rate.  The model assumes one origin
seed and no other: every leecher, burst included, departs on
completion, and the cell has no instrumented local peer to linger.
"""

from __future__ import annotations

import math
from random import Random
from typing import Dict, Optional

from repro.core.rarest_first import make_selector
from repro.models.fluid import FluidModel
from repro.protocol.metainfo import make_metainfo
from repro.sim.churn import flash_crowd, open_system_arrivals
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm
from repro.workloads import INTERNET_2005
from repro.workloads.open_system import StabilityDetector

__all__ = [
    "POLICY_EFFECTIVENESS",
    "S1_POLICIES",
    "classify_fluid",
    "fluid_model_for_policy",
    "s1_cell",
    "stability_swarms",
]

#: Fluid effectiveness ``eta`` per policy (see module docstring).
POLICY_EFFECTIVENESS: Dict[str, float] = {
    "rarest-first": 0.0,
    "mode-suppression": 1.0,
}


def fluid_model_for_policy(
    policy: str,
    arrival_rate: float,
    seed_upload: float,
    piece_size: int,
    content_size: int,
    leecher_upload: Optional[float] = None,
) -> FluidModel:
    """The open-system fluid model for one phase-diagram cell.

    ``leecher_upload`` defaults to the mean of the
    :data:`~repro.workloads.capacities.INTERNET_2005` population mix the
    simulated leechers are drawn from.
    """
    if policy not in POLICY_EFFECTIVENESS:
        raise KeyError(
            "unknown policy %r (have: %s)"
            % (policy, ", ".join(sorted(POLICY_EFFECTIVENESS)))
        )
    if leecher_upload is None:
        leecher_upload = INTERNET_2005.mean_upload()
    eta = POLICY_EFFECTIVENESS[policy]
    if eta > 0:
        seed_capacity = seed_upload / float(content_size)
    else:
        # One-club regime: each seed upload of the missing piece
        # completes exactly one club member.
        seed_capacity = seed_upload / float(piece_size)
    return FluidModel(
        arrival_rate=arrival_rate,
        upload_rate=leecher_upload / float(content_size),
        seed_departure_rate=math.inf,
        effectiveness=eta,
        seed_capacity=seed_capacity,
    )


def classify_fluid(model: FluidModel) -> str:
    """``"stable"`` iff the model has a finite steady state."""
    return "stable" if model.steady_state() is not None else "unstable"


# -- S1: the phase diagram, one swarm per cell ------------------------------

S1_ARRIVAL_RATES = (0.12, 0.35)
S1_SEED_UPLOADS = (16 * KIB, 48 * KIB)
#: Policy -> the selector spec every leecher runs.
S1_POLICIES: Dict[str, str] = {
    "rarest-first": "rarest-first",
    "mode-suppression": "mode-suppression:suppression=0.9",
}
S1_PIECES = 48
S1_PIECE_SIZE = 64 * KIB
S1_BURST = 12
S1_DURATION = 1200.0
S1_INTERVAL = 30.0


def _open_system_run(
    selector: str, arrival_rate: float, seed_upload: float, rng_seed: int
) -> bool:
    """Whether the detector calls one open-system swarm stable."""
    metainfo = make_metainfo(
        "claim-s1", num_pieces=S1_PIECES, piece_size=S1_PIECE_SIZE,
        block_size=16 * KIB,
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=rng_seed))
    # The origin seed never leaves; every leecher departs on completion.
    swarm.add_peer(config=PeerConfig(upload_capacity=seed_upload), is_seed=True)

    def leecher_config(rng: Random) -> PeerConfig:
        upload, download = INTERNET_2005.sample(rng)
        return PeerConfig(
            upload_capacity=upload, download_capacity=download, seeding_time=0.0
        )

    def leecher_kwargs() -> dict:
        # Selectors carry per-peer state: one instance per peer.
        return {"selector": make_selector(selector)}

    flash_crowd(
        swarm, S1_BURST, leecher_config, rng=Random(rng_seed ^ 0xF1A5),
        kwargs_factory=leecher_kwargs,
    )
    open_system_arrivals(
        swarm, arrival_rate, S1_DURATION, leecher_config,
        rng=Random(rng_seed ^ 0xA221), kwargs_factory=leecher_kwargs,
    )
    detector = StabilityDetector(interval=S1_INTERVAL)
    detector.attach(swarm)
    swarm.run(S1_DURATION)
    return detector.finalize().stable


def s1_cell(arrival_rate: float, seed_upload: float) -> str:
    """A grid point's name, e.g. ``"0.35/s,16K"``."""
    return "%g/s,%dK" % (arrival_rate, seed_upload // KIB)


def stability_swarms(rng_seed: int = 3) -> dict:
    """Every cell of the grid: ``{s1_cell(...): {policy: stats}}``, each
    cell's sim and fluid verdicts (True is stable) and whether they
    agree."""
    out: dict = {}
    for arrival_rate in S1_ARRIVAL_RATES:
        for seed_upload in S1_SEED_UPLOADS:
            cell = out[s1_cell(arrival_rate, seed_upload)] = {}
            for policy, selector in S1_POLICIES.items():
                sim = _open_system_run(selector, arrival_rate, seed_upload, rng_seed)
                fluid = classify_fluid(
                    fluid_model_for_policy(
                        policy, arrival_rate, seed_upload,
                        piece_size=S1_PIECE_SIZE,
                        content_size=S1_PIECES * S1_PIECE_SIZE,
                    )
                ) == "stable"
                cell[policy] = {
                    "arrival_rate": arrival_rate,
                    "seed_upload": seed_upload,
                    "sim": sim,
                    "fluid": fluid,
                    "agree": sim == fluid,
                }
    return out
