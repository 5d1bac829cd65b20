"""Open-system stability classification and sim-vs-fluid phase diagrams.

Ties the three layers of the flash-crowd subsystem together:

* the **simulation** side: open-system campaign shards (scenarios
  ``flash-crowd`` / ``flash-crowd-suppress``) carry a
  :class:`~repro.workloads.open_system.StabilityDetector` verdict in
  their record summary;
* the **model** side: the open-system extension of
  :class:`~repro.models.fluid.FluidModel` (``seed_capacity``,
  ``seed_departure_rate = inf``) classifies the same operating point
  analytically — stable iff a finite steady state exists;
* the **phase diagram**: :func:`phase_diagram` sweeps an
  ``arrival rate x seed capacity x policy`` grid through the campaign
  runner (one cached shard per cell) and cross-validates the two
  classifications cell by cell.

**Calibration.**  The fluid effectiveness ``eta`` is per policy.  Plain
rarest first in the one-club regime contributes nothing to completions
— everyone holds the same all-but-one set — so ``eta = 0`` and the only
completion flow is the seed injecting the missing piece at
``seed_upload / piece_size`` completions/s: the swarm is stable iff the
arrival rate stays below that.  Mode suppression keeps chunk diversity,
so leecher-to-leecher exchange works at full effectiveness (``eta = 1``,
the seed merely contributes ``seed_upload / content_size``) and the
swarm self-scales at any arrival rate.  This reproduces the qualitative
RFwPMS result: cells with ``arrival_rate > seed_upload / piece_size``
are unstable under rarest first and stable under mode suppression.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import (
    DEFAULT_CAMPAIGN_SEED,
    SCENARIOS,
    CampaignSpec,
)
from repro.models.fluid import FluidModel
from repro.workloads import INTERNET_2005, resolve_scenario

__all__ = [
    "POLICY_EFFECTIVENESS",
    "POLICY_SCENARIOS",
    "classify_fluid",
    "classify_record",
    "fluid_model_for_policy",
    "phase_diagram",
]

#: Campaign scenario implementing each policy's open-system run.
POLICY_SCENARIOS: Dict[str, str] = {
    "rarest-first": "flash-crowd",
    "mode-suppression": "flash-crowd-suppress",
}

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
    campaign shards actually sample from.
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


def classify_record(record: dict) -> Optional[str]:
    """The sim-side verdict stored in a campaign shard record, if any."""
    stability = (record.get("summary") or {}).get("stability")
    if stability is None or record.get("status") != "ok":
        return None
    return "stable" if stability.get("stable") else "unstable"


def _cell_geometry(scenario_name: str, torrent_id: int) -> Tuple[int, int]:
    """(piece_size, content_size) of a cell after variant overrides."""
    scenario = resolve_scenario(torrent_id, SCENARIOS[scenario_name].options)
    return scenario.piece_size, scenario.content_size


def phase_diagram(
    arrival_rates: Sequence[float],
    seed_uploads: Sequence[float],
    policies: Sequence[str] = ("rarest-first", "mode-suppression"),
    torrent_id: int = 2,
    cache_dir: Optional[str] = None,
    workers: int = 1,
    campaign_seed: int = DEFAULT_CAMPAIGN_SEED,
    duration: Optional[float] = None,
    timeout: Optional[float] = None,
    progress=None,
) -> dict:
    """Run (or resume from cache) the full stability phase diagram.

    One campaign per ``(arrival_rate, seed_upload)`` point covering
    every policy's scenario, all sharing *cache_dir*, so a re-run is a
    pure cache hit and adding grid points only executes the new cells.
    Returns a JSON-ready matrix: one entry per cell with the sim
    verdict, the fluid verdict, and whether they agree.
    """
    scenarios = tuple(POLICY_SCENARIOS[policy] for policy in policies)
    cells: List[dict] = []
    for arrival_rate in arrival_rates:
        for seed_upload in seed_uploads:
            spec = CampaignSpec(
                name="stability-a%g-s%g" % (arrival_rate, seed_upload),
                torrent_ids=(torrent_id,),
                scenarios=scenarios,
                campaign_seed=campaign_seed,
                duration=duration,
                arrival_rate=float(arrival_rate),
                seed_upload=float(seed_upload),
            )
            runner = CampaignRunner(
                spec,
                cache_dir=cache_dir,
                workers=workers,
                timeout=timeout,
                progress=progress,
            )
            result = runner.run()
            for policy in policies:
                scenario_name = POLICY_SCENARIOS[policy]
                record = next(
                    (
                        rec
                        for rec in result.records.values()
                        if rec.get("scenario") == scenario_name
                    ),
                    None,
                )
                sim = classify_record(record) if record is not None else None
                piece_size, content_size = _cell_geometry(
                    scenario_name, torrent_id
                )
                model = fluid_model_for_policy(
                    policy,
                    arrival_rate,
                    seed_upload,
                    piece_size=piece_size,
                    content_size=content_size,
                )
                fluid = classify_fluid(model)
                cell = {
                    "arrival_rate": arrival_rate,
                    "seed_upload": seed_upload,
                    "policy": policy,
                    "scenario": scenario_name,
                    "sim": sim,
                    "fluid": fluid,
                    "agree": (sim is not None and sim == fluid),
                    "seed_piece_rate": seed_upload / float(piece_size),
                }
                if record is not None:
                    cell["shard_id"] = record.get("shard_id")
                    cell["stability"] = (record.get("summary") or {}).get(
                        "stability"
                    )
                cells.append(cell)
    classified = [cell for cell in cells if cell["sim"] is not None]
    return {
        "grid": {
            "arrival_rates": list(arrival_rates),
            "seed_uploads": list(seed_uploads),
            "policies": list(policies),
            "torrent_id": torrent_id,
            "campaign_seed": campaign_seed,
        },
        "cells": cells,
        "agreement": {
            "agreeing": sum(1 for cell in classified if cell["agree"]),
            "classified": len(classified),
            "total": len(cells),
        },
    }
