"""Workloads: the paper's 26 torrents (Table I), scaled for simulation."""

from repro.workloads.capacities import (
    CapacityClass,
    CapacityDistribution,
    INTERNET_2005,
    uniform_capacity,
)
from repro.workloads.clients import CLIENT_MIX_2005, client_share, sample_client_id
from repro.workloads.open_system import (
    StabilityDetector,
    StabilitySample,
    StabilityVerdict,
    classify_samples,
)
from repro.workloads.torrents import (
    TABLE1,
    ExperimentHarness,
    RunOptions,
    TorrentScenario,
    build_experiment,
    resolve_scenario,
    scaled_copy,
    scenario_by_id,
)

__all__ = [
    "CLIENT_MIX_2005",
    "CapacityClass",
    "CapacityDistribution",
    "ExperimentHarness",
    "INTERNET_2005",
    "RunOptions",
    "StabilityDetector",
    "StabilitySample",
    "StabilityVerdict",
    "TABLE1",
    "TorrentScenario",
    "classify_samples",
    "scaled_copy",
    "build_experiment",
    "client_share",
    "resolve_scenario",
    "sample_client_id",
    "scenario_by_id",
    "uniform_capacity",
]
