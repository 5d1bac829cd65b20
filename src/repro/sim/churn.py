"""Arrival and departure processes.

Real torrents are dynamic: leechers arrive over time (flash crowds at
torrent birth, or a steady Poisson stream), complete and linger as
seeds or leave on completion.  This module provides those arrival
processes as composable generators over a
:class:`~repro.sim.swarm.Swarm`.
"""

from __future__ import annotations

import dataclasses
from random import Random
from typing import Callable, Optional

from repro.sim.config import PeerConfig
from repro.sim.swarm import Swarm

PeerConfigFactory = Callable[[Random], PeerConfig]


def poisson_arrivals(
    swarm: Swarm,
    rate: float,
    duration: float,
    config_factory: PeerConfigFactory,
    rng: Optional[Random] = None,
    start: float = 0.0,
    kwargs_factory: Optional[Callable[[], dict]] = None,
    **add_peer_kwargs,
) -> int:
    """Schedule Poisson leecher arrivals at *rate* peers/second.

    Returns the number of arrivals scheduled.  Each arrival gets a fresh
    :class:`PeerConfig` from *config_factory*; *kwargs_factory* (when
    given) produces fresh per-peer ``add_peer`` keyword arguments, so
    stateful objects like chokers are never shared between peers.
    """
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    rng = rng or Random(swarm.rng.getrandbits(64))
    count = 0
    # ``start`` may lie before the current simulated clock (e.g. a churn
    # process attached mid-run with start=0): arrivals whose time has
    # already passed are clamped to "now" by schedule_arrival below.
    when = start + rng.expovariate(rate)
    while when < start + duration:
        config = config_factory(rng)
        kwargs = dict(add_peer_kwargs)
        if kwargs_factory is not None:
            kwargs.update(kwargs_factory())
        swarm.schedule_arrival(when - swarm.simulator.now, config=config, **kwargs)
        count += 1
        when += rng.expovariate(rate)
    return count


def flash_crowd(
    swarm: Swarm,
    num_peers: int,
    config_factory: PeerConfigFactory,
    rng: Optional[Random] = None,
    spread: float = 60.0,
    kwargs_factory: Optional[Callable[[], dict]] = None,
    **add_peer_kwargs,
) -> int:
    """Schedule *num_peers* arrivals uniformly inside the first *spread*
    seconds: the torrent-birth flash crowd of [25].  *kwargs_factory*
    produces fresh per-peer ``add_peer`` keyword arguments (selectors,
    chokers) so stateful strategies are never shared."""
    rng = rng or Random(swarm.rng.getrandbits(64))
    for __ in range(num_peers):
        delay = rng.uniform(0.0, spread)
        config = config_factory(rng)
        kwargs = dict(add_peer_kwargs)
        if kwargs_factory is not None:
            kwargs.update(kwargs_factory())
        swarm.schedule_arrival(delay, config=config, **kwargs)
    return num_peers


def open_system_arrivals(
    swarm: Swarm,
    rate: float,
    duration: float,
    config_factory: PeerConfigFactory,
    rng: Optional[Random] = None,
    start: float = 0.0,
    kwargs_factory: Optional[Callable[[], dict]] = None,
    **add_peer_kwargs,
) -> int:
    """Poisson arrivals with departure-on-completion: the open system of
    the fluid models ([26], arXiv 2211.00213).

    Identical to :func:`poisson_arrivals` except every arriving peer's
    ``seeding_time`` is forced to ``0.0`` — it departs the instant it
    becomes a seed, so the swarm never accumulates altruistic seeds and
    stability rests entirely on leecher-to-leecher chunk diversity.
    This is the regime where plain rarest first collapses into the
    one-club / missing-piece syndrome once the arrival rate exceeds the
    initial seed's rare-piece service rate.
    """
    def depart_on_completion(factory_rng: Random) -> PeerConfig:
        return dataclasses.replace(config_factory(factory_rng), seeding_time=0.0)

    return poisson_arrivals(
        swarm,
        rate,
        duration,
        depart_on_completion,
        rng=rng,
        start=start,
        kwargs_factory=kwargs_factory,
        **add_peer_kwargs,
    )
