"""The Qiu–Srikant deterministic fluid model of BitTorrent [21].

State variables: ``x(t)`` leechers, ``y(t)`` seeds.  Parameters:

* ``lam``    — leecher arrival rate (peers/s);
* ``mu``     — upload capacity of a peer (contents/s, i.e. bytes/s
  divided by the content size);
* ``c``      — download capacity in the same unit;
* ``theta``  — rate at which leechers abort;
* ``gamma``  — rate at which seeds depart;
* ``eta``    — *effectiveness* of file sharing, the probability a
  leecher holds something another peer wants (the quantity the rarest
  first algorithm drives to ~1; the paper's entropy measurements are an
  empirical estimate of it).
* ``c0``     — *seed capacity*: completions/s injected by a permanent
  initial seed that never counts in ``y`` (open-system extension).

Dynamics (equations (1) of [21], plus the fixed-seed term)::

    dx/dt = lam - theta*x - min(c*x, mu*(eta*x + y) + c0)
    dy/dt =      min(c*x, mu*(eta*x + y) + c0) - gamma*y

The download-completion flow is the min of total download and total
upload capacity.  In steady state with a download-unconstrained swarm,
the mean download time is ``T = x* / (lam - theta*x*)`` by Little's law,
with the closed form ``1/T = eta*mu + ... `` discussed in [21].

The *open system* of the missing-piece-syndrome literature (departure
on completion, a lone persistent seed) is the limit
``seed_departure_rate = inf`` (volunteer seeds leave instantly, ``y``
pinned at 0) with ``seed_capacity > 0``.  There the model has a hard
stability boundary: with per-policy effectiveness ``eta`` the swarm is
stable iff ``lam <= c0 + eta*mu*x`` can balance arrivals — for the
one-club regime of plain rarest first (``eta ~ 0``) that degenerates to
``lam <= c0``, while mode suppression keeps ``eta ~ 1`` and the swarm
self-scales.  :meth:`FluidModel.steady_state` returns ``None`` exactly
on the unstable side; :mod:`repro.analysis.stability` builds the
sim-vs-fluid phase diagrams on top of that predicate.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass(frozen=True)
class FluidState:
    """One sample of the fluid trajectory."""

    time: float
    leechers: float
    seeds: float

    @property
    def total(self) -> float:
        return self.leechers + self.seeds


class FluidModel:
    """Integrate the Qiu–Srikant ODEs with a simple RK4 stepper."""

    def __init__(
        self,
        arrival_rate: float,
        upload_rate: float,
        download_rate: float = float("inf"),
        abort_rate: float = 0.0,
        seed_departure_rate: float = 0.0,
        effectiveness: float = 1.0,
        seed_capacity: float = 0.0,
    ):
        if arrival_rate < 0 or upload_rate <= 0:
            raise ValueError("arrival_rate must be >= 0, upload_rate > 0")
        if not 0.0 <= effectiveness <= 1.0:
            raise ValueError("effectiveness must be in [0, 1]")
        if download_rate <= 0:
            raise ValueError("download_rate must be positive")
        if seed_capacity < 0:
            raise ValueError("seed_capacity must be >= 0")
        if abort_rate < 0 or seed_departure_rate < 0:
            raise ValueError("abort_rate and seed_departure_rate must be >= 0")
        self.lam = arrival_rate
        self.mu = upload_rate
        self.c = download_rate
        self.theta = abort_rate
        self.gamma = seed_departure_rate
        self.eta = effectiveness
        self.c0 = seed_capacity

    # -- dynamics -----------------------------------------------------------

    def completion_flow(self, leechers: float, seeds: float) -> float:
        """Content completions per second at the given populations."""
        if math.isinf(self.c):
            download = math.inf if leechers > 0 else 0.0
        else:
            download = self.c * leechers
        upload = self.mu * (self.eta * leechers + seeds) + self.c0
        return min(download, upload)

    def derivatives(self, leechers: float, seeds: float) -> Tuple[float, float]:
        flow = self.completion_flow(leechers, seeds)
        dx = self.lam - self.theta * leechers - flow
        if math.isinf(self.gamma):
            # Open system: completed peers vanish instantly, the seed
            # population is identically zero.
            dy = 0.0
        else:
            dy = flow - self.gamma * seeds
        return dx, dy

    def integrate(
        self,
        duration: float,
        dt: float = 0.5,
        initial_leechers: float = 0.0,
        initial_seeds: float = 1.0,
        observer: Optional[Callable[[FluidState], None]] = None,
    ) -> List[FluidState]:
        """RK4 trajectory from the given initial populations.

        A step never creates peers: completions beyond the leechers there
        were are taken back out of ``y``, so ``x + y`` stays within the
        initial populations plus ``lam * t``.  A departure rate the step
        cannot resolve (``rate * dt > 1``) is refused rather than
        integrated into overflow; ``seed_departure_rate = inf`` is the
        instant-departure limit.
        """
        if duration <= 0 or dt <= 0:
            raise ValueError("duration and dt must be positive")
        for name, rate in (("abort_rate", self.theta),
                           ("seed_departure_rate", self.gamma)):
            if math.isfinite(rate) and rate * dt > 1:
                raise ValueError(
                    "%s * dt = %g is too stiff for the step (must be <= 1)"
                    % (name, rate * dt)
                )
        open_system = math.isinf(self.gamma)
        x, y = float(initial_leechers), float(initial_seeds)
        if open_system:
            y = 0.0
        states = [FluidState(0.0, x, y)]
        steps = int(round(duration / dt))
        time = 0.0
        for __ in range(steps):
            k1x, k1y = self.derivatives(x, y)
            k2x, k2y = self.derivatives(x + dt * k1x / 2, y + dt * k1y / 2)
            k3x, k3y = self.derivatives(x + dt * k2x / 2, y + dt * k2y / 2)
            k4x, k4y = self.derivatives(x + dt * k3x, y + dt * k3y)
            x += dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
            y += dt / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
            if x < 0:
                # The step completed more leechers than there were (with
                # unconstrained download the flow jumps at x = 0): the
                # excess never became seeds.
                if not open_system:
                    y += x
                x = 0.0
            y = max(y, 0.0)
            time += dt
            state = FluidState(time, x, y)
            states.append(state)
            if observer is not None:
                observer(state)
        return states

    # -- steady state ---------------------------------------------------------

    def steady_state(self) -> Optional[FluidState]:
        """The closed-form equilibrium of [21], when one exists.

        With ``gamma > 0`` and upload-constrained service (the regime of
        the paper's torrents) the equilibrium download time is::

            1/T = eta*mu*(1 + eta*mu/gamma') with the [21] normalisation

        here computed directly by solving the flow-balance equations:
        ``lam = theta*x* + flow`` and ``flow = gamma*y*``.
        """
        if self.lam == 0:
            return FluidState(float("inf"), 0.0, 0.0)
        if self.gamma <= 0:
            return None  # seeds accumulate forever, no finite equilibrium
        # Try the upload-constrained branch first.  With the fixed-seed
        # term c0 and y = flow/gamma (y = 0 when gamma is infinite):
        # flow = mu*eta*x + c0 + mu*flow/gamma
        #   =>  flow*(1 - mu/gamma) = mu*eta*x + c0
        denominator = (
            1.0 if math.isinf(self.gamma) else 1.0 - self.mu / self.gamma
        )
        if denominator > 0:
            # flow = (mu*eta*x + c0)/denominator; combined with
            # lam = theta*x + flow:
            #   lam - c0/denominator = x*(theta + mu*eta/denominator)
            drain = self.theta + self.mu * self.eta / denominator
            surplus = self.lam - self.c0 / denominator
            if drain <= 0:
                # No leecher-driven service at all (eta = 0, no aborts):
                # the fixed seed is the only sink.  Stable iff it keeps
                # up with arrivals — the missing-piece-syndrome boundary.
                if surplus > 0:
                    return None
                x_star = 0.0
                flow = self.lam
            elif surplus <= 0:
                # The fixed seed alone absorbs the arrival flow.
                x_star = 0.0
                flow = self.lam
            else:
                x_star = surplus / drain
                flow = (self.mu * self.eta * x_star + self.c0) / denominator
        else:
            # Upload capacity outgrows demand: service becomes
            # download-constrained; flow = c*x.
            if self.c == float("inf"):
                # Downloads complete instantly in the limit; equilibrium
                # has x* -> 0 with flow = lam - theta*x* -> lam.
                flow = self.lam
                x_star = 0.0
            else:
                x_star = self.lam / (self.theta + self.c)
                flow = self.c * x_star
        y_star = 0.0 if math.isinf(self.gamma) else flow / self.gamma
        return FluidState(float("inf"), x_star, y_star)

    def mean_download_time(self) -> Optional[float]:
        """Little's-law mean download time at equilibrium."""
        equilibrium = self.steady_state()
        if equilibrium is None:
            return None
        throughput = self.lam - self.theta * equilibrium.leechers
        if throughput <= 0:
            return None
        return equilibrium.leechers / throughput
