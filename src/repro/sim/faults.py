"""Seeded, deterministic fault injection.

The paper's measurements come from *live* torrents full of flaky peers:
lossy links, clients that vanish mid-download, trackers that time out,
and pieces that fail their hash check (§III-D filters the resulting
"noise" peers; hash failures are logged events).  This module injects
exactly those faults into a simulated swarm, deterministically:

* a :class:`FaultPlan` is built from a
  :class:`~repro.sim.config.FaultConfig` and one dedicated ``Random``
  stream, so the same seed and config reproduce the same faults;
* per-link message loss/duplication and extra delivery jitter are
  decided in :meth:`FaultPlan.deliveries`, consulted by
  :meth:`repro.sim.peer.Peer._send`;
* abrupt peer crashes (:meth:`repro.sim.peer.Peer.crash`) are driven by
  the swarm's crash sweep through :meth:`FaultPlan.should_crash`;
* tracker outage windows make :meth:`repro.tracker.tracker.Tracker.announce`
  raise :class:`~repro.tracker.tracker.TrackerUnavailable`; peers retry
  with the exponential backoff of :meth:`FaultPlan.retry_delay`;
* piece corruption feeds the existing ``on_hash_failure``/``reset_piece``
  path through :meth:`FaultPlan.should_fail_hash`.

Everything injected is tallied in :attr:`FaultPlan.stats`, the
swarm-wide counterpart of the local-peer counters kept by
:class:`repro.instrumentation.logger.Instrumentation.fault_counters`.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from typing import Dict, List

from repro.protocol.messages import (
    Bitfield as BitfieldMessage,
    Message,
    Piece,
)
from repro.sim.config import (
    ANNOUNCE_RETRY_BASE_SECONDS,
    ANNOUNCE_RETRY_CAP_SECONDS,
    ANNOUNCE_RETRY_JITTER,
    FaultConfig,
)


class FaultPlan:
    """Runtime fault decisions for one swarm, from one seeded stream."""

    def __init__(self, config: FaultConfig, rng: Random):
        if not config.enabled:
            raise ValueError("FaultPlan requires an enabled FaultConfig")
        self.config = config
        self._rng = rng
        self.stats: Counter = Counter()

    # -- per-link message faults -------------------------------------------

    @property
    def affects_messages(self) -> bool:
        return bool(
            self.config.message_loss_rate > 0
            or self.config.message_duplicate_rate > 0
            or self.config.extra_jitter > 0
        )

    def deliveries(self, message: Message) -> List[float]:
        """Extra delivery delays for each copy of *message* to deliver.

        An empty list means the message is lost.  ``[0.0]`` is the
        clean single delivery; a second entry is a duplicate.  BITFIELD
        messages are never lost or duplicated (they model the reliable
        handshake); PIECE messages are never duplicated.
        """
        config = self.config
        if isinstance(message, BitfieldMessage):
            return [self._jitter()]
        if config.message_loss_rate > 0 and self._rng.random() < config.message_loss_rate:
            self.stats["messages_dropped"] += 1
            return []
        delays = [self._jitter()]
        if (
            config.message_duplicate_rate > 0
            and not isinstance(message, Piece)
            and self._rng.random() < config.message_duplicate_rate
        ):
            self.stats["messages_duplicated"] += 1
            delays.append(self._jitter())
        return delays

    def _jitter(self) -> float:
        if self.config.extra_jitter <= 0:
            return 0.0
        return self._rng.uniform(0.0, self.config.extra_jitter)

    # -- crashes ------------------------------------------------------------

    def should_crash(self) -> bool:
        """One crash-sweep draw for one online peer."""
        return (
            self.config.crash_probability > 0
            and self._rng.random() < self.config.crash_probability
        )

    # -- announce retry (the outage windows live on the Tracker) -------------

    def retry_delay(self, attempt: int, rng: Random) -> float:
        """Exponential backoff with jitter for announce retry *attempt*.

        *rng* is the retrying peer's own stream, so concurrent retries
        across the population do not perturb each other's schedules
        through the shared plan stream.
        """
        delay = min(ANNOUNCE_RETRY_CAP_SECONDS,
                    ANNOUNCE_RETRY_BASE_SECONDS * (2.0 ** attempt))
        return delay * (
            1.0 + rng.uniform(-ANNOUNCE_RETRY_JITTER, ANNOUNCE_RETRY_JITTER)
        )

    # -- piece corruption -----------------------------------------------------

    def should_fail_hash(self) -> bool:
        """One draw per completed piece."""
        if self.config.hash_failure_rate <= 0:
            return False
        if self._rng.random() < self.config.hash_failure_rate:
            self.stats["hash_failures_injected"] += 1
            return True
        return False

    def __repr__(self) -> str:
        return "FaultPlan(%r, %d faults injected)" % (
            self.config, sum(self.stats.values())
        )


# CLI/experiment presets (`repro run --faults light`): "light" is the
# acceptance scenario of a real-world flaky swarm (1-2% loss, one
# tracker outage); "heavy" adds crashes, duplication and corruption.
FAULT_PRESETS: Dict[str, FaultConfig] = {
    "light": FaultConfig(
        message_loss_rate=0.02,
        extra_jitter=0.05,
        hash_failure_rate=0.002,
        tracker_outages=((600.0, 60.0),),
    ),
    "heavy": FaultConfig(
        message_loss_rate=0.05,
        message_duplicate_rate=0.01,
        extra_jitter=0.25,
        crash_probability=0.01,
        crash_interval=120.0,
        hash_failure_rate=0.01,
        tracker_outages=((300.0, 60.0), (1200.0, 120.0)),
    ),
}
