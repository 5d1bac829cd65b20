"""The every-link choke round, kept as the differential oracle.

This is ``repro.core.peer_core.PeerCore._choke_round`` and
``repro.core.choke.ChokeCandidate`` as they stood before the round
learned to skip idle links: every rate window of every link is expired
and divided on every round, whether or not it holds a sample, each link
is snapshotted into an eight-field frozen dataclass built by keyword,
``remote_key`` is read through its property, and the apply loop probes
the unchoke set before it looks at ``am_choking``.  It is slow and it is
obviously right — which is what ``tests/test_choke_round_equivalence.py``
needs to hold the production round to.  The one edit is forced: a link's
``ByteCounter`` *is* its estimator now, so the two ``._estimator`` hops
are gone.  Every link's candidate goes to the choker, so the driver that
runs this round holds a full-list choker of ``tests/reference_chokers.py``.

Lives in the test tree on purpose: nothing under ``src/`` may import it.
"""

from dataclasses import dataclass
from typing import Hashable, List, Optional

from repro.protocol.messages import Choke, Unchoke


@dataclass(frozen=True)
class ReferenceChokeCandidate:
    """Snapshot of one remote peer as seen at a choke round."""

    key: Hashable
    interested: bool
    choked: bool
    download_rate: float = 0.0
    upload_rate: float = 0.0
    uploaded_to: float = 0.0
    downloaded_from: float = 0.0
    last_unchoked: Optional[float] = None


def reference_choke_round(self) -> None:
    """One choke round of the :class:`PeerCore` driver *self*."""
    if not self.online:
        return
    now = self.simulator.now
    candidates: List[ReferenceChokeCandidate] = []
    for connection in self.connections.values():
        estimator = connection.downloaded
        estimator._expire(now)
        download_rate = max(0.0, estimator._total) / estimator._window
        estimator = connection.uploaded
        estimator._expire(now)
        upload_rate = max(0.0, estimator._total) / estimator._window
        if self.observer:
            self.observer.on_rate_sample(
                now, connection.remote_key, download_rate, upload_rate
            )
        candidates.append(
            ReferenceChokeCandidate(
                key=connection.remote_key,
                interested=connection.peer_interested,
                choked=connection.am_choking,
                download_rate=download_rate,
                upload_rate=upload_rate,
                uploaded_to=connection.uploaded.total,
                downloaded_from=connection.downloaded.total,
                last_unchoked=connection.last_unchoked_local,
            )
        )
    decision = self.choker.round(candidates, now, self.rng)
    if self.observer:
        self.observer.on_choke_round(now, decision.unchoked, self.is_seed)
    unchoke_set = set(decision.unchoked)
    for connection in list(self.connections.values()):
        if connection.remote_key in unchoke_set:
            if connection.am_choking:
                connection.am_choking = False
                connection.last_unchoked_local = now
                self._send(connection, Unchoke())
        else:
            if not connection.am_choking:
                connection.am_choking = True
                connection.clear_upload_queue()
                self._send(connection, Choke())
