"""Protocol-invariant checks over schema-v1 traces.

The differential sim-vs-net test layer runs the same (torrent,
scenario) through the discrete-event engine and through a
:class:`~repro.net.swarm.LiveSwarm`, then holds both traces to the same
invariants.  The checks are deliberately insensitive to scheduling
nondeterminism — they constrain *what the protocol allows*, not the
particular interleaving a run took:

``message grammar``
    No message before the link's ``conn_open`` (the handshake), the
    first message in each direction is BITFIELD, and no REQUEST is sent
    while the remote chokes us.

``unchoke cardinality``
    Every choke round unchokes a duplicate-free set of at most
    ``unchoke_slots`` peers (3 regular + 1 optimistic by default,
    :data:`~repro.sim.config.UNCHOKE_SLOTS`).

``byte conservation``
    Summed over the swarm, uploaded bytes equal downloaded bytes
    (requires a clean run with every peer traced, and per directed link
    when both endpoints reported totals).

``rarest first``
    Replaying each peer's own trace reconstructs exactly the
    availability its picker saw; the first REQUEST for a piece must then
    target a rarest piece among the candidates that remote offers
    (outside the random-first warm-up and end game).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.instrumentation.replay import iter_trace
from repro.instrumentation.trace import TraceRecorder
from repro.protocol.bitfield import Bitfield
from repro.sim.config import RANDOM_FIRST_THRESHOLD, UNCHOKE_SLOTS

TRACE_META_TYPES = ("trace_start", "trace_end")


def load_events(source) -> List[dict]:
    """Parsed trace events from a recorder, a path, or a parsed list."""
    if isinstance(source, (str, TraceRecorder)):
        return iter_trace(source)
    return [e for e in source if e.get("type") not in TRACE_META_TYPES]


@dataclass
class ConformanceReport:
    """Outcome of a conformance pass: violations + evaluated-check tally."""

    violations: List[str] = field(default_factory=list)
    checks: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "ConformanceReport") -> "ConformanceReport":
        self.violations.extend(other.violations)
        for key, count in other.checks.items():
            self.checks[key] = self.checks.get(key, 0) + count
        return self

    def assert_ok(self) -> None:
        if self.violations:
            raise AssertionError(
                "%d conformance violations:\n%s"
                % (len(self.violations), "\n".join(self.violations[:20]))
            )


class _LinkState:
    __slots__ = ("open", "sent_any", "recv_any", "peer_choking")

    def __init__(self) -> None:
        self.open = False
        self.sent_any = False
        self.recv_any = False
        self.peer_choking = True


def check_message_grammar(source) -> ConformanceReport:
    """Handshake-before-anything, BITFIELD-first, no request-while-choked."""
    events = load_events(source)
    report = ConformanceReport(checks={"grammar": 0})
    links: Dict[tuple, _LinkState] = {}
    for index, event in enumerate(events):
        etype = event.get("type")
        if etype not in ("conn_open", "conn_close", "msg_sent", "msg_recv"):
            continue
        key = (event["peer"], event["remote"])
        state = links.get(key)
        if etype == "conn_open":
            links[key] = _LinkState()
            links[key].open = True
            continue
        if etype == "conn_close":
            if state is not None:
                state.open = False
            continue
        report.checks["grammar"] += 1
        where = "event %d (%s %s %s->%s)" % (
            index, etype, event.get("msg"), event["peer"], event["remote"]
        )
        if state is None or not state.open:
            report.violations.append("message before handshake/open: " + where)
            continue
        msg = event.get("msg")
        if etype == "msg_sent":
            if not state.sent_any and msg != "Bitfield":
                report.violations.append("first sent message not BITFIELD: " + where)
            state.sent_any = True
            if msg == "Request" and state.peer_choking:
                report.violations.append("REQUEST while choked: " + where)
        else:
            if not state.recv_any and msg != "Bitfield":
                report.violations.append("first received message not BITFIELD: " + where)
            state.recv_any = True
            if msg == "Choke":
                state.peer_choking = True
            elif msg == "Unchoke":
                state.peer_choking = False
    return report


def check_unchoke_cardinality(
    source, unchoke_slots: int = UNCHOKE_SLOTS
) -> ConformanceReport:
    """Each round unchokes a duplicate-free set of <= ``unchoke_slots``."""
    events = load_events(source)
    report = ConformanceReport(checks={"unchoke": 0})
    for index, event in enumerate(events):
        if event.get("type") != "choke":
            continue
        report.checks["unchoke"] += 1
        unchoked = event.get("unchoked", [])
        if len(unchoked) > unchoke_slots:
            report.violations.append(
                "event %d: %s unchoked %d peers (> %d slots)"
                % (index, event["peer"], len(unchoked), unchoke_slots)
            )
        if len(set(unchoked)) != len(unchoked):
            report.violations.append(
                "event %d: %s unchoked set has duplicates: %r"
                % (index, event["peer"], unchoked)
            )
    return report


def check_byte_conservation(source, tolerance: float = 1e-6) -> ConformanceReport:
    """uploaded == downloaded, swarm-wide and per directed link.

    Requires every peer traced (``trace_all``) and a clean run: a
    crashed peer's in-flight bytes are counted by the sender only, which
    is exactly the asymmetry this check exists to detect.
    """
    events = load_events(source)
    report = ConformanceReport(checks={"conservation": 0})
    up: Dict[tuple, float] = {}
    down: Dict[tuple, float] = {}

    def account(peer: str, entry: dict) -> None:
        remote = entry["remote"]
        if "up" in entry:
            up[(peer, remote)] = up.get((peer, remote), 0.0) + entry["up"]
        if "down" in entry:
            down[(peer, remote)] = down.get((peer, remote), 0.0) + entry["down"]

    for event in events:
        etype = event.get("type")
        if etype == "conn_close":
            account(event["peer"], event)
        elif etype == "finalize":
            for entry in event.get("open", []):
                account(event["peer"], entry)

    total_up = sum(up.values())
    total_down = sum(down.values())
    report.checks["conservation"] += 1
    if abs(total_up - total_down) > tolerance + 1e-9 * max(total_up, total_down):
        report.violations.append(
            "swarm bytes not conserved: uploaded %.1f != downloaded %.1f"
            % (total_up, total_down)
        )
    # Directed-link check: what A says it sent B, B must say it received.
    for (peer, remote), sent in sorted(up.items()):
        received = down.get((remote, peer))
        if received is None:
            continue  # remote endpoint not traced / crashed mid-link
        report.checks["conservation"] += 1
        if abs(sent - received) > tolerance + 1e-9 * max(sent, received):
            report.violations.append(
                "link %s->%s: sender counted %.1f, receiver %.1f"
                % (peer, remote, sent, received)
            )
    return report


class _PickerReplay:
    """Availability as one peer's picker saw it, rebuilt from its trace."""

    def __init__(self, num_pieces: int, initially_seed: bool):
        self.num_pieces = num_pieces
        self.avail = [0] * num_pieces
        self.offered: Dict[str, Set[int]] = {}
        self.complete: Set[int] = (
            set(range(num_pieces)) if initially_seed else set()
        )
        self.requested: Set[int] = set()
        self.endgame = False


def check_rarest_first(
    source,
    random_first_threshold: int = RANDOM_FIRST_THRESHOLD,
    num_pieces: Optional[int] = None,
) -> ConformanceReport:
    """First request per piece targets a rarest candidate that remote offers.

    The availability each peer's picker consulted is reproducible from
    the peer's own event stream: the opening BITFIELD sets a link's
    contribution, each HAVE adds one, ``conn_close`` removes it.  At the
    first-ever REQUEST for piece ``p`` to remote ``r``, ``p`` must
    minimise availability over the candidate set (pieces ``r`` offers
    that are neither complete nor already requested) — exact even though
    it is a subset of the picker's full wanted set, because ``p`` being
    a member forces the subset minimum to equal the global minimum.
    Skipped during the random-first warm-up (fewer than
    ``random_first_threshold`` local pieces) and after end game entry.
    """
    events = load_events(source)
    report = ConformanceReport(checks={"rarest_first": 0})
    replays: Dict[str, _PickerReplay] = {}

    def replay_for(event: dict) -> Optional[_PickerReplay]:
        return replays.get(event["peer"])

    for index, event in enumerate(events):
        etype = event.get("type")
        peer = event.get("peer")
        if etype == "attach":
            replays[peer] = _PickerReplay(
                num_pieces if num_pieces is not None else event["pieces"],
                bool(event.get("seed")),
            )
            continue
        state = replay_for(event)
        if state is None:
            continue
        if etype == "conn_open":
            state.offered[event["remote"]] = set()
        elif etype == "conn_close":
            for piece in state.offered.pop(event["remote"], ()):
                state.avail[piece] -= 1
        elif etype == "piece":
            state.complete.add(event["piece"])
        elif etype == "endgame":
            state.endgame = True
        elif etype == "msg_recv":
            msg = event.get("msg")
            remote = event["remote"]
            if msg == "Bitfield":
                incoming = set(
                    Bitfield.from_bytes(
                        bytes.fromhex(event["bits"]), state.num_pieces
                    ).have_indices()
                )
                for piece in state.offered.get(remote, ()):
                    state.avail[piece] -= 1
                state.offered[remote] = incoming
                for piece in incoming:
                    state.avail[piece] += 1
            elif msg == "Have":
                link = state.offered.get(remote)
                if link is not None and event["piece"] not in link:
                    link.add(event["piece"])
                    state.avail[event["piece"]] += 1
        elif etype == "msg_sent" and event.get("msg") == "Request":
            piece = event["piece"]
            if piece in state.requested:
                continue
            state.requested.add(piece)
            if state.endgame or len(state.complete) < random_first_threshold:
                continue
            remote = event["remote"]
            candidates = (
                state.offered.get(remote, set()) - state.complete - state.requested
            ) | {piece}
            rarest = min(state.avail[q] for q in candidates)
            report.checks["rarest_first"] += 1
            if state.avail[piece] != rarest:
                report.violations.append(
                    "event %d: %s requested piece %d (availability %d) from %s "
                    "but a candidate with availability %d was offered"
                    % (index, peer, piece, state.avail[piece], remote, rarest)
                )
    return report


def check_trace(
    source,
    unchoke_slots: int = UNCHOKE_SLOTS,
    random_first_threshold: int = RANDOM_FIRST_THRESHOLD,
    check_conservation: bool = True,
    num_pieces: Optional[int] = None,
) -> ConformanceReport:
    """Run every conformance check over one trace; merged report."""
    events = load_events(source)
    report = ConformanceReport()
    report.merge(check_message_grammar(events))
    report.merge(check_unchoke_cardinality(events, unchoke_slots))
    if check_conservation:
        report.merge(check_byte_conservation(events))
    report.merge(
        check_rarest_first(
            events,
            random_first_threshold=random_first_threshold,
            num_pieces=num_pieces,
        )
    )
    return report


def completion_counts(source) -> Dict[str, int]:
    """Per-peer count of completed pieces (``piece`` events)."""
    counts: Dict[str, int] = {}
    for event in load_events(source):
        if event.get("type") == "piece":
            counts[event["peer"]] = counts.get(event["peer"], 0) + 1
    return counts

