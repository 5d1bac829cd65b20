"""Outside-in timing shims: nesting-aware self time and call counts per layer.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
each layer's entry points (``SHIMS`` below) with a wrapper that opens a
span on a shared stack; a layer's *self time* is its span minus the part
covered by the spans it caused, so the per-layer rows add up to the
traced wall time instead of double counting (``Swarm._tick`` no longer
swallows the allocator, the transfer advance and the HAVE fan-out).

Hot sim functions are called ~10^6 times per run, so spans are folded on
the fly into per-layer aggregates and parent->child edges; only the
coarse phase spans a workload opens itself (:meth:`Tracer.span`) are kept
raw, as ``(name, start, end, parent)``.

A missing entry point raises :class:`MissingEntryPoint` naming it: a
rename in ``src/`` must fail the traced run loudly, never silently drop
a layer row.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Entry points shimmed by attribute replacement:
#: ``(metric stem, module, dotted attribute)``.  Several entry points may
#: share one stem (their calls and self time are summed).  Functions that
#: other modules import by name are listed once per importing module,
#: because that binding is what the caller actually looks up.
SHIMS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine.loop", "repro.sim.engine", "Simulator.run_until"),
    ("sim.engine.schedule", "repro.sim.engine", "Simulator.schedule_at"),
    ("sim.swarm.tick", "repro.sim.swarm", "Swarm._tick"),
    ("sim.swarm.add_peer", "repro.sim.swarm", "Swarm.add_peer"),
    ("sim.peer.transfer", "repro.sim.peer", "Peer.advance_uploads"),
    ("sim.peer.have_fanout", "repro.sim.peer", "Peer.broadcast_have_fused"),
    # The two private names are the only ones shimmed: message dispatch
    # and the choke timer have no public boundary in the sim peer.
    ("sim.peer.dispatch", "repro.sim.peer", "Peer._receive"),
    ("sim.peer.choke_round", "repro.sim.peer", "Peer._choke_round"),
    ("sim.peer.join", "repro.sim.peer", "Peer.join"),
    ("sim.peer.leave", "repro.sim.peer", "Peer.leave"),
    ("core.choke.round", "repro.core.choke", "LeecherChoker.round"),
    ("core.choke.round", "repro.core.choke", "SeedChoker.round"),
    ("core.piece_picker.next_request", "repro.core.piece_picker", "PiecePicker.next_request"),
    ("core.piece_picker.on_block_received", "repro.core.piece_picker", "PiecePicker.on_block_received"),
    ("core.piece_picker.availability_update", "repro.core.piece_picker", "PiecePicker.remote_has"),
    ("core.piece_picker.availability_update", "repro.core.piece_picker", "PiecePicker.peer_joined"),
    ("core.piece_picker.availability_update", "repro.core.piece_picker", "PiecePicker.peer_left"),
    ("core.piece_picker.availability_update", "repro.core.piece_picker", "AvailabilityMatrix.increment"),
    ("core.piece_picker.on_peer_gone", "repro.core.piece_picker", "PiecePicker.on_peer_gone"),
    ("core.rarest_first.select", "repro.core.rarest_first", "RarestFirstSelector.select"),
    ("core.rarest_first.select", "repro.core.rarest_first", "RarestFirstSelector.select_indexed"),
    ("core.rarest_first.select", "repro.core.rarest_first", "ModeSuppressionSelector.select"),
    ("core.rarest_first.select", "repro.core.rarest_first", "ModeSuppressionSelector.select_indexed"),
    ("tracker.tracker.announce", "repro.tracker.tracker", "Tracker.announce"),
    ("instrumentation.trace.emit", "repro.instrumentation.trace", "TraceRecorder.emit"),
    ("instrumentation.trace.emit", "repro.instrumentation.trace", "TraceRecorder.emit_raw"),
    ("instrumentation.trace.close", "repro.instrumentation.trace", "TraceRecorder.close"),
    ("instrumentation.replay.iter_trace", "repro.instrumentation.replay", "iter_trace"),
    ("instrumentation.replay.replay_instrumentation", "repro.instrumentation.replay", "replay_instrumentation"),
    ("instrumentation.replay.replay_instrumentation", "repro.campaign.runner", "replay_instrumentation"),
    ("campaign.spec.expand", "repro.campaign.runner", "expand_spec"),
    ("campaign.runner.build", "repro.campaign.runner", "build_experiment"),
    ("campaign.runner.simulate", "repro.workloads.torrents", "ExperimentHarness.run"),
    ("campaign.cache.commit", "repro.campaign.cache", "ShardCache.store"),
    ("campaign.cache.load", "repro.campaign.cache", "ShardCache.load"),
    ("tracker.service.announce", "repro.tracker.service", "TrackerService.announce"),
    ("tracker.sampling.sample", "repro.tracker.sampling", "UniformSampler.sample"),
    ("tracker.sampling.sample", "repro.tracker.sampling", "SeedBiasedSampler.sample"),
    ("tracker.sampling.sample", "repro.tracker.sampling", "RarityAwareSampler.sample"),
    ("tracker.state.update", "repro.tracker.state", "ShardedSwarmStore.get_or_create"),
    ("tracker.state.update", "repro.tracker.state", "SwarmState.update"),
    ("tracker.server.handle_http", "repro.tracker.server", "TrackerServer.handle_http_request"),
    ("tracker.server.handle_datagram", "repro.tracker.server", "TrackerServer.handle_datagram"),
    ("tracker.wire.parse_query", "repro.tracker.server", "parse_query"),
    ("tracker.wire.encode_result", "repro.tracker.server", "encode_result"),
)

#: Observer classes whose every ``on_*`` hook is one layer row.
OBSERVER_SHIMS: Tuple[Tuple[str, str, str], ...] = (
    ("instrumentation.logger.observe", "repro.instrumentation.logger", "Instrumentation"),
    ("instrumentation.trace.observe", "repro.instrumentation.trace", "TracingObserver"),
)

#: The allocator is a callable handed out by a factory; the shim wraps
#: what the factory returns, at the one place the swarm looks it up.
ALLOCATOR_SHIM = ("sim.bandwidth.allocate", "repro.sim.swarm", "resolve_allocator")

#: Spans the workloads open themselves around calls into a layer that
#: has no single attribute to replace (see ``workloads.py``).
WORKLOAD_SPANS: Tuple[str, ...] = (
    "analysis.figures",
    "instrumentation.bintrace.record",
    "instrumentation.bintrace.decode",
    "tracker.wire.decode_response",
)


def _count_hit(args, result):
    return "core.piece_picker.next_request_hits", result is not None


def _count_flows(args, result):
    return "sim.bandwidth.flows", len(args[0])


#: Entry points whose result (or arguments) feed a ratio.
RESULT_COUNTS = {"PiecePicker.next_request": _count_hit}


def layer_stems() -> List[str]:
    """Every per-layer metric stem, in table order, without repeats."""
    stems: List[str] = []
    for stem, __, __ in SHIMS + OBSERVER_SHIMS + (ALLOCATOR_SHIM,):
        if stem not in stems:
            stems.append(stem)
    stems.extend(WORKLOAD_SPANS)
    return stems


class MissingEntryPoint(RuntimeError):
    """A shimmed attribute no longer exists under its recorded name."""


class Tracer:
    """Span stack with on-the-fly per-layer aggregation."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.edges: Dict[Tuple[str, str], float] = {}
        self.raw_spans: List[Tuple[str, float, float, Optional[str]]] = []
        self.counters: Dict[str, int] = {}
        """Counts read off arguments and results at the boundary itself
        (flows per allocation, requests that found a block)."""

    def reset(self) -> None:
        """Forget everything recorded so far (called between passes)."""
        if self._stack:
            raise RuntimeError("tracer reset inside an open span")
        self.calls.clear()
        self.self_s.clear()
        self.edges.clear()
        self.counters.clear()
        del self.raw_spans[:]

    def _close(self, frame: list, started: float, raw: bool) -> None:
        ended = perf_counter()
        elapsed = ended - started
        stack = self._stack
        stack.pop()
        name = frame[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[1]
        parent = None
        if stack:
            parent_frame = stack[-1]
            parent_frame[1] += elapsed
            parent = parent_frame[0]
            edge = (parent, name)
            self.edges[edge] = self.edges.get(edge, 0.0) + elapsed
        if raw:
            self.raw_spans.append((name, started, ended, parent))

    def wrap(
        self,
        name: str,
        function: Callable,
        count: Optional[Callable] = None,
    ) -> Callable:
        """*function* with a span named *name* around every call.

        ``count(args, result)`` optionally returns ``(counter, amount)``
        to add up after a call that returned normally.
        """
        stack = self._stack
        close = self._close
        counters = self.counters

        def shim(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                close(frame, started, False)
            if count is not None:
                counter, amount = count(args, result)
                counters[counter] = counters.get(counter, 0) + amount
            return result

        shim.__wrapped__ = function
        shim.__name__ = getattr(function, "__name__", name)
        return shim

    @contextmanager
    def span(self, name: str):
        """A raw span opened by the workload itself (coarse phases)."""
        frame = [name, 0.0]
        self._stack.append(frame)
        started = perf_counter()
        try:
            yield
        finally:
            self._close(frame, started, True)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": [
                [parent, child, seconds]
                for (parent, child), seconds in sorted(self.edges.items())
            ],
            "spans": [list(span) for span in self.raw_spans],
            "counters": dict(self.counters),
        }


@contextmanager
def maybe_span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)`` when tracing, nothing at all otherwise."""
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


def _resolve(module_name: str, dotted: str):
    """(owner object, attribute name, current value) or raise loudly."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingEntryPoint(
            "cannot import %s for shim %s: %s" % (module_name, dotted, exc)
        )
    parts = dotted.split(".")
    for part in parts[:-1]:
        if not hasattr(owner, part):
            raise MissingEntryPoint(
                "shim entry point %s.%s is missing (no %s)"
                % (module_name, dotted, part)
            )
        owner = getattr(owner, part)
    attribute = parts[-1]
    if not hasattr(owner, attribute):
        raise MissingEntryPoint(
            "shim entry point %s.%s is missing" % (module_name, dotted)
        )
    return owner, attribute, getattr(owner, attribute)


def install(tracer: Tracer) -> int:
    """Replace every entry point with its shim; returns how many.

    Must run before the workload builds anything: objects capture bound
    methods (timers, hot-loop bindings) at construction time.
    """
    installed = 0
    for stem, module_name, dotted in SHIMS:
        owner, attribute, function = _resolve(module_name, dotted)
        setattr(
            owner, attribute, tracer.wrap(stem, function, RESULT_COUNTS.get(dotted))
        )
        installed += 1
    for stem, module_name, class_name in OBSERVER_SHIMS:
        __, __, cls = _resolve(module_name, class_name)
        hooks = [name for name in dir(cls) if name.startswith("on_")]
        if not hooks:
            raise MissingEntryPoint(
                "%s.%s has no on_* hooks to shim" % (module_name, class_name)
            )
        for hook in hooks:
            setattr(cls, hook, tracer.wrap(stem, getattr(cls, hook)))
            installed += 1
    stem, module_name, dotted = ALLOCATOR_SHIM
    owner, attribute, factory = _resolve(module_name, dotted)

    def resolve_allocator_shim(*args, **kwargs):
        return tracer.wrap(stem, factory(*args, **kwargs), _count_flows)

    setattr(owner, attribute, resolve_allocator_shim)
    return installed + 1
