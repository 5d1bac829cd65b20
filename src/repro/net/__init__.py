"""Live asyncio peer-wire swarms over localhost TCP.

The simulator exercises the paper's algorithms under a fluid transfer
model; this package drives the *same* cores — the rarity-indexed
:class:`~repro.core.piece_picker.PiecePicker`, the leecher and SKU/SRU
seed chokers, the sliding-window rate estimator — over real sockets,
reusing :class:`~repro.protocol.stream.MessageStream` for framing,
:class:`~repro.protocol.metainfo.Metainfo` for real SHA-1-verified
content and the in-memory :class:`~repro.tracker.tracker.Tracker` for
peer discovery.  A :class:`~repro.net.swarm.LiveSwarm` runs N
in-process peers (one asyncio task group per peer) to completion and
emits the same schema-versioned JSONL traces as the sim through
:class:`~repro.instrumentation.trace.TracingObserver`, so the analysis
and replay pipelines work unchanged on live runs.

:mod:`repro.net.conformance` checks the protocol invariants both
engines must agree on (the differential sim-vs-net test layer).
"""
