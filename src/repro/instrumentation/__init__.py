"""Instrumentation of the local peer.

Mirrors the paper's §III-C: "a log of each BitTorrent message sent or
received [...], a log of each state change in the choke algorithm, a log
of the rate estimation used by the choke algorithm, and a log of
important events (end game mode, seed state)."
"""

from repro.instrumentation.logger import (
    Instrumentation,
    RemotePeerRecord,
    Snapshot,
)
from repro.instrumentation.metrics import (
    MetricsRegistry,
)
from repro.instrumentation.bintrace import (
    BINTRACE_MAGIC,
    BinaryTraceRecorder,
    binary_to_jsonl,
    jsonl_to_binary,
)
from repro.instrumentation.replay import (
    ReplayedInstrumentation,
    iter_trace,
    replay_instrumentation,
    stream_trace,
    traced_peers,
)
from repro.instrumentation.forensics import (
    TraceDiff,
    TraceStats,
    diff_traces,
    trace_stats,
)
from repro.instrumentation.trace import (
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    TracingObserver,
)

__all__ = [
    "Instrumentation",
    "RemotePeerRecord",
    "Snapshot",
    "MetricsRegistry",
    "TraceRecorder",
    "TracingObserver",
    "TRACE_SCHEMA_VERSION",
    "BINTRACE_MAGIC",
    "BinaryTraceRecorder",
    "binary_to_jsonl",
    "jsonl_to_binary",
    "replay_instrumentation",
    "ReplayedInstrumentation",
    "iter_trace",
    "stream_trace",
    "traced_peers",
    "TraceDiff",
    "TraceStats",
    "diff_traces",
    "trace_stats",
]
