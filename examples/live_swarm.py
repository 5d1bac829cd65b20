#!/usr/bin/env python3
"""Live swarm: the same algorithms over real localhost TCP.

Everything else in this repository exercises rarest first and the choke
algorithms inside a discrete-event simulator.  This script runs them
for real: six asyncio peers (one seed, five leechers) speak the BEP-3
peer wire protocol over loopback sockets, throttled by per-peer token
buckets, and download a 24-piece torrent to completion in a second or
two of wall-clock time.

The point is not speed — it is *equivalence*.  The live peers reuse the
exact same piece picker, choker and rate estimator objects as the
simulated ones, and emit the same schema-v1 trace.  The script proves
it three ways:

1. the download completes (every leecher ends with every piece);
2. the trace passes the full conformance suite — message grammar,
   unchoke-slot cardinality, swarm-wide byte conservation, and
   rarest-first consistency of every first request;
3. the trace replays through the standard instrumentation pipeline,
   yielding the same per-peer counters the analysis figures consume.

Run:  python examples/live_swarm.py [seed]
"""

import sys

from repro.instrumentation.replay import replay_instrumentation
from repro.instrumentation.trace import TraceRecorder
from repro.net.conformance import check_trace, completion_counts
from repro.net.swarm import LiveSwarm
from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig

NUM_PIECES = 24
SEEDS = 1
LEECHERS = 5

CONFIG = PeerConfig(
    upload_capacity=256 * KIB,  # wall-clock friendly: ~1-2 s per run
    choke_interval=0.2,
    rate_window=1.0,
    min_peer_set=1,
)


def main(seed: int = 0) -> int:
    metainfo = make_metainfo(
        "live-demo", num_pieces=NUM_PIECES, piece_size=4 * KIB, block_size=KIB
    )
    recorder = TraceRecorder()
    swarm = LiveSwarm(metainfo, seed=seed, config=CONFIG, recorder=recorder)
    swarm.add_peers(SEEDS, LEECHERS)

    print("running %d live peers over localhost TCP..." % (SEEDS + LEECHERS))
    result = swarm.run_sync(timeout=60.0)

    print("complete: %s in %.2f s wall clock" % (result.all_complete, result.duration))
    if result.stuck is not None:
        print(result.stuck)
    for address in result.addresses:
        done = result.completed_at.get(address)
        print(
            "  %-21s %-7s done=%-6s up=%7.0fB down=%7.0fB"
            % (
                address,
                "seed" if done == 0.0 else "leecher",
                "%.2fs" % done if done is not None else "never",
                result.uploaded.get(address, 0.0),
                result.downloaded.get(address, 0.0),
            )
        )

    report = check_trace(recorder, num_pieces=NUM_PIECES)
    print(
        "conformance: %s (%s)"
        % (
            "OK" if report.ok else "%d violations" % len(report.violations),
            " ".join("%s=%d" % item for item in sorted(report.checks.items())),
        )
    )
    for violation in report.violations[:5]:
        print("  " + violation)

    leecher = sorted(completion_counts(recorder))[0]
    replay = replay_instrumentation(recorder, peer=leecher)
    print(
        "replayed %s: %d pieces, %d msgs sent, %d msgs received"
        % (
            leecher,
            len(replay.piece_completions),
            replay.messages_sent,
            replay.messages_received,
        )
    )
    return 0 if (result.all_complete and report.ok) else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 0))
