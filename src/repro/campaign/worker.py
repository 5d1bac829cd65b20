"""The campaign worker: one process of a worker-pool backend.

:func:`run_worker` connects to a
:class:`~repro.campaign.dispatch.WorkerPoolBackend` coordinator, pulls
shards one at a time over the length-prefixed JSON protocol, executes
each through the exact same guarded entry point the local process pool
uses (``_run_guarded`` -> ``run_shard_payload``: per-shard RNG hygiene,
``SIGALRM`` timeout), commits the result through the shared
content-addressed cache, and reports the record (or a structured
error) back.  A coordinator's local workers (``spawn=N``) are forks of
it that call :func:`run_worker` with its executor; a worker on another
host (or serving a ``spawn=0`` coordinator) is ``repro campaign worker
--connect HOST:PORT``, a new interpreter running :func:`main_worker`.

Workers are stateless and interchangeable: all coordination happens
through the coordinator's queue and the cache.  Running one on another
host only requires that it sees the same cache directory (shared
filesystem) or — simpler, and what the multi-host quickstart documents
— that each host runs with its own cache and the coordinator's cache
receives the committed records (the worker sends the full record over
the wire, so the coordinator can always rebuild its manifest even when
the caches are disjoint; with a shared cache the trace artefacts land
too).

A worker that receives a shard another worker already committed (the
duplicate-race case) serves it straight from the cache: the payload
carries ``resume=True`` for worker-pool dispatch, making duplicate
completion idempotent — one cache commit, byte-identical records.
"""

from __future__ import annotations

import os
import socket
import sys
from typing import Callable, Optional, Tuple

from repro.campaign.dispatch import (
    PROTOCOL_VERSION,
    FrameError,
    recv_frame,
    send_frame,
)
from repro.campaign.runner import ShardTimeout, _run_guarded, run_shard_payload


def parse_endpoint(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> (host, port); host defaults to localhost."""
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError("endpoint %r is not HOST:PORT" % text)
    return host or "127.0.0.1", int(port)


def run_worker(
    connect: str,
    executor: Callable[[dict], dict] = run_shard_payload,
    worker_id: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """Serve shards from the coordinator at *connect* until shutdown.

    Returns the number of shards executed (results sent).  Raises
    ``OSError`` when the coordinator is unreachable; a coordinator that
    disappears mid-session ends the worker cleanly (it has nothing left
    to do — committed work is already in the cache).
    """
    host, port = parse_endpoint(connect)
    notify = progress or (lambda message: None)
    executed = 0
    sock = socket.create_connection((host, port), timeout=30.0)
    try:
        sock.settimeout(None)
        send_frame(
            sock,
            {
                "type": "hello",
                "worker": worker_id or ("pid-%d" % os.getpid()),
                "protocol": PROTOCOL_VERSION,
            },
        )
        while True:
            try:
                frame = recv_frame(sock)
            except (OSError, FrameError):
                break
            if frame is None or frame.get("type") == "shutdown":
                break
            if frame.get("type") != "work":
                continue
            shard_id = frame.get("shard_id")
            payload = frame["payload"]
            try:
                record = _run_guarded(executor, dict(payload))
            except ShardTimeout as error:
                reply = {
                    "type": "error",
                    "shard_id": shard_id,
                    "kind": "ShardTimeout",
                    "message": str(error),
                }
                notify("timeout  %s" % shard_id)
            except Exception as error:
                reply = {
                    "type": "error",
                    "shard_id": shard_id,
                    "kind": type(error).__name__,
                    "message": str(error),
                }
                notify("error    %s (%s)" % (shard_id, error))
            else:
                reply = {
                    "type": "result",
                    "shard_id": shard_id,
                    "record": record,
                }
                executed += 1
                notify(
                    "done     %s%s"
                    % (shard_id, " (cache hit)" if record.get("cache_hit") else "")
                )
            try:
                send_frame(sock, reply)
            except OSError:
                break
    finally:
        try:
            sock.close()
        except OSError:
            pass
    return executed


def main_worker(connect: str, verbose: bool = False) -> int:
    """CLI entry point: returns a process exit code."""
    progress = (
        (lambda message: print(message, file=sys.stderr)) if verbose else None
    )
    try:
        executed = run_worker(connect, progress=progress)
    except OSError as error:
        print(
            "campaign worker: cannot reach coordinator %s (%s)"
            % (connect, error),
            file=sys.stderr,
        )
        return 1
    if verbose:
        print("campaign worker: %d shards executed" % executed, file=sys.stderr)
    return 0
