"""Pluggable dispatch backends for campaign execution.

The :class:`~repro.campaign.runner.CampaignRunner` expands a spec,
filters it against the content-addressed cache, and hands the surviving
shards to a *dispatch backend*.  Two backends ship:

* :class:`LocalBackend` — the historical path: inline execution at
  ``workers=1``, a ``ProcessPoolExecutor`` above that.  All of PR-4's
  semantics (per-shard ``SIGALRM`` timeout, bounded crash retry with
  pool rebuild, structured failure records) live here unchanged.

* :class:`WorkerPoolBackend` — a coordinator speaking a length-prefixed
  JSON work-queue protocol over TCP sockets.  N worker processes —
  local ones forked from the coordinator (POSIX only), remote ones
  started by hand as ``repro campaign worker`` behind SSH
  port-forwards — connect, pull one shard at a time,
  execute it with the exact same guarded entry point the local pool
  uses, commit the result through the shared content-addressed cache,
  and report back.  The cache is the *sole* coordination point for
  results: a worker that dies after committing but before reporting
  loses nothing (the retry is served from the cache), and two workers
  racing the same shard commit byte-identical entries (atomic rename,
  last writer wins — same bytes either way).

Both backends drive the same resolve/absorb bookkeeping callbacks on
the runner, so retry budgets, timeout semantics and manifest contents
are backend-independent — and the campaign fingerprint is *pinned* to
be byte-identical across backends, worker counts, scheduling orders and
warm-vs-cold caches (``tests/test_campaign_dispatch.py``).

**Wire protocol** (version 1).  Every frame is a 4-byte big-endian
length followed by that many bytes of UTF-8 JSON::

    worker      -> coordinator   {"type": "hello", "worker": <id>, "protocol": 1}
    coordinator -> worker        {"type": "work", "shard_id": ..., "payload": {...}}
                                 {"type": "shutdown"}
    worker      -> coordinator   {"type": "result", "shard_id": ..., "record": {...}}
                                 {"type": "error", "shard_id": ...,
                                  "kind": "ShardTimeout"|<exception name>,
                                  "message": ...}

A worker connection dropping while it holds a lease counts as a crash:
the coordinator charges one attempt to that shard and requeues it
(until ``retries`` is exhausted), exactly like a broken process pool.
A ``result`` for a shard that already resolved (a duplicate from a
racing or resurrected worker) is acknowledged and discarded.

**Cache-aware scheduling.**  Pending shards are ordered longest-first
(the classic LPT heuristic) before dispatch: recorded wall-clock
durations from previous runs of the same cache directory
(:class:`~repro.campaign.cache.DurationBook`) when available, a
``piece_count x peers``-based estimate (:func:`estimate_shard_cost`)
for cold shards.  Scheduling affects only wall clock, never results —
the manifest fingerprint is order-independent by construction.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Tuple

from repro.campaign.cache import DurationBook
from repro.campaign.runner import (
    ShardTimeout,
    _run_guarded,
    run_shard_payload,
)
from repro.campaign.spec import ShardSpec
from repro.spec_grammar import build_spec
from repro.workloads import resolve_scenario

PROTOCOL_VERSION = 1

#: Upper bound on a single frame; a length prefix beyond this reads as
#: protocol corruption, not a huge record.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Rough calibration of the cold-shard cost estimate: piece-peer units
#: executed per wall-clock second on the bench host.  Only the *ratios*
#: matter (the scheduler sorts), the absolute scale just keeps the
#: estimates in the same ballpark as recorded wall-seconds.
_COST_UNITS_PER_SECOND = 50_000.0

#: Reference duration the cost estimate is normalised against (the
#: Table-I default run length).
_REFERENCE_DURATION = 3000.0


class FrameError(Exception):
    """A malformed, truncated or oversized protocol frame."""


class WorkerCrashed(Exception):
    """A worker connection died while it held a shard lease."""


class RemoteShardError(Exception):
    """A shard failed inside a remote worker; carries the remote text."""


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------

def send_frame(sock: socket.socket, message: dict) -> None:
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(struct.pack(">I", len(data)) + data)


def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
    """Exactly *size* bytes, None on clean EOF at a frame boundary."""
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if remaining == size:
                return None
            raise FrameError(
                "connection closed mid-frame (%d of %d bytes)"
                % (size - remaining, size)
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """One frame, or None when the peer closed between frames."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise FrameError("frame length %d exceeds %d" % (length, MAX_FRAME_BYTES))
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("connection closed before frame body")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as error:
        # RecursionError: a body nested deeper than the decoder recurses.
        raise FrameError("undecodable frame: %s" % error)
    if not isinstance(message, dict) or "type" not in message:
        raise FrameError("frame is not a typed object")
    return message


# ---------------------------------------------------------------------------
# Cache-aware scheduling
# ---------------------------------------------------------------------------

def estimate_shard_cost(shard: ShardSpec) -> float:
    """Cold-shard cost estimate in pseudo-seconds.

    ``piece_count x peers`` of the fully resolved scenario, scaled by
    the simulated duration: the dominant work term is piece-selection
    probes across the peer set over the run window.  Used only when no
    recorded duration exists for the shard's id.
    """
    scenario = resolve_scenario(shard.torrent_id, shard.options)
    peers = scenario.seeds + scenario.leechers + 1
    duration_scale = scenario.duration / _REFERENCE_DURATION
    return scenario.num_pieces * peers * duration_scale / _COST_UNITS_PER_SECOND


def shard_cost(shard: ShardSpec, durations: Optional[DurationBook]) -> float:
    """Scheduling cost: recorded wall seconds, else the cold estimate."""
    if durations is not None:
        recorded = durations.get(shard.shard_id)
        if recorded is not None:
            return recorded
    return estimate_shard_cost(shard)


def schedule_shards(
    shards: List[ShardSpec], durations: Optional[DurationBook] = None
) -> List[ShardSpec]:
    """Longest-shard-first order (stable tiebreak on shard id).

    LPT scheduling: the most expensive shards dispatch first so the
    tail of the campaign is short shards filling idle workers, not one
    giant shard everyone waits on.  Pure reordering — results and the
    manifest fingerprint are scheduling-independent by construction.
    """
    return sorted(
        shards,
        key=lambda shard: (-shard_cost(shard, durations), shard.shard_id),
    )


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

def resolve_backend(
    spec: str,
    workers: int,
    executor: Callable[[dict], dict] = run_shard_payload,
    progress: Optional[Callable[[str], None]] = None,
):
    """Build a backend instance from its spec string (:data:`BACKENDS`)."""
    return build_spec(
        spec,
        "dispatch backend",
        BACKENDS,
        workers=workers,
        executor=executor,
        progress=progress,
    )


# ---------------------------------------------------------------------------
# Local backend (inline / process pool) — PR-4 semantics, relocated
# ---------------------------------------------------------------------------

class LocalBackend:
    """Inline execution at ``workers=1``, a process pool above that."""

    name = "local"

    def __init__(
        self,
        workers: int = 1,
        executor: Callable[[dict], dict] = run_shard_payload,
    ) -> None:
        self.workers = max(1, workers)
        self.executor = executor

    def execute(self, pending: List, resolve, absorb_error) -> None:
        if self.workers == 1:
            self._run_inline(pending, resolve, absorb_error)
        else:
            self._run_pool(pending, resolve, absorb_error)

    def _run_inline(self, pending: List, resolve, absorb_error) -> None:
        """Serial execution in-process — same guard, same bookkeeping."""
        for item in pending:
            while True:
                try:
                    record = _run_guarded(self.executor, dict(item.payload))
                except Exception as error:
                    if absorb_error(item, error):
                        break
                else:
                    resolve(item, record)
                    break

    def _run_pool(self, pending: List, resolve, absorb_error) -> None:
        """Parallel execution; rebuilds the pool after a worker crash."""
        remaining = list(pending)
        resolved_ids = set()

        def done(item):
            resolved_ids.add(item.shard.shard_id)

        while remaining:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            try:
                futures = {
                    pool.submit(_run_guarded, self.executor, dict(item.payload)): item
                    for item in remaining
                }
            except BrokenProcessPool as error:
                # A worker died during submission: charge the first
                # still-unresolved shard (it surfaced the crash) and
                # rebuild — same semantics as a crash mid-round.
                pool.shutdown(wait=False, cancel_futures=True)
                if absorb_error(remaining[0], error):
                    done(remaining[0])
                remaining = [
                    item
                    for item in remaining
                    if item.shard.shard_id not in resolved_ids
                ]
                continue
            try:
                not_done = set(futures)
                while not_done:
                    finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    crashed = []
                    for future in finished:
                        item = futures[future]
                        try:
                            record = future.result()
                        except BrokenProcessPool as error:
                            crashed.append((item, error))
                        except Exception as error:
                            if absorb_error(item, error):
                                done(item)
                        else:
                            resolve(item, record)
                            done(item)
                    if crashed:
                        # The pool is poisoned: charge one attempt to the
                        # shard that surfaced the crash, abandon the rest
                        # of this round (their futures are already dead)
                        # and rebuild.  Shards that finished before the
                        # crash keep their results.
                        if absorb_error(crashed[0][0], crashed[0][1]):
                            done(crashed[0][0])
                        break
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            remaining = [
                item
                for item in remaining
                if item.shard.shard_id not in resolved_ids
            ]


# ---------------------------------------------------------------------------
# Worker-pool backend (socket work queue)
# ---------------------------------------------------------------------------

class WorkerPoolBackend:
    """Coordinator for campaign worker processes over TCP.

    ``workers`` is how many local workers to fork from this process,
    which has the simulator imported already; each runs
    :func:`~repro.campaign.worker.run_worker` with the injected
    ``executor``.  ``0`` forks none and waits for ``repro campaign
    worker`` processes started by hand (e.g. on other hosts, connecting
    through SSH port-forwards).  The bound address is published on
    :attr:`address` once :attr:`started` is set, so external tooling
    (and the tests) can connect before any forked worker does.
    """

    name = "worker-pool"

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        progress: Optional[Callable[[str], None]] = None,
        executor: Callable[[dict], dict] = run_shard_payload,
    ) -> None:
        self.workers = max(0, workers)
        self.host = host
        self.port = port
        self.progress = progress or (lambda message: None)
        self.executor = executor
        self.started = threading.Event()
        self.address: Optional[Tuple[str, int]] = None
        self.duplicate_results = 0
        self._respawns = 0

    # -- coordinator -------------------------------------------------------

    def execute(self, pending: List, resolve, absorb_error) -> None:
        lock = threading.Lock()
        cond = threading.Condition(lock)
        queue = deque(pending)
        unfinished = {item.shard.shard_id for item in pending}
        stopping = False

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        self.address = listener.getsockname()[:2]
        self.started.set()
        self.progress(
            "worker-pool listening on %s:%d" % (self.address[0], self.address[1])
        )

        def finish(item, outcome) -> None:
            """Run one resolve/absorb outcome under the lock."""
            kind, value = outcome
            if item.shard.shard_id not in unfinished:
                self.duplicate_results += 1
                return
            if kind == "record":
                resolve(item, value)
                unfinished.discard(item.shard.shard_id)
            else:
                if absorb_error(item, value):
                    unfinished.discard(item.shard.shard_id)
                else:
                    queue.append(item)
            cond.notify_all()

        def handle(conn: socket.socket, peer) -> None:
            worker_name = "%s:%d" % peer[:2]
            try:
                conn.settimeout(30.0)
                hello = recv_frame(conn)
                if hello is None or hello.get("type") != "hello":
                    return
                if hello.get("protocol") != PROTOCOL_VERSION:
                    send_frame(conn, {"type": "shutdown"})
                    return
                worker_name = str(hello.get("worker", worker_name))
                # Shard execution is open-ended: no read timeout past
                # the handshake (overruns are the worker's SIGALRM job).
                conn.settimeout(None)
                while True:
                    with cond:
                        while not queue and unfinished and not stopping:
                            cond.wait(0.25)
                        if not unfinished or stopping:
                            break
                        item = queue.popleft()
                    try:
                        send_frame(
                            conn,
                            {
                                "type": "work",
                                "shard_id": item.shard.shard_id,
                                "payload": item.payload,
                            },
                        )
                        reply = recv_frame(conn)
                        # Discard stale frames (e.g. a worker re-sending
                        # a result it already delivered): a duplicate
                        # must never be attributed to the current lease.
                        while (
                            reply is not None
                            and reply.get("type") in ("result", "error")
                            and reply.get("shard_id") != item.shard.shard_id
                        ):
                            self.duplicate_results += 1
                            reply = recv_frame(conn)
                    except (OSError, FrameError) as error:
                        reply = None
                        crash = "died holding %s (%s)" % (item.shard.shard_id, error)
                    else:
                        crash = "disconnected holding %s" % item.shard.shard_id
                    kind = reply.get("type") if reply is not None else None
                    with cond:
                        if kind == "result":
                            finish(item, ("record", reply["record"]))
                            continue
                        if kind == "error":
                            if reply.get("kind") == "ShardTimeout":
                                error = ShardTimeout(
                                    reply.get("message", "remote shard timeout")
                                )
                            else:
                                error = RemoteShardError(
                                    "%s: %s"
                                    % (reply.get("kind", "Error"), reply.get("message", ""))
                                )
                            finish(item, ("error", error))
                            continue
                        if reply is not None:
                            crash = "sent unexpected frame %r" % kind
                        finish(
                            item,
                            ("error", WorkerCrashed("worker %s %s" % (worker_name, crash))),
                        )
                    return
                try:
                    send_frame(conn, {"type": "shutdown"})
                except OSError:
                    pass
            except (OSError, FrameError, socket.timeout):
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

        def accept_loop() -> None:
            while True:
                try:
                    conn, peer = listener.accept()
                except OSError:
                    return
                thread = threading.Thread(
                    target=handle, args=(conn, peer), daemon=True
                )
                thread.start()

        # Crash-retry bookkeeping bounds the respawn loop (a shard that
        # kills every worker eventually exhausts its retries and
        # resolves as failed); this cap is a last-ditch guard against a
        # worker that dies before it takes a shard.
        respawn_budget = self.workers + len(pending) * 2
        spawned: List[int] = []
        try:
            # The first workers fork before the accept thread exists:
            # their connections wait in the listen backlog until it runs.
            for _ in range(self.workers):
                spawned.append(self._fork_worker(listener))
            threading.Thread(target=accept_loop, daemon=True).start()
            with cond:
                while unfinished:
                    cond.wait(0.25)
                    if not self.workers:
                        continue
                    live = [
                        pid for pid in spawned if not os.waitpid(pid, os.WNOHANG)[0]
                    ]
                    if len(live) < self.workers:
                        for _ in range(self.workers - len(live)):
                            if self._respawns >= respawn_budget:
                                break
                            self._respawns += 1
                            live.append(self._fork_worker(listener))
                        spawned = live
                stopping = True
                cond.notify_all()
        finally:
            try:
                listener.close()
            except OSError:
                pass
            for pid in spawned:
                _reap(pid, timeout=10.0)

    def _fork_worker(self, listener: socket.socket) -> int:
        """Fork a local worker and return its pid.  The child serves
        shards from this coordinator, then leaves through ``os._exit``:
        none of the coordinator's exit handlers or buffered output runs
        twice."""
        from repro.campaign.worker import run_worker

        pid = os.fork()
        if pid:
            return pid
        code = 1
        try:
            listener.close()
            run_worker("%s:%d" % self.address, executor=self.executor)
            code = 0
        finally:
            os._exit(code)


def _reap(pid: int, timeout: float) -> None:
    """Wait up to *timeout* seconds for a forked worker, then kill it."""
    deadline = time.monotonic() + timeout
    while not os.waitpid(pid, os.WNOHANG)[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def _local_backend(workers, executor, progress):
    return LocalBackend(workers=workers, executor=executor)


def _worker_pool_backend(
    workers, executor, progress, host="127.0.0.1", port="0", spawn=None
):
    port, spawn = int(port), workers if spawn is None else int(spawn)
    if not (0 <= port <= 65535 and spawn >= 0):
        raise ValueError("worker-pool needs port in 0-65535 and spawn >= 0")
    return WorkerPoolBackend(
        workers=spawn, host=host, port=port, progress=progress, executor=executor
    )


#: Backend constructors by spec name.  A spec's options are the keyword
#: parameters after ``progress``: ``worker-pool`` takes ``host``,
#: ``port`` and ``spawn`` (default: ``workers``), ``local`` none.
BACKENDS = {"local": _local_backend, "worker-pool": _worker_pool_backend}
