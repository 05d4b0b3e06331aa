"""Session-affinity sharding across worker processes.

One Python process can overlap read-only turn work on threads (the MVCC
snapshot layer removed the lock that used to serialise them), but the
GIL still caps CPU-bound NLU + query execution at one core.  The shard
tier scales past that the way the paper's "millions of users"
deployment would: N worker processes, each hosting its own
:class:`~repro.serving.runtime.AgentRuntime` over a *replica* of the
database (inherited on fork, or restored by spawn workers from the
format-v4 incremental snapshot: sealed base image plus delta log), with
a router in front that hashes session ids to workers.  Affinity is
total — a session's every turn lands on the same worker, so dialogue
state, per-session connections and transcripts never cross process
boundaries.

Replicas imply per-worker writes stay per-worker (a booking commits on
the owning session's replica only); that is the right trade for the
read-dominated conversational workload this tier exists to scale, and
it mirrors the share-nothing partitioning argument of the HTAP line of
work in PAPERS.md.

The wire protocol is deliberately tiny: one duplex pipe per worker,
``(op, payload)`` request tuples answered by ``("ok", value)`` or
``("err", kind, message)``; a per-worker mutex serialises request/reply
pairs while different workers proceed in parallel.  Replies carry
:class:`ShardReply` values and plain dicts (no agent objects cross the
pipe).

``bootstrap`` builds the worker's runtime.  Pass a callable for
fork-based starts (the child inherits it — and, typically, the already
built runtime closed over it, making worker start effectively free) or
a ``"module:attribute"`` string for spawn-safe starts; either receives
``bootstrap_arg`` (e.g. a snapshot path) when given.  ``inprocess=True``
skips processes entirely and hosts every "worker" runtime in the
calling process; one in-process worker is the default ``repro serve``
path, so in-process and multi-process serving share one REPL.
A worker process that dies surfaces as :class:`ServingError` on its
sessions; the other workers keep serving.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import zlib
from dataclasses import dataclass, fields
from typing import Any

from repro.errors import ServingError, SessionExpiredError, UnknownSessionError

__all__ = ["ShardReply", "ShardRouter", "ShardStats", "WorkerStats"]

_shard_session_counter = itertools.count(1)

# Typed errors that cross the pipe, most specific first (an expired
# session is also an unknown one); anything else arrives as ServingError.
_ERROR_KINDS: dict[str, type[Exception]] = {
    "session_expired": SessionExpiredError,
    "unknown_session": UnknownSessionError,
    "serving": ServingError,
}


@dataclass(frozen=True)
class ShardReply:
    """One turn's reply as it crossed the worker pipe."""

    text: str
    executed: bool
    intent: str | None


@dataclass(frozen=True)
class WorkerStats:
    """One worker's serving counters (a pipe-safe RuntimeStats cut)."""

    worker: int
    live_sessions: int
    turns_served: int
    transactions_committed: int
    transactions_aborted: int
    snapshot_version: int
    commit_waits: int


@dataclass(frozen=True)
class ShardStats:
    """Aggregate + per-worker counters of the shard tier."""

    workers: tuple[WorkerStats, ...]

    @property
    def turns_served(self) -> int:
        return sum(w.turns_served for w in self.workers)

    @property
    def live_sessions(self) -> int:
        return sum(w.live_sessions for w in self.workers)

    @property
    def per_worker_turns(self) -> tuple[int, ...]:
        return tuple(w.turns_served for w in self.workers)


# The RuntimeStats counters a WorkerStats carries (all but ``worker``).
_WORKER_COUNTERS = tuple(f.name for f in fields(WorkerStats))[1:]


def _build_runtime(bootstrap: Any, bootstrap_arg: Any) -> Any:
    """Call ``bootstrap`` (a callable or a ``"module:attribute"`` spec),
    passing ``bootstrap_arg`` when given."""
    factory = bootstrap
    if not callable(factory):
        module_name, __, attribute = str(bootstrap).partition(":")
        if not attribute:
            raise ServingError(
                f"bootstrap spec {bootstrap!r} is not 'module:attribute'"
            )
        import importlib

        factory = importlib.import_module(module_name)
        for part in attribute.split("."):
            factory = getattr(factory, part)
        if not callable(factory):
            raise ServingError(
                f"bootstrap {bootstrap!r} resolved to a non-callable"
            )
    return factory() if bootstrap_arg is None else factory(bootstrap_arg)


def _serve_request(runtime: Any, op: str, payload: Any) -> Any:
    """Dispatch one router request against the worker's runtime."""
    if op == "respond":
        session_id, text = payload
        reply = runtime.respond(session_id, text)
        intent = reply.nlu.intent if reply.nlu else None
        return ShardReply(reply.text, reply.executed, intent)
    if op == "create_session":
        return runtime.create_session(payload)
    if op == "end_session":
        runtime.end_session(payload)
        return None
    if op == "session_ids":
        return runtime.session_ids()
    if op == "stats":
        # Every RuntimeStats counter, as a plain dict.
        return dict(vars(runtime.stats()))
    if op == "session_stats":
        # Peek, not get: listing must not refresh TTL/LRU.
        return [
            dict(vars(runtime.session_stats(sid)))
            for sid in runtime.session_ids()
        ]
    if op == "storage_stats":
        return {
            name: dict(vars(s)) for name, s in runtime.storage_stats().items()
        }
    if op == "advisor":
        return [
            dict(vars(s), statement=s.statement) for s in runtime.advisor()
        ]
    if op == "compact":
        return runtime.compact()
    if op == "autotune":
        # The status dict is already pipe-safe (plain scalars and
        # lists; column values in MCV buckets are schema types).
        return runtime.autotune_status()
    if op == "replica_status":
        # Pipe-safe by construction (ReplicaManager.status emits plain
        # scalars); {"enabled": False} when the worker has no replicas.
        return runtime.replica_status()
    raise ServingError(f"unknown shard op {op!r}")


def _error_kind(exc: BaseException) -> str:
    for kind, error in _ERROR_KINDS.items():
        if isinstance(exc, error):
            return kind
    return "runtime"


def _worker_main(conn, bootstrap: Any, bootstrap_arg: Any) -> None:
    """Worker process entry: build the runtime, answer until shutdown."""
    try:
        runtime = _build_runtime(bootstrap, bootstrap_arg)
    except BaseException as exc:  # noqa: BLE001 - reported to the router
        conn.send(("err", _error_kind(exc), f"bootstrap failed: {exc}"))
        conn.close()
        return
    conn.send(("ok", "ready"))
    while True:
        try:
            op, payload = conn.recv()
        except EOFError:
            break
        if op == "shutdown":
            conn.send(("ok", None))
            break
        try:
            conn.send(("ok", _serve_request(runtime, op, payload)))
        except BaseException as exc:  # noqa: BLE001 - crossed back as err
            conn.send(("err", _error_kind(exc), str(exc)))
    conn.close()


class _ProcessWorker:
    """Router-side handle of one worker process."""

    def __init__(self, index: int, ctx, bootstrap: Any, bootstrap_arg: Any):
        self.index = index
        self.lock = threading.Lock()
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_worker_main,
            args=(child_conn, bootstrap, bootstrap_arg),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        status = self._conn.recv()
        if status[0] != "ok":
            raise ServingError(f"worker {index}: {status[2]}")

    def request(self, op: str, payload: Any) -> Any:
        with self.lock:
            try:
                self._conn.send((op, payload))
                reply = self._conn.recv()
            except (OSError, EOFError) as exc:
                raise ServingError(
                    f"shard worker {self.index} is unreachable: {exc!r}"
                ) from exc
        if reply[0] == "ok":
            return reply[1]
        __, kind, message = reply
        raise _ERROR_KINDS.get(kind, ServingError)(message)

    def close(self) -> None:
        try:
            self.request("shutdown", None)
        except ServingError:
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
        self._conn.close()


class _InprocessWorker:
    """One "worker" hosted in the calling process (no pipe, no fork)."""

    def __init__(self, index: int, bootstrap: Any, bootstrap_arg: Any):
        self.index = index
        self._runtime = _build_runtime(bootstrap, bootstrap_arg)

    def request(self, op: str, payload: Any) -> Any:
        return _serve_request(self._runtime, op, payload)

    def close(self) -> None:
        pass


class ShardRouter:
    """Hash session ids across N single-runtime workers.

    The router is thread-safe: callers on different sessions whose
    shards differ proceed fully in parallel (distinct pipes, distinct
    processes, distinct GILs).
    """

    def __init__(
        self,
        workers: int,
        bootstrap: Any,
        bootstrap_arg: Any = None,
        start_method: str | None = None,
        inprocess: bool = False,
    ) -> None:
        if workers < 1:
            raise ServingError("workers must be >= 1")
        self._workers: list[Any] = []
        try:
            ctx = None if inprocess else \
                multiprocessing.get_context(start_method)
            for index in range(workers):
                self._workers.append(
                    _InprocessWorker(index, bootstrap, bootstrap_arg)
                    if inprocess
                    else _ProcessWorker(index, ctx, bootstrap, bootstrap_arg)
                )
        except BaseException:
            self.close()
            raise
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def shard_of(self, session_id: str) -> int:
        """The worker index owning ``session_id`` (stable affinity)."""
        return zlib.crc32(session_id.encode("utf-8")) % len(self._workers)

    def _worker_for(self, session_id: str):
        return self._workers[self.shard_of(session_id)]

    # ------------------------------------------------------------------
    def create_session(self, session_id: str | None = None) -> str:
        if session_id is None:
            session_id = f"sh{next(_shard_session_counter):06d}"
        self._worker_for(session_id).request("create_session", session_id)
        return session_id

    def respond(self, session_id: str, text: str) -> ShardReply:
        return self._worker_for(session_id).request(
            "respond", (session_id, text)
        )

    def end_session(self, session_id: str) -> None:
        self._worker_for(session_id).request("end_session", session_id)

    def session_ids(self) -> list[str]:
        ids: list[str] = []
        for worker in self._workers:
            ids.extend(worker.request("session_ids", None))
        return ids

    def stats(self) -> ShardStats:
        return ShardStats(workers=tuple(
            WorkerStats(worker=index, **{
                name: counters[name] for name in _WORKER_COUNTERS
            })
            for index, counters in sorted(self.runtime_stats().items())
        ))

    def _each_worker(self, op: str) -> dict[int, Any]:
        """One ``op`` answered by every worker, keyed by worker index.

        Each worker owns its database replica (and, with
        ``--replicas``, its own analytic replicas), so storage,
        replication, advisor and autotune figures are inherently per
        worker: replicas tune independently and follow the sessions
        hashed to them.
        """
        return {
            worker.index: worker.request(op, None)
            for worker in self._workers
        }

    def storage_stats(self) -> dict[int, dict[str, dict[str, Any]]]:
        """Per-worker, per-table sealed/delta/compaction figures."""
        return self._each_worker("storage_stats")

    def compact(self) -> dict[int, int]:
        """Compact every worker's replica; tables resealed per worker."""
        return self._each_worker("compact")

    def replica_status(self) -> dict[int, dict[str, Any]]:
        """Per-worker replication status (lag, routes, ring)."""
        return self._each_worker("replica_status")

    def autotune_status(self) -> dict[int, dict[str, Any]]:
        """Per-worker self-driving policy status."""
        return self._each_worker("autotune")

    def advisor(self) -> dict[int, list[dict[str, Any]]]:
        """Per-worker ranked CREATE INDEX suggestions."""
        return self._each_worker("advisor")

    def runtime_stats(self) -> dict[int, dict[str, Any]]:
        """Per-worker RuntimeStats counters, every field."""
        return self._each_worker("stats")

    def session_stats(self) -> dict[int, list[dict[str, Any]]]:
        """Per-worker SessionStats of every live session."""
        return self._each_worker("session_stats")

    # ------------------------------------------------------------------
    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        for worker in self._workers:
            worker.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
