"""The batch executor: a JSONL stream of requests through the kernel.

``repro-ethics batch requests.jsonl --workers 4`` reads one JSON
object per line (``{"op": "table1", "args": {"format": "csv"}}``),
fans the requests out over a pool of pre-warmed worker processes,
and emits one compact JSON response line per request **in input
order** — byte-identical for any worker count, through the same
ordered fan-out (:mod:`repro.fanout`) the safeguard pipeline uses.
Each response line carries the operation's structured payload plus
the exact stdout the equivalent subcommand would have produced, so
a batch run is a verifiable transcript of serial CLI invocations.

The parallel path is **cache-aware** and **chunked** (see
:mod:`repro.ops.pool`): the coordinator validates every distinct
operation once up front (an unknown op never spins up a worker),
serves pure requests whose content address is already in the pool's
one :class:`~repro.ops.cache.ResultCache` — or already scheduled
earlier in the run — without touching the pool, groups the rest into
contiguous per-worker chunks, drains them in order (a lost worker is
a :class:`~repro.errors.BatchError` naming the lost requests), and
folds each pure result a worker returns into the cache at its input
position, rebuilt from the response line
(:meth:`~repro.ops.spec.OpResponse.from_dict`) — so the cache evolves
exactly as a serial run's would, and a pure result computed by
worker A is a coordinator hit for worker B's identical request.
Workers hold no cache of their own. With ``warm=True`` the pool, the
coordinator context and the cache all persist across batch runs,
which is what turns the old cold-start inversion (402 req/s at 4
workers vs 2802 serial) into a strict win.

Observability mirrors the pipeline's cross-process design: when the
coordinator runs an enabled observer, each worker request executes
under a :class:`~repro.observability.worker.TelemetryShard` whose
captured events (``ops/request-started``, ``ops/request-completed``
or ``ops/request-failed``) replay into the coordinator's single-
writer chain in input order — coordinator-served cache hits emit the
same bracket inline, so the chain content stays invariant under both
the worker count and the dispatch plan.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Sequence
from pathlib import Path

from ..errors import BatchError, ReproError
from ..observability import audit_event, flight_recorder, get_observer
from ..observability.worker import replay_shard
from .cache import ResultCache, cache_key
from .context import RunContext
from .failures import describe_failure
from .kernel import execute
from .pool import WarmPool, auto_chunk_size, warm_pool
from .spec import (
    Arg,
    Operation,
    OpResponse,
    build_request,
    emit_jsonl,
)

__all__ = [
    "BatchExecutor",
    "BatchRequest",
    "BatchResult",
    "batch_operation",
    "load_requests",
]


@dataclasses.dataclass(frozen=True)
class BatchRequest:
    """One parsed line of a batch request file.

    A malformed line is still a request: *error* holds its
    ``path:N: reason`` text, *op* its ``op`` string if it had one,
    and the request fails alone, at its input position.
    """

    index: int
    op: str | None
    args: dict
    error: str | None = None


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Everything a batch run produced: ordered lines + summary."""

    lines: tuple[dict, ...]
    summary: dict

    def text(self) -> str:
        """The JSONL transcript (one compact line per request)."""
        return "".join(
            emit_jsonl(line) + "\n" for line in self.lines
        )


def _line_error(body: object) -> str | None:
    """Why a decoded line is not a request, or ``None`` if it is."""
    if not isinstance(body, dict) or not isinstance(
        body.get("op"), str
    ):
        return "each request needs an 'op' string"
    if not isinstance(body.get("args", {}), dict):
        return "'args' must be an object"
    unknown = set(body) - {"op", "args"}
    if unknown:
        return f"unknown request keys {sorted(unknown)}"
    return None


def _parse_request(
    path: str | Path, number: int, line: str, index: int
) -> BatchRequest | None:
    """Parse one raw line; ``None`` for blanks."""
    if not line.strip():
        return None
    try:
        body = json.loads(line)
    except json.JSONDecodeError as exc:
        body, reason = None, f"invalid JSON: {exc}"
    else:
        reason = _line_error(body)
    if reason is None:
        return BatchRequest(
            index=index, op=body["op"], args=body.get("args", {})
        )
    op = body.get("op") if isinstance(body, dict) else None
    return BatchRequest(
        index=index,
        op=op if isinstance(op, str) else None,
        args={},
        error=f"{path}:{number}: {reason}",
    )


def load_requests(path: str | Path) -> tuple[BatchRequest, ...]:
    """Parse a JSONL request file; blank lines are skipped.

    Every line should be a JSON object with an ``op`` string and an
    optional ``args`` object. Anything else is kept as a request
    whose ``error`` names the offending line, so it becomes a failed
    response line in input order rather than aborting the batch; an
    unreadable file raises :class:`~repro.errors.BatchError`. The
    file is streamed line by line, so a 100k-request file is never
    held in memory twice (once raw, once parsed).
    """
    requests: list[BatchRequest] = []
    try:
        with Path(path).open(encoding="utf-8") as stream:
            for number, line in enumerate(stream, start=1):
                request = _parse_request(
                    path, number, line, len(requests)
                )
                if request is not None:
                    requests.append(request)
    except OSError as exc:
        raise BatchError(
            f"cannot read batch file {str(path)!r}: {exc}"
        ) from exc
    return tuple(requests)


#: Per-process memo of batch-admitted operations, resolved once per
#: distinct name (coordinator *and* worker) instead of per request.
_BATCHABLE_OPS: dict[str, Operation] = {}


def _batchable_operation(name: str) -> Operation:
    """Resolve *name* to a batch-admitted operation, memoised.

    The registry lookup and the batchable check run once per
    distinct operation name per process — the old per-request
    ``default_registry()`` round trip is gone from the hot path.
    """
    operation = _BATCHABLE_OPS.get(name)
    if operation is None:
        from .catalog import default_registry

        operation = default_registry().get(name)
        if not operation.batchable:
            raise BatchError(
                f"operation {operation.name!r} is not batchable"
            )
        _BATCHABLE_OPS[name] = operation
    return operation


def _resolve_operations(
    requests: Sequence[BatchRequest],
) -> dict[str, Operation]:
    """Validate every distinct op up front, before any pool work.

    Returns the admitted operations by name; a name that is unknown
    or not batchable is simply absent — its requests fail fast as
    local error lines without a single worker being spawned.
    """
    operations: dict[str, Operation] = {}
    for name in {r.op for r in requests if r.error is None}:
        try:
            operations[name] = _batchable_operation(name)
        except ReproError:
            continue
    return operations


def _run_one(
    index: int,
    name: str | None,
    values: dict,
    ctx: RunContext,
    error: str | None = None,
) -> dict:
    """Execute one request; domain failures become failed lines.

    Emits the per-request audit bracket around the kernel call —
    captured by the worker shard in parallel mode, chained inline in
    serial mode — and never lets a :class:`ReproError` escape: the
    failure maps through the kernel's error table into the line body,
    so one bad request cannot abort the batch. A malformed line
    arrives with its parse *error* and fails as a ``BatchError``.
    """
    audit_event(
        "ops", "request-started", subject=name or "", index=index
    )
    try:
        if error is not None:
            raise BatchError(error)
        operation = _batchable_operation(name)
        response = execute(operation, values, context=ctx)
    except ReproError as exc:
        message, code = describe_failure(exc)
        audit_event(
            "ops",
            "request-failed",
            subject=name or "",
            index=index,
            error=message,
        )
        return {
            "error": message,
            "error_type": type(exc).__name__,
            "exit_code": code,
            "index": index,
            "ok": False,
            "op": name,
        }
    audit_event(
        "ops",
        "request-completed",
        subject=name,
        index=index,
        exit_code=response.exit_code,
    )
    return {"index": index, "op": name, **response.to_dict()}


#: The worker process's persistent context, built on first use. It
#: holds no result cache: the coordinator dedups every pure request
#: against the pool's cache before dispatch, so a worker never
#: sees a repeat within a run.
_WORKER_CONTEXT: RunContext | None = None


def _worker_context() -> RunContext:
    """The process-local persistent context for batch workers."""
    global _WORKER_CONTEXT
    if _WORKER_CONTEXT is None:
        _WORKER_CONTEXT = RunContext()
    return _WORKER_CONTEXT


def _stats_delta(cache: ResultCache, before: dict) -> dict:
    """This run's slice of a possibly long-lived cache's counters."""
    stats = cache.stats()
    for counter in ("hits", "misses"):
        stats[counter] -= before[counter]
    return stats


#: Requests listed verbatim in a flight-recorded logical plan before
#: the remainder is summarised as an ``omitted`` count (no silent
#: truncation — the header says exactly what fell off).
_PLAN_ORDER_LIMIT = 64


def _logical_plan(requests: Sequence[BatchRequest]) -> dict:
    """The *logical* dispatch plan the flight recorder rings.

    Input-order request descriptors and per-op totals — a pure
    function of the request file, so incident-bundle bodies stay
    byte-identical across worker counts. The physical configuration
    (worker count, chunking) is deliberately absent: it lives in the
    bundle envelope and in the audit chain's honest ``workers``
    fields.
    """
    ops: dict[str, int] = {}
    for request in requests:
        if request.op is not None:
            ops[request.op] = ops.get(request.op, 0) + 1
    order = [
        [request.index, request.op]
        for request in requests[:_PLAN_ORDER_LIMIT]
    ]
    plan = {
        "ops": dict(sorted(ops.items())),
        "order": order,
        "requests": len(requests),
    }
    if len(requests) > len(order):
        plan["omitted"] = len(requests) - len(order)
    return plan


class BatchExecutor:
    """Streams batch requests through the kernel, in input order.

    ``workers=1`` executes inline under the installed observer;
    more workers fan requests out over a pool of pre-warmed worker
    processes (:class:`~repro.ops.pool.WarmPool`) in contiguous
    chunks, with cache-aware dispatch: pure requests whose content
    address is already in the coordinator's cache never reach the
    pool, and the coordinator folds each pure result a worker
    returns into that cache. Results — and telemetry
    shards — drain strictly in input order, so the JSONL transcript
    and the audit-chain content are invariant under the worker
    count, the chunk size and the dispatch plan.

    ``warm=True`` reuses the process-lifetime pool (and its shared
    cache) registered for this configuration instead of building and
    tearing down a pool per run — the service mode. With
    ``warm=False`` (the default) the pool and cache live for one
    :meth:`run` call, matching the one-shot CLI invocation.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        use_cache: bool = True,
        warm: bool = False,
        chunk_size: int | None = None,
    ) -> None:
        if workers < 1:
            raise BatchError("workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise BatchError("chunk size must be at least 1")
        self.workers = workers
        self.use_cache = use_cache
        self.warm = warm
        self.chunk_size = chunk_size

    def run(
        self, requests: Sequence[BatchRequest]
    ) -> BatchResult:
        """Execute *requests*; returns ordered lines and a summary."""
        recorder = flight_recorder()
        incidents_before = (
            len(recorder.incidents) if recorder is not None else 0
        )
        if recorder is not None:
            recorder.note_plan(_logical_plan(requests))
        audit_event(
            "ops",
            "batch-started",
            requests=len(requests),
            workers=self.workers,
        )
        operations = _resolve_operations(requests)
        pool = self._pool()
        ctx = (
            pool.context
            if pool is not None
            else RunContext(
                cache=ResultCache() if self.use_cache else None
            )
        )
        cache = ctx.cache
        before = cache.stats() if cache is not None else None
        try:
            if self.workers == 1:
                lines = tuple(
                    _run_one(r.index, r.op, r.args, ctx, r.error)
                    for r in requests
                )
            else:
                lines = self._dispatch(pool, requests, operations)
        except ReproError as exc:
            # Dump the ring unless a deeper layer (the warm pool's
            # worker-lost path) already captured this failure — one
            # incident per fault, not one per stack frame.
            if (
                recorder is not None
                and len(recorder.incidents) == incidents_before
            ):
                recorder.incident(
                    "batch-error",
                    reason=f"{type(exc).__name__}: {exc}",
                    workers=self.workers,
                )
            raise
        finally:
            if pool is not None and not self.warm:
                pool.shutdown()
        ok = sum(1 for line in lines if line["ok"])
        failed = len(lines) - ok
        audit_event(
            "ops",
            "batch-finished",
            requests=len(requests),
            ok=ok,
            failed=failed,
        )
        if recorder is not None and failed:
            # Degraded-but-completed runs dump too: failed lines are
            # input-order facts, so this bundle's body is the
            # byte-identical artifact the acceptance gate compares
            # across worker counts.
            recorder.incident(
                "batch-degraded",
                reason=(
                    f"{failed} of {len(lines)} requests failed"
                ),
                workers=self.workers,
            )
        summary = {
            "cache": {
                "enabled": self.use_cache,
                "scope": self._cache_scope(),
            },
            "failed": failed,
            "ok": ok,
            "requests": len(requests),
            "workers": self.workers,
        }
        if cache is not None:
            summary["cache"].update(_stats_delta(cache, before))
        return BatchResult(lines=lines, summary=summary)

    def _cache_scope(self) -> str:
        """The summary label for where cached results live."""
        if self.workers == 1:
            return "warm" if self.warm else "run"
        return "shared-warm" if self.warm else "shared-run"

    def _pool(self) -> WarmPool | None:
        """The pool this run uses; ``None`` for a one-shot serial run.

        The workers=1 warm pool never spawns a process; it is purely
        the persistent coordinator context + cache.
        """
        if self.warm:
            return warm_pool(self.workers, self.use_cache)
        if self.workers == 1:
            return None
        return WarmPool(self.workers, use_cache=self.use_cache)

    def _plan(
        self,
        requests: Sequence[BatchRequest],
        operations: dict[str, Operation],
        ctx: RunContext,
    ) -> tuple[list[tuple[BatchRequest, bool, str | None]], list[tuple]]:
        """Mark each request local or pooled; chunk the pooled ones.

        A request stays **local** (served by the coordinator at its
        drain position, without touching the pool) when it cannot be
        dispatched at all — malformed line, unknown or non-batchable
        op, malformed pure-op arguments — or when it is a pure
        request whose content address is already in the cache *or*
        already scheduled earlier in this run: the ordered drain
        folds the earlier result in before the duplicate is served.
        Everything else lands in chunk order on the pool, and each
        pooled pure request carries its cache key so the drain can
        fold the worker's result in under it.
        """
        cache = ctx.cache
        plan: list[tuple[BatchRequest, bool, str | None]] = []
        pooled: list[tuple] = []
        scheduled: set[str] = set()
        for request in requests:
            operation = (
                None if request.error else operations.get(request.op)
            )
            local = operation is None
            key = None
            if not local and cache is not None and operation.pure:
                try:
                    built = build_request(operation, request.args)
                    digest = ctx.cache_digest(operation, built)
                except ReproError:
                    # Doomed request: fails identically inline.
                    local = True
                else:
                    key = cache_key(operation.name, built, digest)
                    local = key in cache or key in scheduled
                    scheduled.add(key)
                    if not local:
                        # A dispatched request is a miss of this
                        # cache, counted where the lookup happens.
                        cache.get(key)
            plan.append((request, local, key))
            if not local:
                pooled.append((request.index, request.op, request.args))
        size = self.chunk_size or auto_chunk_size(
            len(pooled), self.workers
        )
        chunks = [
            tuple(pooled[offset : offset + size])
            for offset in range(0, len(pooled), size)
        ]
        return plan, chunks

    def _dispatch(
        self,
        pool: WarmPool,
        requests: Sequence[BatchRequest],
        operations: dict[str, Operation],
    ) -> tuple[dict, ...]:
        """Run the dispatch plan; drain strictly in input order."""
        telemetry = get_observer().enabled
        ctx = pool.context
        plan, chunks = self._plan(requests, operations, ctx)
        results = pool.fanout(chunks, telemetry)
        result = None
        position = 0
        lines: list[dict] = []
        for request, local, key in plan:
            # Local requests run here at their drain position; pooled
            # ones were run by a worker, whose audit bracket replays
            # from its shard — either way the chain is input-ordered.
            if local:
                line = _run_one(
                    request.index,
                    request.op,
                    request.args,
                    ctx,
                    request.error,
                )
            else:
                if result is None or position == len(result.lines):
                    result, position = next(results), 0
                shard = result.shards[position]
                if shard is not None:
                    replay_shard(shard)
                line = result.lines[position]
                position += 1
                if key is not None and "output" in line:
                    # Folded in at its input position, as a serial
                    # run's put: the cache evolves exactly as serial.
                    ctx.cache.merge([(key, OpResponse.from_dict(line))])
            lines.append(line)
        return tuple(lines)


def _run_batch(request: dict, ctx: RunContext) -> OpResponse:
    """The ``batch`` operation handler."""
    from ..observability import FlightRecorder, Observer, observed

    requests = load_requests(request["requests"])
    executor = BatchExecutor(
        workers=request["workers"],
        use_cache=not request["no_cache"],
        warm=request["warm"],
        chunk_size=request["chunk_size"],
    )
    recorder = None
    if request["flight_dir"] is not None:
        recorder = FlightRecorder(
            capacity=request["flight_capacity"],
            dump_dir=request["flight_dir"],
        )
    audit_log = request["audit_log"]
    if audit_log is not None:
        observer = ctx.make_observer(audit_log)
    elif recorder is not None:
        observer = Observer()
    else:
        observer = get_observer()
    with observed(observer.attach(flight=recorder)):
        try:
            result = executor.run(requests)
        finally:
            if audit_log is not None:
                observer.trail.close()
    payload = dict(result.summary)
    if audit_log is not None:
        trail = observer.trail
        payload["observability"] = {
            "audit_events": len(trail),
            "audit_log": str(trail.path),
            "chain_intact": trail.verify().ok,
            "tail_digest": trail.tail_digest,
        }
    if recorder is not None:
        payload["flight"] = {
            "capacity": recorder.capacity,
            "dir": str(recorder.dump_dir),
            "incidents": [
                {
                    "digest": bundle.digest(),
                    "frames": len(bundle.events),
                    "kind": bundle.kind,
                }
                for bundle in recorder.incidents
            ],
        }
    return OpResponse(
        payload=payload,
        text=result.text(),
        exit_code=0 if payload["failed"] == 0 else 1,
    )


def batch_operation() -> Operation:
    """The registered ``batch`` operation definition."""
    return Operation(
        name="batch",
        help=(
            "stream a JSONL file of operation requests through the "
            "service kernel and print one response line per request"
        ),
        handler=_run_batch,
        args=(
            Arg(
                "requests",
                required=True,
                help=(
                    "path to a JSONL file; each line is "
                    '{"op": NAME, "args": {...}}'
                ),
            ),
            Arg(
                "--workers",
                kind=int,
                default=1,
                help=(
                    "process-pool size; responses are byte-identical "
                    "for any value"
                ),
            ),
            Arg(
                "--warm",
                flag=True,
                help=(
                    "reuse the process-lifetime warm worker pool and "
                    "shared result cache across batch runs (service "
                    "mode) instead of building a pool per run"
                ),
            ),
            Arg(
                "--chunk-size",
                kind=int,
                default=None,
                metavar="N",
                help=(
                    "requests per worker chunk (default: sized from "
                    "the request count and worker count); the "
                    "transcript is byte-identical for any value"
                ),
            ),
            Arg(
                "--audit-log",
                default=None,
                metavar="PATH",
                help=(
                    "record per-request audit events as a tamper-"
                    "evident JSONL trail (merged in input order from "
                    "worker telemetry shards)"
                ),
            ),
            Arg(
                "--no-cache",
                flag=True,
                help=(
                    "disable the content-addressed result cache for "
                    "pure operations"
                ),
            ),
            Arg(
                "--flight-dir",
                default=None,
                metavar="PATH",
                help=(
                    "enable the flight recorder and dump hash-"
                    "chained incident bundles (worker loss, batch "
                    "errors, failed requests) into this directory"
                ),
            ),
            Arg(
                "--flight-capacity",
                kind=int,
                default=256,
                metavar="N",
                help=(
                    "flight-recorder ring size: how many recent "
                    "audit events an incident bundle carries "
                    "(default: 256)"
                ),
            ),
        ),
        batchable=False,
    )
