"""The warm worker pool: pre-forked, pre-warmed, process-lifetime.

``BENCH_ops.json`` recorded the standing inversion this module
removes: a 24-request batch ran at 402 req/s with ``workers=4``
against 2802 req/s serial, because every parallel batch paid full
process-pool startup and each worker rebuilt its
:class:`~repro.ops.context.RunContext` — corpus and content digest —
from nothing. A :class:`WarmPool` pays those costs once per
*process lifetime* instead of once per *batch run*:

* **Pre-forked, pre-warmed workers.** The pool's
  ``ProcessPoolExecutor`` is built lazily on first submission (a
  batch of invalid requests never spawns a process) and each worker
  runs :func:`_warm_worker` at startup: the operation registry is
  assembled and the per-process :class:`RunContext` is constructed
  with its corpus + BLAKE2b content digest materialised — so the
  first real request a worker sees costs only the request.
* **One result cache, on the coordinator.** The pool owns the
  coordinator-side :class:`~repro.ops.cache.ResultCache` and the
  coordinator :class:`RunContext` wrapping it; both persist across
  batch runs. Workers hold no cache: the batch executor dedups every
  pure request against this cache (and against earlier chunks of
  the run) before dispatch, so a worker never sees a repeat, and it
  folds each pure result a worker returns into this cache from the
  response line itself (:class:`ChunkResult` carries only lines and
  telemetry shards).
* **Chunked submission.** Requests cross the pickle/IPC boundary in
  contiguous chunks (:func:`auto_chunk_size` targets ~4 chunks per
  worker, capped so a chunk never grows unbounded), amortising the
  submission overhead that dominated small-request batches.
* **Graceful degradation.** Chunks run through the shared ordered
  fan-out (:class:`~repro.fanout.OrderedFanout`), so a crashed
  worker surfaces as :class:`~repro.errors.BatchError` naming the
  affected request indexes — never a raw ``BrokenProcessPool``
  traceback — with one ``ops/worker-lost`` audit event and one
  flight incident, and the pool discards its broken executor so the
  next use rebuilds lazily.

Pools are keyed by ``(workers, cache enablement)`` in a module-level
registry (:func:`warm_pool`); :func:`shutdown_warm_pools` tears all
of them down (tests and benchmarks use it for isolation), and the
first pool creation registers it as an ``atexit`` hook, so a
long-lived session never leaks pre-forked workers.
:meth:`WarmPool.health` is the liveness/readiness report (live
workers, rebuilds, cache counters, optional probe round-trip) behind
``repro-ethics obs health``. Work reaches the executor at one
submission site, :meth:`WarmPool.submit_chunk`, where staticcheck
rule R9 (worker-safety) checks the submitted callable: a
module-level function, not a lambda, nested function or bound
method, with no mutable default and no lambda argument.
"""

from __future__ import annotations

import atexit
import dataclasses
from collections.abc import Iterable

from ..errors import BatchError
from ..fanout import OrderedFanout, worker_lost
from ..observability.worker import TelemetryShard, WorkerTelemetry
from .cache import ResultCache
from .context import RunContext

__all__ = [
    "ChunkResult",
    "WarmPool",
    "active_pools",
    "auto_chunk_size",
    "shutdown_warm_pools",
    "warm_pool",
]

#: Chunks per worker the auto-sizer aims for: small enough that a
#: slow chunk cannot starve the drain, large enough to amortise IPC.
_CHUNKS_PER_WORKER = 4

#: Ceiling on the auto-sized chunk (requests per pickle crossing).
_MAX_AUTO_CHUNK = 32


def auto_chunk_size(pending: int, workers: int) -> int:
    """The default requests-per-chunk for *pending* dispatches.

    Targets :data:`_CHUNKS_PER_WORKER` chunks per worker so the
    ordered drain always has work in flight, clamped to
    ``[1, _MAX_AUTO_CHUNK]`` so tiny batches still parallelise and
    huge ones keep bounded pickle payloads.
    """
    if pending <= 0:
        return 1
    ideal = -(-pending // (workers * _CHUNKS_PER_WORKER))
    return max(1, min(_MAX_AUTO_CHUNK, ideal))


@dataclasses.dataclass(frozen=True)
class ChunkResult:
    """Everything one worker chunk ships back to the coordinator.

    ``lines`` are the response line bodies in chunk order;
    ``shards`` is the parallel tuple of per-request telemetry
    captures (``None`` when the coordinator's observer is disabled).
    """

    lines: tuple[dict, ...]
    shards: tuple[WorkerTelemetry | None, ...]


def _warm_worker() -> None:
    """Pool initializer: build and warm the per-process state.

    Runs once in every worker at spawn time, before any request:
    assembles the operation registry (so per-request dispatch is a
    dict hit), constructs the persistent worker
    :class:`RunContext`, and materialises the corpus and its content
    digest — the costs that previously made every worker's first
    request ~100x slower than its second.
    """
    from .batch import _worker_context
    from .catalog import default_registry

    default_registry()
    _worker_context().warm_up()


def _execute_chunk(chunk: tuple, telemetry: bool) -> ChunkResult:
    """Worker-side entry point: run one contiguous request chunk.

    *chunk* is a tuple of ``(index, op, args)`` triples. Each
    request executes through the same :func:`~repro.ops.batch._run_one`
    path a serial run uses, under its own
    :class:`~repro.observability.worker.TelemetryShard` when the
    coordinator observes, so per-request audit brackets replay in
    exact submission order.
    """
    from .batch import _run_one, _worker_context

    ctx = _worker_context()
    lines: list[dict] = []
    shards: list[WorkerTelemetry | None] = []
    for index, name, values in chunk:
        if telemetry:
            with TelemetryShard() as shard:
                lines.append(_run_one(index, name, values, ctx))
            shards.append(shard.telemetry())
        else:
            lines.append(_run_one(index, name, values, ctx))
            shards.append(None)
    return ChunkResult(lines=tuple(lines), shards=tuple(shards))


class WarmPool:
    """A lazily built, reusable pool of pre-warmed worker processes.

    Owns the batch's one :class:`ResultCache`, on the coordinator
    side, and the coordinator :class:`RunContext` wrapping it — both
    survive across batch runs, which is what makes a second batch on
    the same pool free of every cold-start cost. The executor itself is
    built on first submission and discarded (for lazy rebuild) when
    a worker is lost.
    """

    #: Coordinator caches outlive single runs; give them headroom
    #: beyond the :class:`ResultCache` default so a service working
    #: set fits.
    COORDINATOR_CACHE_SIZE = 1024

    def __init__(self, workers: int, use_cache: bool = True) -> None:
        if workers < 1:
            raise BatchError("workers must be at least 1")
        self.workers = workers
        self.cache = (
            ResultCache(maxsize=self.COORDINATOR_CACHE_SIZE)
            if use_cache
            else None
        )
        self.context = RunContext(cache=self.cache)
        self.rebuilds = 0
        self._executor = None

    @property
    def live(self) -> bool:
        """Whether worker processes currently back this pool."""
        return self._executor is not None

    def _ensure(self):
        """The executor, built (with warm-up initializer) on demand."""
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_warm_worker
            )
            self._executor = executor
        return self._executor

    def start(self) -> int:
        """Pre-fork and warm every worker now; returns the count.

        Submission normally spawns workers on demand; a server (or
        benchmark) that wants the fork+warm-up cost paid up front
        sends one empty probe chunk per worker through
        :meth:`fanout`, which forces the full complement of processes
        to spawn and run :func:`_warm_worker`.
        """
        for _ in self.fanout([()] * self.workers, False):
            pass
        return self.workers

    def fanout(
        self, chunks: Iterable[tuple], telemetry: bool
    ) -> OrderedFanout:
        """The chunks' results in order; worker loss is a BatchError."""
        return OrderedFanout(
            lambda chunk: self.submit_chunk(chunk, telemetry),
            chunks,
            workers=self.workers,
            lost=self._lost,
            resolve=self.outcome,
        )

    def submit_chunk(self, chunk: tuple, telemetry: bool):
        """Submit one ``(index, op, args)`` chunk; returns its future."""
        executor = self._ensure()
        return executor.submit(_execute_chunk, chunk, telemetry)

    def outcome(self, future, chunk: tuple) -> ChunkResult:
        """Wait for one chunk's result: the coordinator's wait point."""
        return future.result()

    def health(self, *, probe: bool = False) -> dict:
        """The pool's liveness/readiness report, JSON-safe and sorted.

        Reports whether worker processes currently back the pool,
        how many times a broken executor was discarded and rebuilt,
        whether the coordinator context is warm (corpus + digest
        materialised) and the shared cache's counters. With
        ``probe=True`` it also performs a full **probe round-trip**:
        one empty chunk per worker through :meth:`start`, forcing
        the complement of processes to spawn, warm and answer — the
        readiness check a server loop would poll. A failed probe is
        reported (``ok: False`` with the failure text), never
        raised, so a health endpoint cannot crash on the very
        condition it exists to report.
        """
        report: dict = {
            "cache": (
                {"enabled": True, **self.cache.stats()}
                if self.cache is not None
                else {"enabled": False}
            ),
            "context_warm": self.context.is_warm,
            "live": self.live,
            "rebuilds": self.rebuilds,
            "workers": self.workers,
        }
        if probe:
            try:
                self.start()
            except BatchError as exc:
                report["probe"] = {"ok": False, "error": str(exc)}
            else:
                report["probe"] = {
                    "ok": True,
                    "round_trips": self.workers,
                }
            report["live"] = self.live
        return report

    def _lost(self, chunk: tuple, exc: BaseException) -> BatchError:
        """Discard the broken executor; name the lost requests."""
        self.discard()
        if not chunk:
            span = "a warm-up probe"
        elif chunk[0][0] == chunk[-1][0]:
            span = f"request {chunk[0][0]}"
        else:
            span = f"requests {chunk[0][0]}-{chunk[-1][0]}"
        return worker_lost(
            "ops",
            span,
            exc,
            workers=self.workers,
            error=BatchError,
            note=(
                "; the pool was discarded and will rebuild on next use"
            ),
            rebuilds=self.rebuilds,
        )

    def discard(self) -> None:
        """Drop the executor (broken or not); next use rebuilds it."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
            self.rebuilds += 1

    def shutdown(self) -> None:
        """Terminate the worker processes, keeping the shared cache."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


#: Process-lifetime pool registry, keyed by (workers, cache on/off).
_WARM_POOLS: dict[tuple[int, bool], WarmPool] = {}

#: Exit-hook state: registered once per process, on first pool
#: creation. A dict (not a global) so the mutation site stays the
#: memo-idiom shape R8 recognises.
_ATEXIT = {"registered": False}


def active_pools() -> tuple[WarmPool, ...]:
    """Registered warm pools, ordered by (workers, cache) key."""
    return tuple(
        _WARM_POOLS[key] for key in sorted(_WARM_POOLS)
    )


def warm_pool(workers: int, use_cache: bool = True) -> WarmPool:
    """The process-lifetime :class:`WarmPool` for this configuration.

    Successive ``BatchExecutor(..., warm=True)`` runs with the same
    worker count and cache setting share one pool — and therefore
    one set of warmed workers and one coordinator cache. With
    ``workers=1`` the pool never spawns a process; only its
    persistent coordinator context (and cache) is used.
    """
    key = (workers, use_cache)
    pool = _WARM_POOLS.get(key)
    if pool is None:
        if not _ATEXIT["registered"]:
            # Register lazily, on first pool creation, so importing
            # the module costs nothing and the hook exists exactly
            # when there is something to clean up.
            _ATEXIT["registered"] = True
            atexit.register(shutdown_warm_pools)
        pool = WarmPool(workers, use_cache=use_cache)
        _WARM_POOLS[key] = pool
    return pool


def shutdown_warm_pools() -> int:
    """Shut down every registered warm pool; returns how many.

    Drops the pools' coordinator caches too — after this call the
    process is back to a fully cold state (tests and benchmarks use
    it as the isolation boundary).
    """
    pools = list(_WARM_POOLS.values())
    _WARM_POOLS.clear()
    for pool in pools:
        pool.shutdown()
    return len(pools)
