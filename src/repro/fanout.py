"""The ordered fan-out: chunks to worker processes, results in order.

Three callers ship contiguous chunks of work to a process pool — the
batch executor over a :class:`~repro.ops.pool.WarmPool`, and the
safeguard pipeline and the parallel lint each over a per-run
``ProcessPoolExecutor`` — and all need the same discipline, which
lives here once:

* **A bounded window.** At most :data:`IN_FLIGHT_PER_WORKER` ×
  workers chunks are in flight; each drained chunk frees one slot,
  so memory stays bounded however long the chunk source is.
* **An eager first window.** :class:`OrderedFanout` submits the first
  window when it is built, so workers start while the coordinator is
  still serving local work (the batch executor's cache hits).
* **Strict submission order.** Results are yielded in the order the
  chunks were submitted, so output bytes and replayed telemetry
  shards are invariant under the worker count.
* **One worker-lost report.** A dead worker surfaces once, through
  :func:`worker_lost`: a ``<category>/worker-lost`` audit event, one
  flight-recorder incident and the caller's typed error naming the
  lost chunk — never a raw ``BrokenProcessPool`` traceback.

The submission call itself stays with each caller, next to the
executor it builds: the engine only sees ``submit(item) -> future``,
so staticcheck rule R9 still audits every submitted callable where
the pool is bound.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import BrokenExecutor
from itertools import islice

from .errors import ReproError
from .observability import audit_event, flight_recorder

__all__ = ["IN_FLIGHT_PER_WORKER", "OrderedFanout", "worker_lost"]

#: Chunks in flight per worker: enough that a worker finishing a
#: chunk finds the next one queued, few enough to bound memory.
IN_FLIGHT_PER_WORKER = 2


def _result(future, item):
    """The default resolver: wait for the future's value."""
    return future.result()


class OrderedFanout(Iterator):
    """Iterate chunk results in submission order over a bounded window.

    *submit* hands one item to the caller's pool and returns its
    future; *items* may be lazy and is consumed only as the window
    frees. *lost* maps ``(item, exception)`` to the caller's typed
    error, normally via :func:`worker_lost`, and runs once, for the
    earliest chunk whose result the pool lost. *resolve* waits for one
    ``(future, item)``. A submission the broken pool refuses stops
    further submission: the chunks already in flight drain first,
    and whichever of them really lost its result is the one reported.
    """

    def __init__(
        self,
        submit: Callable,
        items: Iterable,
        *,
        workers: int,
        lost: Callable[[object, BaseException], ReproError],
        resolve: Callable = _result,
    ) -> None:
        self.window = IN_FLIGHT_PER_WORKER * workers
        self._submit = submit
        self._items = iter(items)
        self._lost = lost
        self._resolve = resolve
        self._pending: deque = deque()
        self._refused: tuple | None = None
        self._top_up()

    def _top_up(self) -> None:
        """Submit items until the window is full or the pool refuses."""
        for item in islice(self._items, self.window - len(self._pending)):
            try:
                self._pending.append((item, self._submit(item)))
            except (BrokenExecutor, RuntimeError) as exc:
                self._refused = (item, exc)
                return

    def __next__(self):
        """The next result in submission order, or the loss, once."""
        if not self._pending:
            if self._refused is None:
                raise StopIteration
            item, exc = self._refused
            self._refused = None
            raise self._lost(item, exc) from exc
        item, future = self._pending.popleft()
        try:
            result = self._resolve(future, item)
        except BrokenExecutor as exc:
            self._pending.clear()
            self._refused = None
            raise self._lost(item, exc) from exc
        if self._refused is None:
            self._top_up()
        return result


def worker_lost(
    category: str,
    span: str,
    exc: BaseException,
    *,
    workers: int,
    error: type[ReproError],
    note: str = "",
    **envelope: object,
) -> ReproError:
    """Report one worker death; returns the caller's error to raise.

    Emits ``<category>/worker-lost`` naming the lost *span*, then dumps
    one ``worker-lost`` flight incident while the ring still holds the
    events that led up to the loss (the free-text cause, the span and
    *envelope* are envelope material: they vary with chunking).
    """
    audit_event(
        category, "worker-lost", subject="pool", workers=workers, span=span
    )
    cause = f"{type(exc).__name__}: {exc}"
    recorder = flight_recorder()
    if recorder is not None:
        recorder.incident(
            "worker-lost",
            reason=cause,
            span=span,
            workers=workers,
            **envelope,
        )
    return error(
        f"worker process lost while running {span} ({cause}){note}"
    )
