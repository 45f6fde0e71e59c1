"""Logical-clock telemetry windows: per-N-requests, no wall time.

Production SLO tooling slices telemetry into *time* windows; this
repository's telemetry is deliberately clock-free, so the health
surface slices by **logical clock** instead — every window covers a
fixed number of requests, whatever wall time they took. The result
is reproducible by construction: the windowed view of an audit chain
is a pure function of the chain, so ``workers=1`` and ``workers=N``
batch runs of the same request file window identically.

* :class:`RequestSample` — one request's contribution: outcome,
  optional latency (seconds), queue depth, worker busyness, cache
  hit/miss. Every field except ``ok`` is optional because the one
  feeder in the package, the audit chain, knows only outcomes; the
  other fields are there for callers that build samples themselves
  (and for request spans, once the request path has them).
* :class:`Window` — the per-window aggregate: ok/failed counts, a
  latency :class:`~repro.observability.metrics.Histogram` over the
  shared :data:`~repro.observability.metrics.BUCKET_BOUNDS` (which
  keeps bucket-estimated percentiles mergeable across sources),
  queue-depth max/mean, worker utilization and cache hit rate.
  :meth:`Window.merge` is commutative — counts add, buckets add,
  extremes take min/max — so merging per-window aggregates from two
  sources is **order-stable**: ``merge(a, b)`` and ``merge(b, a)``
  produce identical measurements.
* :class:`WindowSeries` — the rolling collection: ``observe()``
  folds samples into the open window and closes it every
  ``window_size`` requests; the final partial window is evaluated
  too (a short run still gets an SLO verdict).
* :func:`windows_from_events` — the audit-chain feeder: folds the
  ``ops/request-completed`` / ``ops/request-failed`` brackets of a
  verified chain into a series. Chains carry no timings, so the
  latency histogram stays empty and latency objectives report
  ``no-data`` — the honest reading of a clock-free record.

The SLO engine (:mod:`repro.observability.slo`) evaluates declarative
objectives over these windows.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

from ..errors import SafeguardError
from .events import AuditEvent
from .metrics import Histogram

__all__ = [
    "RequestSample",
    "Window",
    "WindowSeries",
    "windows_from_events",
]


@dataclasses.dataclass(frozen=True)
class RequestSample:
    """One request's telemetry contribution to the current window.

    ``latency`` is in seconds; ``cache`` is ``"hit"``, ``"miss"`` or
    ``None`` (unknown); ``queue_depth`` counts work in flight behind
    this request; ``busy_workers``/``workers`` feed the utilization
    series. Unknown fields stay ``None`` and simply do not contribute
    — a window only reports series it actually saw, and samples
    derived from the audit chain (:func:`windows_from_events`) carry
    only ``ok``.
    """

    ok: bool = True
    latency: float | None = None
    queue_depth: int | None = None
    busy_workers: int | None = None
    workers: int | None = None
    cache: str | None = None


class Window:
    """The aggregate of one logical window of requests."""

    __slots__ = (
        "index",
        "start",
        "count",
        "ok",
        "failed",
        "latency",
        "queue_depth_max",
        "queue_depth_total",
        "queue_samples",
        "busy_total",
        "worker_total",
        "hits",
        "misses",
    )

    def __init__(self, index: int, start: int) -> None:
        self.index = index
        self.start = start
        self.count = 0
        self.ok = 0
        self.failed = 0
        self.latency = Histogram()
        self.queue_depth_max = 0
        self.queue_depth_total = 0
        self.queue_samples = 0
        self.busy_total = 0
        self.worker_total = 0
        self.hits = 0
        self.misses = 0

    def observe(self, sample: RequestSample) -> None:
        """Fold one sample into this window's aggregates."""
        self.count += 1
        if sample.ok:
            self.ok += 1
        else:
            self.failed += 1
        if sample.latency is not None:
            self.latency.observe(sample.latency)
        if sample.queue_depth is not None:
            self.queue_samples += 1
            self.queue_depth_total += sample.queue_depth
            if sample.queue_depth > self.queue_depth_max:
                self.queue_depth_max = sample.queue_depth
        if sample.busy_workers is not None and sample.workers:
            self.busy_total += sample.busy_workers
            self.worker_total += sample.workers
        if sample.cache == "hit":
            self.hits += 1
        elif sample.cache == "miss":
            self.misses += 1

    def merge(self, other: "Window") -> None:
        """Fold *other*'s aggregates into this window.

        Every operation is commutative (sums, bucket sums, maxima),
        so merging a set of per-window aggregates produces identical
        measurements in any merge order — the property the
        order-stability tests pin down.
        """
        self.count += other.count
        self.ok += other.ok
        self.failed += other.failed
        self.latency.count += other.latency.count
        self.latency.total += other.latency.total
        if other.latency.count:
            self.latency.minimum = min(
                self.latency.minimum, other.latency.minimum
            )
            self.latency.maximum = max(
                self.latency.maximum, other.latency.maximum
            )
        for position, bucket in enumerate(other.latency.buckets):
            self.latency.buckets[position] += bucket
        if other.queue_depth_max > self.queue_depth_max:
            self.queue_depth_max = other.queue_depth_max
        self.queue_depth_total += other.queue_depth_total
        self.queue_samples += other.queue_samples
        self.busy_total += other.busy_total
        self.worker_total += other.worker_total
        self.hits += other.hits
        self.misses += other.misses

    def measurements(self) -> dict:
        """Every derived series this window can report, sorted.

        Series the window never saw (no latency samples, no cache
        outcomes, no queue readings) are ``None`` — the SLO engine
        treats those objectives as ``no-data`` rather than inventing
        a zero.
        """
        latency = self.latency
        cache_total = self.hits + self.misses
        return {
            "cache_hit_rate": (
                round(self.hits / cache_total, 6)
                if cache_total
                else None
            ),
            "error_rate": (
                round(self.failed / self.count, 6)
                if self.count
                else None
            ),
            "latency_mean_seconds": (
                round(latency.mean, 6) if latency.count else None
            ),
            "latency_p50_seconds": latency.quantile(0.5),
            "latency_p99_seconds": latency.quantile(0.99),
            "queue_depth_max": (
                self.queue_depth_max if self.queue_samples else None
            ),
            "queue_depth_mean": (
                round(
                    self.queue_depth_total / self.queue_samples, 6
                )
                if self.queue_samples
                else None
            ),
            "worker_utilization": (
                round(self.busy_total / self.worker_total, 6)
                if self.worker_total
                else None
            ),
        }

    def to_dict(self) -> dict:
        """JSON-safe summary: bounds, raw counts and measurements."""
        return {
            "count": self.count,
            "failed": self.failed,
            "index": self.index,
            "measurements": self.measurements(),
            "ok": self.ok,
            "start": self.start,
        }


class WindowSeries:
    """A rolling sequence of fixed-size logical windows."""

    __slots__ = ("window_size", "total", "_closed", "_open")

    def __init__(self, window_size: int = 50) -> None:
        if window_size < 1:
            raise SafeguardError(
                "window size must be at least 1 request"
            )
        self.window_size = window_size
        self.total = 0
        self._closed: list[Window] = []
        self._open: Window | None = None

    def observe(self, sample: RequestSample) -> None:
        """Fold one sample; close the window at ``window_size``."""
        window = self._open
        if window is None:
            window = self._open = Window(
                index=len(self._closed), start=self.total
            )
        window.observe(sample)
        self.total += 1
        if window.count >= self.window_size:
            self._closed.append(window)
            self._open = None

    def observe_many(
        self, samples: Iterable[RequestSample]
    ) -> None:
        """Fold an iterable of samples in order."""
        for sample in samples:
            self.observe(sample)

    def windows(self, *, partial: bool = True) -> tuple[Window, ...]:
        """Closed windows, plus the open partial one when *partial*."""
        if partial and self._open is not None:
            return (*self._closed, self._open)
        return tuple(self._closed)

    def merge(self, other: "WindowSeries") -> None:
        """Fold *other*'s windows into this series, index by index.

        Both series must share a window size; windows beyond this
        series' current length are adopted as copies. Because
        :meth:`Window.merge` is commutative, a set of series merges
        to the same measurements in any order.
        """
        if other.window_size != self.window_size:
            raise SafeguardError(
                "cannot merge series with different window sizes "
                f"({self.window_size} vs {other.window_size})"
            )
        ours = list(self.windows())
        theirs = other.windows()
        for position, window in enumerate(theirs):
            if position < len(ours):
                ours[position].merge(window)
            else:
                adopted = Window(
                    index=position, start=window.start
                )
                adopted.merge(window)
                ours.append(adopted)
        self.total += other.total
        # Re-partition: every full window is closed, a trailing
        # partial stays open.
        self._closed = [
            window
            for window in ours
            if window.count >= self.window_size
        ]
        leftovers = [
            window
            for window in ours
            if window.count < self.window_size
        ]
        self._open = leftovers[-1] if leftovers else None

    def to_dict(self) -> dict:
        """JSON-safe view of the whole series, windows in order."""
        return {
            "requests": self.total,
            "window_size": self.window_size,
            "windows": [
                window.to_dict() for window in self.windows()
            ],
        }


def windows_from_events(
    events: Sequence[AuditEvent], window_size: int = 50
) -> WindowSeries:
    """Window the per-request brackets of an audit chain.

    Folds ``ops/request-completed`` (ok iff ``exit_code`` is 0) and
    ``ops/request-failed`` events, in chain order, into a
    :class:`WindowSeries`. The chain is clock-free, so the series
    carries outcome data only — latency, queue and cache objectives
    evaluate as ``no-data``. Because the batch executor replays
    worker shards in input order, the same request file produces the
    same series at any worker count; that is what makes
    ``repro-ethics obs slo`` byte-identical across ``--workers``.
    """
    series = WindowSeries(window_size)
    for event in events:
        if event.category != "ops":
            continue
        if event.action == "request-completed":
            series.observe(
                RequestSample(
                    ok=event.detail.get("exit_code", 0) == 0
                )
            )
        elif event.action == "request-failed":
            series.observe(RequestSample(ok=False))
    return series
