"""Tamper-evident audit and runtime observability (§4/§6 made inspectable).

The paper's safeguards only count when they leave *records a REB can
inspect*: who accessed what, what was sealed, what was shared, what
was destroyed, what the pipeline actually did. This package is that
record-keeping layer, sitting below ``safeguards`` in the
architecture so every subsystem can emit into it:

* :mod:`~repro.observability.events` /
  :mod:`~repro.observability.log` — a hash-chained, append-only
  audit trail (BLAKE2b-256 over canonical JSON, each event binding
  its predecessor's digest) whose verifier **localizes the first
  corrupted record**: bit flips, splices/reorderings and truncations
  each produce a distinct, positioned diagnosis;
* :mod:`~repro.observability.metrics` — counters, gauges and
  histograms with a shared no-op mode so disabled instrumentation
  costs nothing on the pipeline hot path;
* :mod:`~repro.observability.tracing` — context-manager timing spans
  feeding the metrics registry;
* :mod:`~repro.observability.runtime` — the process-wide
  :class:`Observer` switch and the :func:`audit_event` helper every
  safeguard-boundary mutation calls (enforced by staticcheck R5);
* :mod:`~repro.observability.worker` — cross-process telemetry:
  per-chunk :class:`TelemetryShard` capture in pipeline workers,
  deterministic :func:`replay_shard` merge in the coordinator, so
  ``workers=N`` produces the same audit-chain content as serial;
* :mod:`~repro.observability.export` — telemetry egress: Prometheus
  text exposition and OTLP-style JSON over registry snapshots and
  span trees, plus the audit-derived registry behind the
  deterministic ``repro-ethics obs export``;
* :mod:`~repro.observability.profiler` — a sampling profiler
  (interval stack sampler + optional ``sys.setprofile`` call-count
  hybrid) attributing samples to the active span and emitting
  collapsed-stack output for flamegraph tooling;
* :mod:`~repro.observability.flight` — the flight recorder: a
  bounded ring of recent events/spans/metric deltas, dumped on
  failure as a hash-chained, configuration-invariant incident
  bundle;
* :mod:`~repro.observability.windows` /
  :mod:`~repro.observability.slo` — logical-clock telemetry windows
  (per-N-requests, no wall time) and the declarative SLO engine
  that judges JSON objective specs over them, exit-code gateable
  via ``repro-ethics obs slo``.

The trail is clock-free and therefore as reproducible as the rest of
the repository; timings live only in metrics/tracing/profiles, which
are not chained. ``repro-ethics audit verify|tail|report`` inspects
persisted logs and ``repro-ethics obs export|profile|top`` handles
egress; see ``docs/observability.md`` for the event schema, the
chain-verification semantics and the export formats.
"""

from .events import GENESIS_DIGEST, AuditEvent, event_digest
from .flight import (
    FlightRecorder,
    IncidentBundle,
    load_bundle_text,
    verify_bundle_text,
)
from .export import (
    registry_from_events,
    render_otlp,
    render_prometheus,
    span_forest,
)
from .log import (
    AuditTrail,
    ChainVerification,
    load_events,
    verify_events,
    verify_jsonl,
)
from .metrics import (
    BUCKET_BOUNDS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from .profiler import SamplingProfiler, top_collapsed
from .runtime import (
    Observer,
    audit_event,
    flight_recorder,
    get_observer,
    metrics,
    observed,
    set_observer,
    tracer,
)
from .slo import SloObjective, SloReport, SloSpec, evaluate_slo
from .tracing import NULL_TRACER, NullTracer, Span, SpanRecord, Tracer
from .windows import (
    RequestSample,
    Window,
    WindowSeries,
    windows_from_events,
)
from .worker import TelemetryShard, WorkerTelemetry, replay_shard

__all__ = [
    "AuditEvent",
    "AuditTrail",
    "BUCKET_BOUNDS",
    "ChainVerification",
    "Counter",
    "FlightRecorder",
    "GENESIS_DIGEST",
    "Gauge",
    "Histogram",
    "IncidentBundle",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "Observer",
    "RequestSample",
    "SamplingProfiler",
    "SloObjective",
    "SloReport",
    "SloSpec",
    "Span",
    "SpanRecord",
    "TelemetryShard",
    "Tracer",
    "Window",
    "WindowSeries",
    "WorkerTelemetry",
    "audit_event",
    "evaluate_slo",
    "event_digest",
    "flight_recorder",
    "get_observer",
    "load_bundle_text",
    "load_events",
    "metrics",
    "observed",
    "registry_from_events",
    "render_otlp",
    "render_prometheus",
    "replay_shard",
    "set_observer",
    "span_forest",
    "top_collapsed",
    "tracer",
    "verify_bundle_text",
    "verify_events",
    "verify_jsonl",
    "windows_from_events",
]
