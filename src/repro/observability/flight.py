"""The flight recorder: a bounded ring of recent audit events.

When a batch run degrades or a worker process dies, the operator's
first question is *what was happening just before* — and the answer
must be as tamper-evident and reproducible as the audit chain
itself, because incident evidence about illicit-origin data handling
is exactly the kind of record a REB inspects. The
:class:`FlightRecorder` is the clock-free answer:

* **A bounded ring.** ``record_event`` appends one raw event to a
  ``deque(maxlen=N)``; old events fall off the front (the
  ``dropped`` counter stays honest about it). The recorder taps
  :func:`~repro.observability.runtime.audit_event` through the
  installed :class:`~repro.observability.runtime.Observer`, so every
  audit bracket the batch executor and ``WarmPool`` emit — including
  worker-shard events replayed in input order — lands in the ring
  without any call-site changes. Audit events are the ring's only
  input: spans and metrics stay in the tracer and registry, which
  each bundle's envelope snapshots.
* **Configuration-invariant frames.** Event details are normalized
  by projecting out :data:`RUN_SCOPE_DETAIL_KEYS` (today just
  ``workers``) — the keys that honestly describe the *execution
  configuration* rather than the *work*. The full-fidelity values
  stay in the process audit chain; the ring keeps only what must be
  byte-identical across worker counts.
* **Incident bundles are audit chains.** :meth:`incident` re-seals
  the normalized ring into a fresh in-memory
  :class:`~repro.observability.log.AuditTrail` and snapshots it as
  an :class:`IncidentBundle`: a JSONL **body** (one header line
  carrying the chain anchors and the logical dispatch plan, then one
  ``AuditEvent.to_json()`` line per ringed event) plus one
  **envelope** line for everything configuration- or
  wall-clock-flavoured: the free-text reason, the live registry
  snapshot, the caller's context. The body bytes of a deterministic
  failure are identical across batch worker counts 1/2/4 — the
  acceptance property ``tests/test_health_surface.py`` pins down —
  and :func:`verify_bundle_text` is the audit verifier
  (:func:`~repro.observability.log.verify_lines`) anchored by the
  header's ``frames`` count and ``tail_digest``.

Bundles dump to ``dump_dir/incident-<seq>-<kind>.jsonl`` (sequence-
numbered, clock-free names) and each dump emits an ``obs/incident``
audit event so the chain records that evidence was produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import deque
from pathlib import Path

from ..errors import SafeguardError
from .events import AuditEvent
from .log import AuditTrail, ChainVerification, verify_lines

__all__ = [
    "FlightRecorder",
    "IncidentBundle",
    "RUN_SCOPE_DETAIL_KEYS",
    "load_bundle_text",
    "verify_bundle_text",
]

#: Audit-detail keys describing the execution configuration rather
#: than the work itself; projected out of ring frames so incident
#: bundles stay byte-identical across worker counts. The audit chain
#: keeps the full-fidelity values.
RUN_SCOPE_DETAIL_KEYS: frozenset[str] = frozenset({"workers"})

#: Ring entries kept when nothing else is configured.
DEFAULT_CAPACITY = 256

_BUNDLE_MARKER = "repro-incident"
_BUNDLE_VERSION = 2
_HEADER_KEYS = frozenset(
    {"dropped", "frames", "kind", "plan", "sequence", "tail_digest"}
)
_ENVELOPE_PREFIX = '{"envelope":'


def _canonical(record: dict) -> str:
    """Canonical compact JSON (sorted keys), one line."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    )


def _normalized(
    category: str, action: str, subject: str, detail: dict
) -> dict:
    """One ringed event in its canonical, configuration-free form.

    Events are stored raw on the hot path; this projects out the
    :data:`RUN_SCOPE_DETAIL_KEYS`, sorts the detail keys and coerces
    values to JSON-safe forms.
    """
    return {
        "category": category,
        "action": action,
        "subject": subject,
        "detail": {
            key: _json_safe(value)
            for key, value in sorted(detail.items())
            if key not in RUN_SCOPE_DETAIL_KEYS
        },
    }


def _json_safe(value: object) -> object:
    """Coerce a frame detail value to a canonical JSON-safe form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {
            str(key): _json_safe(entry)
            for key, entry in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry) for entry in value]
    return repr(value)


@dataclasses.dataclass(frozen=True)
class IncidentBundle:
    """One dumped incident: a sealed event chain, plan and envelope.

    ``events`` are the re-sealed ring events (sequence numbers from
    0, chained from the genesis digest); ``tail_digest`` anchors the
    chain; ``plan`` is the logical dispatch plan (worker-count
    invariant); ``envelope`` holds everything excluded from the
    byte-stable body.
    """

    kind: str
    sequence: int
    events: tuple[AuditEvent, ...]
    dropped: int
    tail_digest: str
    plan: dict | None = None
    envelope: dict = dataclasses.field(default_factory=dict)

    def header(self) -> dict:
        """The first body line: bundle identity and chain anchors."""
        return {
            "bundle": _BUNDLE_MARKER,
            "dropped": self.dropped,
            "frames": len(self.events),
            "kind": self.kind,
            "plan": self.plan,
            "sequence": self.sequence,
            "tail_digest": self.tail_digest,
            "version": _BUNDLE_VERSION,
        }

    def body_jsonl(self) -> str:
        """The byte-stable body: header line + audit-event lines.

        This is the artifact asserted byte-identical across batch
        worker counts; everything configuration-dependent lives in
        the envelope instead.
        """
        lines = [_canonical(self.header())]
        lines.extend(event.to_json() for event in self.events)
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """BLAKE2b-256 over the body bytes (the out-of-band anchor)."""
        return hashlib.blake2b(
            self.body_jsonl().encode("utf-8"), digest_size=32
        ).hexdigest()

    def to_jsonl(self) -> str:
        """The full dump: body plus one trailing envelope line."""
        return self.body_jsonl() + _canonical(
            {"envelope": self.envelope}
        ) + "\n"


class FlightRecorder:
    """Bounded audit-event ring with incident-bundle dumps."""

    __slots__ = (
        "capacity",
        "dump_dir",
        "dropped",
        "incidents",
        "_frames",
        "_plan",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        dump_dir: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise SafeguardError(
                "flight-recorder capacity must be at least 1"
            )
        self.capacity = capacity
        self.dump_dir = (
            Path(dump_dir) if dump_dir is not None else None
        )
        self.dropped = 0
        self.incidents: list[IncidentBundle] = []
        self._frames: deque[tuple] = deque(maxlen=capacity)
        self._plan: dict | None = None

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def frames(self) -> tuple[dict, ...]:
        """A snapshot of the ring, normalized, oldest event first."""
        return tuple(_normalized(*frame) for frame in self._frames)

    def record_event(
        self,
        category: str,
        action: str,
        subject: str,
        detail: dict,
    ) -> None:
        """Ring one audit event, raw.

        Called by :func:`~repro.observability.runtime.audit_event`
        for every emission — including worker-shard replays, which
        arrive in input order, so the ring content is invariant
        under the worker count. This is the instrumented hot path:
        one bounded-deque append of the raw tuple (the kwargs dict
        is freshly built per :func:`audit_event` call, so holding
        the reference is safe). Normalization — run-scope key
        projection, key sorting, JSON coercion — happens once per
        *snapshot* in :func:`_normalized`, not once per event,
        which is what keeps the flight tap within the 5% overhead
        budget of E16.
        """
        if len(self._frames) == self.capacity:
            self.dropped += 1
        self._frames.append((category, action, subject, detail))

    def note_plan(self, plan: dict) -> None:
        """Remember the current run's logical dispatch plan."""
        self._plan = plan

    def incident(
        self, kind: str, reason: str = "", **context: object
    ) -> IncidentBundle:
        """Snapshot the ring into a bundle; dump and chain-log it.

        *kind* is the short machine category (``worker-lost``,
        ``batch-error``, ``batch-degraded``, ``stage-failure``,
        ``manual``); *reason* and **context** are envelope material —
        free text and configuration may vary across worker counts,
        the body may not. The registry snapshot of the installed
        observer rides in the envelope too. Emits one
        ``obs/incident`` audit event *after* snapshotting, so the
        evidence trail records the dump without the dump recording
        itself.
        """
        from .runtime import audit_event, metrics

        trail = AuditTrail()
        for frame in self.frames:
            trail.event(
                frame["category"],
                frame["action"],
                frame["subject"],
                **frame["detail"],
            )
        envelope: dict = {
            "context": {
                key: _json_safe(value)
                for key, value in sorted(context.items())
            },
            "reason": reason,
            "registry": metrics().snapshot(),
        }
        bundle = IncidentBundle(
            kind=kind,
            sequence=len(self.incidents),
            events=tuple(trail),
            dropped=self.dropped,
            tail_digest=trail.tail_digest,
            plan=self._plan,
            envelope=envelope,
        )
        self.incidents.append(bundle)
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            path = self.dump_dir / (
                f"incident-{bundle.sequence:03d}-{kind}.jsonl"
            )
            path.write_text(bundle.to_jsonl(), encoding="utf-8")
        audit_event(
            "obs",
            "incident",
            subject=kind,
            frames=len(bundle.events),
            sequence=bundle.sequence,
            digest=bundle.digest(),
        )
        return bundle


def _json_object(line: str, number: int) -> dict:
    """Parse one structural bundle line (header or envelope)."""
    try:
        body = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SafeguardError(
            f"incident bundle line {number} is not JSON: {exc}"
        ) from exc
    if not isinstance(body, dict):
        raise SafeguardError(
            f"incident bundle line {number} must be an object"
        )
    return body


def _split_bundle_text(text: str) -> tuple[dict, list[str], dict]:
    """(header, raw event lines, envelope) of a dumped bundle.

    Raises :class:`~repro.errors.SafeguardError` on structural
    damage: no header, a header without the marker, an unsupported
    version or a missing anchor key. Event lines stay raw, so chain
    damage (even an event line that no longer parses) is left to the
    verifier to localize.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SafeguardError("incident bundle is empty")
    header = _json_object(lines[0], 1)
    if header.get("bundle") != _BUNDLE_MARKER:
        raise SafeguardError(
            "not an incident bundle: first line lacks the "
            f"{_BUNDLE_MARKER!r} marker"
        )
    if header.get("version") != _BUNDLE_VERSION:
        raise SafeguardError(
            f"incident bundle version {header.get('version')!r} is "
            f"not supported (expected {_BUNDLE_VERSION})"
        )
    missing = sorted(_HEADER_KEYS - header.keys())
    if missing:
        raise SafeguardError(
            f"incident bundle header lacks {', '.join(missing)}"
        )
    records = lines[1:]
    envelope: dict = {}
    if records and records[-1].startswith(_ENVELOPE_PREFIX):
        envelope = _json_object(records.pop(), len(lines))["envelope"]
    return header, records, envelope


def load_bundle_text(
    text: str,
) -> tuple[dict, tuple[AuditEvent, ...], dict]:
    """Parse a dumped bundle: (header, audit events, envelope).

    Raises :class:`~repro.errors.SafeguardError` on structural
    damage (see :func:`verify_bundle_text` for what counts) and on
    an event line that no longer parses, naming its line number.
    """
    header, records, envelope = _split_bundle_text(text)
    events = []
    for number, line in enumerate(records, start=2):
        try:
            events.append(AuditEvent.from_json(line))
        except SafeguardError as exc:
            raise SafeguardError(
                f"incident bundle line {number}: {exc}"
            ) from exc
    return header, tuple(events), envelope


def verify_bundle_text(text: str) -> ChainVerification:
    """Verify a dumped bundle's event chain, localizing damage.

    The body is an audit chain, so this is the audit verifier
    (:func:`~repro.observability.log.verify_lines`) with the header's
    ``frames`` count and ``tail_digest`` as the out-of-band anchors:
    altered, spliced, unparseable or dropped event lines are reported
    at their index. Structural damage — no header, a missing marker,
    a ``version`` other than the current one, a missing anchor —
    raises :class:`~repro.errors.SafeguardError` instead.
    """
    header, records, _ = _split_bundle_text(text)
    return verify_lines(
        records,
        expected_length=header["frames"],
        expected_tail_digest=header["tail_digest"],
    )
