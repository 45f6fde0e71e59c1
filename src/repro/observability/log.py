"""The append-only audit trail and its chain verifier.

:class:`AuditTrail` accumulates hash-chained
:class:`~repro.observability.events.AuditEvent` records in memory
and, when given a path, mirrors each one as a JSONL line the moment
it is appended — the on-disk log is therefore always a prefix of the
in-memory chain and can be inspected (or verified) while the process
is still running.

Verification (:func:`verify_events` / :func:`verify_lines` /
:func:`verify_jsonl`) walks the chain once and reports a
:class:`ChainVerification` that **localizes the first corrupted
record**:

* a record whose stored digest does not match its recomputed digest
  has been *altered in place* (a bit flip anywhere in the line);
* a record whose ``previous_digest`` does not match its
  predecessor's digest marks a *splice* — records were removed,
  inserted or reordered at exactly that point;
* a record whose sequence number breaks the 0,1,2,… run is
  *misplaced* (caught even when digests were recomputed to match);
* a chain shorter than the expected length (or with a different tail
  digest) has been *truncated* — pure tail truncation leaves a valid
  prefix, so detecting it needs the expected length or tail digest
  the holder records out of band (``repro-ethics audit report``
  prints both for exactly this purpose).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..errors import SafeguardError
from .events import GENESIS_DIGEST, AuditEvent

__all__ = [
    "AuditTrail",
    "ChainVerification",
    "load_events",
    "verify_events",
    "verify_jsonl",
    "verify_lines",
]


@dataclasses.dataclass(frozen=True)
class ChainVerification:
    """Outcome of a chain walk, localizing the first corruption.

    ``ok`` is True for an intact chain. Otherwise ``error_index`` is
    the 0-based position of the first bad record (equal to ``length``
    for truncation detected against an expected length) and
    ``reason`` says what is wrong with it. ``length`` and
    ``tail_digest`` describe the verified chain and are what a
    holder records out of band to make tail truncation detectable.
    """

    ok: bool
    length: int
    tail_digest: str
    error_index: int | None = None
    reason: str = ""

    def describe(self) -> str:
        """One human-readable status line."""
        if self.ok:
            return (
                f"chain intact: {self.length} events, tail digest "
                f"{self.tail_digest[:16]}…"
            )
        return (
            f"chain CORRUPT at record {self.error_index}: {self.reason}"
        )


def verify_events(
    events: Iterable[AuditEvent],
    *,
    expected_length: int | None = None,
    expected_tail_digest: str | None = None,
) -> ChainVerification:
    """Walk *events* and localize the first corrupted record.

    ``expected_length``/``expected_tail_digest`` are the out-of-band
    anchors that make tail truncation detectable; without them a
    valid prefix of a longer chain verifies clean (and is reported as
    such).
    """
    previous = GENESIS_DIGEST
    count = 0
    for index, event in enumerate(events):
        if event.sequence != index:
            return ChainVerification(
                ok=False,
                length=index,
                tail_digest=previous,
                error_index=index,
                reason=(
                    f"sequence {event.sequence} where {index} was "
                    "expected — record removed, inserted or reordered"
                ),
            )
        if event.previous_digest != previous:
            return ChainVerification(
                ok=False,
                length=index,
                tail_digest=previous,
                error_index=index,
                reason=(
                    "previous-digest mismatch — the chain was "
                    "spliced (records removed, inserted or "
                    "reordered) at this point"
                ),
            )
        if event.compute_digest() != event.digest:
            return ChainVerification(
                ok=False,
                length=index,
                tail_digest=previous,
                error_index=index,
                reason=(
                    "stored digest does not match the record "
                    "content — the record was altered in place"
                ),
            )
        previous = event.digest
        count = index + 1
    if expected_length is not None and count != expected_length:
        return ChainVerification(
            ok=False,
            length=count,
            tail_digest=previous,
            error_index=count,
            reason=(
                f"chain has {count} events where {expected_length} "
                "were recorded — the log was truncated"
            ),
        )
    if (
        expected_tail_digest is not None
        and previous != expected_tail_digest
    ):
        return ChainVerification(
            ok=False,
            length=count,
            tail_digest=previous,
            error_index=count,
            reason=(
                "tail digest does not match the recorded anchor — "
                "the log was truncated or rewritten"
            ),
        )
    return ChainVerification(
        ok=True, length=count, tail_digest=previous
    )


def load_events(path: str | Path) -> list[AuditEvent]:
    """Read every event from a JSONL audit log.

    Raises :class:`~repro.errors.SafeguardError` on an unreadable
    file or an unparseable line (the error message carries the line
    number, so even a bit flip that destroys the JSON itself is
    localized).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SafeguardError(
            f"cannot read audit log {path}: {exc}"
        ) from exc
    events: list[AuditEvent] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(AuditEvent.from_json(line))
        except SafeguardError as exc:
            raise SafeguardError(
                f"{path} line {number}: {exc}"
            ) from exc
    return events


def verify_lines(
    lines: Iterable[str],
    *,
    expected_length: int | None = None,
    expected_tail_digest: str | None = None,
) -> ChainVerification:
    """Verify JSONL audit records given as text lines.

    Blank lines are skipped. A line that no longer parses (a bit flip
    can break the JSON itself) is reported as the corrupt record at
    its 0-based index rather than raising. Every serialized chain —
    an on-disk audit log, an incident bundle's body — goes through
    this one walk.
    """
    events: list[AuditEvent] = []
    records = [line for line in lines if line.strip()]
    for index, line in enumerate(records):
        try:
            events.append(AuditEvent.from_json(line))
        except SafeguardError:
            partial = verify_events(events)
            if not partial.ok:  # an earlier record is the first error
                return partial
            return ChainVerification(
                ok=False,
                length=index,
                tail_digest=partial.tail_digest,
                error_index=index,
                reason=(
                    "record is no longer valid JSON — altered in "
                    "place"
                ),
            )
    return verify_events(
        events,
        expected_length=expected_length,
        expected_tail_digest=expected_tail_digest,
    )


def verify_jsonl(
    path: str | Path,
    *,
    expected_length: int | None = None,
    expected_tail_digest: str | None = None,
) -> ChainVerification:
    """Verify an on-disk JSONL audit log (see :func:`verify_lines`)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise SafeguardError(
            f"cannot read audit log {path}: {exc}"
        ) from exc
    return verify_lines(
        text.splitlines(),
        expected_length=expected_length,
        expected_tail_digest=expected_tail_digest,
    )


class AuditTrail:
    """Append-only, hash-chained audit trail with optional JSONL sink.

    With a ``path`` every appended event is immediately written and
    flushed as one JSONL line, so the on-disk log is always a prefix
    of the in-memory chain. The trail never stores wall time — see
    :mod:`repro.observability.events` for why.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._events: list[AuditEvent] = []
        self._path = Path(path) if path is not None else None
        self._sink = None
        if self._path is not None:
            try:
                self._sink = self._path.open(
                    "a", encoding="utf-8"
                )
            except OSError as exc:
                raise SafeguardError(
                    f"cannot open audit log {self._path}: {exc}"
                ) from exc

    @property
    def path(self) -> Path | None:
        """The JSONL sink path, if the trail persists to disk."""
        return self._path

    def event(
        self,
        category: str,
        action: str,
        subject: str = "",
        **detail: object,
    ) -> AuditEvent:
        """Append one chained event; returns the sealed record."""
        previous = (
            self._events[-1].digest
            if self._events
            else GENESIS_DIGEST
        )
        event = AuditEvent(
            sequence=len(self._events),
            category=category,
            action=action,
            subject=subject,
            detail=dict(detail),
            previous_digest=previous,
        ).sealed()
        self._events.append(event)
        if self._sink is not None:
            self._sink.write(event.to_json() + "\n")
            self._sink.flush()
        return event

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def tail_digest(self) -> str:
        """The digest anchoring the chain's current end."""
        return (
            self._events[-1].digest
            if self._events
            else GENESIS_DIGEST
        )

    def tail(self, count: int = 10) -> tuple[AuditEvent, ...]:
        """The last *count* events, oldest first."""
        if count < 1:
            raise SafeguardError("tail count must be positive")
        return tuple(self._events[-count:])

    def verify(self) -> ChainVerification:
        """Verify the in-memory chain (see :func:`verify_events`)."""
        return verify_events(self._events)

    def close(self) -> None:
        """Close the JSONL sink, if any; the trail stays readable."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "AuditTrail":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
