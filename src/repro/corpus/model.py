"""Corpus model: coded case-study entries and the corpus registry.

A :class:`CaseStudyEntry` is one row of Table 1: a work (usually a
peer-reviewed paper) that used — or explicitly considered and declined
to use — a dataset of illicit origin, together with its full coding
against the paper's codebook.

The :class:`Corpus` holds the entries in table order and provides the
query API used by the analysis engine.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Iterable, Iterator, Mapping

from .._util import slugify
from ..codebook import Codebook, CellValue
from ..errors import CorpusError, UnknownEntryError

__all__ = ["CaseStudyEntry", "Category", "Corpus", "DataOrigin"]


class Category:
    """Table 1 row-group categories, in table order."""

    MALWARE = "Malware & exploitation"
    PASSWORDS = "Password dumps"
    LEAKED_DATABASES = "Leaked databases"
    CLASSIFIED = "Classified materials"
    FINANCIAL = "Financial data"

    ORDER = (MALWARE, PASSWORDS, LEAKED_DATABASES, CLASSIFIED, FINANCIAL)


class DataOrigin:
    """The paper's §1 definition of illicit origin (three clauses)."""

    #: (i) exploitation of a vulnerability in a computer system.
    VULNERABILITY_EXPLOITATION = "vulnerability-exploitation"
    #: (ii) an unintended disclosure by the data owner.
    UNINTENDED_DISCLOSURE = "unintended-disclosure"
    #: (iii) an unauthorized leak by someone with access to the data.
    UNAUTHORIZED_LEAK = "unauthorized-leak"

    ALL = (
        VULNERABILITY_EXPLOITATION,
        UNINTENDED_DISCLOSURE,
        UNAUTHORIZED_LEAK,
    )


@dataclasses.dataclass(frozen=True)
class CaseStudyEntry:
    """One coded row of Table 1.

    Attributes
    ----------
    id:
        Stable slug for the entry, e.g. ``"carna-telescope"``.
    category:
        One of :class:`Category`.
    source_label:
        The ``Sources`` column text, e.g. ``"AT&T database"``. Rows
        that continue a source group leave this equal to the group's
        label.
    reference:
        The bracketed reference number of the coded work.
    year:
        The two-digit ``Year 20XX`` column expanded to four digits.
    footnotes:
        Table 1 footnote markers applying to the row (subset of
        ``a``–``e``).
    peer_reviewed:
        False for rows carrying footnote ``a``.
    is_paper:
        False only for the two raw web sources ([106] Gawker coverage
        and [18] the CAIDA web page); the paper's §5.5 denominator of
        "28 papers" excludes exactly these.
    used_data:
        False for the two rows whose authors did not use the dataset
        ([27] footnote b, [85] footnote c).
    values:
        Closed-dimension coding: dimension id → :class:`CellValue`.
    code_sets:
        Open-dimension coding: dimension id → tuple of member-code
        abbreviations (e.g. ``("SS", "P")``).
    datasets:
        Names of the illicit-origin datasets involved.
    origin:
        One of :class:`DataOrigin` — which §1 clause the data falls
        under.
    summary:
        Short prose summary drawn from §4.
    provenance:
        Notes recording coding decisions, especially where the text
        extraction of Table 1 is ambiguous (dimension id → note).
    cell_notes:
        Per-cell footnotes, e.g. Table 1 footnote ``d`` on the
        fight-malicious-use cell of RFC 7624.
    exemption_reason:
        For REB-exempt rows, the reason the authors gave.
    """

    id: str
    category: str
    source_label: str
    reference: int
    year: int
    footnotes: tuple[str, ...] = ()
    peer_reviewed: bool = True
    is_paper: bool = True
    used_data: bool = True
    values: Mapping[str, CellValue] = dataclasses.field(default_factory=dict)
    code_sets: Mapping[str, tuple[str, ...]] = dataclasses.field(
        default_factory=dict
    )
    datasets: tuple[str, ...] = ()
    origin: str = DataOrigin.UNAUTHORIZED_LEAK
    summary: str = ""
    provenance: Mapping[str, str] = dataclasses.field(default_factory=dict)
    cell_notes: Mapping[str, str] = dataclasses.field(default_factory=dict)
    exemption_reason: str = ""

    def __post_init__(self) -> None:
        if self.id != slugify(self.id):
            raise CorpusError(f"entry id {self.id!r} is not a slug")
        if self.category not in Category.ORDER:
            raise CorpusError(
                f"entry {self.id!r}: unknown category {self.category!r}"
            )
        if self.origin not in DataOrigin.ALL:
            raise CorpusError(
                f"entry {self.id!r}: unknown origin {self.origin!r}"
            )
        if not 1900 <= self.year <= 2100:
            raise CorpusError(f"entry {self.id!r}: implausible year")
        for marker in self.footnotes:
            if marker not in "abcde":
                raise CorpusError(
                    f"entry {self.id!r}: unknown footnote {marker!r}"
                )

    # -- coding accessors ----------------------------------------------
    def value(self, dimension_id: str) -> CellValue:
        """The cell value of a closed dimension."""
        try:
            return self.values[dimension_id]
        except KeyError:
            raise CorpusError(
                f"entry {self.id!r} has no value for {dimension_id!r}"
            ) from None

    def codes(self, dimension_id: str) -> tuple[str, ...]:
        """The member-code abbreviations of an open dimension."""
        return tuple(self.code_sets.get(dimension_id, ()))

    def has_code(self, dimension_id: str, abbrev: str) -> bool:
        return abbrev in self.code_sets.get(dimension_id, ())

    def discussed(self, dimension_id: str) -> bool:
        """True when the closed dimension is coded positively."""
        return self.value(dimension_id).is_positive

    @property
    def legal_issues(self) -> tuple[str, ...]:
        """Ids of legal dimensions coded as applicable."""
        return tuple(
            dim_id
            for dim_id, value in self.values.items()
            if value is CellValue.APPLICABLE
        )

    @property
    def reb_status(self) -> CellValue:
        return self.value("reb-approval")

    @property
    def has_ethics_section(self) -> bool:
        return self.value("ethics-section") is CellValue.DISCUSSED

    def to_dict(self) -> dict:
        """JSON-serialisable representation of the entry."""
        return {
            "id": self.id,
            "category": self.category,
            "source_label": self.source_label,
            "reference": self.reference,
            "year": self.year,
            "footnotes": list(self.footnotes),
            "peer_reviewed": self.peer_reviewed,
            "is_paper": self.is_paper,
            "used_data": self.used_data,
            "values": {k: v.value for k, v in self.values.items()},
            "code_sets": {k: list(v) for k, v in self.code_sets.items()},
            "datasets": list(self.datasets),
            "origin": self.origin,
            "summary": self.summary,
            "provenance": dict(self.provenance),
            "cell_notes": dict(self.cell_notes),
            "exemption_reason": self.exemption_reason,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CaseStudyEntry":
        """Inverse of :meth:`to_dict`."""
        return cls(
            id=data["id"],
            category=data["category"],
            source_label=data["source_label"],
            reference=data["reference"],
            year=data["year"],
            footnotes=tuple(data.get("footnotes", ())),
            peer_reviewed=data.get("peer_reviewed", True),
            is_paper=data.get("is_paper", True),
            used_data=data.get("used_data", True),
            values={
                k: CellValue(v) for k, v in data.get("values", {}).items()
            },
            code_sets={
                k: tuple(v) for k, v in data.get("code_sets", {}).items()
            },
            datasets=tuple(data.get("datasets", ())),
            origin=data.get("origin", DataOrigin.UNAUTHORIZED_LEAK),
            summary=data.get("summary", ""),
            provenance=dict(data.get("provenance", {})),
            cell_notes=dict(data.get("cell_notes", {})),
            exemption_reason=data.get("exemption_reason", ""),
        )


class Corpus:
    """The coded corpus: Table 1 rows in table order plus a codebook."""

    def __init__(
        self, codebook: Codebook, entries: Iterable[CaseStudyEntry]
    ) -> None:
        self.codebook = codebook
        self._entries: dict[str, CaseStudyEntry] = {}
        for entry in entries:
            if entry.id in self._entries:
                raise CorpusError(f"duplicate entry id {entry.id!r}")
            codebook.validate_coding(entry.values, entry.code_sets)
            self._entries[entry.id] = entry

    # -- container protocol --------------------------------------------
    def __iter__(self) -> Iterator[CaseStudyEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._entries

    def __getitem__(self, entry_id: str) -> CaseStudyEntry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise UnknownEntryError(entry_id) from None

    @property
    def entry_ids(self) -> tuple[str, ...]:
        return tuple(self._entries)

    # -- queries ---------------------------------------------------------
    def filter(
        self, predicate: Callable[[CaseStudyEntry], bool]
    ) -> tuple[CaseStudyEntry, ...]:
        return tuple(e for e in self if predicate(e))

    def by_category(self, category: str) -> tuple[CaseStudyEntry, ...]:
        if category not in Category.ORDER:
            raise CorpusError(f"unknown category {category!r}")
        return self.filter(lambda e: e.category == category)

    def by_year(self, year: int) -> tuple[CaseStudyEntry, ...]:
        return self.filter(lambda e: e.year == year)

    def by_reference(self, number: int) -> CaseStudyEntry:
        """The entry coded for bibliography entry *number*."""
        for entry in self:
            if entry.reference == number:
                return entry
        raise UnknownEntryError(f"[{number}]")

    def papers(self) -> tuple[CaseStudyEntry, ...]:
        """Entries the paper's §5.5 counts as papers (28 of 30)."""
        return self.filter(lambda e: e.is_paper)

    def with_code(
        self, dimension_id: str, abbrev: str
    ) -> tuple[CaseStudyEntry, ...]:
        """Entries carrying *abbrev* in the open dimension."""
        self.codebook[dimension_id].code(abbrev)  # validate
        return self.filter(lambda e: e.has_code(dimension_id, abbrev))

    def discussing(self, dimension_id: str) -> tuple[CaseStudyEntry, ...]:
        return self.filter(lambda e: e.discussed(dimension_id))

    # -- serialisation ----------------------------------------------------
    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialise all entries (not the codebook) to JSON."""
        return json.dumps(
            [entry.to_dict() for entry in self], indent=indent
        )

    @classmethod
    def from_json(cls, codebook: Codebook, text: str) -> "Corpus":
        """Load a corpus previously serialised with :meth:`to_json`."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"invalid corpus JSON: {exc}") from exc
        if not isinstance(raw, list):
            raise CorpusError("corpus JSON must be a list of entries")
        return cls(codebook, (CaseStudyEntry.from_dict(d) for d in raw))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Corpus({len(self)} entries)"
