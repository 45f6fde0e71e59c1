"""Research-project model for ethics/legal assessment.

A :class:`ResearchProject` bundles everything the engines need: the
data profile (legal facts), stakeholders, harm/benefit register,
justification facts, planned safeguards, and the jurisdictions in
scope. It is the input to :func:`repro.assessment.engine.assess_project`
and to the report generators.
"""

from __future__ import annotations

import dataclasses

from ..errors import AssessmentError
from ..ethics import (
    BenefitInstance,
    HarmInstance,
    JustificationFacts,
    RightsContext,
    StakeholderRegistry,
    default_stakeholders,
)
from ..legal import DataProfile, JurisdictionSet, relevant_jurisdictions

__all__ = ["ResearchProject", "PlannedSafeguards"]


@dataclasses.dataclass(frozen=True)
class PlannedSafeguards:
    """The §5.2 safeguard families as planned controls.

    Mirrors the codebook's SS / P / CS codes plus the operational
    details the GDPR checker and report generators need.
    """

    secure_storage: bool = False
    encryption_at_rest: bool = False
    access_control: bool = False
    privacy_preserved: bool = False  # no deanonymisation, no identities
    pseudonymisation: bool = False
    data_minimisation: bool = False
    controlled_sharing: bool = False
    acceptable_use_policy: str = ""
    retention_limit_days: int | None = None

    def codes(self) -> tuple[str, ...]:
        """The Table 1 safeguard abbreviations this plan earns."""
        result: list[str] = []
        if self.secure_storage or (
            self.encryption_at_rest and self.access_control
        ):
            result.append("SS")
        if self.privacy_preserved:
            result.append("P")
        if self.controlled_sharing:
            result.append("CS")
        return tuple(result)

    def mitigation_for(self, harm_kind: str) -> float:
        """Fraction of likelihood these controls remove per harm kind.

        The numbers are deliberately conservative heuristics; they are
        surfaced (not hidden) in generated reports.
        """
        mitigation = 0.0
        if harm_kind == "SI":  # sensitive information exposure
            if self.secure_storage or self.encryption_at_rest:
                mitigation += 0.4
            if self.privacy_preserved:
                mitigation += 0.3
            if self.data_minimisation:
                mitigation += 0.1
        elif harm_kind == "DA":  # de-anonymisation
            if self.privacy_preserved:
                mitigation += 0.5
            if self.pseudonymisation:
                mitigation += 0.3
        elif harm_kind == "PA":  # potential abuse of results
            if self.controlled_sharing:
                mitigation += 0.5
        elif harm_kind == "RH":  # researcher harm
            if self.secure_storage:
                mitigation += 0.2
        elif harm_kind == "BC":  # behavioural change
            mitigation += 0.0
        elif harm_kind == "I":  # illicit measurement (historic fact)
            mitigation += 0.0
        return min(mitigation, 0.9)


@dataclasses.dataclass(frozen=True)
class ResearchProject:
    """A proposed research activity using data of illicit origin."""

    title: str
    research_question: str
    data_description: str
    profile: DataProfile
    stakeholders: StakeholderRegistry = dataclasses.field(
        default_factory=default_stakeholders
    )
    harms: tuple[HarmInstance, ...] = ()
    benefits: tuple[BenefitInstance, ...] = ()
    justification_facts: JustificationFacts = dataclasses.field(
        default_factory=JustificationFacts
    )
    safeguards: PlannedSafeguards = dataclasses.field(
        default_factory=PlannedSafeguards
    )
    jurisdictions: JurisdictionSet = dataclasses.field(
        default_factory=relevant_jurisdictions
    )
    rights_context: RightsContext = dataclasses.field(
        default_factory=RightsContext
    )
    reb_approved: bool = False
    has_ethics_section: bool = False

    def __post_init__(self) -> None:
        if not self.title:
            raise AssessmentError("project title must be non-empty")
        if not self.research_question:
            raise AssessmentError("state the research question")
        for harm in self.harms:
            if harm.stakeholder_id not in self.stakeholders:
                raise AssessmentError(
                    f"harm references unknown stakeholder "
                    f"{harm.stakeholder_id!r}"
                )

    def mitigated_harms(self) -> tuple[HarmInstance, ...]:
        """The harm register with planned safeguards applied."""
        return tuple(
            harm.mitigated(self.safeguards.mitigation_for(harm.kind))
            for harm in self.harms
        )

    def with_safeguards(
        self, safeguards: PlannedSafeguards
    ) -> "ResearchProject":
        """A copy of the project with a different safeguard plan."""
        return dataclasses.replace(self, safeguards=safeguards)
