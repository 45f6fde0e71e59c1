"""Unit tests for the report generators and reproduction report."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.assessment import assess_project
from repro.reporting import (
    generate_data_management_plan,
    generate_ethics_section,
    generate_reb_application,
    render_report,
    run_reproduction,
)
from tests.test_assessment import booter_project


@pytest.fixture(scope="module")
def assessment():
    return assess_project(booter_project(reb_approved=True))


class TestEthicsSection:
    def test_covers_required_elements(self, assessment):
        text = generate_ethics_section(assessment)
        # §6: obtained / protected / harms / benefits / need.
        assert "leaked without authorization" in text
        assert "safeguards" in text.lower()
        assert "sensitive information" in text
        assert "uniqueness" in text
        assert "Research Ethics Board" in text

    def test_mentions_aup_citation(self, assessment):
        text = generate_ethics_section(assessment)
        assert "https://example.org/aup" in text

    def test_unapproved_project_promises_review(self):
        assessment = assess_project(booter_project(reb_approved=False))
        text = generate_ethics_section(assessment)
        assert "seek review" in text

    def test_consentless_stakeholders_explained(self, assessment):
        text = generate_ethics_section(assessment)
        assert "Informed consent could not be obtained" in text


class TestREBApplication:
    def test_sections_present(self, assessment):
        text = generate_reb_application(assessment)
        for heading in (
            "Stakeholders and consent",
            "Risk-benefit analysis",
            "Menlo principles",
            "Legal analysis",
            "Safeguards",
            "Request",
        ):
            assert heading in text

    def test_risky_project_requests_approval(self, assessment):
        text = generate_reb_application(assessment)
        assert "We request APPROVAL" in text

    def test_riskless_project_requests_exemption(self):
        project = booter_project(harms=())
        text = generate_reb_application(assess_project(project))
        assert "We request EXEMPTION" in text
        assert "insufficient basis" in text


class TestDataManagementPlan:
    def test_sensitivity_table_rendered(self, assessment):
        text = generate_data_management_plan(assessment.project)
        for sensitivity in (
            "derived", "pseudonymised", "identifiable", "toxic",
        ):
            assert sensitivity in text

    def test_controls_checked(self, assessment):
        text = generate_data_management_plan(assessment.project)
        assert "[x] encryption at rest" in text
        assert "[x] controlled sharing" in text

    def test_sharing_recommendation_when_absent(self):
        from repro.assessment import PlannedSafeguards

        project = booter_project(
            safeguards=PlannedSafeguards(privacy_preserved=True)
        )
        text = generate_data_management_plan(project)
        assert "consider controlled sharing" in text


class TestReproductionReport:
    def test_all_outcomes_pass(self, corpus):
        outcomes = run_reproduction(corpus)
        failing = [o for o in outcomes if not o.passed]
        assert not failing, [o.description for o in failing]

    def test_report_renders_markdown_table(self, corpus):
        report = render_report(corpus)
        assert report.startswith("# Reproduction report")
        assert "| E1 |" in report
        assert "E13" in report
        assert "Safeguards: " in report

    def test_report_bytes_independent_of_hash_seed(self):
        """``repro report`` prints the same bytes under any hash seed.

        Set-valued §5 claims once rendered in set iteration order,
        which follows ``PYTHONHASHSEED``.
        """
        src = str(Path(repro.__file__).resolve().parents[1])
        digests = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-m", "repro", "report"],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr[-2000:]
            digests.add(hashlib.sha256(result.stdout).hexdigest())
        assert len(digests) == 1
