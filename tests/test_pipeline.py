"""Tests for the streaming safeguard pipeline (repro.pipeline).

The load-bearing property is determinism: the pipeline's output must
be a pure function of (stage specs, input records) — invariant under
worker count, chunk size and run repetition — because that is what
lets a parallel safeguard pass over a leaked dataset be audited
against a serial one byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time

import pytest

from repro.anonymization import IPAnonymizer, TextScrubber
from repro.cli.main import main
from repro.datasets import BooterDatabaseGenerator, PasswordDumpGenerator
from repro.errors import AnonymizationError, DatasetError, SafeguardError
from repro.observability import (
    FlightRecorder,
    Observer,
    load_events,
    observed,
)
from repro.pipeline import (
    AnonymizeIPsSpec,
    PseudonymizeSpec,
    SafeguardPipeline,
    ScrubTextSpec,
    SealSpec,
    StageFailure,
    default_stages,
)
from repro.safeguards.storage import SecureContainer
from repro.staticcheck import LintEngine, default_registry

ANON_KEY = hashlib.sha256(b"test-anon-key").digest()
PSEUDO_KEY = hashlib.sha256(b"test-pseudo-key").digest()
PASSPHRASE = "test-pipeline-passphrase"


def booter_source(seed: int = 11, users: int = 90, days: int = 30):
    return BooterDatabaseGenerator(seed).iter_records(
        chunk_size=256, users=users, days=days
    )


def all_stages():
    return default_stages(
        anonymize_key=ANON_KEY,
        pseudonymize_key=PSEUDO_KEY,
        seal_passphrase=PASSPHRASE,
    )


def fingerprint(result) -> str:
    payload = json.dumps(result.records, sort_keys=True).encode()
    for blob in result.artifacts:
        payload += blob
    return hashlib.sha256(payload).hexdigest()


class TestParallelEqualsSerial:
    """Parallel output must be byte-identical to serial."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_all_stages_workers(self, workers):
        serial = SafeguardPipeline(
            all_stages(), workers=1, chunk_size=128
        ).run(booter_source())
        parallel = SafeguardPipeline(
            all_stages(), workers=workers, chunk_size=128
        ).run(booter_source())
        assert parallel.records == serial.records
        assert parallel.artifacts == serial.artifacts

    @pytest.mark.parametrize(
        "spec",
        [
            AnonymizeIPsSpec(key=ANON_KEY),
            PseudonymizeSpec(key=PSEUDO_KEY),
            ScrubTextSpec(),
            SealSpec(passphrase=PASSPHRASE),
        ],
        ids=["anonymize", "pseudonymize", "scrub", "seal"],
    )
    def test_each_stage_alone(self, spec):
        serial = SafeguardPipeline(
            (spec,), workers=1, chunk_size=100
        ).run(booter_source())
        parallel = SafeguardPipeline(
            (spec,), workers=2, chunk_size=100
        ).run(booter_source())
        assert fingerprint(parallel) == fingerprint(serial)

    def test_chunk_size_invariance(self):
        small = SafeguardPipeline(
            all_stages(), workers=1, chunk_size=33
        ).run(booter_source())
        large = SafeguardPipeline(
            all_stages(), workers=1, chunk_size=4096
        ).run(booter_source())
        # Chunk size moves records between sealed containers, so
        # artifacts differ — but the record stream must not.
        assert small.records == large.records

    def test_two_runs_same_seed_and_key_identical(self):
        first = SafeguardPipeline(
            all_stages(), workers=2, chunk_size=64
        ).run(booter_source())
        second = SafeguardPipeline(
            all_stages(), workers=2, chunk_size=64
        ).run(booter_source())
        assert fingerprint(first) == fingerprint(second)

    def test_passwords_dataset_round_trip(self):
        def source():
            return PasswordDumpGenerator(5).iter_records(
                chunk_size=64, users=150
            )

        serial = SafeguardPipeline(
            all_stages(), workers=1, chunk_size=64
        ).run(source())
        parallel = SafeguardPipeline(
            all_stages(), workers=2, chunk_size=64
        ).run(source())
        assert fingerprint(parallel) == fingerprint(serial)


class TestStages:
    def test_anonymize_rewrites_ip_fields_prefix_preserving(self):
        records = [
            {"target_ip": "198.51.100.7"},
            {"target_ip": "198.51.100.250"},
            {"note": "no ip here"},
        ]
        result = SafeguardPipeline(
            (AnonymizeIPsSpec(key=ANON_KEY),), chunk_size=10
        ).run(iter(records))
        a, b = (r["target_ip"] for r in result.records[:2])
        assert a != "198.51.100.7" and b != "198.51.100.250"
        # Same /24 in, same /24 out (prefix preservation).
        assert IPAnonymizer.shared_prefix_length(a, b) >= 24
        assert result.records[2] == {"note": "no ip here"}
        reference = IPAnonymizer(ANON_KEY).anonymize("198.51.100.7")
        assert a == reference

    def test_pseudonymize_email_and_username(self):
        records = [{"email": "alex@example.com", "username": "alex"}]
        result = SafeguardPipeline(
            (PseudonymizeSpec(key=PSEUDO_KEY),), chunk_size=10
        ).run(iter(records))
        record = result.records[0]
        assert "alex" not in record["email"]
        assert record["email"].endswith("@example.invalid")
        assert record["username"] != "alex"

    def test_scrub_redacts_text_fields(self):
        records = [
            {"text": "contact me at 203.0.113.9 thanks"},
            {"text": "all clean"},
        ]
        result = SafeguardPipeline(
            (ScrubTextSpec(),), chunk_size=10
        ).run(iter(records))
        assert "[redacted-ipv4]" in result.records[0]["text"]
        assert result.records[1]["text"] == "all clean"
        stage = result.metrics["stages"][0]
        assert stage["redactions"] == 1

    def test_seal_artifacts_open_to_chunk_json(self):
        records = [{"user_id": i, "note": "n"} for i in range(7)]
        result = SafeguardPipeline(
            (SealSpec(passphrase=PASSPHRASE),), chunk_size=3
        ).run(iter(records))
        assert len(result.artifacts) == 3  # ceil(7 / 3)
        container = SecureContainer(PASSPHRASE)
        opened = [
            json.loads(container.open(blob))
            for blob in result.artifacts
        ]
        assert [r for chunk in opened for r in chunk] == records

    def test_seal_is_content_deterministic(self):
        records = [{"user_id": 1}]
        spec = SealSpec(passphrase=PASSPHRASE)
        first = SafeguardPipeline((spec,), chunk_size=5).run(
            iter(records)
        )
        second = SafeguardPipeline((spec,), chunk_size=5).run(
            iter([dict(r) for r in records])
        )
        assert first.artifacts == second.artifacts

    def test_validation_errors(self):
        with pytest.raises(SafeguardError):
            SafeguardPipeline(())
        with pytest.raises(SafeguardError):
            SafeguardPipeline(all_stages(), workers=0)
        with pytest.raises(SafeguardError):
            SafeguardPipeline(all_stages(), chunk_size=0)
        with pytest.raises(SafeguardError):
            default_stages(
                anonymize_key=ANON_KEY,
                pseudonymize_key=PSEUDO_KEY,
                seal_passphrase=PASSPHRASE,
                names=("anonymize", "teleport"),
            )


class TestBoundedCache:
    def test_eviction_counted_and_size_bounded(self):
        anonymizer = IPAnonymizer(ANON_KEY, cache_size=256)
        # One digest entry per byte-aligned prefix: spread addresses
        # over many /16s and /24s so unique prefixes exceed the cap.
        addresses = [
            f"203.{i}.{j}.{j + 1}" for i in range(40) for j in range(10)
        ]
        anonymizer.anonymize_many(addresses)
        stats = anonymizer.cache_info()
        assert stats.size <= 256
        assert stats.evictions > 0
        assert stats.misses > 0
        assert 0.0 <= stats.hit_rate <= 1.0

    def test_small_cache_output_identical_to_large(self):
        addresses = [
            f"203.{i}.{j}.{j + 1}" for i in range(40) for j in range(10)
        ]
        small = IPAnonymizer(ANON_KEY, cache_size=256)
        large = IPAnonymizer(ANON_KEY)
        assert small.anonymize_many(addresses) == large.anonymize_many(
            addresses
        )

    def test_cache_stats_surface_in_pipeline_metrics(self):
        result = SafeguardPipeline(
            (AnonymizeIPsSpec(key=ANON_KEY),), chunk_size=64
        ).run(booter_source())
        stage = result.metrics["stages"][0]
        assert stage["cache_misses"] > 0
        assert stage["cache_maxsize"] > 0
        assert stage["addresses"] > 0

    def test_cache_size_validated(self):
        with pytest.raises(AnonymizationError):
            IPAnonymizer(ANON_KEY, cache_size=10)

    def test_cache_clear_resets(self):
        anonymizer = IPAnonymizer(ANON_KEY)
        anonymizer.anonymize("203.0.113.5")
        anonymizer.cache_clear()
        stats = anonymizer.cache_info()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)


class TestScrubberClassification:
    """Satellite: deterministic digit-run classification."""

    def test_luhn_valid_card_is_card_not_phone(self):
        result = TextScrubber().scrub("pay 4111111111111111 now")
        assert [m.kind for m in result.matches] == ["card"]

    def test_card_inside_phone_shaped_run_claimed_once_as_card(self):
        result = TextScrubber().scrub("ref 12 4111111111111111")
        kinds = [m.kind for m in result.matches]
        assert kinds.count("card") == 1
        assert "phone" not in kinds

    def test_phone_shaped_non_luhn_is_phone(self):
        result = TextScrubber().scrub("call 020 7946 0000 today")
        assert [m.kind for m in result.matches] == ["phone"]

    def test_ipv4_inside_digit_run_recovered(self):
        result = TextScrubber().scrub("55 203.0.113.9")
        kinds = [m.kind for m in result.matches]
        assert "ipv4" in kinds

    def test_classification_stable_across_runs(self):
        text = "id 4111111111111111 or 020 7946 0000 or 203.0.113.9"
        first = TextScrubber().scrub(text)
        second = TextScrubber().scrub(text)
        assert first == second


class TestStreamingGenerators:
    def test_booter_stream_matches_generate(self):
        database = BooterDatabaseGenerator(21).generate(
            users=50, days=20
        )
        flat = [
            record
            for chunk in BooterDatabaseGenerator(21).iter_records(
                chunk_size=17, users=50, days=20
            )
            for record in chunk
        ]
        streamed_attacks = [
            {k: v for k, v in r.items() if k != "_table"}
            for r in flat
            if r["_table"] == "attacks"
        ]
        assert streamed_attacks == database.to_records()["attacks"]

    def test_chunk_size_only_batches(self):
        def flatten(chunk_size):
            return [
                record
                for chunk in PasswordDumpGenerator(8).iter_records(
                    chunk_size=chunk_size, users=40
                )
                for record in chunk
            ]

        assert flatten(7) == flatten(1000)

    def test_base_class_signals_no_streaming(self):
        from repro.datasets.common import SeededGenerator

        with pytest.raises(DatasetError):
            list(SeededGenerator(0).iter_records())

    def test_chunk_size_validated(self):
        with pytest.raises(DatasetError):
            list(
                PasswordDumpGenerator(0).iter_records(
                    chunk_size=0, users=5
                )
            )


class TestPerfSmoke:
    """Tier-1 regression canary with a very generous budget."""

    def test_pipeline_small_dump_within_budget(self):
        started = time.perf_counter()
        result = SafeguardPipeline(
            all_stages(), workers=1, chunk_size=512
        ).run(booter_source(seed=2, users=300, days=60))
        elapsed = time.perf_counter() - started
        assert result.metrics["records"] > 1500
        # Serial full-stack runs in well under a second on any
        # hardware this repo targets; 20s catches order-of-magnitude
        # regressions without flaking on loaded CI boxes.
        assert elapsed < 20.0

    def test_batch_anonymization_within_budget(self):
        anonymizer = IPAnonymizer(ANON_KEY)
        addresses = [
            f"{a}.{b}.{c}.{d}"
            for a in (100, 101)
            for b in range(10)
            for c in range(10)
            for d in range(1, 26)
        ]
        started = time.perf_counter()
        mapped = anonymizer.anonymize_many(addresses)
        elapsed = time.perf_counter() - started
        assert len(set(mapped)) == len(set(addresses))
        assert elapsed < 10.0


class TestPipelineCLI:
    def test_pipeline_subcommand_prints_metrics(self, capsys):
        assert (
            main(
                [
                    "pipeline",
                    "--users", "60",
                    "--days", "20",
                    "--workers", "2",
                    "--chunk-size", "128",
                ]
            )
            == 0
        )
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["workers"] == 2
        assert metrics["chunk_size"] == 128
        names = [stage["name"] for stage in metrics["stages"]]
        assert names == ["anonymize", "pseudonymize", "scrub", "seal"]

    def test_pipeline_stage_selection(self, capsys):
        assert (
            main(
                [
                    "pipeline",
                    "--dataset", "passwords",
                    "--users", "50",
                    "--stages", "pseudonymize,scrub",
                ]
            )
            == 0
        )
        metrics = json.loads(capsys.readouterr().out)
        names = [stage["name"] for stage in metrics["stages"]]
        assert names == ["pseudonymize", "scrub"]


def _crash_apply(specs, chunk, index, telemetry=False):
    """A pipeline worker entry that dies without cleanup (test double)."""
    os._exit(13)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the crash double reaches workers via fork inheritance",
)
class TestWorkerLoss:
    """A dead pipeline worker is reported once, as a batch worker is."""

    @pytest.fixture
    def crash(self, monkeypatch):
        from repro.pipeline import core

        monkeypatch.setattr(core, "_pool_apply", _crash_apply)

    def test_loss_is_one_event_one_incident_one_error(
        self, crash, tmp_path
    ):
        log = tmp_path / "audit.jsonl"
        recorder = FlightRecorder(capacity=32)
        observer = Observer.recording(log).attach(flight=recorder)
        pipeline = SafeguardPipeline(
            all_stages(), workers=2, chunk_size=64
        )
        with observed(observer):
            with pytest.raises(SafeguardError) as excinfo:
                pipeline.run(booter_source(users=20, days=5))
        observer.trail.close()
        assert not isinstance(excinfo.value, StageFailure)
        assert "worker process lost while running chunk 0" in str(
            excinfo.value
        )
        lost = [
            event
            for event in load_events(log)
            if event.action == "worker-lost"
        ]
        assert [(e.category, e.detail["span"]) for e in lost] == [
            ("pipeline", "chunk 0")
        ]
        # One bundle for the fault: no stage-failure dump on top.
        assert [b.kind for b in recorder.incidents] == ["worker-lost"]
        envelope = recorder.incidents[0].envelope
        assert "BrokenProcessPool" in envelope["reason"]
        assert envelope["context"] == {"span": "chunk 0", "workers": 2}

    def test_cli_prints_one_error_line(self, crash, capsys):
        code = main(
            [
                "pipeline",
                "--users", "20",
                "--days", "5",
                "--workers", "2",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: worker process lost")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestR2PipelineScope:
    """R2 now polices pipeline/ — noqa-free for the worker pool."""

    def lint(self, source, relpath):
        engine = LintEngine(default_registry().select(["R2"]))
        return engine.lint_source(source, relpath)

    def test_clock_read_in_pipeline_flagged(self):
        findings = self.lint(
            "import time\ndef f():\n    return time.time()\n",
            "pipeline/core.py",
        )
        assert [f.rule_id for f in findings] == ["R2"]

    def test_concurrent_futures_and_perf_counter_allowed(self):
        findings = self.lint(
            "import time\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def f(jobs):\n"
            "    start = time.perf_counter()\n"
            "    with ProcessPoolExecutor(2) as pool:\n"
            "        list(pool.map(abs, jobs))\n"
            "    return time.perf_counter() - start\n",
            "pipeline/core.py",
        )
        assert findings == []

    def test_shipped_pipeline_package_lints_clean(self):
        from repro.staticcheck import lint_repo, unsuppressed

        findings = [
            finding
            for finding in unsuppressed(lint_repo(("R2",)))
            if "pipeline" in str(finding.path)
        ]
        assert findings == []
