"""Tests for the warm worker pool and cache-aware batch dispatch.

Covers the contracts the warm-pool subsystem adds on top of the
batch executor: transcript byte-identity at any worker count with
warm pools and chunked submission (including the all-cache-hit
second run), the one coordinator cache (a pure result computed by
one worker is a coordinator hit for an identical later request, and
hit/miss counts equal serial's even when the cache evicts),
fail-fast validation that never spawns
a worker for an invalid batch, and the graceful-degradation path —
a crashed worker maps to :class:`~repro.errors.BatchError` naming
the failing request, and the pool rebuilds lazily on next use.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import BatchError
from repro.observability import MetricsRegistry, Observer, observed
from repro.ops import (
    BatchExecutor,
    ResultCache,
    auto_chunk_size,
    load_requests,
    shutdown_warm_pools,
    warm_pool,
)
from repro.ops.pool import WarmPool
from repro.ops.spec import OpResponse
from tests.conftest import FORK_ONLY, crash_worker

REQUEST_LINES = [
    {"op": "stats"},
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "legend"},
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "evidence", "args": {"entry_id": "patreon"}},
    {"op": "intervals"},
]


@pytest.fixture
def requests_file(tmp_path):
    path = tmp_path / "requests.jsonl"
    path.write_text(
        "".join(json.dumps(line) + "\n" for line in REQUEST_LINES),
        encoding="utf-8",
    )
    return path


@pytest.fixture(autouse=True)
def isolated_warm_pools():
    """Every test starts and ends with no live warm pools."""
    shutdown_warm_pools()
    yield
    shutdown_warm_pools()


class TestAutoChunkSize:
    def test_targets_four_chunks_per_worker(self):
        assert auto_chunk_size(32, 4) == 2
        assert auto_chunk_size(64, 4) == 4

    def test_small_batches_keep_chunks_of_one(self):
        assert auto_chunk_size(3, 4) == 1
        assert auto_chunk_size(0, 4) == 1

    def test_huge_batches_hit_the_ceiling(self):
        assert auto_chunk_size(100_000, 2) == 32

    def test_never_below_one(self):
        assert auto_chunk_size(1, 16) == 1


class TestValidation:
    def test_rejects_zero_chunk_size(self):
        with pytest.raises(BatchError):
            BatchExecutor(workers=2, chunk_size=0)

    def test_rejects_zero_workers_on_pool(self):
        with pytest.raises(BatchError):
            WarmPool(0)


class TestResultCacheProtocol:
    def _response(self, text: str) -> OpResponse:
        return OpResponse(payload={"value": text}, text=text)

    def test_contains_does_not_count(self):
        cache = ResultCache()
        cache.put("k", self._response("v"))
        assert "k" in cache
        assert "absent" not in cache
        assert cache.hits == 0
        assert cache.misses == 0
        # Only the serving path moves the counters.
        assert cache.get("k").text == "v"
        assert cache.get("absent") is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_merge_round_trip(self):
        target = ResultCache()
        entries = [
            ("a", self._response("A")),
            ("b", self._response("B")),
        ]
        assert target.merge(entries) == 2
        assert target.hits == 0 and target.misses == 0
        assert target.get("a").text == "A"
        assert target.get("b").text == "B"

    def test_merge_keeps_existing_entries(self):
        target = ResultCache()
        target.put("a", self._response("original"))
        merged = target.merge([("a", self._response("other"))])
        assert merged == 0
        assert target.get("a").text == "original"

    def test_response_line_round_trip(self):
        response = OpResponse(
            payload={"value": [1, 2]}, text="out\n", exit_code=1
        )
        assert OpResponse.from_dict(response.to_dict()) == response


class TestWarmChunkedTranscripts:
    @pytest.mark.parametrize(
        "workers, chunk_size", [(2, 1), (2, 3), (4, None)]
    )
    def test_byte_identical_and_no_cold_start_on_second_run(
        self, requests_file, workers, chunk_size
    ):
        requests = load_requests(requests_file)
        serial = BatchExecutor(workers=1).run(requests)
        executor = BatchExecutor(
            workers=workers, warm=True, chunk_size=chunk_size
        )
        first = executor.run(requests)
        assert first.text() == serial.text()
        # Second run on the same pool: everything is served from the
        # persistent coordinator cache, and the transcript must not
        # change — the all-hit dispatch plan is still byte-identical.
        second = executor.run(requests)
        assert second.text() == serial.text()
        # A dispatched request is a miss: none was dispatched.
        assert second.summary["cache"]["misses"] == 0
        assert second.summary["cache"]["hits"] == len(requests)

    def test_chunked_no_cache_matches_serial(self, requests_file):
        requests = load_requests(requests_file)
        serial = BatchExecutor(workers=1, use_cache=False).run(
            requests
        )
        chunked = BatchExecutor(
            workers=2, use_cache=False, warm=True, chunk_size=2
        ).run(requests)
        assert chunked.text() == serial.text()
        assert chunked.summary["cache"]["enabled"] is False
        assert "hits" not in chunked.summary["cache"]


class TestSharedCache:
    def test_worker_result_becomes_coordinator_hit(self, tmp_path):
        """Worker A's pure result serves worker B's identical request.

        With one request per chunk and two workers, the first
        ``table1`` computes in a worker; the duplicate later in the
        file must be served by the coordinator from the merged
        shared cache, never re-dispatched.
        """
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "table1", "args": {"format": "csv"}}\n'
            '{"op": "stats"}\n'
            '{"op": "table1", "args": {"format": "csv"}}\n'
        )
        result = BatchExecutor(
            workers=2, warm=True, chunk_size=1
        ).run(load_requests(path))
        cache = result.summary["cache"]
        assert cache["scope"] == "shared-warm"
        # Workers hold no cache, so the one hit is the coordinator
        # serving the duplicate; each miss is a dispatched request.
        assert cache["misses"] == 2  # table1 + stats
        assert cache["hits"] == 1  # the duplicate
        assert cache["entries"] == 2

    def test_parallel_stats_match_serial_totals(self, requests_file):
        """Satellite fix: parallel batches report cache stats again."""
        requests = load_requests(requests_file)
        serial = BatchExecutor(workers=1).run(requests)
        parallel = BatchExecutor(workers=2, warm=True).run(requests)
        assert (
            parallel.summary["cache"]["hits"]
            == serial.summary["cache"]["hits"]
        )
        assert (
            parallel.summary["cache"]["misses"]
            == serial.summary["cache"]["misses"]
        )

    def test_second_batch_served_without_pool_traffic(
        self, requests_file
    ):
        requests = load_requests(requests_file)
        executor = BatchExecutor(workers=2, warm=True)
        executor.run(requests)
        second = executor.run(requests)
        cache = second.summary["cache"]
        assert cache["misses"] == 0
        assert cache["hits"] == len(requests)
        assert second.summary["ok"] == len(requests)

    def test_warm_serial_reuses_cache_across_runs(
        self, requests_file
    ):
        requests = load_requests(requests_file)
        executor = BatchExecutor(workers=1, warm=True)
        first = executor.run(requests)
        second = executor.run(requests)
        assert first.summary["cache"]["scope"] == "warm"
        assert second.summary["cache"]["misses"] == 0
        assert second.summary["cache"]["hits"] == len(requests)
        assert second.text() == first.text()

    def test_coordinator_registry_counts_match_serial(
        self, requests_file
    ):
        """Dispatched misses land in the coordinator's registry."""
        requests = load_requests(requests_file)
        counts = []
        for workers in (1, 2):
            registry = MetricsRegistry()
            with observed(Observer(metrics=registry)):
                BatchExecutor(workers=workers, chunk_size=1).run(
                    requests
                )
            counters = registry.snapshot()["counters"]
            counts.append(
                (
                    counters.get("ops.cache.hits", 0),
                    counters.get("ops.cache.misses", 0),
                )
            )
        assert counts[0] == counts[1] == (1, 5)


#: Six distinct pure keys, two repeated, against a cache of three.
EVICTING_LINES = [
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "stats"},
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "legend"},
    {"op": "intervals"},
    {"op": "evidence", "args": {"entry_id": "patreon"}},
    {"op": "stats"},
    {"op": "table1", "args": {"format": "markdown"}},
    {"op": "legend"},
]


class TestEvictingCoordinatorCache:
    @pytest.mark.parametrize("chunk_size", [1, 4, None])
    def test_two_warm_runs_match_serial(
        self, tmp_path, monkeypatch, chunk_size
    ):
        """A cache smaller than the key set: workers recompute.

        Each run's transcript is byte-identical to serial's, and so
        are its hit/miss totals: the coordinator folds each worker
        result in at its input position, so the cache evicts in
        serial order.
        """
        monkeypatch.setattr(WarmPool, "COORDINATOR_CACHE_SIZE", 3)
        path = tmp_path / "r.jsonl"
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in EVICTING_LINES)
        )
        requests = load_requests(path)
        serial = BatchExecutor(workers=1, warm=True)
        parallel = BatchExecutor(
            workers=2, warm=True, chunk_size=chunk_size
        )
        for _ in range(2):
            expected = serial.run(requests)
            result = parallel.run(requests)
            assert result.text() == expected.text()
            for counter in ("entries", "hits", "maxsize", "misses"):
                assert (
                    result.summary["cache"][counter]
                    == expected.summary["cache"][counter]
                ), counter
        assert expected.summary["cache"]["maxsize"] == 3


class TestFailFastValidation:
    def test_invalid_batch_never_spawns_a_worker(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "no-such-op"}\n{"op": "batch", "args": {}}\n'
        )
        result = BatchExecutor(workers=4, warm=True).run(
            load_requests(path)
        )
        assert [line["ok"] for line in result.lines] == [
            False,
            False,
        ]
        assert "unknown operation" in result.lines[0]["error"]
        assert "not batchable" in result.lines[1]["error"]
        # The pool object exists, but no executor was ever built.
        assert warm_pool(4, True).live is False

    def test_mixed_batch_fails_invalid_lines_in_place(
        self, tmp_path
    ):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "stats"}\n'
            '{"op": "no-such-op"}\n'
            '{"op": "legend"}\n'
        )
        result = BatchExecutor(workers=2, warm=True).run(
            load_requests(path)
        )
        assert [line["ok"] for line in result.lines] == [
            True,
            False,
            True,
        ]
        serial = BatchExecutor(workers=1).run(load_requests(path))
        assert result.text() == serial.text()

    def test_malformed_line_mid_file_fails_in_place(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.observability import load_events

        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "stats"}\n'
            '{"op": "legend"}\n'
            "not json\n"
            '{"op": "legend", "args": []}\n'
            '{"op": "intervals"}\n'
            '{"op": "stats"}\n'
        )
        transcripts, chains = [], []
        for workers in ("1", "2"):
            log = tmp_path / f"audit-{workers}.jsonl"
            argv = ["batch", str(path), "--workers", workers]
            argv += ["--chunk-size", "1", "--audit-log", str(log)]
            assert main(argv) == 1
            transcripts.append(capsys.readouterr().out)
            chains.append(
                [
                    (event.action, event.subject, event.detail)
                    for event in load_events(log)
                    if event.action.startswith("request-")
                ]
            )
        assert transcripts[0] == transcripts[1]
        assert chains[0] == chains[1]
        lines = [json.loads(text) for text in transcripts[0].splitlines()]
        assert [line["ok"] for line in lines] == [
            True, True, False, False, True, True,
        ]
        assert [line["op"] for line in lines[2:4]] == [None, "legend"]
        assert [action for action, _, _ in chains[0]].count(
            "request-failed"
        ) == 2


@FORK_ONLY
class TestWorkerLoss:
    def test_crash_maps_to_batch_error_with_request_index(
        self, requests_file, monkeypatch
    ):
        from repro.ops import pool as pool_module

        monkeypatch.setattr(
            pool_module, "_execute_chunk", crash_worker
        )
        executor = BatchExecutor(workers=2, chunk_size=2)
        with pytest.raises(BatchError) as excinfo:
            executor.run(load_requests(requests_file))
        message = str(excinfo.value)
        assert "worker process lost" in message
        assert "requests 0-1" in message
        assert "rebuild" in message

    def test_pool_rebuilds_lazily_after_loss(
        self, requests_file, monkeypatch
    ):
        from repro.ops import pool as pool_module

        requests = load_requests(requests_file)
        serial = BatchExecutor(workers=1).run(requests)
        monkeypatch.setattr(
            pool_module, "_execute_chunk", crash_worker
        )
        executor = BatchExecutor(
            workers=2, warm=True, use_cache=False
        )
        with pytest.raises(BatchError):
            executor.run(requests)
        pool = warm_pool(2, False)
        assert pool.live is False
        assert pool.rebuilds == 1
        monkeypatch.undo()
        # Next use rebuilds the executor transparently.
        recovered = executor.run(requests)
        assert recovered.text() == serial.text()
        assert pool.live is True

    def test_worker_loss_emits_audit_event(
        self, requests_file, monkeypatch, tmp_path
    ):
        from repro.observability import Observer, observed
        from repro.ops import pool as pool_module

        monkeypatch.setattr(
            pool_module, "_execute_chunk", crash_worker
        )
        log = tmp_path / "audit.jsonl"
        observer = Observer.recording(log)
        executor = BatchExecutor(workers=2, use_cache=False)
        with observed(observer):
            with pytest.raises(BatchError):
                executor.run(load_requests(requests_file))
        observer.trail.close()
        from repro.observability import load_events

        actions = [event.action for event in load_events(log)]
        assert "worker-lost" in actions


class TestStaticcheckOverPool:
    def test_r8_r9_stay_clean_over_pool_submission_sites(self):
        """The interprocedural rules pass over the new subsystem."""
        from repro.staticcheck import lint_repo, unsuppressed

        findings = unsuppressed(
            lint_repo(select=("R8", "R9"), incremental=False)
        )
        assert not findings, findings

    def test_r9_audits_the_pool_module(self):
        """The submission sites are actually visible to R9.

        Guards against the rule silently losing sight of the pool:
        the module must bind a tracked executor name and submit a
        module-level callable through it.
        """
        import ast
        import inspect

        from repro.ops import pool as pool_module
        from repro.staticcheck.rules_workers import (
            WorkerSafetyRule,
        )

        tree = ast.parse(inspect.getsource(pool_module))
        submits = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
        ]
        assert submits, "pool module no longer submits work?"
        for call in submits:
            target = call.args[0]
            assert isinstance(target, ast.Name)
            assert target.id == "_execute_chunk"
        assert WorkerSafetyRule().id == "R9"

    @pytest.mark.parametrize(
        ("relpath", "worker"),
        [
            ("ops/pool.py", "_execute_chunk"),
            ("pipeline/core.py", "_pool_apply"),
            ("staticcheck/engine.py", "_lint_chunk"),
        ],
    )
    def test_r9_flags_a_lambda_at_each_submission_site(
        self, tmp_path, relpath, worker
    ):
        """R9 audits the shipped submission sites, not only fixtures.

        A copy of the module lints clean; the same copy with the
        submitted worker function swapped for a lambda yields exactly
        one R9 finding per submission site.
        """
        import re
        from pathlib import Path

        import repro
        from repro.staticcheck import LintEngine, default_registry

        source = (Path(repro.__file__).parent / relpath).read_text(
            encoding="utf-8"
        )
        broken, sites = re.subn(
            rf"\.submit\(\s*{worker}\b",
            ".submit(lambda *args: None",
            source,
        )
        assert sites == 1
        engine = LintEngine(default_registry().select(["R9"]))
        for text, expected in ((source, 0), (broken, sites)):
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
            findings = engine.lint_package(tmp_path)
            assert len(findings) == expected, findings
            assert all("lambda" in f.message for f in findings)


class TestStreamingLoadRequests:
    def test_streams_large_files(self, tmp_path):
        path = tmp_path / "big.jsonl"
        with path.open("w", encoding="utf-8") as stream:
            for _ in range(5000):
                stream.write('{"op": "stats"}\n')
        requests = load_requests(path)
        assert len(requests) == 5000
        assert requests[4999].index == 4999

    def test_line_numbers_survive_streaming(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"op": "stats"}\n\nnot json\n')
        requests = load_requests(path)
        assert [r.index for r in requests] == [0, 1]
        failed = BatchExecutor().run(requests).lines[1]
        assert not failed["ok"]
        assert failed["error_type"] == "BatchError"
        assert ":3:" in failed["error"]
