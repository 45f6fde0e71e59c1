"""Unit tests for the JSONL batch executor and its CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import BatchError
from repro.ops import BatchExecutor, load_requests

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


class TestLoadRequests:
    def test_parses_and_indexes(self, requests_file):
        requests = load_requests(requests_file)
        assert [r.index for r in requests] == list(range(6))
        assert requests[1].op == "table1"
        assert requests[1].args == {"format": "csv"}
        assert requests[0].args == {}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"op": "stats"}\n\n{"op": "legend"}\n')
        assert [r.op for r in load_requests(path)] == [
            "stats",
            "legend",
        ]

    def test_missing_file(self, tmp_path):
        with pytest.raises(BatchError) as excinfo:
            load_requests(tmp_path / "absent.jsonl")
        assert "cannot read batch file" in str(excinfo.value)

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("not json", "invalid JSON"),
            ('["op"]', "'op' string"),
            ('{"args": {}}', "'op' string"),
            ('{"op": "stats", "args": []}', "must be an object"),
            ('{"op": "stats", "extra": 1}', "unknown request keys"),
        ],
    )
    def test_malformed_lines_name_position(
        self, tmp_path, line, fragment
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "stats"}\n' + line + "\n")
        first, failed = BatchExecutor().run(load_requests(path)).lines
        assert first["ok"]
        # The same line shape as an unknown op's failure.
        assert failed == {
            "error": failed["error"],
            "error_type": "BatchError",
            "exit_code": 2,
            "index": 1,
            "ok": False,
            "op": "stats" if '"op": "stats"' in line else None,
        }
        message = failed["error"]
        assert message.startswith(f"{path}:2: ")
        assert ":2:" in message
        assert fragment in message


class TestBatchExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(BatchError):
            BatchExecutor(workers=0)

    def test_serial_run_lines_and_summary(self, requests_file):
        result = BatchExecutor(workers=1).run(
            load_requests(requests_file)
        )
        assert len(result.lines) == 6
        assert all(line["ok"] for line in result.lines)
        assert [line["index"] for line in result.lines] == list(
            range(6)
        )
        assert result.summary["requests"] == 6
        assert result.summary["failed"] == 0
        assert result.summary["cache"]["enabled"]
        # The repeated table1 csv request is a content-address hit.
        assert result.summary["cache"]["hits"] >= 1

    def test_failed_request_does_not_abort(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "stats"}\n'
            '{"op": "evidence", "args": {"entry_id": "ghost"}}\n'
            '{"op": "legend"}\n'
        )
        result = BatchExecutor().run(load_requests(path))
        assert [line["ok"] for line in result.lines] == [
            True,
            False,
            True,
        ]
        failed = result.lines[1]
        assert failed["error_type"] == "UnknownEntryError"
        assert "ghost" in failed["error"]
        assert result.summary["failed"] == 1

    def test_nested_batch_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "batch", "args": {"requests": "x"}}\n'
        )
        result = BatchExecutor().run(load_requests(path))
        assert not result.lines[0]["ok"]
        assert "not batchable" in result.lines[0]["error"]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_output_matches_serial(
        self, requests_file, workers
    ):
        requests = load_requests(requests_file)
        serial = BatchExecutor(workers=1).run(requests)
        parallel = BatchExecutor(workers=workers).run(requests)
        assert parallel.text() == serial.text()
        assert parallel.lines == serial.lines


def _events(path):
    from repro.observability.log import load_events

    return load_events(path)


def _comparable(events):
    """Audit-event content with the worker count masked out."""
    rows = []
    for event in events:
        detail = {
            k: v
            for k, v in event.detail.items()
            if k != "workers"
        }
        rows.append(
            (event.category, event.action, event.subject, detail)
        )
    return rows


class TestBatchCLI:
    def test_stdout_is_jsonl_transcript(
        self, requests_file, capsys
    ):
        assert main(["batch", str(requests_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        first = json.loads(lines[0])
        assert first["op"] == "stats"
        assert "ethics sections: 12/28" in first["output"]

    def test_exit_one_when_any_request_fails(
        self, tmp_path, capsys
    ):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "evidence", "args": {"entry_id": "ghost"}}\n'
        )
        assert main(["batch", str(path)]) == 1
        line = json.loads(capsys.readouterr().out)
        assert line["ok"] is False

    def test_output_matches_serial_subcommands(
        self, requests_file, capsys
    ):
        """Each batch line's output is the subcommand's stdout."""
        main(["batch", str(requests_file), "--no-cache"])
        batch_lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        argv_forms = [
            ["stats"],
            ["table1", "--format", "csv"],
            ["legend"],
            ["table1", "--format", "csv"],
            ["evidence", "patreon"],
            ["intervals"],
        ]
        for line, argv in zip(batch_lines, argv_forms):
            assert main(argv) == line["exit_code"]
            assert capsys.readouterr().out == line["output"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_audit_chain_verifies_for_any_worker_count(
        self, requests_file, tmp_path, workers, capsys
    ):
        from repro.observability.log import verify_jsonl

        log = tmp_path / f"audit-{workers}.jsonl"
        assert (
            main(
                [
                    "batch",
                    str(requests_file),
                    "--workers",
                    str(workers),
                    "--audit-log",
                    str(log),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert verify_jsonl(log).ok
        events = _events(log)
        actions = [event.action for event in events]
        assert actions[0] == "batch-started"
        assert actions[-1] == "batch-finished"
        assert actions.count("request-started") == 6
        assert actions.count("request-completed") == 6

    def test_audit_content_invariant_under_workers(
        self, requests_file, tmp_path, capsys
    ):
        logs = {}
        for workers in (1, 4):
            log = tmp_path / f"audit-{workers}.jsonl"
            main(
                [
                    "batch",
                    str(requests_file),
                    "--workers",
                    str(workers),
                    "--audit-log",
                    str(log),
                ]
            )
            logs[workers] = _comparable(_events(log))
        capsys.readouterr()
        assert logs[1] == logs[4]

    def test_audit_content_invariant_under_warm_chunked_dispatch(
        self, requests_file, tmp_path, capsys
    ):
        """Cache-aware dispatch may not change the audit chain.

        The warm pool serves coordinator-cache hits without touching
        a worker and ships the rest in chunks — the chain content
        must still match a serial run event for event, including on
        a second batch where every request is a coordinator hit.
        """
        from repro.ops import shutdown_warm_pools

        shutdown_warm_pools()
        try:
            serial_log = tmp_path / "audit-serial.jsonl"
            main(
                [
                    "batch",
                    str(requests_file),
                    "--audit-log",
                    str(serial_log),
                ]
            )
            expected = _comparable(_events(serial_log))
            for attempt in ("first", "second"):
                log = tmp_path / f"audit-warm-{attempt}.jsonl"
                assert (
                    main(
                        [
                            "batch",
                            str(requests_file),
                            "--workers",
                            "2",
                            "--warm",
                            "--chunk-size",
                            "2",
                            "--audit-log",
                            str(log),
                        ]
                    )
                    == 0
                )
                assert _comparable(_events(log)) == expected
        finally:
            shutdown_warm_pools()
        capsys.readouterr()
