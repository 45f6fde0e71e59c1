"""The operational health surface: flight recorder, windows, SLOs.

Pins down the acceptance properties of the health subsystem:

* bucket-estimated percentiles land within one bucket bound of the
  exact nearest-rank percentile on deterministic synthetic workloads;
* window merges are order-stable (commutative aggregates);
* incident-bundle *bodies* are byte-identical across batch worker
  counts 1, 2 and 4, and so is the ``obs slo`` verdict over the
  resulting audit chains;
* a data-only SLO spec change flips ``obs slo`` from exit 0 to
  exit 1 without touching a line of code;
* ``WarmPool.health`` reports liveness/readiness and the probe
  round-trip, and the atexit shutdown hook is registered lazily.
"""

from __future__ import annotations

import bisect
import json
import math
import random

import pytest

from repro.cli.main import main
from repro.errors import (
    BatchError,
    OperationError,
    SafeguardError,
)
from repro.observability import (
    BUCKET_BOUNDS,
    FlightRecorder,
    Histogram,
    Observer,
    RequestSample,
    SloSpec,
    WindowSeries,
    evaluate_slo,
    load_bundle_text,
    load_events,
    observed,
    verify_bundle_text,
    windows_from_events,
)
from repro.ops import BatchExecutor, load_requests
from tests.conftest import FORK_ONLY, crash_worker

REQUEST_LINES = [
    {"op": "stats"},
    {"op": "no-such-op"},
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "legend"},
    {"op": "no-such-op"},
    {"op": "table1", "args": {"format": "csv"}},
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


def _exact_percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile over the raw values."""
    ranked = sorted(values)
    rank = max(1, math.ceil(q * len(ranked) - 1e-9))
    return ranked[rank - 1]


def _covering_bound(value: float) -> float:
    """The histogram bucket upper bound that covers *value*."""
    position = bisect.bisect_left(BUCKET_BOUNDS, value)
    assert position < len(BUCKET_BOUNDS)
    return BUCKET_BOUNDS[position]


class TestHistogramQuantile:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("q", [0.5, 0.99])
    def test_estimate_within_one_bucket_of_exact(self, seed, q):
        rng = random.Random(seed)
        values = [
            rng.choice([1, 3, 7, 20, 90]) * 10.0 ** rng.randint(-5, 0)
            for _ in range(500)
        ]
        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        exact = _exact_percentile(values, q)
        estimate = histogram.quantile(q)
        # The estimate is the upper bound of the bucket holding the
        # exact nearest-rank observation: never below the truth and
        # within one bucket bound of it.
        assert estimate == _covering_bound(exact)
        assert estimate >= exact

    def test_monotone_workload(self):
        histogram = Histogram()
        values = [(index + 1) / 1000 for index in range(200)]
        for value in values:
            histogram.observe(value)
        for q in (0.5, 0.9, 0.99):
            exact = _exact_percentile(values, q)
            assert histogram.quantile(q) == _covering_bound(exact)

    def test_overflow_reports_exact_maximum(self):
        histogram = Histogram()
        top = BUCKET_BOUNDS[-1]
        for value in (top * 2, top * 3, top * 5):
            histogram.observe(value)
        assert histogram.quantile(0.99) == top * 5

    def test_empty_and_invalid(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) is None
        histogram.observe(1.0)
        with pytest.raises(SafeguardError):
            histogram.quantile(0.0)
        with pytest.raises(SafeguardError):
            histogram.quantile(1.5)

    def test_float_rank_drift(self):
        # 0.7 * 10 == 7.000000000000001 in binary floats; the rank
        # must still be 7, not 8.
        histogram = Histogram()
        for value in [0.0005] * 7 + [500.0] * 3:
            histogram.observe(value)
        assert histogram.quantile(0.7) == _covering_bound(0.0005)


def _sample_stream(seed: int, count: int) -> list[RequestSample]:
    rng = random.Random(seed)
    return [
        RequestSample(
            ok=rng.random() > 0.2,
            latency=rng.choice([0.0005, 0.004, 0.02, 0.3]),
            queue_depth=rng.randint(0, 6),
            busy_workers=rng.randint(1, 4),
            workers=4,
            cache=rng.choice(["hit", "miss", None]),
        )
        for _ in range(count)
    ]


class TestWindowMerge:
    def test_merge_is_order_stable(self):
        left = WindowSeries(window_size=10)
        right = WindowSeries(window_size=10)
        left.observe_many(_sample_stream(1, 37))
        right.observe_many(_sample_stream(2, 23))
        forward = WindowSeries(window_size=10)
        forward.observe_many(_sample_stream(1, 37))
        forward.merge(right)
        backward = WindowSeries(window_size=10)
        backward.observe_many(_sample_stream(2, 23))
        backward.merge(left)
        assert forward.to_dict() == backward.to_dict()
        assert forward.total == 60

    def test_window_merge_commutes(self):
        streams = (_sample_stream(3, 10), _sample_stream(4, 10))
        windows = []
        for stream in streams:
            series = WindowSeries(window_size=10)
            series.observe_many(stream)
            windows.append(series.windows()[0])
        ab = WindowSeries(window_size=10)
        ab.observe_many(streams[0])
        ab.windows()[0].merge(windows[1])
        ba = WindowSeries(window_size=10)
        ba.observe_many(streams[1])
        ba.windows()[0].merge(windows[0])
        assert (
            ab.windows()[0].measurements()
            == ba.windows()[0].measurements()
        )

    def test_mismatched_window_sizes_rejected(self):
        left = WindowSeries(window_size=10)
        right = WindowSeries(window_size=20)
        with pytest.raises(SafeguardError) as excinfo:
            left.merge(right)
        assert "window sizes" in str(excinfo.value)

    def test_unseen_series_report_none(self):
        series = WindowSeries(window_size=5)
        series.observe_many(
            RequestSample(ok=True) for _ in range(5)
        )
        measurements = series.windows()[0].measurements()
        assert measurements["error_rate"] == 0.0
        assert measurements["latency_p99_seconds"] is None
        assert measurements["cache_hit_rate"] is None
        assert measurements["queue_depth_max"] is None
        assert measurements["worker_utilization"] is None


class TestSloSpec:
    def test_valid_spec_round_trips(self):
        spec = SloSpec.from_dict(
            {
                "name": "ops",
                "window": 10,
                "objectives": [
                    {
                        "id": "errors",
                        "metric": "error_rate",
                        "threshold": 0.1,
                    },
                    {
                        "id": "burn",
                        "metric": "error_budget_burn",
                        "threshold": 1.0,
                        "budget": 0.05,
                        "windows": 3,
                    },
                ],
            }
        )
        assert spec.window_size == 10
        assert spec.objectives[1].budget == 0.05

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"objectives": []}, "non-empty array"),
            (
                {"objectives": [{"id": "x"}], "bogus": 1},
                "unknown keys",
            ),
            (
                {
                    "objectives": [
                        {
                            "id": "x",
                            "metric": "made_up",
                            "threshold": 1,
                        }
                    ]
                },
                "metric",
            ),
            (
                {
                    "objectives": [
                        {
                            "id": "x",
                            "metric": "error_budget_burn",
                            "threshold": 1,
                        }
                    ]
                },
                "budget",
            ),
            (
                {
                    "objectives": [
                        {
                            "id": "x",
                            "metric": "error_rate",
                            "threshold": 0.1,
                        },
                        {
                            "id": "x",
                            "metric": "error_rate",
                            "threshold": 0.2,
                        },
                    ]
                },
                "duplicate",
            ),
        ],
    )
    def test_invalid_specs_rejected(self, body, fragment):
        with pytest.raises(OperationError) as excinfo:
            SloSpec.from_dict(body)
        assert "invalid SLO spec" in str(excinfo.value)
        assert fragment in str(excinfo.value)


class TestSloEvaluation:
    def _series(self, outcomes: list[bool]) -> WindowSeries:
        series = WindowSeries(window_size=5)
        series.observe_many(
            RequestSample(ok=outcome) for outcome in outcomes
        )
        return series

    def test_breach_on_worst_window(self):
        outcomes = [True] * 5 + [True, False, False, True, True]
        spec = SloSpec.from_dict(
            {
                "window": 5,
                "objectives": [
                    {
                        "id": "errors",
                        "metric": "error_rate",
                        "threshold": 0.2,
                    }
                ],
            }
        )
        report = evaluate_slo(spec, self._series(outcomes))
        (result,) = report.results
        assert result["status"] == "breached"
        assert result["measured"] == 0.4
        assert result["window"] == 1
        assert report.exit_code == 1

    def test_error_budget_burn_rolls_windows(self):
        outcomes = ([True] * 4 + [False]) * 3  # 20% per window
        spec = SloSpec.from_dict(
            {
                "window": 5,
                "objectives": [
                    {
                        "id": "burn",
                        "metric": "error_budget_burn",
                        "threshold": 1.0,
                        "budget": 0.25,
                        "windows": 3,
                    }
                ],
            }
        )
        report = evaluate_slo(spec, self._series(outcomes))
        (result,) = report.results
        # 0.2 error rate against a 0.25 budget burns at 0.8x.
        assert result["measured"] == 0.8
        assert result["status"] == "ok"

    def test_no_data_does_not_gate(self):
        spec = SloSpec.from_dict(
            {
                "window": 5,
                "objectives": [
                    {
                        "id": "p99",
                        "metric": "latency_p99_seconds",
                        "threshold": 0.5,
                    }
                ],
            }
        )
        report = evaluate_slo(spec, self._series([True] * 5))
        (result,) = report.results
        assert result["status"] == "no-data"
        assert report.ok
        assert report.exit_code == 0


class TestFlightRecorder:
    def test_ring_is_bounded_and_honest_about_drops(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(9):
            recorder.record_metric("tick", index)
        assert len(recorder) == 4
        assert recorder.dropped == 5
        assert [f["value"] for f in recorder.frames] == [5, 6, 7, 8]

    def test_run_scope_detail_projected_out(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record_event(
            "ops",
            "batch-started",
            "",
            {"requests": 3, "workers": 4},
        )
        (frame,) = recorder.frames
        assert frame["detail"] == {"requests": 3}

    def test_incident_dump_verifies(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path)
        recorder.record_event("ops", "request-failed", "x", {})
        recorder.record_span("stage.anonymize", 1)
        recorder.record_metric("ops.batch.failed", 1)
        bundle = recorder.incident(
            "unit-test", reason="because", extra=7
        )
        path = tmp_path / "incident-000-unit-test.jsonl"
        text = path.read_text(encoding="utf-8")
        verification = verify_bundle_text(text)
        assert verification.ok
        assert verification.length == 3
        header, records, envelope = load_bundle_text(text)
        assert header["kind"] == "unit-test"
        assert header["deltas"] == {"ops.batch.failed": 1}
        assert envelope["reason"] == "because"
        assert envelope["context"]["extra"] == 7
        assert bundle.digest() == verify_digest(text)

    def test_tampered_bundle_localized(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path)
        for index in range(3):
            recorder.record_metric("tick", index)
        recorder.incident("unit-test")
        path = tmp_path / "incident-000-unit-test.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace('"value":1', '"value":9')
        verification = verify_bundle_text(
            "\n".join(lines) + "\n"
        )
        assert not verification.ok
        assert verification.error_index == 1

    def test_structurally_damaged_bundle_rejected(self):
        with pytest.raises(SafeguardError):
            load_bundle_text("not json\n")
        with pytest.raises(SafeguardError):
            load_bundle_text('{"not": "a bundle"}\n')


def verify_digest(text: str) -> str:
    """Recompute a bundle's body digest from its dumped text."""
    import hashlib

    body_lines = []
    for line in text.splitlines():
        if "envelope" in json.loads(line):
            break
        body_lines.append(line)
    body = "\n".join(body_lines) + "\n"
    return hashlib.blake2b(
        body.encode("utf-8"), digest_size=32
    ).hexdigest()


class TestIncidentByteIdentity:
    """The acceptance gate: bundles invariant across worker counts."""

    def _run(self, requests_file, tmp_path, workers):
        flight = tmp_path / f"flight-{workers}"
        log = tmp_path / f"audit-{workers}.jsonl"
        code = main(
            [
                "batch",
                str(requests_file),
                "--workers",
                str(workers),
                "--audit-log",
                str(log),
                "--flight-dir",
                str(flight),
            ]
        )
        assert code == 1  # two no-such-op requests fail
        (bundle_path,) = sorted(flight.iterdir())
        assert bundle_path.name == (
            "incident-000-batch-degraded.jsonl"
        )
        return bundle_path.read_text(encoding="utf-8"), log

    def test_bundle_bodies_identical_for_1_2_4_workers(
        self, requests_file, tmp_path, capsys
    ):
        bodies = {}
        logs = {}
        for workers in (1, 2, 4):
            text, log = self._run(
                requests_file, tmp_path, workers
            )
            capsys.readouterr()
            verification = verify_bundle_text(text)
            assert verification.ok
            header, records, _ = load_bundle_text(text)
            body_lines = text.splitlines()[: 1 + len(records)]
            bodies[workers] = "\n".join(body_lines)
            logs[workers] = log
            assert header["plan"]["requests"] == len(REQUEST_LINES)
        assert bodies[1] == bodies[2] == bodies[4]
        # The chain-derived window series is invariant too.
        series = [
            windows_from_events(load_events(logs[w]), 3).to_dict()
            for w in (1, 2, 4)
        ]
        assert series[0] == series[1] == series[2]

    def test_slo_verdict_bytes_identical_across_workers(
        self, requests_file, tmp_path, capsys
    ):
        spec = tmp_path / "slo.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "batch",
                    "window": 4,
                    "objectives": [
                        {
                            "id": "errors",
                            "metric": "error_rate",
                            "threshold": 0.6,
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        outputs = set()
        codes = set()
        for workers in (1, 2, 4):
            _, log = self._run(requests_file, tmp_path, workers)
            capsys.readouterr()
            codes.add(main(["obs", "slo", str(spec), str(log)]))
            outputs.add(capsys.readouterr().out)
        assert codes == {0}
        assert len(outputs) == 1

    def test_data_only_spec_change_flips_verdict(
        self, requests_file, tmp_path, capsys
    ):
        _, log = self._run(requests_file, tmp_path, 2)
        capsys.readouterr()
        spec = tmp_path / "slo.json"
        body = {
            "name": "batch",
            "window": 4,
            "objectives": [
                {
                    "id": "errors",
                    "metric": "error_rate",
                    "threshold": 0.6,
                }
            ],
        }
        spec.write_text(json.dumps(body), encoding="utf-8")
        assert main(["obs", "slo", str(spec), str(log)]) == 0
        # Tighten the threshold below the observed error rate: the
        # same chain now fails, with no code change anywhere.
        body["objectives"][0]["threshold"] = 0.1
        spec.write_text(json.dumps(body), encoding="utf-8")
        assert main(["obs", "slo", str(spec), str(log)]) == 1
        out = capsys.readouterr().out
        assert "verdict: fail" in out

    def test_incident_subcommand_verifies_dump(
        self, requests_file, tmp_path, capsys
    ):
        text, _ = self._run(requests_file, tmp_path, 2)
        bundle_path = (
            tmp_path / "flight-2" / "incident-000-batch-degraded.jsonl"
        )
        capsys.readouterr()
        assert (
            main(["obs", "incident", str(bundle_path), "--tail", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "incident #0: batch-degraded" in out
        assert "chain intact" in out
        assert "batch-finished" in out


@FORK_ONLY
class TestWorkerLostIncident:
    def test_worker_loss_dumps_one_incident(
        self, requests_file, monkeypatch, tmp_path
    ):
        from repro.ops import pool as pool_module

        monkeypatch.setattr(
            pool_module, "_execute_chunk", crash_worker
        )
        dump_dir = tmp_path / "flight"
        recorder = FlightRecorder(capacity=32, dump_dir=dump_dir)
        executor = BatchExecutor(workers=2, use_cache=False)
        with observed(Observer(flight=recorder)):
            with pytest.raises(BatchError):
                executor.run(load_requests(requests_file))
        # The pool dumped worker-lost; the executor must not pile a
        # second batch-error bundle onto the same fault.
        assert [b.kind for b in recorder.incidents] == [
            "worker-lost"
        ]
        (path,) = dump_dir.iterdir()
        assert path.name == "incident-000-worker-lost.jsonl"
        text = path.read_text(encoding="utf-8")
        assert verify_bundle_text(text).ok
        _, records, envelope = load_bundle_text(text)
        assert any(
            record["frame"].get("action") == "worker-lost"
            for record in records
        )
        assert "BrokenProcessPool" in envelope["reason"]


class TestWarmPoolHealth:
    def test_health_report_shape(self):
        from repro.ops.pool import WarmPool

        pool = WarmPool(2, use_cache=True)
        try:
            report = pool.health()
            assert report["workers"] == 2
            assert report["live"] is False
            assert report["rebuilds"] == 0
            assert report["context_warm"] is False
            assert report["cache"]["enabled"] is True
            assert report["cache"]["entries"] == 0
            assert "probe" not in report
        finally:
            pool.shutdown()

    def test_probe_round_trip(self):
        from repro.ops.pool import WarmPool

        pool = WarmPool(2, use_cache=False)
        try:
            report = pool.health(probe=True)
            assert report["live"] is True
            assert report["probe"] == {
                "ok": True,
                "round_trips": 2,
            }
            assert report["cache"] == {"enabled": False}
        finally:
            pool.shutdown()

    def test_health_subcommand(self, capsys):
        from repro.ops.pool import shutdown_warm_pools

        try:
            assert main(["obs", "health", "--probe"]) == 0
            out = capsys.readouterr().out
            assert "probe: ok (1 round trip(s))" in out
            assert "live: True" in out
        finally:
            shutdown_warm_pools()


class TestAtexitShutdown:
    def test_hook_registered_lazily(self):
        from repro.ops import pool as pool_module
        from repro.ops.pool import (
            shutdown_warm_pools,
            warm_pool,
        )

        try:
            warm_pool(1, False)
            assert pool_module._ATEXIT["registered"] is True
        finally:
            shutdown_warm_pools()
