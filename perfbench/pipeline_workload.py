"""``pipeline-booter``: the safeguard pipeline over a booter database dump.

The seeded 6500-user x 90-day booter dump (about 56k records) runs
through ``SafeguardPipeline(default_stages(...))`` at workers 1 and 2,
closed loop: each run completes before the next starts. The
anonymization and seal stages and the pipeline's own process pool do
the work; ``repro.ops`` is never touched.

Correctness: the first workers=1 run is the reference. Its sealed
artifacts must open back to the canonical JSON of its record chunks,
and every later run, at either worker count, must reproduce its
records and artifacts exactly.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from statistics import median

from common import (
    PairCalibration,
    calibration_rate,
    on_reference_host,
    peak_rss_mb,
    settle,
)

USERS = 6500
DAYS = 90
CHUNK = 1024


def stages(seed: int):
    """The default stage stack with keys derived from *seed*."""
    from repro.pipeline import default_stages

    tag = f"perfbench-booter\x00{seed}".encode("utf-8")
    return default_stages(
        anonymize_key=hashlib.sha256(tag + b"\x00anon").digest(),
        pseudonymize_key=hashlib.sha256(tag + b"\x00pseudonym").digest(),
        seal_passphrase=f"perfbench-booter-{seed}",
    )


def setup(seed: int):
    """Imports and stage construction: what precedes the first run."""
    from repro.pipeline import SafeguardPipeline  # noqa: F401

    specs = stages(seed)
    for spec in specs:
        spec.build()
    return specs


def dump(seed: int) -> list[dict]:
    """The booter dump for *seed*, as a flat list of records."""
    from repro.datasets import BooterDatabaseGenerator

    return [
        record
        for chunk in BooterDatabaseGenerator(seed).iter_records(
            chunk_size=CHUNK, users=USERS, days=DAYS
        )
        for record in chunk
    ]


def _canonical(value) -> bytes:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


class _Transport:
    """Counts pickled bytes and waiting across the pipeline's pool."""

    def __init__(self, tracer) -> None:
        self.bytes = 0
        self.wait = tracer.wrap("pipeline.pool.result", self._result)
        self.submit = tracer.wrap("pipeline.pool.submit", self._submit)

    @staticmethod
    def _result(future, timeout):
        return future.result(timeout)

    @staticmethod
    def _submit(submit, fn, args, kwargs):
        return submit(fn, *args, **kwargs)


class _TimedFuture:
    def __init__(self, future, transport: _Transport) -> None:
        self._future = future
        self._transport = transport

    def result(self, timeout=None):
        value = self._transport.wait(self._future, timeout)
        self._transport.bytes += len(pickle.dumps(value))
        return value


def _tracing_executor(transport: _Transport):
    class TracingExecutor(ProcessPoolExecutor):
        """The pipeline's pool, measured from the coordinator's side."""

        def submit(self, fn, /, *args, **kwargs):
            transport.bytes += len(pickle.dumps((args, kwargs)))
            future = transport.submit(super().submit, fn, args, kwargs)
            return _TimedFuture(future, transport)

    return TracingExecutor


def run(seed: int, seconds: float, trace: bool, corrupt: bool) -> dict:
    pair = PairCalibration()
    try:
        return _measure(seed, seconds, trace, corrupt, pair)
    finally:
        pair.close()


def _measure(seed, seconds, trace, corrupt, pair) -> dict:
    from repro.pipeline import SafeguardPipeline

    specs = setup(seed)
    records = dump(seed)
    input_digest = hashlib.blake2b(_canonical(records)).hexdigest()
    count = len(records)

    def timed(workers: int):
        pipeline = SafeguardPipeline(specs, workers=workers,
                                     chunk_size=CHUNK)
        started = time.perf_counter()
        result = pipeline.run(records)
        return time.perf_counter() - started, result

    # The reference: a workers=1 run whose artifacts must open back to
    # its own record chunks under the seal passphrase.
    from repro.safeguards.storage import SecureContainer

    _, reference = timed(1)
    container = SecureContainer(f"perfbench-booter-{seed}")
    failed = 0
    for index, artifact in enumerate(reference.artifacts):
        chunk = reference.records[index * CHUNK:(index + 1) * CHUNK]
        if container.open(artifact) != _canonical(chunk):
            failed += len(chunk)
    if len(reference.records) != count:
        failed += abs(len(reference.records) - count) or count
    expected_records = reference.records
    expected_artifacts = list(reference.artifacts)
    if corrupt:
        expected_artifacts[0] = b"\x00" + expected_artifacts[0][1:]
    out_bytes = (
        sum(len(_canonical(r)) for r in expected_records)
        + sum(len(a) for a in reference.artifacts)
    )
    attempted = count

    def check(result) -> int:
        bad = sum(1 for a, b in zip(result.records, expected_records)
                  if a != b)
        bad += abs(len(result.records) - len(expected_records))
        bad += CHUNK * sum(
            1 for a, b in zip(result.artifacts, expected_artifacts)
            if a != b)
        bad += CHUNK * abs(len(result.artifacts) - len(expected_artifacts))
        return min(bad, len(expected_records))

    def rounds(phases, budget: float, per_run=None) -> list[dict]:
        nonlocal attempted, failed
        done = []
        spent = 0.0
        while spent < budget or not done:
            settle()
            before = calibration_rate()
            entry = {}
            for workers in phases:
                if workers == 2:
                    pair_before = pair.rate()
                elapsed, result = timed(workers)
                if workers == 1:
                    # Bracket the workers=1 run alone: the host's speed
                    # changes within seconds, so a calibration taken
                    # after the workers=2 run would not describe it.
                    entry["cal"] = (before + calibration_rate()) / 2
                else:
                    entry["cal2"] = (pair_before + pair.rate()) / 2
                entry[workers] = elapsed
                spent += elapsed
                attempted += count
                failed += check(result)
                if per_run is not None:
                    per_run(workers, result)
            done.append(entry)
        return done

    def rate(done, workers) -> float:
        """Median records/s over rounds, on the reference host.

        workers=2 runs are rescaled by the two-core calibration.
        """
        speed = "cal" if workers == 1 else "cal2"
        return median(
            count / on_reference_host(entry[workers], entry[speed])
            for entry in done)

    def raw_rate(done, workers) -> float:
        return median(count / entry[workers] for entry in done)

    report = [f"records per run: {count} in chunks of {CHUNK}"]
    per_layer: dict = {}
    tracers = ()
    if not trace:
        measured = rounds((1, 2), seconds)
    else:
        from spans import Tracer

        measured = rounds((1, 2), 0.4 * seconds)
        tracer = Tracer()
        tracer.patch(SafeguardPipeline, "run", "pipeline.run")
        for spec in specs:
            tracer.patch(type(spec.build()), "apply",
                         f"pipeline.stage.{spec.name}")
        ip_cache = [0, 0]

        def note_cache(workers, result):
            for stage in result.metrics["stages"]:
                if stage["name"] == "anonymize":
                    ip_cache[0] += stage["cache_hits"]
                    ip_cache[1] += stage["cache_misses"]

        try:
            traced = rounds((1,), 0.3 * seconds, note_cache)
        finally:
            tracer.restore()
        import repro.pipeline.core as core

        pool_tracer = Tracer()
        transport = _Transport(pool_tracer)
        pool_tracer.patch(SafeguardPipeline, "run", "pipeline.run")
        pool_tracer.patch_with(core, "ProcessPoolExecutor",
                               _tracing_executor(transport))
        try:
            traced_w2 = rounds((2,), 0.3 * seconds)
        finally:
            pool_tracer.restore()
        runs = len(traced)
        times = tracer.self_times()

        def busy(stage) -> float:
            return times.get(f"pipeline.stage.{stage}", (0, 0, 0))[1] / runs / 1e9

        lookups = ip_cache[0] + ip_cache[1]
        per_layer = {
            "pipeline.anonymize_busy_s": (busy("anonymize"), "s"),
            "pipeline.pseudonymize_busy_s": (busy("pseudonymize"), "s"),
            "pipeline.scrub_busy_s": (busy("scrub"), "s"),
            "pipeline.seal_busy_s": (busy("seal"), "s"),
            "anonymization.ip.cache_hit_ratio": (
                ip_cache[0] / lookups if lookups else 0.0, "ratio"),
            "pipeline.transport_bytes_per_record": (
                transport.bytes / (count * len(traced_w2)), "B"),
            "pipeline.fanout_wait_s": (
                pool_tracer.self_times().get(
                    "pipeline.pool.result", (0, 0, 0))[1]
                / len(traced_w2) / 1e9, "s"),
            "pipeline.parallel_efficiency": (
                rate(measured, 2) / (2 * rate(measured, 1)), "ratio"),
            "trace.overhead_ratio": (
                rate(measured, 1) / rate(traced, 1), "ratio"),
        }
        report += tracer.render_tree(runs, "pipeline run, workers=1")
        report += pool_tracer.render_tree(
            len(traced_w2), "pipeline run, workers=2 coordinator")
        tracers = (tracer, pool_tracer)
    if hashlib.blake2b(_canonical(records)).hexdigest() != input_digest:
        failed += count  # the pipeline must never mutate its input
    report.append(f"rounds: {len(measured)} x (workers=1, workers=2)")
    return {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "ops_per_s.w1": (rate(measured, 1), "op/s"),
            "ops_per_s.w2": (rate(measured, 2), "op/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "out_bytes_per_op": (out_bytes / count, "B"),
            "ops_per_s.w1.raw": (raw_rate(measured, 1), "op/s"),
            "ops_per_s.w2.raw": (raw_rate(measured, 2), "op/s"),
        },
        "per_layer": per_layer,
        "report": report,
        "tracers": tracers,
    }
