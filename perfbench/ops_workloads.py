"""``assess-uncached`` and ``catalog-mixed``: the service kernel under batch load.

Both workloads drive :class:`repro.ops.BatchExecutor` on the warm
process-lifetime pools (``warm=True``) at workers 1 and 2, closed
loop: one caller submits a batch and waits for its transcript before
sending the next. Each round also times serial ``execute()`` calls in
a ``RunContext`` of their own for the latency figures, so both pools'
caches see the same request stream.

* ``assess-uncached`` sends ``policy.assess`` requests whose seeds are
  disjoint across rounds and phases, so every request misses the
  result cache and the domain stack does the work.
* ``catalog-mixed`` sends a Zipf-skewed mix over the batchable pure
  operations. Its key universe is twice the warm coordinator cache's
  capacity, so hits, misses and evictions all occur, and the skew
  keeps misses a minority of the time (see NOTES.md).

Every response is checked against a reference computed in this
process by an uncached serial ``execute()``; the workers=2 transcript
must be byte-identical to the workers=1 transcript.
"""

from __future__ import annotations

import json
import pickle
import random
import time
from statistics import median

from common import (
    PairCalibration,
    calibration_rate,
    on_reference_host,
    peak_rss_mb,
    settle,
    tail_percentile,
)

#: Requests per batch (one closed-loop round) and per latency block.
BATCH = {"assess-uncached": 400, "catalog-mixed": 2000}
LATENCY = {"assess-uncached": 400, "catalog-mixed": 1000}

#: Seeds per benchmark seed: every round draws from its own block.
_SEED_SPAN = 10_000_000

#: Distinct catalog keys: twice the warm coordinator cache (1024).
CATALOG_KEYS = 2048
#: Zipf exponent of the catalog mix: the smallest of 1.0, 1.1, ...
#: at which the self time of spans outside ``repro.ops`` is at most a
#: fifth of the traced workers=1 batch time (measured in NOTES.md).
ZIPF_S = 1.3

#: The non-assess part of the catalog mix: every batchable pure
#: operation a reader of the paper's tables would call. They hold the
#: most popular ranks, in this order, so the op mix is the same for
#: every seed. ``report`` is kept although its Markdown depends on
#: PYTHONHASHSEED (see NOTES.md).
CATALOG_FIXED = (
    *(("table1", {"format": f}) for f in (
        "text", "markdown", "latex", "latex-booktabs", "csv", "html")),
    ("stats", {}),
    ("report", {}),
    ("report.render", {}),
    ("table.latex", {"style": "booktabs"}),
    ("table.latex", {"style": "plain"}),
    ("legend", {}),
    ("intervals", {}),
    ("similarity", {}),
    ("similarity", {"threshold": 0.5}),
    ("policy.show", {}),
    ("policy.show", {"pack": "precautionary"}),
)


def _key(op: str, args: dict) -> str:
    return op + " " + json.dumps(args, sort_keys=True)


# -- inputs -------------------------------------------------------------


class Inputs:
    """Round-by-round request lists, a pure function of the seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.batch = BATCH[workload]
        self.latency = LATENCY[workload]
        if workload == "catalog-mixed":
            rng = random.Random(f"catalog-mixed:{seed}")
            base = seed * _SEED_SPAN
            keys = []
            for i in range(CATALOG_KEYS - len(CATALOG_FIXED)):
                args = {"seed": base + i}
                if i % 4 == 3:
                    args["pack"] = "precautionary"
                keys.append(("policy.assess", args))
            rng.shuffle(keys)
            keys[:0] = CATALOG_FIXED
            weights = [1.0 / (rank + 1) ** ZIPF_S
                       for rank in range(len(keys))]
            cumulative = []
            total = 0.0
            for weight in weights:
                total += weight
                cumulative.append(total)
            self._keys = keys
            self._cumulative = cumulative

    def round(self, index: int) -> tuple[list, list]:
        """``(batch, latency)`` request lists of round *index*."""
        count = self.batch + self.latency
        if self.workload == "assess-uncached":
            # The serial calls get seeds of their own: an in-process call
            # would otherwise fill the compiled policy's memo of resolved
            # findings for the workers=1 batch that follows.
            start = self.seed * _SEED_SPAN + index * count
            requests = [("policy.assess", {"seed": s})
                        for s in range(start, start + count)]
        else:
            rng = random.Random(f"catalog-mixed:{self.seed}:{index}")
            requests = rng.choices(
                self._keys,
                cum_weights=self._cumulative,
                k=count,
            )
        return requests[: self.batch], requests[self.batch :]

    def warm_requests(self) -> list:
        """One request of every kind the workload sends (untimed)."""
        if self.workload == "assess-uncached":
            return [("policy.assess", {"seed": -1})]
        return [*CATALOG_FIXED, ("policy.assess", {"seed": -1}),
                ("policy.assess", {"seed": -1, "pack": "precautionary"})]

    def op_shares(self) -> dict[str, float]:
        """Each op's share of catalog requests, from the Zipf weights."""
        shares: dict[str, float] = {}
        total = self._cumulative[-1]
        previous = 0.0
        for (op, _), cumulative in zip(self._keys, self._cumulative):
            shares[op] = shares.get(op, 0.0) + (cumulative - previous) / total
            previous = cumulative
        return shares


# -- set-up -------------------------------------------------------------


def setup(workload: str, seed: int) -> dict:
    """Imports, context warm-up, policy compile, warm pool start.

    Domain modules are imported (by one untimed request of each kind)
    before the workers=2 pool forks, so its workers inherit them.
    Returns the set-up timings the traced run reports.
    """
    from repro.ops import RunContext, execute, warm_pool

    context = warm_pool(1).context
    started = time.perf_counter()
    context.corpus()
    corpus_done = time.perf_counter()
    context.warm_up()
    warm_done = time.perf_counter()
    scratch = RunContext()
    for op, args in Inputs(workload, seed).warm_requests():
        execute(op, args, context=scratch)
    pool = warm_pool(2)
    pool.context.warm_up()
    pool_started = time.perf_counter()
    pool.start()
    pool_done = time.perf_counter()
    return {
        "corpus_ms": (corpus_done - started) * 1e3,
        "warm_up_ms": (warm_done - started) * 1e3,
        "pool_start_s": pool_done - pool_started,
    }


def teardown() -> None:
    from repro.ops import shutdown_warm_pools

    shutdown_warm_pools()


# -- reference ----------------------------------------------------------


class Reference:
    """Uncached serial ``execute()`` results, computed in this process."""

    def __init__(self, corrupt: bool) -> None:
        from repro.ops import RunContext

        self._context = RunContext(cache=None)
        self._context.warm_up()
        self._responses: dict[str, tuple] = {}
        self._corrupt = corrupt

    def response(self, op: str, args: dict) -> tuple:
        """``(exit_code, text, payload)`` for one request."""
        from repro.ops import execute

        found = self._responses.get(_key(op, args))
        if found is None:
            found = self._store(
                op, args, execute(op, args, context=self._context))
        return found

    def _store(self, op: str, args: dict, response) -> tuple:
        text = response.text
        if self._corrupt:
            # Self-test of the checker: one wrong reference byte.
            text += "\x00"
            self._corrupt = False
        found = (response.exit_code, text, dict(response.payload))
        self._responses[_key(op, args)] = found
        return found

    def forget(self) -> None:
        """Drop memoised responses (seeds never repeat in assess)."""
        self._responses.clear()

    def transcript(self, requests) -> tuple[list[str], int, int]:
        """Expected JSONL lines plus output and payload byte totals."""
        from repro.ops import emit_jsonl

        lines = []
        output_bytes = payload_bytes = 0
        for index, (op, args) in enumerate(requests):
            code, text, payload = self.response(op, args)
            lines.append(emit_jsonl({
                "exit_code": code,
                "index": index,
                "ok": code == 0,
                "op": op,
                "output": text,
                "payload": payload,
            }) + "\n")
            output_bytes += len(text.encode("utf-8"))
            payload_bytes += len(emit_jsonl(payload).encode("utf-8"))
        return lines, output_bytes, payload_bytes


def _mismatches(expected: list[str], actual: str) -> int:
    """Requests whose transcript line differs from the expected one."""
    if "".join(expected) == actual:
        return 0
    got = actual.splitlines(keepends=True)
    bad = abs(len(got) - len(expected))
    return bad + sum(1 for a, b in zip(expected, got) if a != b)


# -- tracing ------------------------------------------------------------


def install_domain_spans(tracer) -> None:
    """Spans around the kernel, cache, spec and domain entry points."""
    import repro.analysis
    import repro.assessment
    import repro.assessment.engine as engine
    import repro.datasets
    import repro.ethics.riskbenefit as riskbenefit
    import repro.ops.batch as batch
    import repro.ops.kernel as kernel
    import repro.policy
    import repro.render
    import repro.reporting
    import repro.tables
    from repro.ops import BatchExecutor, ResultCache, RunContext
    from repro.policy import CompiledPolicy

    tracer.patch(BatchExecutor, "run", "ops.batch.run")
    tracer.patch(batch, "execute", "ops.kernel.execute")
    tracer.patch(batch, "emit_jsonl", "ops.spec.emit_jsonl")
    tracer.patch(kernel, "build_request", "ops.spec.build_request")
    tracer.patch(kernel, "cache_key", "ops.cache.cache_key")
    tracer.patch(RunContext, "cache_digest", "ops.cache.cache_digest")
    tracer.patch(ResultCache, "get", "ops.cache.get")

    put = ResultCache.put

    def counting_put(cache, key, response):
        if (tracer.active and tracer.under("batch")
                and key not in cache and len(cache) >= cache.maxsize):
            tracer.counts["ops.cache.evictions"] += 1
        return put(cache, key, response)

    tracer.patch_with(
        ResultCache, "put", tracer.wrap("ops.cache.put", counting_put)
    )
    tracer.patch(repro.datasets, "synthetic_project",
                 "datasets.synthetic_project")
    tracer.patch(repro.policy, "compiled_policy", "policy.compiled_policy")
    tracer.patch(repro.assessment, "assess_with_policy",
                 "assessment.assess_with_policy")
    tracer.patch(engine.EthicsAssessment, "summary", "assessment.summary")
    tracer.patch_with(
        riskbenefit.RiskBenefitGrid,
        "balance",
        tracer.counting(
            "ethics.riskbenefit.balance", riskbenefit.RiskBenefitGrid.balance
        ),
    )
    tracer.patch(engine, "MenloEvaluation", "ethics.menlo_evaluation")
    tracer.patch(engine, "RiskBenefitGrid", "ethics.riskbenefit_grid")
    tracer.patch(engine, "evaluate_all_justifications",
                 "ethics.justifications")
    tracer.patch(engine, "rights_at_risk", "ethics.rights_at_risk")
    tracer.patch(engine, "assessment_facts", "policy.assessment_facts")
    tracer.patch(CompiledPolicy, "legal_report", "policy.legal_report")
    tracer.patch(CompiledPolicy, "menlo_findings", "policy.menlo_findings")
    tracer.patch(CompiledPolicy, "fold_verdict", "policy.fold_verdict")
    tracer.patch(repro.tables, "render_table1", "tables.render_table1")
    tracer.patch(repro.analysis, "section5_statistics",
                 "analysis.section5_statistics")
    tracer.patch(repro.reporting, "render_report",
                 "reporting.render_report")
    tracer.patch(repro.render, "render_html_report",
                 "render.render_html_report")


class PoolProbe:
    """Coordinator-side pool spans: submission, waiting, result size."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.roundtrips_ns: list[int] = []
        self.result_bytes: list[int] = []
        self._submitted: dict[int, int] = {}

    def install(self) -> None:
        from repro.ops import BatchExecutor, ResultCache, WarmPool

        tracer = self.tracer
        submitted = self._submitted
        submit = tracer.wrap("ops.pool.submit_chunk", WarmPool.submit_chunk)
        wait = tracer.wrap("ops.pool.outcome", WarmPool.outcome)

        def submit_chunk(pool, chunk, telemetry):
            future = submit(pool, chunk, telemetry)
            submitted[id(future)] = time.perf_counter_ns()
            return future

        def outcome(pool, future, chunk):
            result = wait(pool, future, chunk)
            sent = submitted.pop(id(future), None)
            if sent is not None:
                self.roundtrips_ns.append(time.perf_counter_ns() - sent)
            self.result_bytes.append(len(pickle.dumps(result)))
            return result

        tracer.patch(BatchExecutor, "run", "ops.batch.run")
        tracer.patch(BatchExecutor, "_plan", "ops.batch.plan")
        tracer.patch(ResultCache, "merge", "ops.cache.merge")
        tracer.patch_with(WarmPool, "submit_chunk", submit_chunk)
        tracer.patch_with(WarmPool, "outcome", outcome)


# -- the measurement ----------------------------------------------------


class Measurement:
    """Rounds of serial latency, w1 batch and w2 batch, all checked.

    The serial ``execute()`` calls run in a context of their own,
    with a cache the size of the warm coordinator's, so the workers=1
    and workers=2 pools start every round from the same cache state.
    On ``assess-uncached`` they get seeds of their own, and each call
    must miss (asserted). The reference is computed once per distinct
    request in a context without a cache; on ``assess-uncached`` only
    after the batches, so that it warms nothing they use.
    """

    def __init__(self, workload: str, seed: int, corrupt: bool,
                 pair: PairCalibration) -> None:
        from repro.ops import ResultCache, RunContext, WarmPool

        self.pair = pair
        self.uncached = workload == "assess-uncached"
        self.inputs = Inputs(workload, seed)
        self.reference = Reference(corrupt)
        self.context = RunContext(
            cache=ResultCache(maxsize=WarmPool.COORDINATOR_CACHE_SIZE))
        self.context.warm_up()
        self.next_round = 0
        self.attempted = 0
        self.failed = 0
        #: The active span recorder, paused while the benchmark checks.
        self.tracer = None
        #: Whether the serial calls are traced too, as ``serial.execute``.
        self.trace_serial = False

    def _batch(self, workers: int, requests) -> tuple[float, str, dict]:
        from repro.ops import BatchExecutor, BatchRequest

        batch = [
            BatchRequest(index=i, op=op, args=dict(args))
            for i, (op, args) in enumerate(requests)
        ]
        executor = BatchExecutor(workers=workers, warm=True)

        def call():
            result = executor.run(batch)
            return result.text(), result.summary["cache"]

        if self.tracer is not None:
            # One root span per batch, transcript shaping included.
            call = self.tracer.wrap("batch", call)
        started = time.perf_counter()
        text, cache = call()
        elapsed = time.perf_counter() - started
        return elapsed, text, cache

    def _latency(self, requests) -> tuple[list[float], list]:
        from repro.ops import execute

        if self.trace_serial:
            execute = self.tracer.wrap("serial.execute", execute)
        context = self.context
        samples = []
        responses = []
        clock = time.perf_counter_ns
        for op, args in requests:
            started = clock()
            response = execute(op, args, context=context)
            samples.append((clock() - started) / 1e3)
            responses.append(response)
        return samples, responses

    def _pause(self, paused: bool) -> None:
        if self.tracer is not None:
            self.tracer.active = not paused

    def round(self, phases: tuple[str, ...]) -> dict:
        """One round: serial latency, then the named batch phases."""
        batch, latency = self.inputs.round(self.next_round)
        self.next_round += 1
        out: dict = {"requests": len(batch)}
        self._pause(True)
        if not self.uncached:
            lat_expected = [
                self.reference.response(op, args) for op, args in latency
            ]
        settle()
        before = calibration_rate()
        hits_before = self.context.cache.hits
        self._pause(False)
        samples, responses = self._latency(latency)
        self._pause(True)
        self.attempted += len(latency)
        if self.uncached:
            self._hits(self.context.cache.hits - hits_before)
        else:
            for response, reference in zip(responses, lat_expected):
                if (response.exit_code, response.text,
                        dict(response.payload)) != reference:
                    self.failed += 1
        self._pause(False)
        transcripts = []
        for phase in phases:
            workers = 1 if phase == "w1" else 2
            if workers == 2:
                pair_before = self.pair.rate()
            elapsed, text, cache = self._batch(workers, batch)
            if workers == 2:
                out["cal2"] = (pair_before + self.pair.rate()) / 2
            out[phase] = elapsed
            out[phase + "_cache"] = cache
            transcripts.append(text)
            if self.uncached:
                self._hits(cache["hits"])
        out["cal"] = (before + calibration_rate()) / 2
        self._pause(True)
        expected, out["output_bytes"], out["payload_bytes"] = (
            self.reference.transcript(batch)
        )
        out["bytes"] = len("".join(expected).encode("utf-8"))
        for text in transcripts:
            self.attempted += len(batch)
            self.failed += _mismatches(expected, text)
        self._pause(False)
        out["lat"] = [on_reference_host(x, out["cal"]) for x in samples]
        out["lat_raw_s"] = sum(samples) / 1e6
        if self.uncached:
            self.reference.forget()
        return out

    def _hits(self, hits: int) -> None:
        """A cache hit on assess-uncached means a seed repeated: a failure."""
        self.failed += hits


def _rate(rounds, phase) -> float:
    """Median requests/s over rounds, on the reference host.

    workers=1 rounds are rescaled by the single-thread calibration,
    workers=2 rounds by the two-core one.
    """
    speed = "cal" if phase == "w1" else "cal2"
    return median(
        r["requests"] / on_reference_host(r[phase], r[speed]) for r in rounds)


def _raw_rate(rounds, phase) -> float:
    return median(r["requests"] / r[phase] for r in rounds)


def _hit_ratio(rounds, phase) -> float:
    hits = sum(r[phase + "_cache"]["hits"] for r in rounds)
    misses = sum(r[phase + "_cache"]["misses"] for r in rounds)
    return hits / (hits + misses) if hits + misses else 0.0


def _until(measure: Measurement, phases, seconds: float) -> list[dict]:
    rounds = []
    spent = 0.0
    while spent < seconds or not rounds:
        result = measure.round(phases)
        rounds.append(result)
        spent += sum(result[p] for p in phases)
        spent += result["lat_raw_s"]
    return rounds


def run(workload: str, seed: int, seconds: float, trace: bool,
        corrupt: bool) -> dict:
    timings = setup(workload, seed)
    pair = PairCalibration()
    try:
        return _measure(workload, seed, seconds, trace, corrupt, timings,
                        pair)
    finally:
        pair.close()
        teardown()


def _measure(workload, seed, seconds, trace, corrupt, timings, pair):
    from spans import Tracer

    measure = Measurement(workload, seed, corrupt, pair)
    measure.round(("w1", "w2"))  # warm-up round: checked, not timed
    report: list[str] = []
    per_layer: dict = {}
    tracers = ()
    if not trace:
        rounds = _until(measure, ("w1", "w2"), seconds)
    else:
        rounds = _until(measure, ("w1", "w2"), 0.4 * seconds)
        tracer = Tracer(
            request_roots=("ops.kernel.execute", "serial.execute"))
        install_domain_spans(tracer)
        measure.tracer = tracer
        measure.trace_serial = True
        try:
            traced = _until(measure, ("w1",), 0.3 * seconds)
        finally:
            tracer.restore()
            measure.trace_serial = False
        pool_tracer = Tracer()
        probe = PoolProbe(pool_tracer)
        probe.install()
        measure.tracer = pool_tracer
        try:
            traced_w2 = _until(measure, ("w2",), 0.3 * seconds)
        finally:
            pool_tracer.restore()
            measure.tracer = None
        per_layer = _per_layer(
            rounds, traced, traced_w2, tracer, probe, timings)
        requests = sum(r["requests"] for r in traced)
        serial_requests = sum(len(r["lat"]) for r in traced)
        report += tracer.render_tree(
            requests, "request, workers=1 batch", root="batch")
        report += tracer.render_tree(
            serial_requests, "request, serial execute()",
            root="serial.execute")
        report += pool_tracer.render_tree(
            sum(r["requests"] for r in traced_w2),
            "request, workers=2 coordinator",
        )
        for root, per in (("batch", requests),
                          ("serial.execute", serial_requests)):
            total, domain = _split(tracer, root)
            report.append(
                f"{root}: {total / per / 1e3:.1f} us/request, of which "
                f"{domain / per / 1e3:.1f} us ({domain / total:.1%}) is "
                f"self time of domain spans and the rest is repro.ops")
        total, domain = _split(tracer, "serial.execute")
        per_layer["trace.accounted_latency_ratio"] = (domain / total, "ratio")
        if workload == "catalog-mixed":
            # The cold CLI path of the same catalog ops (cli-cold is
            # not in BENCHMARK.json; see NOTES.md).
            import cli_workload

            cold, attempted, failed = cli_workload.cold_layers(seed, report)
            for name, value in cold.items():
                per_layer.setdefault(name, value)
            measure.attempted += attempted
            measure.failed += failed
        tracers = (tracer, pool_tracer)
    teardown()  # reaps the pool workers, so peak_rss_mb can count them
    latencies = [x for r in rounds for x in r["lat"]]
    pct, tail, count = tail_percentile(latencies)
    requests = sum(r["requests"] for r in rounds)
    e2e = {
        "ops_per_s.w1": (_rate(rounds, "w1"), "op/s"),
        "ops_per_s.w2": (_rate(rounds, "w2"), "op/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "out_bytes_per_op": (
            sum(r["bytes"] for r in rounds) / requests, "B"),
        "latency_p50_us": (median(latencies), "us"),
        f"latency_p{pct:g}_us": (tail, "us"),
        "latency_samples": (count, "count"),
        "ops_per_s.w1.raw": (_raw_rate(rounds, "w1"), "op/s"),
        "ops_per_s.w2.raw": (_raw_rate(rounds, "w2"), "op/s"),
    }
    if workload == "catalog-mixed":
        e2e["cache_hit_ratio.w1"] = (_hit_ratio(rounds, "w1"), "ratio")
        e2e["cache_hit_ratio.w2"] = (_hit_ratio(rounds, "w2"), "ratio")
        shares = sorted(measure.inputs.op_shares().items(),
                        key=lambda item: -item[1])
        report.append("op shares of requests: " + ", ".join(
            f"{op} {share:.1%}" for op, share in shares))
    report.append(
        f"rounds: {len(rounds)} x {BATCH[workload]} batch requests "
        f"(+{LATENCY[workload]} serial latency requests)"
    )
    return {
        "attempted": measure.attempted,
        "failed": measure.failed,
        "e2e": e2e,
        "per_layer": per_layer,
        "report": report,
        "tracers": tracers,
    }


def _split(tracer, root: str) -> tuple[int, int]:
    """``(total, domain)`` raw nanoseconds of the *root* spans.

    ``total`` is their summed duration. ``domain`` is the self time of
    the spans beneath them outside ``repro.ops``: datasets, ethics,
    policy, assessment, tables and the other domain layers. The rest
    is spent in ``repro.ops`` (or in the root itself, which on the
    serial calls is the kernel's ``execute``).
    """
    times = tracer.self_times(root)
    total = times.get(root, (0, 0, 0))[1]
    domain = sum(own for name, (_, _, own) in times.items()
                 if name != root and not name.startswith("ops."))
    return total, domain


def _per_layer(untraced, traced, traced_w2, tracer, probe, timings) -> dict:
    requests = sum(r["requests"] for r in traced)
    times = tracer.self_times("batch")

    def per_op_us(*names) -> float:
        return sum(times.get(n, (0, 0, 0))[2] for n in names) / requests / 1e3

    w2_requests = sum(r["requests"] for r in traced_w2)
    pool_times = probe.tracer.self_times()
    wait_ns = pool_times.get("ops.pool.outcome", (0, 0, 0))[1]
    run_ns = pool_times.get("ops.batch.run", (0, 0, 0))[1]
    rate_w1 = _rate(untraced, "w1")
    return {
        "ops.spec.build_request_us": (per_op_us("ops.spec.build_request"), "us"),
        "ops.spec.emit_jsonl_us": (per_op_us("ops.spec.emit_jsonl"), "us"),
        "ops.spec.line_bytes.output": (
            sum(r["output_bytes"] for r in traced) / requests, "B"),
        "ops.spec.line_bytes.payload": (
            sum(r["payload_bytes"] for r in traced) / requests, "B"),
        "ops.cache.key_us": (
            per_op_us("ops.cache.cache_key", "ops.cache.cache_digest"), "us"),
        "ops.cache.lookup_us": (
            per_op_us("ops.cache.get", "ops.cache.put"), "us"),
        "ops.cache.hit_ratio": (_hit_ratio(traced, "w1"), "ratio"),
        "ops.cache.evictions": (
            tracer.counts["ops.cache.evictions"] * 1000 / requests, "1/kop"),
        "ops.kernel.self_us": (per_op_us("ops.kernel.execute"), "us"),
        "ops.batch.self_us": (per_op_us("ops.batch.run"), "us"),
        "ops.pool.start_s": (timings["pool_start_s"], "s"),
        "ops.pool.chunk_roundtrip_ms": (
            median(probe.roundtrips_ns) / 1e6 if probe.roundtrips_ns
            else 0.0, "ms"),
        "ops.pool.chunk_result_bytes": (
            median(probe.result_bytes) if probe.result_bytes else 0.0, "B"),
        "ops.batch.coordinator_wait_s": (
            wait_ns / 1e9 * 1000 / w2_requests, "s/kop"),
        "ops.batch.coordinator_busy_s": (
            (run_ns - wait_ns) / 1e9 * 1000 / w2_requests, "s/kop"),
        "ops.pool.parallel_efficiency": (
            _rate(untraced, "w2") / (2 * rate_w1), "ratio"),
        "ops.context.warm_up_ms": (timings["warm_up_ms"], "ms"),
        "ops.context.corpus_ms": (timings["corpus_ms"], "ms"),
        "datasets.synthetic_project_us": (
            per_op_us("datasets.synthetic_project"), "us"),
        "ethics.menlo_evaluation_us": (
            per_op_us("ethics.menlo_evaluation"), "us"),
        "ethics.riskbenefit_grid_us": (
            per_op_us("ethics.riskbenefit_grid"), "us"),
        "ethics.justifications_us": (per_op_us("ethics.justifications"), "us"),
        "ethics.rights_at_risk_us": (per_op_us("ethics.rights_at_risk"), "us"),
        "ethics.riskbenefit.balance_calls_per_op": (
            tracer.counts["ethics.riskbenefit.balance"] / requests, "count"),
        "policy.assessment_facts_us": (
            per_op_us("policy.assessment_facts"), "us"),
        "policy.legal_report_us": (per_op_us("policy.legal_report"), "us"),
        "policy.menlo_findings_us": (per_op_us("policy.menlo_findings"), "us"),
        "policy.fold_verdict_us": (per_op_us("policy.fold_verdict"), "us"),
        "assessment.assess_with_policy_self_us": (
            per_op_us("assessment.assess_with_policy"), "us"),
        "assessment.summary_us": (per_op_us("assessment.summary"), "us"),
        "trace.overhead_ratio": (rate_w1 / _rate(traced, "w1"), "ratio"),
    }
