"""``cli-cold``: fresh ``python -m repro`` processes, one command at a time.

Every user invocation pays for the import path, the corpus build and,
for ``lint``, the cold parse of the package; no in-process workload
sees these costs. One caller runs the cycle ``stats``,
``table1 --format csv``, ``policy assess --seed S`` and
``lint --no-cache``, waiting for each process before starting the
next; a second phase runs the same cycle from two callers at once.

Throughput is the cycle rate at each command's median wall time, so
one slow sample cannot move it. Every command's stdout and exit
status must equal the in-process ``execute()`` of the same request.
"""

from __future__ import annotations

import compileall
import json
import re
import subprocess
import sys
import threading
import time
from statistics import median

from common import (
    OUT,
    ROOT,
    SRC,
    calibration_rate,
    child_env,
    on_reference_host,
    peak_rss_mb,
)

CHILD_TIMEOUT = 120

#: The cycle; ``{seed}`` is replaced per sample.
COMMANDS = (
    ("stats",),
    ("table1", "--format", "csv"),
    ("policy", "assess", "--seed", "{seed}"),
    ("lint", "--no-cache"),
)
NAMES = ("stats", "table1", "assess", "lint")

#: Top-level packages whose cumulative import time is reported.
IMPORTS = {
    "import.repro_ops_ms": "repro.ops",
    "import.scipy_ms": "scipy",
    "import.numpy_ms": "numpy",
    "import.networkx_ms": "networkx",
}


class Reference:
    """In-process ``execute()`` of each command: stdout and exit code."""

    def __init__(self, corrupt: bool) -> None:
        from repro.ops import ResultCache, RunContext, execute

        self._execute = execute
        self._context = RunContext
        self._cache = ResultCache
        self._known: dict[tuple, tuple[int, str]] = {}
        self._corrupt = corrupt

    def expected(self, argv: tuple) -> tuple[int, str]:
        found = self._known.get(argv)
        if found is None:
            if argv[0] == "policy":
                op, values = "policy.assess", {"seed": int(argv[3])}
            elif argv[0] == "table1":
                op, values = "table1", {"format": argv[2]}
            elif argv[0] == "lint":
                op, values = "lint", {"no_cache": True}
            else:
                op, values = argv[0], {}
            context = self._context(cache=self._cache())
            response = self._execute(op, values, context=context)
            text = response.text
            if self._corrupt:
                text += "\x00"  # self-test of the checker
                self._corrupt = False
            found = (response.exit_code, text)
            self._known[argv] = found
        return found


class Cycle:
    """Runs cold commands and checks each against the reference."""

    def __init__(self, seed: int, reference: Reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self._next_seed = seed * 1_000_000
        self.calibrations: list[float] = []
        self._lock = threading.Lock()

    def argv(self, position: int) -> tuple:
        with self._lock:
            self._next_seed += 1
            seed = self._next_seed
        return tuple(
            part.format(seed=seed) for part in COMMANDS[position])

    def run(self, argv: tuple, prefix=()) -> tuple[float, str, str]:
        """Run one cold command; returns (wall seconds, stdout, stderr).

        The calibration speed is sampled before and after, into
        :attr:`calibrations`.
        """
        command = [sys.executable, *prefix, *argv]
        before = calibration_rate()
        started = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        elapsed = time.perf_counter() - started
        after = calibration_rate()
        code, text = self.reference.expected(argv)
        with self._lock:
            self.calibrations += (before, after)
            self.attempted += 1
            if done.returncode != code or done.stdout != text:
                self.failed += 1
        return elapsed, done.stdout, done.stderr

    def callers(self, count: int, budget: float) -> dict:
        """*count* closed-loop callers cycling until *budget* seconds.

        Returns per-command samples: name -> [:meth:`run` results].
        """
        samples = {name: [] for name in NAMES}
        deadline = time.perf_counter() + budget

        def caller(offset: int) -> None:
            position = offset
            while True:
                argv = self.argv(position)
                name = NAMES[position]
                outcome = self.run(argv, ("-m", "repro"))
                with self._lock:
                    samples[name].append(outcome)
                position = (position + 1) % len(COMMANDS)
                if position == offset and time.perf_counter() >= deadline:
                    return

        if count == 1:
            caller(0)
            return samples
        threads = [
            threading.Thread(target=caller, args=(offset,))
            for offset in range(0, len(COMMANDS), len(COMMANDS) // count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples


def _medians(cycle: Cycle, samples: dict, first: int) -> dict:
    """Median seconds per command, rescaled to the reference host.

    A cold process's time does not follow a calibration sample taken
    next to it, but over minutes both follow the host's state (see
    NOTES.md). The rescaling therefore uses the median calibration of
    the whole phase, from sample *first* on.
    """
    calibration = median(cycle.calibrations[first:])
    return {
        name: on_reference_host(median(s[0] for s in samples[name]),
                                calibration)
        for name in NAMES
    }


def _phase(cycle: Cycle, callers: int, budget: float) -> tuple:
    """One phase's raw samples and rescaled per-command medians."""
    first = len(cycle.calibrations)
    samples = cycle.callers(callers, budget)
    return samples, _medians(cycle, samples, first)


def _cycle_rate(callers: int, times: dict) -> float:
    """Commands per second of *callers* each cycling at these times."""
    return callers * len(times) / sum(times.values())


def import_times(stderr: str) -> dict:
    """Cumulative ms per reported package from ``-X importtime`` output.

    An entry counts when it is the package or one of its submodules
    and no enclosing entry belongs to the same package.
    """
    entries = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if match:
            depth = len(match.group(2)) // 2
            entries.append((depth, match.group(3), int(match.group(1))))
    totals = dict.fromkeys(IMPORTS, 0.0)
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        for metric, package in IMPORTS.items():
            inside = name == package or name.startswith(package + ".")
            nested = any(
                a == package or a.startswith(package + ".")
                for a in ancestors)
            if inside and not nested:
                totals[metric] += cumulative / 1e3
        ancestors.append(name)
    return totals


def run(seed: int, seconds: float, trace: bool, corrupt: bool) -> dict:
    compileall.compile_dir(str(SRC), quiet=1)  # users run from bytecode
    reference = Reference(corrupt)
    cycle = Cycle(seed, reference)
    for position in range(len(COMMANDS)):  # in-process references first
        reference.expected(cycle.argv(position))
    report: list[str] = []
    per_layer: dict = {}
    w1_budget = (0.4 if trace else 0.55) * seconds
    w1_samples, w1 = _phase(cycle, 1, w1_budget)
    if trace:
        per_layer, traced = _traced(cycle, seed, 0.6 * seconds, report)
        overhead = sum(traced.values()) / sum(w1.values())
        per_layer["trace.overhead_ratio"] = (overhead, "ratio")
        w2 = None
    else:
        w2 = _phase(cycle, 2, 0.45 * seconds)[1]
    outputs = [
        median(len(sample[1].encode("utf-8")) for sample in w1_samples[name])
        for name in NAMES
    ]
    e2e = {"ops_per_s.w1": (_cycle_rate(1, w1), "op/s")}
    if w2 is not None:
        e2e["ops_per_s.w2"] = (_cycle_rate(2, w2), "op/s")
    e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")
    e2e["out_bytes_per_op"] = (sum(outputs) / len(outputs), "B")
    for name in NAMES:
        e2e[f"cold_{name}_ms"] = (w1[name] * 1e3, "ms")
        e2e[f"cold_{name}_ms.raw"] = (
            median(sample[0] for sample in w1_samples[name]) * 1e3, "ms")
    if w2 is not None:
        for name in NAMES:
            e2e[f"cold_{name}_ms.w2"] = (w2[name] * 1e3, "ms")
    return {
        "attempted": cycle.attempted,
        "failed": cycle.failed,
        "e2e": e2e,
        "per_layer": per_layer,
        "report": report,
    }


def cold_layers(seed: int, report: list) -> tuple[dict, int, int]:
    """One traced cycle of the cold commands, for another workload's run.

    Returns the cold-path per-layer metrics and the commands attempted
    and failed (each checked against its in-process reference).
    """
    compileall.compile_dir(str(SRC), quiet=1)
    cycle = Cycle(seed, Reference(corrupt=False))
    per_layer, _ = _traced(cycle, seed, 0.0, report)
    return per_layer, cycle.attempted, cycle.failed


def _traced(cycle: Cycle, seed: int, budget: float, report) -> tuple:
    """Cold commands under ``-X importtime`` and under span wrappers."""
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"cold-spans-{seed}.json"
    tracer_script = str(ROOT / "perfbench" / "cold_trace.py")
    imports = []
    recorded: dict[str, list] = {name: [] for name in NAMES}

    samples = {name: [] for name in NAMES}
    deadline = time.perf_counter() + budget
    first = len(cycle.calibrations)
    position = 0
    while True:
        argv = cycle.argv(position)
        name = NAMES[position]
        stderr = cycle.run(argv, ("-X", "importtime", "-m", "repro"))[2]
        imports.append(import_times(stderr))
        samples[name].append(cycle.run(argv, (tracer_script, str(spans_path))))
        recorded[name].append(json.loads(spans_path.read_text("utf-8")))
        position = (position + 1) % len(COMMANDS)
        if position == 0 and time.perf_counter() >= deadline:
            break
    spans_path.unlink()

    from spans import Tracer

    def span_ms(span_name: str) -> float:
        values = []
        for runs in recorded.values():
            for run_spans in runs:
                total = sum(s[5] - s[4] for s in run_spans if s[3] == span_name)
                if any(s[3] == span_name for s in run_spans):
                    values.append(total / 1e6)
        return median(values) if values else 0.0

    per_layer = {
        metric: (sum(i[metric] for i in imports) / len(imports), "ms")
        for metric in IMPORTS
    }
    per_layer.update({
        "ops.context.warm_up_ms": (span_ms("ops.context.warm_up"), "ms"),
        "ops.context.corpus_ms": (span_ms("ops.context.corpus"), "ms"),
        "corpus.table1_corpus_ms": (span_ms("corpus.table1_corpus"), "ms"),
        "analysis.section5_statistics_ms": (
            span_ms("analysis.section5_statistics"), "ms"),
        "tables.render_ms": (span_ms("tables.render_table1"), "ms"),
        "staticcheck.lint_package_ms": (
            span_ms("staticcheck.lint_package"), "ms"),
        "staticcheck.lint_source_ms": (
            span_ms("staticcheck.lint_source"), "ms"),
    })
    for name in NAMES:
        tracer = Tracer()
        for run_spans in recorded[name]:
            offset = len(tracer.spans)
            for span in run_spans:
                parent = span[1] + offset if span[1] is not None else None
                tracer.spans.append(
                    [span[0] + offset, parent, *span[2:]])
        report += tracer.render_tree(len(recorded[name]), f"cold {name}")
    report.append(
        "import path (ms per cold command, mean over the cycle): "
        + ", ".join(f"{k}={v[0]:.1f}" for k, v in per_layer.items()
                    if k.startswith("import.")))
    return per_layer, _medians(cycle, samples, first)
