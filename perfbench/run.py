"""The benchmark: one seeded workload, its metrics, and a correctness verdict.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/NOTES.md`` for why each exists):
``assess-uncached``, ``catalog-mixed``, ``pipeline-booter``,
``cli-cold``. Run from the root of a checkout; the program is imported
from the checkout's ``src`` directory.

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing installed. With ``--trace 1`` it measures untraced, then again
with spans around the calls into each layer, and reports the
per-layer metrics, the span tree and the tracing overhead.

Human-readable lines come first. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``). Every
run also appends a full record, host fingerprint included, to
``.perfbench-out/runs.jsonl``; ``perfbench/compare.py`` reads two such
files. The exit status is 1 when any output differs from its
reference, 2 when the checkout holds no program.

``--corrupt-reference`` alters one reference response, to show that
the checker fails the run.
"""

from __future__ import annotations

import argparse
import functools
import json
import subprocess
import sys
import time
import traceback
from statistics import median

from common import (
    OUT,
    ROOT,
    become_subreaper,
    child_env,
    host_fingerprint,
    program_present,
    reap_children,
    use_checkout_sources,
    write_record,
)

import cli_workload
import ops_workloads
import pipeline_workload

#: Each workload's measurement: ``(seed, seconds, trace, corrupt)``.
WORKLOADS = {
    "assess-uncached": functools.partial(
        ops_workloads.run, "assess-uncached"),
    "catalog-mixed": functools.partial(ops_workloads.run, "catalog-mixed"),
    "pipeline-booter": pipeline_workload.run,
    "cli-cold": cli_workload.run,
}

#: Fresh-process set-ups per burst: at least this many, and more until
#: this much time is spent. One burst runs before the workload and one
#: after it, because the host's speed holds for several seconds at a
#: time (see NOTES.md). ``setup_s`` is the median of both bursts.
SETUP_REPEATS = 4
SETUP_SECONDS = 3.0

#: No single child may outlive this (seconds).
CHILD_TIMEOUT = 120


def measure_setup(workload: str) -> float:
    """Wall time from spawning a fresh process to its first timed op."""
    here = ROOT / "perfbench"
    if workload == "cli-cold":
        command = [sys.executable, "-m", "repro", "--help"]
    else:
        command = [sys.executable, str(here / "setup_probe.py"), workload]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        if workload == "cli-cold":
            process.communicate(timeout=CHILD_TIMEOUT)
            elapsed = time.perf_counter() - started
        else:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - started
            process.communicate(timeout=CHILD_TIMEOUT)
            if line.strip() != "ready":
                raise RuntimeError(f"set-up probe said {line!r}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"set-up probe exited {process.returncode}")
    return elapsed


def setup_burst(workload: str) -> list[float]:
    """Fresh-process set-ups, one after another (see SETUP_REPEATS)."""
    setups: list[float] = []
    started = time.perf_counter()
    while (len(setups) < SETUP_REPEATS
           or time.perf_counter() - started < SETUP_SECONDS):
        setups.append(measure_setup(workload))
    return setups


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    """Run one workload; on every way out, stop what it started.

    Warm pools are shut down and every child process, orphaned
    descendants included, is waited for before the process exits.
    """
    become_subreaper()
    try:
        return _run(argv)
    finally:
        if "repro.ops" in sys.modules:
            sys.modules["repro.ops"].shutdown_warm_pools()
        left = reap_children()
        if left:
            print(f"note: reaped {left} leftover child process(es)",
                  file=sys.stderr)


def _run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args(argv)

    if not program_present():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    use_checkout_sources()
    host = host_fingerprint()
    setups: list[float] = []
    try:
        if not args.trace:
            setups += setup_burst(args.workload)
        result = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), args.corrupt_reference)
        if not args.trace:
            setups += setup_burst(args.workload)
    except Exception:
        traceback.print_exc()
        print("error: the run raised; no result", file=sys.stderr)
        return 1
    e2e = {}
    if setups:
        e2e["setup_s"] = (median(setups), "s")
    e2e.update(result["e2e"])
    attempted, failed = result["attempted"], result["failed"]
    e2e["error_rate"] = (failed / attempted, "ratio")
    correct = failed == 0

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    if setups:
        print("setup samples (s): "
              + ", ".join(f"{s:.4f}" for s in setups))
    for line in result["report"]:
        print(line)
    print("end-to-end metrics:")
    for name, (value, unit) in e2e.items():
        print(f"  {name} = {_format(value)} {unit}")
    per_layer = {}
    if args.trace:
        measured = result["per_layer"]
        print("per-layer metrics (0 = layer not exercised here):")
        for entry in spec["per_layer"]:
            value, unit = measured.get(entry["name"], (0.0, entry["unit"]))
            if unit != entry["unit"]:
                raise RuntimeError(f"unit mismatch for {entry['name']}")
            per_layer[entry["name"]] = (value, unit)
            print(f"  {entry['name']} = {_format(value)} {unit}")
        OUT.mkdir(exist_ok=True)
        for index, tracer in enumerate(result.get("tracers", ())):
            path = OUT / f"spans-{args.workload}-{args.seed}-{index}.json.gz"
            tracer.dump(path, {"workload": args.workload, "seed": args.seed})
            print(f"spans written to {path.relative_to(ROOT)}")
    print(f"attempted {attempted} failed {failed} "
          f"error_rate {failed / attempted:.6g} correct {correct}")

    write_record({
        "attempted": attempted,
        "correct": correct,
        "e2e": {k: v[0] for k, v in e2e.items()},
        "failed": failed,
        "host": host,
        "per_layer": {k: v[0] for k, v in per_layer.items()},
        "seconds": args.seconds,
        "seed": args.seed,
        "setup_samples": setups,
        "trace": args.trace,
        "workload": args.workload,
    })
    source = per_layer if args.trace else e2e
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in section:
        value, unit = source[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
