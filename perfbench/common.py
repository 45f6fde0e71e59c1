"""Shared plumbing: paths, host fingerprint, statistics, result records.

Everything here is standard library only, so the benchmark can report
a clean failure in a checkout that lacks the program.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources, imported from the checkout, never installed.
SRC = ROOT / "src"
#: Run records, span dumps and scratch inputs (ignored by git).
OUT = ROOT / ".perfbench-out"


def program_present() -> bool:
    """Whether the checkout holds the program's package sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_checkout_sources() -> None:
    """Import ``repro`` from the checkout's ``src`` directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for subprocesses: the checkout's sources first.

    ``PYTHONHASHSEED`` is deliberately left as inherited: the
    benchmark must see hash-seed-dependent output if the program
    produces any. Bytecode writing is switched back on, so fresh
    processes start as an installed program does, from cached
    bytecode, whatever the caller's environment says. The first
    fresh process in a new checkout writes the cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# -- host fingerprint and host-speed normalisation ----------------------

#: Calibration speed, in loop iterations per second, of the reference
#: host: the 2-core machine this benchmark was sized on, in its faster
#: state. Times are reported as they would read on that host.
REFERENCE_CALIBRATION = 8.0e6


def _calibration_loop(iterations: int) -> int:
    """A fixed pure-Python workload: integer arithmetic and a dict."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc + len(table)


def calibration_rate(iterations: int = 100_000) -> float:
    """How fast this host runs the calibration loop right now (it/s)."""
    started = time.perf_counter()
    _calibration_loop(iterations)
    return iterations / (time.perf_counter() - started)


def on_reference_host(seconds: float, calibration: float) -> float:
    """*seconds* measured at *calibration* speed, rescaled to the reference host.

    Shared hosts switch between a fast and a slow state every one to
    four seconds (see NOTES.md). A measured interval is multiplied by
    the calibration speed seen around it over the reference speed, so
    that most of the host's state cancels out (NOTES.md shows how
    much).
    """
    return seconds * calibration / REFERENCE_CALIBRATION


class PairCalibration:
    """The calibration loop on both cores at once, for workers=2 phases.

    A workers=2 phase needs two cores. For minutes at a time the host
    can leave it about one, and then workers=2 runs slower than
    workers=1. A single-thread calibration does not see that. Two
    processes calibrating together do: each one slows down when they
    share a core. :meth:`rate` is their mean speed.

    The two processes are plain subprocesses driven over pipes, not a
    ``multiprocessing`` pool: a spawn-context pool starts a resource
    tracker process that outlives the benchmark by a moment.
    """

    _CHILD = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from common import calibration_rate\n"
        "for _ in sys.stdin:\n"
        "    print(repr(calibration_rate()), flush=True)\n"
    )

    def __init__(self) -> None:
        here = str(Path(__file__).resolve().parent)
        self._children: list[subprocess.Popen] = []
        try:
            for _ in range(2):
                self._children.append(subprocess.Popen(
                    [sys.executable, "-c", self._CHILD, here],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True,
                ))
            self.rate()  # both processes up before the first measurement
        except BaseException:
            self.close()
            raise

    def rate(self) -> float:
        """Mean calibration speed of two simultaneous loops (it/s)."""
        for child in self._children:
            child.stdin.write("go\n")
            child.stdin.flush()
        rates = []
        for child in self._children:
            line = child.stdout.readline()
            if not line:
                raise RuntimeError("a calibration process ended early")
            rates.append(float(line))
        return sum(rates) / len(rates)

    def close(self) -> None:
        """End both processes and wait for them."""
        for child in self._children:
            try:
                child.stdin.close()
            except OSError:
                pass
        for child in self._children:
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            child.stdout.close()
        self._children = []


def host_fingerprint() -> dict:
    """Interpreter, platform, CPU count and a calibration score.

    The score is the median of five calibration rates. Two result sets
    whose scores differ by more than a metric's bound were taken on
    hosts too different to compare, whatever the metric says.
    """
    rates = [calibration_rate(300_000) for _ in range(5)]
    return {
        "calibration_ops_per_s": round(statistics.median(rates), 1),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


# -- statistics ---------------------------------------------------------


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values) -> tuple[float, float, int]:
    """The highest of p99.9/p99/p95/p90/p50 with ≥10 samples beyond it.

    Returns ``(percentile, value, sample_count)``.
    """
    ordered = sorted(values)
    count = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            index = min(count - 1, int(pct / 100.0 * count))
            return pct, ordered[index], count
    return 50.0, ordered[count // 2], count


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB.

    ``ru_maxrss`` is in KiB on Linux; children count only once they
    have been waited for, so callers shut pools down first.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def settle() -> None:
    """Collect garbage before a timed phase so no phase pays for another."""
    gc.collect()


# -- process hygiene ----------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`reap_children` waits for them.

    A process that a child starts and leaves behind (a pool worker of a
    set-up probe, say) is re-parented to this process instead of to
    init. Linux only; elsewhere only direct children are reaped.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _child_pids() -> list[int]:
    """Process ids whose parent is this process (from ``/proc``)."""
    me = str(os.getpid())
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            found.append(int(entry))
    return found


def reap_children(grace: float = 10.0) -> int:
    """Wait until no child process is left; returns how many were reaped.

    Children still running after *grace* seconds are killed, then
    waited for. Callers shut their pools down first, so normally
    nothing is left to reap.
    """
    reaped = 0
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid:
            reaped += 1
        elif time.monotonic() < deadline:
            time.sleep(0.01)
        else:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + grace


# -- result records -----------------------------------------------------


def write_record(record: dict) -> None:
    """Append one run record to ``.perfbench-out/runs.jsonl``."""
    OUT.mkdir(exist_ok=True)
    with (OUT / "runs.jsonl").open("a", encoding="utf-8") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")
