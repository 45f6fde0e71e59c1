"""Compare two result sets: ``compare.py PARENT.jsonl CHANGE.jsonl``.

Each file holds run records as ``perfbench/run.py`` appends them to
``.perfbench-out/runs.jsonl`` (copy it aside after measuring each
commit). Only untraced runs count. For every workload and every
end-to-end metric of ``BENCHMARK.json`` the comparison prints each
side's median and quartiles and one verdict:

* ``improved`` — the change wins at least nine tenths of the pairs
  (runs with the same seed; ties count for neither) and the medians
  differ by more than the parent's own quartile spread;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — either side's quartile spread is wider than the
  bound and not every change run beats every parent run, or, for a
  time or a rate, the two sets were taken on hosts whose calibration
  scores differ by more than the bound. Byte counts and RSS do not
  depend on host speed and never get this verdict;
* ``unchanged`` — otherwise.

Metrics the runs print beyond ``BENCHMARK.json`` (latency, cold
command times, hit ratios, error rate) are listed with their medians
and no verdict. The exit status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median

from common import ROOT, quartiles

#: Units of the metrics that follow host speed.
TIMED_UNITS = {"s", "op/s"}


def load(path: str) -> dict[str, list[dict]]:
    """Untraced run records by workload."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text("utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                runs[record["workload"]].append(record)
    return runs


def _better(entry: dict, change: float, parent: float) -> bool:
    if entry["better"] == "higher":
        return change > parent
    return change < parent


def verdict(entry: dict, parent: list[dict], change: list[dict],
            host_drift: float) -> tuple[str, list, list]:
    """The verdict for one metric plus both sides' quartiles."""
    name, bound = entry["name"], entry["bound"]
    before = [r["e2e"][name] for r in parent]
    after = [r["e2e"][name] for r in change]
    pq, cq = quartiles(before), quartiles(after)
    spread_parent = (pq[2] - pq[0]) / pq[1]
    spread_change = (cq[2] - cq[0]) / cq[1]
    by_seed = {r["seed"]: r["e2e"][name] for r in parent}
    pairs = [(r["e2e"][name], by_seed[r["seed"]])
             for r in change if r["seed"] in by_seed]
    wins = sum(1 for c, p in pairs if _better(entry, c, p))
    all_better = all(_better(entry, c, p) for c in after for p in before)
    if entry["better"] == "higher":
        worsening = (pq[1] - cq[1]) / pq[1]
    else:
        worsening = (cq[1] - pq[1]) / pq[1]
    if entry["unit"] in TIMED_UNITS and host_drift > bound:
        result = "unresolved (host drift)"
    elif (pairs and wins >= 0.9 * len(pairs)
          and abs(cq[1] - pq[1]) > pq[2] - pq[0]
          and _better(entry, cq[1], pq[1])):
        result = "improved"
    elif worsening > bound:
        result = "worse"
    elif max(spread_parent, spread_change) > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return result, pq, cq


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parent, change = load(argv[0]), load(argv[1])
    gated = {entry["name"] for entry in spec["end_to_end"]}
    worse = False
    for workload in sorted(set(parent) & set(change)):
        before, after = parent[workload], change[workload]
        scores = [
            median(r["host"]["calibration_ops_per_s"] for r in side)
            for side in (before, after)
        ]
        drift = abs(scores[1] - scores[0]) / scores[0]
        print(f"{workload}: {len(before)} parent runs, {len(after)} change "
              f"runs; host calibration {scores[0]:.4g} vs {scores[1]:.4g} "
              f"({drift:+.1%})")
        for entry in spec["end_to_end"]:
            result, pq, cq = verdict(entry, before, after, drift)
            worse |= result == "worse"
            print(f"  {entry['name']} [{entry['unit']}, {entry['better']}, "
                  f"bound {entry['bound']}]: parent {pq[1]:.6g} "
                  f"(q1 {pq[0]:.6g}, q3 {pq[2]:.6g}) change {cq[1]:.6g} "
                  f"(q1 {cq[0]:.6g}, q3 {cq[2]:.6g}) -> {result}")
        extras = sorted(
            set.intersection(*(set(r["e2e"]) for r in before + after))
            - gated)
        for name in extras:
            p = quartiles([r["e2e"][name] for r in before])[1]
            c = quartiles([r["e2e"][name] for r in after])[1]
            print(f"  {name}: parent {p:.6g} change {c:.6g} (no bound)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
