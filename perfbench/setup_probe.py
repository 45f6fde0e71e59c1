"""One fresh-process set-up, timed by the parent: ``setup_probe.py WORKLOAD``.

Runs the workload's set-up (imports, context warm-up, policy compile,
pool start) exactly as a benchmark run does, prints ``ready`` when the
first timed operation could start, then tears down and exits. The
parent times from spawn to ``ready``.
"""

from __future__ import annotations

import sys

from common import use_checkout_sources


def main(workload: str) -> None:
    use_checkout_sources()
    if workload == "pipeline-booter":
        import pipeline_workload as module

        module.setup(0)
        print("ready", flush=True)
        return
    import ops_workloads as module

    module.setup(workload, 0)
    print("ready", flush=True)
    module.teardown()


if __name__ == "__main__":
    main(sys.argv[1])
