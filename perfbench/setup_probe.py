"""Child process of the ``setup_s`` measurement.

``python3 perfbench/setup_probe.py WORKLOAD WORKDIR [--small]`` imports the
program, builds what the workload builds before its first request, prints
``ready`` and then waits for its standard input to close before it
exits.  The parent times the span from spawning it to reading ``ready``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, stop_resource_tracker  # noqa: E402


def main() -> int:
    name, workdir = sys.argv[1], sys.argv[2]
    workload = WORKLOADS[name](Path(workdir), seed=0, small="--small" in sys.argv[3:])
    try:
        workload.start()
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main())
