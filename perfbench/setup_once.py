"""Import the program and set up one workload, then exit.

``run.py`` starts this in a fresh process several times: the time from the
start of the process to the ``ready`` line is one sample of set-up time.
The line also carries the speed this process ran at (see ``speed.py``).

    python3 perfbench/setup_once.py <workload> <seed>
"""

import sys
from pathlib import Path

from speed import SpeedProbe

with SpeedProbe() as probe:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.build_workload(sys.argv[1], int(sys.argv[2]))
print(f"ready {probe.factor()!r}", flush=True)
