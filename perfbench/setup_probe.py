"""Set-up time of a fresh process: import fracground, build the problem, validate once.

    python3 perfbench/setup_probe.py <src-dir> <workload>

Prints the seconds taken, measured from before the import.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import workloads  # noqa: E402  (imports fracground, numpy and scipy)

workloads.setup(sys.argv[2])
print(repr(time.perf_counter() - t0))
