"""Set-up probe: one fresh interpreter imports the program, sets up a
workload and prints the seconds that took.

    python3 perfbench/probe.py <workload> <seed>
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402

from run import make_workload  # noqa: E402

if __name__ == "__main__":
    make_workload(sys.argv[1], int(sys.argv[2])).setup()
    print(time.perf_counter() - _T0)
