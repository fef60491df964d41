"""Set-up time of one workload in a fresh interpreter.

Prints the seconds from ``import cl3`` through one warm-up call of each of
the workload's op kinds.  numpy is imported first and not counted, since
every caller of the library has it loaded already.

    python3 bench/setup_probe.py scalar_mix
"""

import sys
import time
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401

start = time.perf_counter()
import cl3  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].warmup()
print(repr(time.perf_counter() - start))
