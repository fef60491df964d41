"""Runs the ``cl3`` command line as ``python -m cl3.cli`` does, traced.

The traced run of the ``cli_process`` workload starts this file in place of
``python -m cl3.cli``.  It wraps the library's public functions (see
``tracing.py``), runs the command, and writes one ``BENCH_TRACE <json>``
line to stderr with the import time of ``cl3.cli`` and the span totals.

    python3 bench/cli_child.py eval --fn exp --mv "1,2,3,4,5,6,7,8" --format json
"""

import json
import sys
import time

start = time.perf_counter()
import cl3.cli  # noqa: E402

import_ms = (time.perf_counter() - start) * 1e3

from tracing import Tracer  # noqa: E402

tracer = Tracer(span_limit=0)
tracer.install()
try:
    code = cl3.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    print("BENCH_TRACE " + json.dumps({"import_ms": import_ms, "stats": tracer.stats}), file=sys.stderr)
sys.exit(code)
