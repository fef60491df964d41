"""The cl3 benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload scalar_mix --seed 1 --seconds 25 --trace 0

Run from anywhere in a checkout that holds ``src/cl3``; nothing is
installed.  One process issues every call, single-threaded, as a closed
loop: the next call starts when the previous one has returned.  BLAS and
OpenMP threads are capped at the number of usable CPUs.

A run:

1. measures set-up (``setup_s``) in fresh interpreters, ``SETUP_REPEATS``
   times after one discarded start, and keeps the median;
2. builds the workload's inputs from ``--seed`` and warms up;
3. repeats the workload's op cycle for ``--seconds`` (and at least one full
   pass), timing each op; with ``--trace 1`` the first half runs untraced
   and the second half with every public ``cl3`` function wrapped;
4. checks the outputs and measures accuracy against the mpmath oracle,
   both after timing stops.

Latency percentiles are Harrell-Davis estimates (see ``_quantile``).

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones.  The line before it records the environment and the input
mix, and a report with the same content plus notes and a span sample is
written to ``bench/out/``.  The exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("scalar_mix", "series_compare", "spin_sweep", "cli_process")

# ROADMAP's baseline table in microseconds per call (low, high), and the
# noise it states for those numbers.
BASELINE = {
    "algebra.geometric_product": (11.0, 15.0),
    "exponential.exp.cl30": (47.0, 47.0),
    "exponential.exp.cl12": (47.0, 47.0),
    "exponential.exp.cl03": (26.0, 28.0),
    "exponential.exp.cl21": (26.0, 28.0),
    "algebra.inverse": (123.0, 123.0),
    "functions.ratio_exact.tan": (431.0, 431.0),
    "spin.sweep_ramp.stepped": (0.99e6, 0.99e6),
    "spin.sweep_ramp.closed": (280.0, 280.0),
}
BASELINE_NOISE = 0.15


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPUs before numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)
    return cap


def _environment(cap: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": cap,
        "git_commit": commit,
        "loop": "closed, 1 caller, single-threaded",
    }


def _steal_ticks() -> int:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def _quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics with Beta((n+1)q, (n+1)(1-q))
    weights.  When a shared host switches speed during a run, latencies
    split into two groups and the single middle sample jumps between them
    from run to run; this estimate moves smoothly instead.  For large
    samples it equals the sample quantile to within a fraction of a percent.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def _setup_seconds(workload: str) -> float:
    """Median set-up time over fresh interpreters; the first start is discarded
    because it may compile bytecode and fill the file cache."""
    from workloads import child_env, run_child

    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS + 1):
        code, out, err, _ = run_child([sys.executable, str(BENCH / "setup_probe.py"), workload], env)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        times.append(float(out.strip()))
    return statistics.median(times[1:])


def _timed_loop(ops, seconds, keep_all, tracer=None):
    """Repeat the op cycle until ``seconds`` have passed and one pass is done.

    Returns per-op latencies, the kept outputs and the ops they belong to,
    the count of unexpected exceptions, and the elapsed time.
    """
    n = len(ops)
    latencies = array("d")
    kept, kept_ops = [], []
    unexpected = 0
    clock = time.perf_counter
    i = 0
    start = end = clock()
    deadline = start + seconds
    while end < deadline or i < n:
        op = ops[i % n]
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = op.call(*op.args)
        except Exception as err:  # classified below; checks report it
            out = err
        end = clock()
        latencies.append(end - t0)
        if isinstance(out, Exception) and not isinstance(out, op.expect):
            unexpected += 1
        if i < n or keep_all:
            kept.append(out)
            kept_ops.append(op)
        i += 1
    return latencies, kept, kept_ops, unexpected, end - start


def _layer_metrics(tracer, ops_traced, overhead_frac, extras, digits, wrap_cost, cli_info):
    from tracing import layer_keys

    metrics = {}
    for key in layer_keys():
        calls, self_s, _, _ = tracer.stats.get(key, (0, 0.0, 0.0, 0))
        metrics[f"{key}.calls_per_op"] = (calls / ops_traced, "count")
        metrics[f"{key}.self_us_per_op"] = (self_s * 1e6 / ops_traced, "us")
    metrics["cli.import_ms"] = (cli_info.get("import_ms", 0.0), "ms")
    metrics["cli.interpreter_floor_ms"] = (cli_info.get("floor_ms", 0.0), "ms")
    shares = extras.get("branch_share", {})
    for branch in ("generic", "plus_degenerate", "minus_degenerate", "both_degenerate"):
        metrics[f"exponential.branch_share.{branch}"] = (shares.get(branch, 0.0), "share")
    metrics["exponential.digits_below_12"] = (sum(d < 12.0 for d in digits), "count")
    metrics["algebra.inverse.noninvertible_share"] = (extras.get("noninvertible_share", 0.0), "share")
    metrics["series.converged_share"] = (extras.get("converged_share", 0.0), "share")
    metrics["trace.overhead_frac"] = (overhead_frac, "share")
    notes = []
    for row, (lo, hi) in BASELINE.items():
        calls, _, incl_s, descendants = tracer.stats.get(row, (0, 0.0, 0.0, 0))
        # Inclusive time less the cost of the wrappers on descendant calls.
        us = (incl_s - descendants * wrap_cost) * 1e6 / calls if calls else 0.0
        metrics[f"baseline.{row}.us_per_call"] = (us, "us")
        if calls and not lo * (1 - BASELINE_NOISE) <= us <= hi * (1 + BASELINE_NOISE):
            listed = f"{lo:g}" if lo == hi else f"{lo:g}-{hi:g}"
            notes.append(f"{row}: {us:.4g} us per call, ROADMAP lists {listed} us (outside +-15%)")
    return metrics, notes


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the report."""
    cap = _cap_threads()
    sys.path.insert(1, str(SRC))
    import workloads
    from tracing import Tracer, wrapper_cost

    wl = workloads.WORKLOADS[workload]
    info = _environment(cap)
    setup_s = None if trace else _setup_seconds(workload)

    ops = wl.build(seed)
    info["input_classes"] = {
        cls: sum(op.cls == cls for op in ops) / len(ops) for cls in sorted({op.cls for op in ops})
    }
    info["ops_per_pass"] = len(ops)
    wl.warmup()
    if workload == "cli_process":
        ops[0].call(*ops[0].args)  # one child start, to fill the file cache

    cli_info = {}
    if trace:
        half = seconds / 2.0
        lat, _, _, unexpected, elapsed = _timed_loop(ops, half, wl.keep_all)
        untraced_rate = len(lat) / elapsed
        tracer = Tracer()
        wl.traced = True
        tracer.install()
        try:
            lat_t, kept, kept_ops, unexpected_t, elapsed_t = _timed_loop(ops, half, wl.keep_all, tracer)
        finally:
            tracer.uninstall()
            wl.traced = False
        attempted = len(lat) + len(lat_t)
        unexpected += unexpected_t
        overhead_frac = 1.0 - (len(lat_t) / elapsed_t) / untraced_rate
        if workload == "cli_process":
            kept = [_strip_child_trace(out, tracer, cli_info) for out in kept]
            cli_info["import_ms"] = statistics.median(cli_info.pop("import_list"))
            cli_info["floor_ms"] = _interpreter_floor_ms()
    else:
        steal = _steal_ticks()
        lat, kept, kept_ops, unexpected, elapsed = _timed_loop(ops, seconds, wl.keep_all)
        # Share of the machine's CPU time stolen by other guests while timing:
        # a slow run on a shared host shows here.
        ticks = os.sysconf("SC_CLK_TCK") * elapsed * info["nproc"]
        info["steal_share"] = (_steal_ticks() - steal) / ticks
        attempted = len(lat)
        if workload == "cli_process":
            rss_kib = max(out[3] for out in kept if isinstance(out, tuple))
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = wl.check(kept_ops, kept)
    digits, coverage = wl.oracle(seed, kept_ops, kept)
    failures += coverage
    extras = wl.layer_extras(kept_ops, kept)
    failed = unexpected + len(failures)
    info["error_rate"] = failed / attempted
    info["layer_extras"] = extras
    info["accurate_digits"] = digits

    if trace:
        metrics, notes = _layer_metrics(tracer, len(lat_t), overhead_frac, extras, digits,
                                        wrapper_cost(), cli_info)
        info["baseline_notes"] = notes
        info["traced_ops"] = len(lat_t)
    else:
        metrics = {
            "throughput_ops_s": (attempted / elapsed, "1/s"),
            "latency_p50_us": (_quantile(lat, 0.5) * 1e6, "us"),
            "latency_tail_us": (_quantile(lat, wl.tail_pct / 100.0) * 1e6, "us"),
            "setup_s": (setup_s, "s"),
            "accurate_digits_min": (min(digits) if digits else float("nan"), "digits"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        }
        info["latency_tail_pct"] = wl.tail_pct
        by_kind = {}
        for i, taken in enumerate(lat):
            op = ops[i % len(ops)]
            by_kind.setdefault(f"{op.kind}.{op.alg}", []).append(taken)
        info["latency_p50_us_by_kind"] = {k: statistics.median(v) * 1e6 for k, v in sorted(by_kind.items())}
        info["latency_samples"] = attempted
        if not digits:
            failures.append("no oracle sample was measured")
            failed += 1

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "info": info, "failures": failures[:50], "result": result}
    if trace:
        report["spans"] = tracer.spans
        report["stats"] = tracer.stats
    return result, report


def _strip_child_trace(out, tracer, cli_info):
    """Fold a traced child's span totals into ``tracer``; return the output
    as the untraced command would have given it."""
    if not isinstance(out, tuple):
        return out
    code, stdout, stderr, rss = out
    lines = stderr.splitlines(keepends=True)
    rest = []
    for line in lines:
        if line.startswith("BENCH_TRACE "):
            data = json.loads(line[len("BENCH_TRACE "):])
            tracer.merge(data["stats"])
            cli_info.setdefault("import_list", []).append(data["import_ms"])
        else:
            rest.append(line)
    return code, stdout, "".join(rest), rss


def _interpreter_floor_ms(repeats: int = 5) -> float:
    """Median wall time of a fresh ``python -c pass``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cl3" / "__init__.py").is_file():
        print(f"error: no cl3 sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str))
    for failure in report["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for note in report["info"].get("baseline_notes", []):
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps({"info": report["info"]}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
