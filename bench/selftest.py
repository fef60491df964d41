"""Fast self-test of the benchmark itself (one pass of each op cycle).

    python3 bench/selftest.py

For every workload it runs ``run.py`` untraced and traced at a tiny
duration and checks that the run passes and reports exactly the metrics
``BENCHMARK.json`` names, each with its unit.  Then, in this process, it
perturbs one library result per workload by a relative 1e-6 and checks
that the run fails.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
SECONDS = "0.1"
PERTURB = 1.0 + 1e-6


def _expect(cond: bool, message: str) -> None:
    if not cond:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_metrics(workload: str, trace: int) -> None:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    _expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(result)}")
    _expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
            f"{workload} trace={trace}: {result['attempted']} attempted, {result['failed']} failed")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    _expect(got == want, f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
            f"units {[(k, got[k], want[k]) for k in want.keys() & got.keys() if got[k] != want[k]]}")
    for name, m in result["metrics"].items():
        _expect(isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), f"{workload}: {name} = {m['value']}")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} ops")


def check_corruption() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import cl3
    import run

    def scaled(fn, pick=lambda out: out, rebuild=lambda out, new: new):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            target = pick(out)
            return rebuild(out, type(target)(target.sig, target.c * PERTURB))
        return wrapper

    def stepped_closed_shift(fn):
        def wrapper(sweep, sigma, method="closed"):
            trace = fn(sweep, sigma, method)
            if method != "closed":
                return trace
            return cl3.ProbabilityTrace(trace.times, trace.b0, trace.p_down * PERTURB)
        return wrapper

    cases = {
        "scalar_mix": ("exp", lambda f: scaled(f)),
        "series_compare": ("series_eval", lambda f: scaled(f, lambda out: out[0], lambda out, new: (new, out[1]))),
        "spin_sweep": ("sweep_ramp", stepped_closed_shift),
        "cli_process": ("exp", lambda f: scaled(f)),
    }
    for workload, (name, corrupt) in cases.items():
        original = getattr(cl3, name)
        setattr(cl3, name, corrupt(original))
        try:
            result, report = run.run(workload, SEED, float(SECONDS), False)
        finally:
            setattr(cl3, name, original)
        _expect(result["correct"] is False and result["failed"] > 0,
                f"{workload}: a perturbed cl3.{name} result went unnoticed")
        print(f"ok  {workload}: perturbed cl3.{name} fails the run ({result['failed']} failed)")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace)
    check_corruption()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
