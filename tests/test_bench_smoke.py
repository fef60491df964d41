"""Smoke test of the benchmark harness: one short run of each checked workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# cli_process runs one whole cycle of eval/compare processes (about 6 s); its check
# compares the CLI's JSON for comma- and term-form literals with the library's result.
# scalar_mix (about 3 s) checks the closed forms, the inverse and the remap against the
# float reference and the 50-digit oracle; spin_sweep (about 5 s) checks that both sweep
# methods repeat bit for bit and the stepped one against the 50-digit oracle.
@pytest.mark.parametrize("workload", ["series_compare", "scalar_mix", "spin_sweep", "cli_process"])
def test_workload_run_passes_and_reports_the_declared_metrics(workload):
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0.2", "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
