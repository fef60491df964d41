"""Each script in demos/ runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHILD_ENV

_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # The working directory is tmp_path: spin_flip_sweep writes its CSVs there.
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=CHILD_ENV, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
